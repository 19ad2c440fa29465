"""Exception hierarchy shared by all tractodist modules.

Every error raised on purpose by this package derives from
:class:`TractodistError`, so callers (and the CLI) can distinguish
declared failure modes from genuine bugs.
"""


class TractodistError(Exception):
    """Base class for all errors raised by tractodist."""


class DataError(TractodistError):
    """An error caused by what is in (or missing from) an input; the CLI
    exits 3 on these and 4 on every other TractodistError."""


# --- geometry / model -------------------------------------------------------

class NonFiniteCoordinate(DataError):
    """A coordinate or matrix entry is NaN or infinite."""


class FewerThanTwoDistinctPoints(DataError):
    """A streamline has fewer than two distinct points after cleanup."""


class InvalidResampleCount(TractodistError):
    """Resampling requested with fewer than two points."""


# --- embedding / ann --------------------------------------------------------

class TooManyPrototypes(TractodistError):
    """More prototypes requested than candidates available."""


class KindMismatch(TractodistError):
    """Two pipeline stages were configured with different distance kinds."""


class EmptyInput(TractodistError):
    """An operation received an empty collection where >= 1 item is required."""


class DimensionMismatch(TractodistError):
    """Vector or matrix dimensions do not agree."""


# --- segmentation -----------------------------------------------------------

class EmptyExampleBundle(TractodistError):
    """Segmentation was asked to transfer an empty example bundle."""


class BothEmpty(TractodistError):
    """Dice coefficient of two empty voxel sets is undefined."""


# --- synth / bench ----------------------------------------------------------

class InvalidSpec(DataError):
    """A synthetic bundle specification violates its constraints."""


class NoQueries(TractodistError):
    """An agreement analysis ran with zero nearest-neighbor queries."""


# --- file formats -----------------------------------------------------------

class BadMagic(DataError):
    """File does not start with the expected magic bytes."""


class TruncatedFile(DataError):
    """File ends before the declared payload is complete."""


class CountMismatch(DataError):
    """A declared count disagrees with the actual payload."""


class EmptyTractogram(DataError):
    """Tractogram files must contain at least one streamline."""


class MalformedJson(DataError):
    """A JSON document is unparseable or missing required fields."""


class IndexOutOfRange(DataError):
    """A streamline index does not exist in the referenced tractogram."""


class HeaderMismatch(DataError):
    """A file header is internally inconsistent or unusable."""
