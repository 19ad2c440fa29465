"""Core streamline geometry: types, validation, resampling and flipping.

A streamline is an ordered polyline in millimeter coordinates, stored as
an immutable (n, 3) float64 array. Construction collapses consecutive
duplicate points so that downstream segment tangents always have positive
length; all other modules rely on that guarantee.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from .errors import (
    FewerThanTwoDistinctPoints,
    IndexOutOfRange,
    InvalidResampleCount,
    NonFiniteCoordinate,
)


class Streamline:
    """An ordered sequence of >= 2 distinct 3D points (millimeters).

    Instances are immutable: the underlying array is read-only and shared,
    so streamlines are safe to pass between threads.
    """

    __slots__ = ("_points",)

    def __init__(self, points):
        pts = _as_points(points)
        if not np.isfinite(pts).all():
            raise NonFiniteCoordinate("streamline contains NaN or Inf coordinates")
        pts = _collapse_consecutive_duplicates(pts)
        if len(pts) < 2:
            raise FewerThanTwoDistinctPoints(
                f"streamline needs >= 2 distinct points, got {len(pts)}"
            )
        pts.flags.writeable = False
        self._points = pts

    @classmethod
    def _from_valid(cls, pts: np.ndarray) -> "Streamline":
        # Fast path for internally produced arrays (resample, flip) and for
        # points the TRGX reader validated and collapsed in bulk: skips
        # validation and duplicate collapse so point counts are preserved.
        s = object.__new__(cls)
        pts.flags.writeable = False
        s._points = pts
        return s

    @property
    def points(self) -> np.ndarray:
        """Read-only (n, 3) float64 array of the points."""
        return self._points

    def __len__(self) -> int:
        return len(self._points)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Streamline):
            return NotImplemented
        return np.array_equal(self._points, other._points)

    def __hash__(self):
        return hash(self._points.tobytes())

    def __repr__(self) -> str:
        p = self._points
        return f"Streamline({len(p)} points, {p[0]} .. {p[-1]})"


class Tractogram:
    """An indexed, immutable collection of streamlines.

    Index i is a stable identifier for streamline i for the lifetime of
    the object.
    """

    __slots__ = ("_streamlines",)

    def __init__(self, streamlines: Iterable[Streamline]):
        sls = tuple(streamlines)
        for s in sls:
            if not isinstance(s, Streamline):
                raise TypeError(f"expected Streamline, got {type(s).__name__}")
        self._streamlines = sls

    def __len__(self) -> int:
        return len(self._streamlines)

    def __getitem__(self, i: int) -> Streamline:
        return self._streamlines[i]

    def __iter__(self):
        return iter(self._streamlines)

    def __repr__(self) -> str:
        return f"Tractogram({len(self._streamlines)} streamlines)"


class BundleRef:
    """A named subset of a tractogram, held as sorted unique indices."""

    __slots__ = ("_tractogram", "_indices", "_name")

    def __init__(self, tractogram: Tractogram, indices: Iterable[int], name: str = ""):
        idx = sorted(set(int(i) for i in indices))
        n = len(tractogram)
        for i in idx:
            if i < 0 or i >= n:
                raise IndexOutOfRange(
                    f"bundle index {i} out of range for tractogram of size {n}"
                )
        self._tractogram = tractogram
        self._indices = tuple(idx)
        self._name = name

    @property
    def tractogram(self) -> Tractogram:
        return self._tractogram

    @property
    def indices(self) -> tuple[int, ...]:
        return self._indices

    @property
    def name(self) -> str:
        return self._name

    def streamlines(self) -> list[Streamline]:
        """The referenced streamlines, in index order."""
        return [self._tractogram[i] for i in self._indices]

    def __len__(self) -> int:
        return len(self._indices)

    def __repr__(self) -> str:
        label = f" {self._name!r}" if self._name else ""
        return f"BundleRef({len(self._indices)} streamlines{label})"


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def build_streamline(raw_points) -> Streamline:
    """Validate raw points and build a streamline.

    Consecutive duplicate points are collapsed. Raises
    NonFiniteCoordinate on NaN/Inf input and FewerThanTwoDistinctPoints
    if fewer than two distinct points remain.
    """
    return Streamline(raw_points)


def arc_lengths(points: np.ndarray) -> np.ndarray:
    """Cumulative arc length at each vertex of a polyline; starts at 0."""
    seg = np.diff(points, axis=0)
    seglen = np.sqrt((seg * seg).sum(axis=1))
    out = np.empty(len(points))
    out[0] = 0.0
    np.cumsum(seglen, out=out[1:])
    return out


def points_at_arc_lengths(points: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Evaluate a polyline at the given arc-length positions.

    Positions are clipped to [0, total length]. Linear interpolation
    within segments.
    """
    cum = arc_lengths(points)
    total = cum[-1]
    ts = np.clip(np.asarray(ts, dtype=np.float64), 0.0, total)
    idx = np.searchsorted(cum, ts, side="right") - 1
    idx = np.clip(idx, 0, len(points) - 2)
    seg = points[idx + 1] - points[idx]
    seglen = cum[idx + 1] - cum[idx]
    frac = np.where(seglen > 0.0, (ts - cum[idx]) / np.where(seglen > 0.0, seglen, 1.0), 0.0)
    return points[idx] + frac[:, None] * seg


def resample(s: Streamline, m: int) -> Streamline:
    """Resample to exactly m points equally spaced by arc length.

    The first and last points of s are preserved exactly. The result has
    exactly m points even where equal-arc sampling of a direction-reversing
    polyline lands two samples on the same spot, so it bypasses the
    duplicate-collapse step of construction.
    """
    if m < 2 or int(m) != m:
        raise InvalidResampleCount(f"resample count must be an integer >= 2, got {m}")
    m = int(m)
    p = s.points
    total = arc_lengths(p)[-1]
    ts = np.linspace(0.0, total, m)
    out = points_at_arc_lengths(p, ts)
    out[0] = p[0]
    out[-1] = p[-1]
    return Streamline._from_valid(out)


def flip(s: Streamline) -> Streamline:
    """Reverse the point order. flip(flip(s)) == s."""
    return Streamline._from_valid(np.ascontiguousarray(s.points[::-1]))


def streamline_length(s: Streamline) -> float:
    """Total arc length of the polyline, in millimeters."""
    return float(arc_lengths(s.points)[-1])


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _as_points(points) -> np.ndarray:
    if isinstance(points, Streamline):
        return np.array(points.points, dtype=np.float64)
    if isinstance(points, np.ndarray):
        pts = np.array(points, dtype=np.float64)
    else:
        pts = np.array([tuple(p) for p in points], dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise FewerThanTwoDistinctPoints(
            f"expected an (n, 3) point array, got shape {pts.shape}"
        )
    return pts


def _collapse_consecutive_duplicates(pts: np.ndarray) -> np.ndarray:
    if len(pts) == 0:
        return pts
    keep = np.empty(len(pts), dtype=bool)
    keep[0] = True
    keep[1:] = (pts[1:] != pts[:-1]).any(axis=1)
    if keep.all():
        return pts
    return pts[keep]
