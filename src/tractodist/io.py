"""Bit-exact file formats: TRGX tractograms, EMBD embeddings, bundle JSON.

TRGX layout (all integers and floats little-endian):

    magic   8 bytes   b"TRGX\\x00\\x00\\x00\\x01"
    voxel   4 bytes   float32 voxel size (mm)
    origin 12 bytes   3 x float32 grid origin
    N       8 bytes   uint64 streamline count (>= 1)
    then per streamline: uint32 point count (>= 2) + count x 3 float32

EMBD layout:

    magic   8 bytes   b"EMBD\\x00\\x00\\x00\\x01"
    klen    2 bytes   uint16 length of the kind string
    kind    klen      UTF-8 kind string (full-precision parameter)
    d       4 bytes   uint32 prototype count
    protos  8*d       uint64 prototype indices
    N       8 bytes   uint64 row count (>= 1)
    then N x d float64 row-major distances

Coordinates are float64 in memory and float32 on disk, so writing
quantizes once; reading an already-quantized tractogram back is
bit-exact. Readers validate every declared count against the bytes
actually present before allocating, and reject corruption with the
specific errors below (never a bare struct/ValueError).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .distances import DistanceKind, parse_kind
from .embedding import EmbeddedTractogram, PrototypeSet
from .errors import (
    BadMagic,
    CountMismatch,
    EmptyTractogram,
    HeaderMismatch,
    IndexOutOfRange,
    MalformedJson,
    NonFiniteCoordinate,
    TruncatedFile,
)
from .model import BundleRef, Tractogram, build_streamline

TRGX_MAGIC = b"TRGX\x00\x00\x00\x01"
EMBD_MAGIC = b"EMBD\x00\x00\x00\x01"
TRGX_HEADER_BYTES = len(TRGX_MAGIC) + 4 + 12  # magic + voxel_size + origin


@dataclass(frozen=True)
class TrgxFile:
    """A decoded TRGX file: the tractogram plus its grid header."""

    tractogram: Tractogram
    voxel_size: float
    origin: tuple[float, float, float]


class _Cursor:
    """Sequential reader that fails with TruncatedFile instead of slicing short."""

    def __init__(self, data: bytes, error=TruncatedFile):
        self.data = data
        self.off = 0
        self.error = error

    def take(self, n: int, what: str) -> bytes:
        if self.off + n > len(self.data):
            raise self.error(f"file ends inside {what}")
        piece = self.data[self.off:self.off + n]
        self.off += n
        return piece

    def remaining(self) -> int:
        return len(self.data) - self.off


# ---------------------------------------------------------------------------
# TRGX
# ---------------------------------------------------------------------------

def write_tractogram(
    t: Tractogram,
    path,
    voxel_size: float = 1.25,
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0),
) -> None:
    """Write a tractogram as TRGX, quantizing coordinates to float32."""
    if len(t) == 0:
        raise EmptyTractogram("refusing to write a tractogram with zero streamlines")
    with np.errstate(over="ignore"):  # overflow is detected and reported below
        header = np.asarray([voxel_size, *origin], dtype="<f4")
    if not np.all(np.isfinite(header)):
        raise NonFiniteCoordinate("voxel_size/origin do not fit in finite float32")
    chunks = [TRGX_MAGIC, header.tobytes(), struct.pack("<Q", len(t))]
    for s in t:
        with np.errstate(over="ignore"):
            pts = s.points.astype("<f4")
        if not np.all(np.isfinite(pts)):
            raise NonFiniteCoordinate("coordinates overflow float32")
        chunks.append(struct.pack("<I", len(pts)))
        chunks.append(pts.tobytes())
    Path(path).write_bytes(b"".join(chunks))


def read_tractogram(path) -> TrgxFile:
    """Read a TRGX file, validating magic and all declared counts."""
    data = Path(path).read_bytes()
    cur = _Cursor(data)
    if cur.take(len(TRGX_MAGIC), "magic") != TRGX_MAGIC:
        raise BadMagic(f"{path}: not a TRGX file")
    header = np.frombuffer(cur.take(16, "header"), dtype="<f4")
    if not np.all(np.isfinite(header)):
        raise NonFiniteCoordinate(f"{path}: non-finite voxel_size/origin")
    (n_streamlines,) = struct.unpack("<Q", cur.take(8, "streamline count"))
    if n_streamlines == 0:
        raise EmptyTractogram(f"{path}: declares zero streamlines")
    streamlines = []
    for i in range(n_streamlines):
        (count,) = struct.unpack("<I", cur.take(4, f"point count of streamline {i}"))
        if count < 2:
            raise CountMismatch(f"{path}: streamline {i} declares {count} point(s), need >= 2")
        raw = cur.take(12 * count, f"points of streamline {i}")
        with np.errstate(invalid="ignore"):  # signaling NaNs rejected just below
            pts = np.frombuffer(raw, dtype="<f4").reshape(count, 3).astype(np.float64)
        streamlines.append(build_streamline(pts))
    if cur.remaining():
        raise CountMismatch(f"{path}: {cur.remaining()} trailing byte(s) after declared payload")
    return TrgxFile(
        tractogram=Tractogram(streamlines),
        voxel_size=float(header[0]),
        origin=(float(header[1]), float(header[2]), float(header[3])),
    )


# ---------------------------------------------------------------------------
# EMBD
# ---------------------------------------------------------------------------

def _kind_header_string(kind: DistanceKind) -> str:
    # Full-precision parameter so the header parses back to the same kind;
    # the one-decimal display form would alias nearby sigmas.
    if kind.param is None:
        return kind.tag
    if isinstance(kind.param, int):
        return f"{kind.tag}-{kind.param}"
    return f"{kind.tag}-{kind.param!r}"


def write_embedding(emb: EmbeddedTractogram, path) -> None:
    """Write an embedding matrix as EMBD (lossless: float64 payload)."""
    kind_bytes = _kind_header_string(emb.kind).encode("utf-8")
    chunks = [
        EMBD_MAGIC,
        struct.pack("<H", len(kind_bytes)),
        kind_bytes,
        struct.pack("<I", len(emb.prototypes)),
        np.asarray(emb.prototypes.indices, dtype="<u8").tobytes(),
        struct.pack("<Q", len(emb)),
        emb.vectors.astype("<f8").tobytes(),
    ]
    Path(path).write_bytes(b"".join(chunks))


def read_embedding(path) -> EmbeddedTractogram:
    """Read an EMBD file; any structural violation raises HeaderMismatch."""
    data = Path(path).read_bytes()
    cur = _Cursor(data, error=HeaderMismatch)
    if cur.take(len(EMBD_MAGIC), "magic") != EMBD_MAGIC:
        raise HeaderMismatch(f"{path}: not an EMBD file")
    (klen,) = struct.unpack("<H", cur.take(2, "kind length"))
    try:
        kind = parse_kind(cur.take(klen, "kind string").decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise HeaderMismatch(f"{path}: bad kind string: {exc}") from exc
    (d,) = struct.unpack("<I", cur.take(4, "prototype count"))
    if d == 0:
        raise HeaderMismatch(f"{path}: zero prototypes")
    indices = np.frombuffer(cur.take(8 * d, "prototype indices"), dtype="<u8")
    if len(np.unique(indices)) != d:
        raise HeaderMismatch(f"{path}: duplicate prototype indices")
    (n_rows,) = struct.unpack("<Q", cur.take(8, "row count"))
    if n_rows == 0:
        raise HeaderMismatch(f"{path}: zero embedding rows")
    payload = cur.take(8 * d * n_rows, "embedding matrix")
    if cur.remaining():
        raise HeaderMismatch(f"{path}: {cur.remaining()} trailing byte(s)")
    vectors = np.frombuffer(payload, dtype="<f8").reshape(n_rows, d)
    if not np.all(np.isfinite(vectors)):
        raise HeaderMismatch(f"{path}: non-finite embedding entries")
    protos = PrototypeSet(indices=tuple(int(i) for i in indices), kind=kind)
    return EmbeddedTractogram(vectors.astype(np.float64), protos, kind)


# ---------------------------------------------------------------------------
# Bundle / result JSON
# ---------------------------------------------------------------------------

def write_bundle(ref: BundleRef, path, tractogram_filename: str = "") -> None:
    """Write a bundle as JSON: {"tractogram", "name", "indices"}."""
    doc = {"tractogram": tractogram_filename, "name": ref.name, "indices": list(ref.indices)}
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def read_bundle(path, tractogram: Tractogram) -> BundleRef:
    """Read a bundle or segmentation-result JSON bound to `tractogram`.

    Bundle files carry the member indices under "indices"; segmentation
    results carry the predicted member indices under "predicted", which
    is read when "indices" is absent. Indices are validated against the
    tractogram.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedJson(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedJson(f"{path}: expected a JSON object")
    key = "indices" if "indices" in doc else "predicted"
    indices = doc.get(key)
    if not isinstance(indices, list) or any(
        isinstance(i, bool) or not isinstance(i, int) for i in indices
    ):
        raise MalformedJson(f"{path}: {key!r} must be a list of integers")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise MalformedJson(f"{path}: 'name' must be a string")
    return BundleRef(tractogram, indices, name=name)
