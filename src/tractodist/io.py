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
    kind    klen      UTF-8 kind string, str(kind)
    d       4 bytes   uint32 prototype count
    protos  8*d       uint64 prototype indices
    N       8 bytes   uint64 row count (>= 1)
    then N x d float64 row-major distances (finite, >= 0)

Coordinates are float64 in memory and float32 on disk, so writing
quantizes once; reading an already-quantized tractogram back is
bit-exact. Readers validate every declared count against the bytes
actually present before allocating, and reject corruption with the
specific errors below (never a bare struct/ValueError).
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .distances import DistanceKind, distance_matrix, parse_kind
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
from .model import BundleRef, Tractogram, _distinct_mask, build_streamline
from .segmentation import DEFAULT_VOXEL_SIZE

TRGX_MAGIC = b"TRGX\x00\x00\x00\x01"
EMBD_MAGIC = b"EMBD\x00\x00\x00\x01"


@dataclass(frozen=True)
class TrgxFile:
    """A decoded TRGX file: the tractogram plus its grid header."""

    tractogram: Tractogram
    voxel_size: float
    origin: tuple[float, float, float]


def write_atomic(path, data: bytes) -> None:
    """Write data to path all at once or not at all.

    The bytes go to a temporary file in the destination directory, which
    then replaces path. If anything fails, path keeps its earlier contents
    and the temporary file is removed.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "xb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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
    voxel_size: float = DEFAULT_VOXEL_SIZE,
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0),
) -> None:
    """Write a tractogram as TRGX, quantizing coordinates to float32."""
    if len(t) == 0:
        raise EmptyTractogram("refusing to write a tractogram with zero streamlines")
    with np.errstate(over="ignore"):  # overflow is detected and reported below
        header = np.asarray([voxel_size, *origin], dtype="<f4")
        pts = t.points.astype("<f4")
    if not np.all(np.isfinite(header)):
        raise NonFiniteCoordinate("voxel_size/origin do not fit in finite float32")
    if not np.all(np.isfinite(pts)):
        raise NonFiniteCoordinate("coordinates overflow float32")
    # Each streamline's uint32 point count goes before its first coordinate.
    words = np.insert(pts.view("<u4").ravel(), 3 * t.offsets[:-1], np.diff(t.offsets))
    write_atomic(path, b"".join([TRGX_MAGIC, header.tobytes(), struct.pack("<Q", len(t)),
                                 words.tobytes()]))


def read_tractogram(path) -> TrgxFile:
    """Read a TRGX file, validating magic and all declared counts.

    Decoding takes two passes. The first walks the count words and checks
    each against the bytes present; the second converts, validates and
    collapses the points one block of streamlines at a time, straight into
    the tractogram's one point array. The error raised is the one a
    streamline-by-streamline read would raise: the first defect in file
    order wins, and trailing bytes are reported last.
    """
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
    offsets, counts, deferred = _walk_counts(path, data, cur.off, n_streamlines)
    points = np.empty((sum(counts), 3))
    kept, stop = [], 0
    for b in range(0, len(counts), _BLOCK):
        kept.append(_decode_block(data, offsets[b:b + _BLOCK], counts[b:b + _BLOCK],
                                  points[stop:]))
        stop += int(kept[-1].sum())
    if deferred is not None:
        raise deferred
    return TrgxFile(
        tractogram=Tractogram._from_counts(points[:stop], np.concatenate(kept)),
        voxel_size=float(header[0]),
        origin=(float(header[1]), float(header[2]), float(header[3])),
    )


# Streamlines decoded per array. Small blocks reuse heap that earlier
# arrays freed: in the benchmark's 10k-streamline workloads, blocks of
# 1,024 raised peak RSS by ~3.5% and of 4,096 by ~6%, while 256 matched
# the streamline-by-streamline reader at the same read time.
_BLOCK = 256


def _walk_counts(path, data: bytes, off: int, n_streamlines: int):
    """Pass 1: the byte offset and point count of each complete streamline.

    Stops at the first count < 2 or truncation and returns that error
    unraised (as it does trailing bytes), so that pass 2 can first report
    a defect in an earlier streamline's points.
    """
    offsets, counts = [], []
    size = len(data)
    for i in range(n_streamlines):
        if off + 4 > size:
            return offsets, counts, TruncatedFile(
                f"file ends inside point count of streamline {i}")
        (count,) = struct.unpack_from("<I", data, off)
        if count < 2:
            return offsets, counts, CountMismatch(
                f"{path}: streamline {i} declares {count} point(s), need >= 2")
        end = off + 4 + 12 * count
        if end > size:
            return offsets, counts, TruncatedFile(
                f"file ends inside points of streamline {i}")
        offsets.append(off)
        counts.append(count)
        off = end
    if off < size:
        return offsets, counts, CountMismatch(
            f"{path}: {size - off} trailing byte(s) after declared payload")
    return offsets, counts, None


def _decode_block(data: bytes, offsets: list, counts: list, out: np.ndarray) -> np.ndarray:
    """Pass 2 on consecutive streamlines: their kept points go to the front
    of out, and their kept point counts are returned.

    Checks finiteness and collapses consecutive duplicate points for the
    whole block at once, never across a streamline boundary, with the rule
    of Streamline construction.
    """
    base = offsets[0]
    n_words = (offsets[-1] + 4 + 12 * counts[-1] - base) // 4
    words = np.frombuffer(data, dtype="<f4", count=n_words, offset=base)
    at = (np.asarray(offsets) - base) // 4  # the count words
    is_point = np.ones(n_words, dtype=bool)
    is_point[at] = False
    first = (at - np.arange(len(at))) // 3  # each streamline's first point
    pts = out[:(n_words - len(at)) // 3]
    with np.errstate(invalid="ignore"):  # signaling NaNs rejected just below
        pts.reshape(-1)[:] = words[is_point]
    # Per-coordinate flags reduced by flat index: numpy's reductions over a
    # length-3 axis are several times slower than these.
    finite = np.logical_and.reduceat(np.isfinite(pts).ravel(), 3 * first)
    keep = _distinct_mask(pts, first)
    kept = np.add.reduceat(keep, first, dtype=np.intp)
    bad = ~finite | (kept < 2)
    if bad.any():
        # The first defective streamline in the block; construction raises
        # its error (non-finite before too few points) with its message.
        k = int(np.argmax(bad))
        build_streamline(pts[first[k]:first[k] + counts[k]])
    if not keep.all():
        out[:int(kept.sum())] = pts[keep]
    return kept


# ---------------------------------------------------------------------------
# EMBD
# ---------------------------------------------------------------------------

def write_embedding(emb: EmbeddedTractogram, path) -> None:
    """Write an embedding matrix as EMBD (lossless: float64 payload)."""
    kind_bytes = str(emb.kind).encode("utf-8")
    chunks = [
        EMBD_MAGIC,
        struct.pack("<H", len(kind_bytes)),
        kind_bytes,
        struct.pack("<I", len(emb.prototypes)),
        np.asarray(emb.prototypes.indices, dtype="<u8").tobytes(),
        struct.pack("<Q", len(emb)),
        emb.vectors.astype("<f8").tobytes(),
    ]
    write_atomic(path, b"".join(chunks))


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
    # Entries are distances. Up to this bound, a squared distance between
    # two rows stays below a quarter of the float64 maximum, so the k-d
    # search cannot overflow (NaN fails both comparisons).
    bound = math.sqrt(np.finfo(np.float64).max / d) / 2
    if not (vectors.min() >= 0 and vectors.max() <= bound):
        raise HeaderMismatch(f"{path}: embedding entries must be distances in [0, {bound:.3g}]")
    protos = PrototypeSet(indices=tuple(int(i) for i in indices), kind=kind)
    return EmbeddedTractogram(vectors.astype(np.float64), protos, kind)


# Rows of a reused EMBD recomputed against the target. An EMBD built from
# another tractogram of the same size passes every header check, and even
# E[p_j, j] == 0 (a prototype is at distance 0 from itself in any tractogram).
_CHECKED_ROWS = 4


def read_embedding_for(path, target: Tractogram, kind: DistanceKind,
                       seed: int) -> EmbeddedTractogram:
    """Read an EMBD file and check that it was built from `target` with `kind`.

    The kind, the row count and the prototype indices must match the
    target, and rows drawn with `seed` must equal the distances recomputed
    on the target (rel/abs 1e-9). Any mismatch raises HeaderMismatch.
    """
    embedded = read_embedding(path)
    if embedded.kind != kind:
        raise HeaderMismatch(f"{path} holds kind {embedded.kind}, requested {kind}")
    if len(embedded) != len(target):
        raise HeaderMismatch(
            f"{path} has {len(embedded)} rows for a target of {len(target)} streamlines"
        )
    top = max(embedded.prototypes.indices)
    if top >= len(target):
        raise HeaderMismatch(
            f"{path} names prototype {top} in a target of {len(target)} streamlines"
        )
    rng = np.random.default_rng(seed)
    rows = np.sort(rng.choice(len(target), min(_CHECKED_ROWS, len(target)), replace=False))
    protos = [target[j] for j in embedded.prototypes.indices]
    fresh = distance_matrix(kind, [target[i] for i in rows], protos)
    if not np.allclose(fresh, embedded.vectors[rows], rtol=1e-9, atol=1e-9):
        raise HeaderMismatch(
            f"{path} rows {rows.tolist()} differ from the distances recomputed "
            f"on the target: it was built from another tractogram"
        )
    return embedded


# ---------------------------------------------------------------------------
# Bundle / result JSON
# ---------------------------------------------------------------------------

def read_json(path):
    """Parse a JSON file; undecodable or too deeply nested text raises MalformedJson."""
    try:
        return json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise MalformedJson(f"{path}: {exc}") from exc


def write_bundle(ref: BundleRef, path, tractogram_filename: str = "") -> None:
    """Write a bundle as JSON: {"tractogram", "name", "indices"}."""
    doc = {"tractogram": tractogram_filename, "name": ref.name, "indices": list(ref.indices)}
    write_atomic(path, (json.dumps(doc, indent=1) + "\n").encode())


def read_bundle(path, tractogram: Tractogram) -> BundleRef:
    """Read a bundle or segmentation-result JSON bound to `tractogram`.

    Bundle files carry the member indices under "indices"; segmentation
    results carry the predicted member indices under "predicted", which
    is read when "indices" is absent. Indices are validated against the
    tractogram.
    """
    doc = read_json(path)
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
