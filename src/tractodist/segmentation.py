"""Supervised nearest-neighbor bundle segmentation and voxel-level scoring.

Given an expert-segmented example bundle from one subject, the predicted
bundle in a co-registered target tractogram is the set of embedded-space
nearest neighbors of the example streamlines. Quality is assessed as the
Dice coefficient between the voxel sets crossed by predicted and true
bundles.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .ann import KdTree
from .distances import DistanceKind, distance_matrix
from .embedding import (
    DEFAULT_PROTOTYPE_COUNT,
    EmbeddedTractogram,
    embed_tractogram,
    select_prototypes_sff,
)
from .errors import BothEmpty, EmptyExampleBundle, IndexOutOfRange, InvalidSpec, KindMismatch
from .model import (
    _PAD_ROWS,
    BundleRef,
    Tractogram,
    _pad_polylines,
    _sample,
    arc_lengths,
)

DEFAULT_VOXEL_SIZE = 1.25  # mm

# Most samples voxelize takes on one streamline (a 655 m walk at the default
# voxel size peaks at ~250 MB); a longer walk is rejected before allocation.
MAX_VOXEL_SAMPLES = 2 ** 20

# voxelize takes the arc lengths of _PAD_ROWS streamlines in one padded
# array, then walks them in blocks of at most _VOXEL_BLOCK_SAMPLES padded
# samples (a longer streamline is a block by itself). The cap counts
# samples, not streamlines, so the walk's transient arrays stay near 1 MB
# whatever the lengths: blocks of 64 streamlines (~17k samples) raised the
# benchmark's paper200 peak RSS by 1.6 MB, blocks of 8192 samples by 0.4.
_VOXEL_BLOCK_SAMPLES = 8192
_INT64_BOUND = 2.0 ** 63  # int64 holds exactly the integral floats in [-bound, bound)
_INT64_MAX = np.iinfo(np.int64).max


@dataclass(frozen=True)
class VoxelGrid:
    """Isotropic voxel grid: origin in mm and edge length in mm."""

    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)
    voxel_size: float = DEFAULT_VOXEL_SIZE

    def __post_init__(self):
        try:
            origin = np.asarray(self.origin, dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            origin = None
        if origin is None or origin.shape != (3,) or not np.isfinite(origin).all():
            raise InvalidSpec(f"voxel grid origin must be 3 finite numbers, got {self.origin!r}")
        if not 0 < self.voxel_size < math.inf:
            raise InvalidSpec(f"voxel size must be finite and positive, got {self.voxel_size}")


class VoxelSet:
    """Distinct voxel indices (i, j, k) of a grid.

    rows is a read-only (V, 3) int64 array in lexicographic order. A
    VoxelSet iterates as (i, j, k) tuples of Python ints, so set(v) is the
    same voxels as a Python set, and compares equal to another VoxelSet or
    to a set or frozenset of those tuples, from either side of ==. Built
    from any iterable of (i, j, k) or a (V, 3) integer array, sorting and
    dropping duplicates.
    """

    __slots__ = ("_rows",)

    def __init__(self, voxels=()):
        if not isinstance(voxels, np.ndarray):
            voxels = list(voxels)
        rows = _distinct_rows(np.asarray(voxels, dtype=np.int64).reshape(-1, 3))
        rows.flags.writeable = False
        self._rows = rows

    @property
    def rows(self) -> np.ndarray:
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self):
        return map(tuple, self._rows.tolist())

    def __eq__(self, other) -> bool:
        if isinstance(other, VoxelSet):
            return np.array_equal(self._rows, other._rows)
        if isinstance(other, (set, frozenset)):
            return len(other) == len(self) and other == set(self)
        return NotImplemented

    __hash__ = None  # equal to a set, which is unhashable

    def __repr__(self) -> str:
        return f"VoxelSet({len(self)} voxels)"


@dataclass(frozen=True)
class SegmentationResult:
    """Predicted bundle plus per-query diagnostics.

    per_query is ordered by example streamline index; multiplicity counts
    how many example streamlines selected each target index, and sums to
    the example bundle size.
    """

    predicted: BundleRef
    multiplicity: dict[int, int]
    per_query: tuple[tuple[int, int, float], ...]
    kind: DistanceKind
    prototype_count: int
    example_indices: tuple[int, ...] = ()

    def to_json_dict(self) -> dict:
        """JSON-ready document; all indices as decimal integers."""
        return {
            "kind": str(self.kind),
            "prototype_count": self.prototype_count,
            "example": list(self.example_indices),
            "predicted": list(self.predicted.indices),
            "multiplicity": {str(k): v for k, v in sorted(self.multiplicity.items())},
            "per_query": [[e, t, d] for e, t, d in self.per_query],
            "name": self.predicted.name,
        }


def prepare_target(
    target: Tractogram,
    kind: DistanceKind,
    prototype_count: int = DEFAULT_PROTOTYPE_COUNT,
    subset_size: int | None = None,
    rng_seed: int = 0,
) -> tuple[EmbeddedTractogram, KdTree]:
    """Select prototypes on the target, embed it, and index it.

    Convenience wrapper for the query side of the pipeline; segment()
    accepts the two return values directly.
    """
    protos = select_prototypes_sff(target, kind, prototype_count,
                                   subset_size=subset_size, rng_seed=rng_seed)
    embedded = embed_tractogram(target, protos, target, kind)
    tree = KdTree(embedded.vectors)
    return embedded, tree


def segment(
    example: BundleRef,
    target_embedded: EmbeddedTractogram,
    target_tree: KdTree,
    protos_source: Tractogram,
    kind: DistanceKind,
) -> SegmentationResult:
    """Transfer the example bundle onto the target by embedded-space NN.

    All example streamlines are embedded against the target's prototypes
    in one distance_matrix call, and all are matched to their exact nearest
    neighbors in the target's embedding by one kd-tree query. The predicted
    bundle is the deduplicated set of matches; multiplicities are kept for
    diagnostics.
    """
    if len(example) == 0:
        raise EmptyExampleBundle("example bundle has no streamlines")
    if kind != target_embedded.kind:
        raise KindMismatch(
            f"query kind {kind} != target embedding kind {target_embedded.kind}"
        )
    if target_tree.dimension != target_embedded.dimension:
        raise KindMismatch(
            f"tree dimension {target_tree.dimension} != embedding dimension "
            f"{target_embedded.dimension}"
        )
    if len(target_tree) != len(target_embedded):
        raise KindMismatch(
            f"tree holds {len(target_tree)} vectors but the embedding has "
            f"{len(target_embedded)} rows"
        )

    protos = target_embedded.prototypes
    queries = distance_matrix(kind, example.tractogram.take(example.indices),
                              protos_source.take(protos.indices))
    ids, dists, _ = target_tree.nearest_many(queries)
    picks = ids.tolist()
    per_query = tuple(zip(example.indices, picks, dists.tolist()))
    multiplicity: dict[int, int] = {}
    for t_idx in picks:
        multiplicity[t_idx] = multiplicity.get(t_idx, 0) + 1

    # Embedding rows index the target tractogram; in this pipeline the
    # prototype source is the target itself, so it anchors the result.
    predicted = BundleRef(protos_source, multiplicity.keys(), name=example.name)
    return SegmentationResult(
        predicted=predicted,
        multiplicity=multiplicity,
        per_query=per_query,
        kind=kind,
        prototype_count=len(protos),
        example_indices=example.indices,
    )


def voxelize(bundle: BundleRef, tractogram: Tractogram, grid: VoxelGrid) -> VoxelSet:
    """The voxels crossed by the bundle's streamlines.

    Each streamline is walked at arc-length steps of half a voxel edge
    (both endpoints included); each sample maps to
    floor((p - origin) / voxel_size) per axis. A half-edge step cannot
    skip a voxel the sampled path passes through for longer than the step.
    Streamlines are walked in padded blocks, one coordinate plane at a
    time, by model._sample, the walk that resampling uses, so every sample
    is the one-streamline walk's.

    Raises IndexOutOfRange for an index past the tractogram, and
    InvalidSpec for a walk of more than MAX_VOXEL_SAMPLES samples or a
    voxel index outside int64, for the first such streamline in bundle
    order.
    """
    step = grid.voxel_size / 2.0
    origin = np.asarray(grid.origin, dtype=np.float64)
    blocks = [np.empty((0, 3), dtype=np.int64)]  # each block's distinct voxels
    n = len(tractogram)
    indices = bundle.indices
    valid = bisect_left(indices, n)  # indices are sorted
    for lo in range(0, valid, _PAD_ROWS):
        ids = indices[lo:min(lo + _PAD_ROWS, valid)]
        points, last = _pad_polylines(tractogram, np.array(ids))
        cum = arc_lengths(points)
        planes = np.ascontiguousarray(np.moveaxis(points, -1, 0))  # (3, b, n)
        with np.errstate(over="ignore"):
            ratio = cum[:, -1] / step
        too_long = np.flatnonzero(ratio > MAX_VOXEL_SAMPLES)
        walked = int(too_long[0]) if too_long.size else len(ids)
        # Samples before the end point: the length of np.arange(0, total, step).
        before = np.ceil(ratio[:walked])
        rows = max(1, _VOXEL_BLOCK_SAMPLES // int(before.max(initial=0) + 1))
        for r in range(0, walked, rows):
            b = slice(r, min(r + rows, walked))
            # Positions pos * step for pos < before, then the end; past a
            # row's end they repeat its end point.
            pos = np.arange(before[b].max() + 1)
            ts = np.where(pos < before[b, None], pos * step, cum[b, -1:])
            # One row of samples per axis.
            floored = _sample(planes[:, b], cum[b], last[b], ts,
                              np.empty((3, *ts.shape))).reshape(3, -1)
            floored -= origin[:, None]
            with np.errstate(over="ignore"):
                floored /= grid.voxel_size
            np.floor(floored, out=floored)
            if not (floored.min() >= -_INT64_BOUND and floored.max() < _INT64_BOUND):
                inside = ((floored >= -_INT64_BOUND) & (floored < _INT64_BOUND)).all(axis=0)
                first = int(np.argmin(inside.reshape(b.stop - r, -1).all(axis=1)))
                raise InvalidSpec(f"streamline {ids[r + first]} reaches a voxel "
                                  f"index outside int64 at voxel size {grid.voxel_size:g} mm")
            # Cast, then transpose: _distinct_rows reads its rows column by
            # column, and these columns are the contiguous planes.
            blocks.append(_distinct_rows(floored.astype(np.int64).T))
        if walked < len(ids):
            raise InvalidSpec(f"streamline {ids[walked]} ({cum[walked, -1]:.6g} mm) needs more than "
                              f"{MAX_VOXEL_SAMPLES} samples at voxel size {grid.voxel_size:g} mm")
    if valid < len(indices):
        raise IndexOutOfRange(f"bundle index {indices[valid]} not in tractogram of size {n}")
    return VoxelSet(np.concatenate(blocks))


def _distinct_rows(rows: np.ndarray) -> np.ndarray:
    """Distinct rows of an (s, 3) int64 array, lexicographically sorted.

    One sort of int64 linear codes over the rows' extent; rows whose codes
    would overflow int64 take the exact np.unique(axis=0).
    """
    if not len(rows):
        return np.empty((0, 3), dtype=np.int64)
    lo, ext = _extent(rows)
    if ext[0] * ext[1] * ext[2] > _INT64_MAX:
        return np.unique(rows, axis=0)
    # np.unique hashes integer input and took ~6x as long as a sort on
    # blocks of 8k codes (numpy 2.4).
    codes = _encode(rows, lo, ext)
    codes.sort()
    return _decode(_sorted_distinct(codes), lo, ext)


def _extent(rows: np.ndarray) -> tuple[list[int], list[int]]:
    """Per-axis minimum and number of values spanned of (s, 3) int64 rows."""
    # Per column: a reduction along axis 0 of (s, 3) is ~10x slower.
    lo = [int(rows[:, a].min()) for a in range(3)]
    return lo, [int(rows[:, a].max()) - lo[a] + 1 for a in range(3)]


# _encode and _decode work column by column: numpy's broadcasts over an
# inner axis of length 3, and its int64 %, are several times slower.

def _encode(rows: np.ndarray, lo: list[int], ext: list[int]) -> np.ndarray:
    """Linear int64 codes of rows inside the extent (lo, ext), in lexicographic order."""
    codes = rows[:, 0] - lo[0]
    codes *= ext[1]
    codes += rows[:, 1] - lo[1]
    codes *= ext[2]
    codes += rows[:, 2] - lo[2]
    return codes


def _decode(codes: np.ndarray, lo: list[int], ext: list[int]) -> np.ndarray:
    """The (V, 3) int64 rows of _encode's codes."""
    out = np.empty((len(codes), 3), dtype=np.int64)
    high = codes // ext[2]
    out[:, 2] = codes - high * ext[2] + lo[2]
    out[:, 0] = high // ext[1]
    out[:, 1] = high - out[:, 0] * ext[1] + lo[1]
    out[:, 0] += lo[0]
    return out


def _sorted_distinct(codes: np.ndarray) -> np.ndarray:
    """The distinct values of a sorted 1-D array."""
    keep = np.empty(len(codes), dtype=bool)
    keep[:1] = True
    np.not_equal(codes[1:], codes[:-1], out=keep[1:])
    return codes[keep]


def dsc(a: VoxelSet, b: VoxelSet) -> float:
    """Dice similarity coefficient 2|a & b| / (|a| + |b|).

    An argument that is not a VoxelSet, such as a Python set of (i, j, k),
    is made one first. Each set's rows are distinct, so the overlap is the
    number of rows that _distinct_rows, the rule VoxelSets are built with,
    drops from both sets' rows stacked.
    """
    a, b = (v if isinstance(v, VoxelSet) else VoxelSet(v) for v in (a, b))
    if not len(a) and not len(b):
        raise BothEmpty("dice of two empty voxel sets is undefined")
    if not len(a) or not len(b):
        return 0.0
    both = np.concatenate((a.rows, b.rows))
    common = len(both) - len(_distinct_rows(both))
    return 2.0 * common / (len(a) + len(b))
