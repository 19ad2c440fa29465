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
from .model import _PAD_ROWS, BundleRef, Tractogram, _interpolate, _pad_polylines, arc_lengths

VoxelSet = set  # of (i, j, k) integer tuples

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


@dataclass(frozen=True)
class VoxelGrid:
    """Isotropic voxel grid: origin in mm and edge length in mm."""

    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)
    voxel_size: float = DEFAULT_VOXEL_SIZE

    def __post_init__(self):
        if not 0 < self.voxel_size < math.inf:
            raise InvalidSpec(f"voxel size must be finite and positive, got {self.voxel_size}")


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
    queries = distance_matrix(kind, example.streamlines(),
                              [protos_source[j] for j in protos.indices])
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
    """Set of voxel indices crossed by the bundle's streamlines.

    Each streamline is walked at arc-length steps of half a voxel edge
    (both endpoints included); each sample maps to
    floor((p - origin) / voxel_size) per axis. A half-edge step cannot
    skip a voxel the sampled path passes through for longer than the step.
    Streamlines are walked in padded blocks, with the arithmetic of
    points_at_arc_lengths, so every sample is the one-streamline walk's.

    Raises IndexOutOfRange for an index past the tractogram, and
    InvalidSpec for a walk of more than MAX_VOXEL_SAMPLES samples or a
    voxel index outside int64, for the first such streamline in bundle
    order.
    """
    step = grid.voxel_size / 2.0
    origin = np.asarray(grid.origin, dtype=np.float64)
    voxels: VoxelSet = set()
    n = len(tractogram)
    indices = bundle.indices
    valid = bisect_left(indices, n)  # indices are sorted
    for lo in range(0, valid, _PAD_ROWS):
        ids = indices[lo:min(lo + _PAD_ROWS, valid)]
        points, last = _pad_polylines(tractogram, np.array(ids))
        cum = arc_lengths(points)
        with np.errstate(over="ignore"):
            ratio = cum[:, -1] / step
        too_long = np.flatnonzero(ratio > MAX_VOXEL_SAMPLES)
        walked = int(too_long[0]) if too_long.size else len(ids)
        # Samples before the end point: the length of np.arange(0, total, step).
        before = np.ceil(ratio[:walked])
        rows = max(1, _VOXEL_BLOCK_SAMPLES // int(before.max(initial=0) + 1))
        for r in range(0, walked, rows):
            b = slice(r, min(r + rows, walked))
            floored = _walk_floor(points[b], cum[b], last[b], before[b], step, origin,
                                  grid.voxel_size)
            if not (floored.min() >= -_INT64_BOUND and floored.max() < _INT64_BOUND):
                inside = ((floored >= -_INT64_BOUND) & (floored < _INT64_BOUND)).all(axis=(1, 2))
                raise InvalidSpec(f"streamline {ids[r + int(np.argmin(inside))]} reaches a voxel "
                                  f"index outside int64 at voxel size {grid.voxel_size:g} mm")
            _add_distinct(voxels, floored.reshape(-1, 3).astype(np.int64))
        if walked < len(ids):
            raise InvalidSpec(f"streamline {ids[walked]} ({cum[walked, -1]:.6g} mm) needs more than "
                              f"{MAX_VOXEL_SAMPLES} samples at voxel size {grid.voxel_size:g} mm")
    if valid < len(indices):
        raise IndexOutOfRange(f"bundle index {indices[valid]} not in tractogram of size {n}")
    return voxels


def _walk_floor(points: np.ndarray, cum: np.ndarray, last: np.ndarray, before: np.ndarray,
                step: float, origin: np.ndarray, voxel_size: float) -> np.ndarray:
    """Floored voxel coordinates, as floats, of padded polylines walked at
    pos * step for pos < before[r], then at the end; (b, k, 3). Positions
    past a row's end repeat its end point."""
    pos = np.arange(before.max() + 1)
    ts = np.where(pos < before[:, None], pos * step, cum[:, -1:])
    samples = _interpolate(points, cum, last, ts)
    samples -= origin
    with np.errstate(over="ignore"):
        samples /= voxel_size
    return np.floor(samples, out=samples)


def _add_distinct(voxels: VoxelSet, idx: np.ndarray) -> None:
    """Add the distinct rows of an (s, 3) int64 array to voxels as tuples.

    One sort of linear codes offset by the rows' minimum per axis; rows
    whose codes would overflow int64 take the exact np.unique(axis=0).
    """
    # Per column: a reduction along axis 0 of (s, 3) is ~10x slower.
    lo = [int(idx[:, a].min()) for a in range(3)]
    ext = [int(idx[:, a].max()) - lo[a] + 1 for a in range(3)]
    if ext[0] * ext[1] * ext[2] > np.iinfo(np.int64).max:
        voxels.update(map(tuple, np.unique(idx, axis=0).tolist()))
        return
    rel = idx - lo
    codes = (rel[:, 0] * ext[1] + rel[:, 1]) * ext[2] + rel[:, 2]
    # Sorted distinct codes; np.unique hashes integer input and took ~6x as
    # long on blocks of 8k codes (numpy 2.4).
    codes.sort()
    codes = codes[np.concatenate(([True], codes[1:] != codes[:-1]))]
    k = codes % ext[2] + lo[2]
    codes //= ext[2]
    j = codes % ext[1] + lo[1]
    i = codes // ext[1] + lo[0]
    voxels.update(zip(i.tolist(), j.tolist(), k.tolist()))


def dsc(a: VoxelSet, b: VoxelSet) -> float:
    """Dice similarity coefficient 2|a & b| / (|a| + |b|)."""
    if not a and not b:
        raise BothEmpty("dice of two empty voxel sets is undefined")
    return 2.0 * len(a & b) / (len(a) + len(b))
