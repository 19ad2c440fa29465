"""Supervised nearest-neighbor bundle segmentation and voxel-level scoring.

Given an expert-segmented example bundle from one subject, the predicted
bundle in a co-registered target tractogram is the set of embedded-space
nearest neighbors of the example streamlines. Quality is assessed as the
Dice coefficient between the voxel sets crossed by predicted and true
bundles.
"""

from __future__ import annotations

import math
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
from .model import BundleRef, Tractogram, points_at_arc_lengths, arc_lengths

VoxelSet = set  # of (i, j, k) integer tuples

DEFAULT_VOXEL_SIZE = 1.25  # mm

# Most samples voxelize takes on one streamline (a 655 m walk at the default
# voxel size peaks at ~250 MB); a longer walk is rejected before allocation.
MAX_VOXEL_SAMPLES = 2 ** 20


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
    """
    step = grid.voxel_size / 2.0
    origin = np.asarray(grid.origin, dtype=np.float64)
    voxels: VoxelSet = set()
    n = len(tractogram)
    for i in bundle.indices:
        if i >= n:
            raise IndexOutOfRange(f"bundle index {i} not in tractogram of size {n}")
        pts = tractogram[i].points
        total = arc_lengths(pts)[-1]
        if total / step > MAX_VOXEL_SAMPLES:
            raise InvalidSpec(f"streamline {i} ({total:.6g} mm) needs more than "
                              f"{MAX_VOXEL_SAMPLES} samples at voxel size {grid.voxel_size:g} mm")
        ts = np.arange(0.0, total, step)
        ts = np.append(ts, total)
        samples = points_at_arc_lengths(pts, ts)
        idx = np.floor((samples - origin) / grid.voxel_size).astype(np.int64)
        voxels.update(map(tuple, idx.tolist()))
    return voxels


def dsc(a: VoxelSet, b: VoxelSet) -> float:
    """Dice similarity coefficient 2|a & b| / (|a| + |b|)."""
    if not a and not b:
        raise BothEmpty("dice of two empty voxel sets is undefined")
    return 2.0 * len(a & b) / (len(a) + len(b))
