"""Dissimilarity representation: embed streamlines as vectors of distances
to prototype streamlines chosen by the subset farthest first policy.

The embedding turns nearest-neighbor search over streamlines into
Euclidean search over fixed-dimension vectors, which the kd-tree in
:mod:`tractodist.ann` then accelerates. Selection and embedding must use
the same distance kind; mixing kinds is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distances import DistanceKind, distance_matrix
from .errors import KindMismatch, TooManyPrototypes
from .model import Tractogram

DEFAULT_PROTOTYPE_COUNT = 40
DEFAULT_SUBSET_CAP = 2000


@dataclass(frozen=True)
class PrototypeSet:
    """Ordered prototype streamline indices into a source tractogram."""

    indices: tuple[int, ...]
    kind: DistanceKind

    def __post_init__(self):
        if len(self.indices) < 1:
            raise TooManyPrototypes("at least one prototype is required")
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("prototype indices must be distinct")

    def __len__(self) -> int:
        return len(self.indices)


class EmbeddedTractogram:
    """N x d matrix of distances from each streamline to each prototype."""

    __slots__ = ("_vectors", "_prototypes", "_kind")

    def __init__(self, vectors: np.ndarray, prototypes: PrototypeSet, kind: DistanceKind):
        if kind != prototypes.kind:
            raise KindMismatch(
                f"embedding kind {kind} != prototype selection kind {prototypes.kind}"
            )
        vecs = np.ascontiguousarray(vectors, dtype=np.float64)
        if vecs.ndim != 2 or vecs.shape[1] != len(prototypes):
            raise ValueError(
                f"expected an (N, {len(prototypes)}) matrix, got shape {vecs.shape}"
            )
        vecs.flags.writeable = False
        self._vectors = vecs
        self._prototypes = prototypes
        self._kind = kind

    @property
    def vectors(self) -> np.ndarray:
        return self._vectors

    @property
    def prototypes(self) -> PrototypeSet:
        return self._prototypes

    @property
    def kind(self) -> DistanceKind:
        return self._kind

    def __len__(self) -> int:
        return len(self._vectors)

    @property
    def dimension(self) -> int:
        return self._vectors.shape[1]


def select_prototypes_sff(
    tractogram: Tractogram,
    kind: DistanceKind,
    count: int = DEFAULT_PROTOTYPE_COUNT,
    subset_size: int | None = None,
    rng_seed: int = 0,
) -> PrototypeSet:
    """Pick prototype streamlines with the subset farthest first policy.

    A uniform random subset of min(subset_size, N) candidates is drawn
    (default cap 2000); the first prototype is the candidate with the
    greatest total distance to all other candidates, and each subsequent
    one maximizes the minimum distance to those already selected. Ties go
    to the lowest streamline index. Deterministic for a fixed rng_seed.
    """
    n = len(tractogram)
    if count < 1:
        raise TooManyPrototypes(f"prototype count must be >= 1, got {count}")
    if count > n:
        raise TooManyPrototypes(f"{count} prototypes requested from {n} streamlines")
    if subset_size is None:
        subset_size = min(n, DEFAULT_SUBSET_CAP)
    if subset_size < count:
        raise TooManyPrototypes(
            f"candidate subset of {subset_size} cannot yield {count} prototypes"
        )

    rng = np.random.default_rng(rng_seed)
    candidates = np.sort(rng.choice(n, size=min(subset_size, n), replace=False))
    streams = [tractogram[int(i)] for i in candidates]
    dmat = distance_matrix(kind, streams)

    # Candidates are sorted ascending, so argmax's first-hit rule breaks
    # ties toward the lowest streamline index.
    first = int(np.argmax(dmat.sum(axis=1)))
    chosen = [first]
    min_to_chosen = dmat[first].copy()
    min_to_chosen[first] = -np.inf
    while len(chosen) < count:
        nxt = int(np.argmax(min_to_chosen))
        chosen.append(nxt)
        np.minimum(min_to_chosen, dmat[nxt], out=min_to_chosen)
        min_to_chosen[nxt] = -np.inf

    return PrototypeSet(tuple(int(candidates[i]) for i in chosen), kind)


def embed_tractogram(
    t: Tractogram,
    protos: PrototypeSet,
    source: Tractogram,
    kind: DistanceKind,
) -> EmbeddedTractogram:
    """Embed every streamline of t against the prototypes of source."""
    if kind != protos.kind:
        raise KindMismatch(f"embedding kind {kind} != prototype kind {protos.kind}")
    proto_streams = [source[j] for j in protos.indices]
    vectors = distance_matrix(kind, t, proto_streams)
    return EmbeddedTractogram(vectors, protos, kind)
