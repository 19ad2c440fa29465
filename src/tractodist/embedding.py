"""Dissimilarity representation: embed streamlines as vectors of distances
to prototype streamlines chosen by the subset farthest first policy.

The embedding turns nearest-neighbor search over streamlines into
Euclidean search over fixed-dimension vectors, which the kd-tree in
:mod:`tractodist.ann` then accelerates. Selection and embedding must use
the same distance kind; mixing kinds is rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distances import DistanceKind, distance_matrix
from .errors import KindMismatch, TooManyPrototypes
from .model import Tractogram

DEFAULT_PROTOTYPE_COUNT = 40
# Ceiling on the default candidate subset: its s x s distance matrix stays
# within 32 MB. The rule below reaches it from 136 prototypes on.
DEFAULT_SUBSET_CAP = 2000
SUBSET_FACTOR = 3
SUBSET_RULE = (f"min(N, {DEFAULT_SUBSET_CAP}, max(p, ceil({SUBSET_FACTOR}*p*ln p))) "
               f"for p prototypes")


def default_subset_size(n: int, count: int) -> int:
    """SFF candidates drawn when no subset size is given: SUBSET_RULE.

    ceil(c*p*ln p) with c = 3 is the subset size of Olivetti, Nguyen and
    Garyfallidis, "The approximation of the dissimilarity projection" (PRNI
    2012); max(p, ...) keeps p = 1 (a single candidate) valid. count >= 1.
    """
    # The rule is nondecreasing in p and already past the cap at p = cap,
    # so capping p first changes nothing and keeps math.log off huge ints.
    p = min(count, DEFAULT_SUBSET_CAP)
    return min(n, DEFAULT_SUBSET_CAP, max(p, math.ceil(SUBSET_FACTOR * p * math.log(p))))


@dataclass(frozen=True)
class PrototypeSet:
    """Ordered prototype streamline indices into a source tractogram."""

    indices: tuple[int, ...]
    kind: DistanceKind
    # (points, offsets, columns) when SFF drew every streamline of that
    # store: columns is its (N, d) block dmat[:, chosen], row i streamline i.
    _sff: tuple | None = field(default=None, compare=False, repr=False)

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
    (default: default_subset_size(N, count), 443 at 40 prototypes, and a
    single candidate, the prototype itself, at 1); the first prototype is
    the candidate with the greatest total distance to all other candidates,
    and each subsequent one maximizes the minimum distance to those already
    selected. Ties go to the lowest streamline index. Deterministic for a
    fixed rng_seed.
    """
    n = len(tractogram)
    if count < 1:
        raise TooManyPrototypes(f"prototype count must be >= 1, got {count}")
    if subset_size is None:
        subset_size = default_subset_size(n, count)
    if count > n:
        raise TooManyPrototypes(f"{count} prototypes requested from {n} streamlines")
    if subset_size < count:
        raise TooManyPrototypes(
            f"candidate subset of {subset_size} cannot yield {count} prototypes"
        )

    rng = np.random.default_rng(rng_seed)
    candidates = np.sort(rng.choice(n, size=min(subset_size, n), replace=False))
    dmat = distance_matrix(kind, tractogram.take(candidates))

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

    # Every streamline a candidate (candidates is arange(n)): SFF's columns
    # are the embedding of this store, kept for embed_tractogram.
    sff = None
    if len(candidates) == n:
        sff = (tractogram.points, tractogram.offsets, dmat[:, chosen])
    return PrototypeSet(tuple(int(candidates[i]) for i in chosen), kind, sff)


def embed_tractogram(
    t: Tractogram,
    protos: PrototypeSet,
    source: Tractogram,
    kind: DistanceKind,
) -> EmbeddedTractogram:
    """Embed every streamline of t against the prototypes of source.

    When SFF drew every streamline of source and t is that same store, the
    vectors are SFF's own distance columns; an entry mirrored there may
    differ from distance_matrix's in its last bits.
    """
    if kind != protos.kind:
        raise KindMismatch(f"embedding kind {kind} != prototype kind {protos.kind}")
    sff = protos._sff
    # Identity, not equal content: a copy of the store takes distance_matrix.
    if sff is not None and all(x.points is sff[0] and x.offsets is sff[1] for x in (t, source)):
        vectors = sff[2]
    else:
        vectors = distance_matrix(kind, t, source.take(protos.indices))
    return EmbeddedTractogram(vectors, protos, kind)
