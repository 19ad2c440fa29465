import numpy as np
import pytest

from conftest import random_streamline
from tractodist.distances import MC, distance, distance_matrix, mdf
from tractodist.embedding import (
    EmbeddedTractogram,
    PrototypeSet,
    embed_tractogram,
    select_prototypes_sff,
)
from tractodist.errors import KindMismatch, TooManyPrototypes
from tractodist.model import Tractogram, build_streamline


def unit_segment_at(x):
    return build_streamline([[x - 0.5, 0, 0], [x + 0.5, 0, 0]])


def embed_oracle(s, protos, source, kind) -> np.ndarray:
    """Distance from s to each prototype, one per-pair distance() call each."""
    return np.array([distance(kind, s, source[j]) for j in protos.indices])


def reference_sff(dmat: np.ndarray, candidates, count):
    """Brute-force subset farthest first on a precomputed distance matrix.

    First pick: candidate with greatest total distance to the other
    candidates; then repeatedly the candidate farthest from the chosen
    set. Ties go to the lowest streamline index.
    """
    candidates = sorted(candidates)
    totals = {c: sum(dmat[c, o] for o in candidates if o != c) for c in candidates}
    best = max(candidates, key=lambda c: (totals[c], -c))
    chosen = [best]
    while len(chosen) < count:
        remaining = [c for c in candidates if c not in chosen]
        far = max(remaining, key=lambda c: (min(dmat[c, p] for p in chosen), -c))
        chosen.append(far)
    return chosen


def test_sff_collinear_extremes():
    # Ten unit segments centered at x = 0..9; two prototypes over the full
    # subset must be the two extremes, per the brute-force oracle.
    streams = [unit_segment_at(float(x)) for x in range(10)]
    t = Tractogram(streams)
    dmat = distance_matrix(MC, streams)
    expected = reference_sff(dmat, range(10), 2)
    assert sorted(expected) == [0, 9]
    protos = select_prototypes_sff(t, MC, 2, subset_size=10, rng_seed=0)
    assert sorted(protos.indices) == [0, 9]
    assert list(protos.indices) == expected


def test_sff_matches_reference_on_random_data():
    rng = np.random.default_rng(41)
    streams = [random_streamline(rng) for _ in range(30)]
    t = Tractogram(streams)
    dmat = distance_matrix(MC, streams)
    for count in (1, 3, 8):
        protos = select_prototypes_sff(t, MC, count, subset_size=30, rng_seed=5)
        assert list(protos.indices) == reference_sff(dmat, range(30), count)


def test_sff_subset_is_deterministic_per_seed():
    rng = np.random.default_rng(42)
    t = Tractogram([random_streamline(rng) for _ in range(40)])
    a = select_prototypes_sff(t, MC, 5, subset_size=12, rng_seed=7)
    b = select_prototypes_sff(t, MC, 5, subset_size=12, rng_seed=7)
    c = select_prototypes_sff(t, MC, 5, subset_size=12, rng_seed=8)
    assert a.indices == b.indices
    assert a.indices != c.indices or True  # different seed may still collide


def test_sff_exhaustive_when_count_equals_n():
    rng = np.random.default_rng(43)
    t = Tractogram([random_streamline(rng) for _ in range(6)])
    protos = select_prototypes_sff(t, MC, 6, subset_size=6, rng_seed=0)
    assert sorted(protos.indices) == list(range(6))


def test_sff_rejects_more_prototypes_than_streamlines():
    rng = np.random.default_rng(44)
    t = Tractogram([random_streamline(rng) for _ in range(3)])
    with pytest.raises(TooManyPrototypes):
        select_prototypes_sff(t, MC, 4)
    with pytest.raises(TooManyPrototypes):
        select_prototypes_sff(t, MC, 3, subset_size=2)


def test_embed_entries_match_individual_distances():
    rng = np.random.default_rng(45)
    streams = [random_streamline(rng) for _ in range(12)]
    t = Tractogram(streams)
    kind = mdf(12)
    protos = select_prototypes_sff(t, kind, 4, rng_seed=1)
    s = random_streamline(rng)
    vec = embed_tractogram(Tractogram([s]), protos, t, kind).vectors[0]
    assert vec.shape == (4,)
    for col, p_idx in enumerate(protos.indices):
        assert vec[col] == pytest.approx(distance(kind, s, streams[p_idx]), rel=1e-9)


def test_embed_zero_against_own_prototype():
    rng = np.random.default_rng(46)
    streams = [random_streamline(rng) for _ in range(5)]
    t = Tractogram(streams)
    protos = select_prototypes_sff(t, MC, 3, rng_seed=0)
    j = protos.indices[1]
    vec = embed_tractogram(t, protos, t, MC).vectors[j]
    assert vec[1] == pytest.approx(0.0, abs=1e-9)


def test_embed_tractogram_matches_rowwise_embed():
    rng = np.random.default_rng(47)
    streams = [random_streamline(rng) for _ in range(10)]
    t = Tractogram(streams)
    kind = mdf(20)
    protos = select_prototypes_sff(t, kind, 5, rng_seed=2)
    emb = embed_tractogram(t, protos, t, kind)
    assert len(emb) == 10 and emb.dimension == 5
    for i, s in enumerate(streams):
        np.testing.assert_allclose(emb.vectors[i], embed_oracle(s, protos, t, kind),
                                   rtol=1e-9, atol=1e-12)


def test_embedded_tractogram_validates_kind():
    rng = np.random.default_rng(49)
    t = Tractogram([random_streamline(rng) for _ in range(4)])
    protos = select_prototypes_sff(t, MC, 2, rng_seed=0)
    with pytest.raises(KindMismatch):
        EmbeddedTractogram(np.zeros((4, 2)), protos, mdf(12))


def test_prototype_set_validates():
    with pytest.raises(TooManyPrototypes):
        PrototypeSet(indices=(), kind=MC)
    with pytest.raises(ValueError):
        PrototypeSet(indices=(1, 1), kind=MC)
