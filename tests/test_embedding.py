import numpy as np
import pytest

from conftest import random_streamline, reference_sff
from tractodist.cli import main
from tractodist.distances import MC, default_kinds, distance, distance_matrix, mdf
from tractodist.embedding import (
    DEFAULT_PROTOTYPE_COUNT,
    DEFAULT_SUBSET_CAP,
    EmbeddedTractogram,
    PrototypeSet,
    default_subset_size,
    embed_tractogram,
    select_prototypes_sff,
)
from tractodist.errors import KindMismatch, TooManyPrototypes
from tractodist.io import read_embedding_for, read_tractogram, write_tractogram
from tractodist.model import Tractogram, build_streamline


def unit_segment_at(x):
    return build_streamline([[x - 0.5, 0, 0], [x + 0.5, 0, 0]])


def embed_oracle(s, protos, source, kind) -> np.ndarray:
    """Distance from s to each prototype, one per-pair distance() call each."""
    return np.array([distance(kind, s, source[j]) for j in protos.indices])


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


# ---------------------------------------------------------------------------
# The default candidate subset: min(N, cap, max(p, ceil(3 p ln p)))
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("count, expected", [
    (1, 1),  # 3 ln 1 = 0: max(p, ...) keeps one candidate
    (2, 5),  # ceil(6 ln 2) = ceil(4.16)
    (3, 10),
    (40, 443),  # ceil(120 ln 40) = ceil(442.67)
    (135, 1987),
    (136, DEFAULT_SUBSET_CAP),  # ceil(408 ln 136) = 2005: the cap wins from here on
    (140, DEFAULT_SUBSET_CAP),
    (DEFAULT_SUBSET_CAP, DEFAULT_SUBSET_CAP),
    (10 ** 25, DEFAULT_SUBSET_CAP),  # never turns a huge count into a float
])
def test_default_subset_size_rule(count, expected):
    assert default_subset_size(10 ** 6, count) == expected
    # N below the rule: every streamline is a candidate.
    assert default_subset_size(7, count) == min(7, expected)
    if expected > 1:
        assert default_subset_size(expected - 1, count) == expected - 1


def test_default_subset_size_at_the_default_prototype_count():
    assert default_subset_size(10_000, DEFAULT_PROTOTYPE_COUNT) == 443
    assert default_subset_size(200, DEFAULT_PROTOTYPE_COUNT) == 200


def test_sff_default_is_the_rule_with_an_explicit_subset():
    rng = np.random.default_rng(50)
    t = Tractogram([random_streamline(rng, n_points=int(k)) for k in rng.integers(2, 9, 60)])
    kind = mdf(12)
    for count in (1, 2, 3, 5):
        s = default_subset_size(len(t), count)
        assert s < len(t)
        for seed in (0, 7):
            default = select_prototypes_sff(t, kind, count, rng_seed=seed)
            explicit = select_prototypes_sff(t, kind, count, subset_size=s, rng_seed=seed)
            assert default == explicit


def test_sff_with_one_prototype_draws_one_candidate_and_returns_it():
    rng = np.random.default_rng(51)
    t = Tractogram([random_streamline(rng, n_points=4) for _ in range(30)])
    for seed in (0, 3, 11):
        drawn = np.random.default_rng(seed).choice(len(t), size=1, replace=False)
        protos = select_prototypes_sff(t, MC, 1, rng_seed=seed)
        assert protos.indices == (int(drawn[0]),)


@pytest.mark.parametrize("kind", default_kinds(5.0), ids=str)
def test_gathered_candidates_and_prototypes_keep_their_bits(kind):
    rng = np.random.default_rng(52)
    t = Tractogram([random_streamline(rng, n_points=int(k)) for k in rng.integers(2, 12, 25)])
    ids = np.sort(rng.choice(len(t), size=15, replace=False))
    assert np.array_equal(distance_matrix(kind, t.take(ids)),
                          distance_matrix(kind, [t[int(i)] for i in ids]))
    protos = select_prototypes_sff(t, kind, 4, subset_size=15, rng_seed=3)
    emb = embed_tractogram(t, protos, t, kind)
    assert np.array_equal(emb.vectors, distance_matrix(kind, t, [t[j] for j in protos.indices]))


# ---------------------------------------------------------------------------
# Every streamline a candidate: the embedding of the source is SFF's columns
# ---------------------------------------------------------------------------

def all_candidates(kind, seed=53):
    """15 streamlines and SFF's 4 prototypes, drawn from all 15 by the rule."""
    rng = np.random.default_rng(seed)
    t = Tractogram([random_streamline(rng, n_points=int(k)) for k in rng.integers(2, 12, 15)])
    assert default_subset_size(len(t), 4) >= len(t)
    return t, select_prototypes_sff(t, kind, 4, rng_seed=1)


@pytest.mark.parametrize("kind", default_kinds(5.0), ids=str)
def test_embedding_of_the_source_at_s_equal_n_is_sffs_columns(kind):
    t, p = all_candidates(kind)
    vectors = embed_tractogram(t, p, t, kind).vectors
    assert np.array_equal(vectors, distance_matrix(kind, t)[:, list(p.indices)])
    np.testing.assert_allclose(vectors, distance_matrix(kind, t, t.take(p.indices)),
                               rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("kind", default_kinds(5.0), ids=str)
def test_sff_columns_serve_only_the_store_sff_ran_on(kind):
    t, p = all_candidates(kind)
    copy = Tractogram(list(t))
    rectangular = distance_matrix(kind, copy, copy.take(p.indices))
    assert np.array_equal(embed_tractogram(copy, p, copy, kind).vectors, rectangular)
    assert np.array_equal(embed_tractogram(copy, p, t, kind).vectors, rectangular)
    assert np.array_equal(embed_tractogram(t, p, copy, kind).vectors, rectangular)
    other, _ = all_candidates(kind, seed=54)
    assert np.array_equal(embed_tractogram(other, p, t, kind).vectors,
                          distance_matrix(kind, other, t.take(p.indices)))


def test_sff_prototypes_compare_hash_and_print_as_their_indices():
    _, p = all_candidates(MC)
    plain = PrototypeSet(p.indices, MC)
    assert p == plain and plain == p
    assert hash(p) == hash(plain)
    assert repr(p) == repr(plain)
    assert len({p, plain}) == 1


@pytest.mark.parametrize("kind", default_kinds(5.0), ids=str)
def test_embd_written_at_s_equal_n_passes_the_target_check(tmp_path, capsys, kind):
    t, _ = all_candidates(kind)
    trgx, embd = str(tmp_path / "t.trgx"), str(tmp_path / "t.embd")
    write_tractogram(t, trgx)
    assert main(["--seed", "1", "--prototypes", "4", "embed", trgx,
                 "--kind", str(kind), "--out", embd]) == 0
    capsys.readouterr()
    target = read_tractogram(trgx).tractogram
    p = select_prototypes_sff(target, kind, 4, rng_seed=1)
    for seed in range(4):
        emb = read_embedding_for(embd, target, kind, seed)
        assert emb.prototypes == p
        assert np.array_equal(emb.vectors, distance_matrix(kind, target)[:, list(p.indices)])
