import math

import numpy as np
import pytest

from conftest import (
    naive_closest_mean,
    naive_lc,
    naive_mc,
    naive_mdf,
    naive_pdm,
    naive_pdm_inner,
    naive_sc,
    naive_var,
    naive_var_inner,
    random_rotation,
    random_streamline,
    rigid_motion,
)
from tractodist import distances
from tractodist.distances import (
    LC,
    MAX_MDF_POINTS,
    MC,
    SC,
    DistanceKind,
    d_lc,
    d_mc,
    d_mdf,
    d_pdm,
    d_sc,
    d_varifolds,
    default_kinds,
    distance,
    distance_matrix,
    mdf,
    mdf_min_direct_flipped,
    parse_kind,
    pdm,
    pdm_inner,
    varifolds,
    varifolds_inner,
)
from tractodist.model import Tractogram, build_streamline, flip, resample_stack

S = build_streamline


# ---------------------------------------------------------------------------
# Kind parsing and canonical strings
# ---------------------------------------------------------------------------

def test_canonical_strings_roundtrip():
    for kind, text in [
        (MC, "mc"), (SC, "sc"), (LC, "lc"),
        (mdf(12), "mdf-12"), (mdf(20), "mdf-20"), (mdf(32), "mdf-32"),
        (pdm(42.0), "pdm-42.0"), (varifolds(42.0), "var-42.0"),
    ]:
        assert str(kind) == text
        assert parse_kind(text) == kind


def test_parse_accepts_arbitrary_positive_params():
    assert parse_kind("mdf-7") == mdf(7)
    assert parse_kind("pdm-3.5") == pdm(3.5)
    assert parse_kind("VAR-10") == varifolds(10.0)
    assert parse_kind(f"mdf-{MAX_MDF_POINTS}") == mdf(MAX_MDF_POINTS)


def test_parse_rejects_garbage():
    for text in ("", "frechet", "mdf", "mdf-1", "mdf-x", "pdm", "pdm-0", "var--3", "mc-2",
                 f"mdf-{MAX_MDF_POINTS + 1}", "mdf-1000000000000",
                 "mdf-99999999999999999999999", "mdf-inf"):
        with pytest.raises(ValueError):
            parse_kind(text)


def test_kind_validation():
    for m in (1, MAX_MDF_POINTS + 1, 10**12, 10**23, math.inf, math.nan):
        with pytest.raises(ValueError):
            DistanceKind("mdf", m)
    with pytest.raises(ValueError):
        DistanceKind("pdm", -1.0)
    with pytest.raises(ValueError):
        DistanceKind("bogus")


@pytest.mark.parametrize("sigma", [0.04, 1.21, 1.25, 3.14159, 42.0])
def test_every_kind_string_parses_back(sigma):
    for kind in (pdm(sigma), varifolds(sigma)):
        assert parse_kind(str(kind)) == kind
        assert str(kind).endswith(repr(sigma))


def test_nearby_bandwidths_get_different_labels():
    assert str(pdm(1.25)) == "pdm-1.25"
    assert str(pdm(1.21)) == "pdm-1.21"


@pytest.mark.parametrize("sigma", [math.inf, -math.inf, math.nan, 1e-300, 1e200])
def test_kernel_kinds_reject_bandwidths_without_a_finite_nonzero_square(sigma):
    for tag in ("pdm", "var"):
        with pytest.raises(ValueError):
            DistanceKind(tag, sigma)
        with pytest.raises(ValueError):
            parse_kind(f"{tag}-{sigma}")


def test_default_kinds_order():
    assert [str(k) for k in default_kinds()] == [
        "mc", "sc", "lc", "mdf-12", "mdf-20", "mdf-32", "pdm-42.0", "var-42.0",
    ]


# ---------------------------------------------------------------------------
# Mean-of-closest family
# ---------------------------------------------------------------------------

def test_mc_hand_expansion():
    a = S([[0, 0, 0], [1, 0, 0]])
    b = S([[0, 1, 0], [0, 1, 1]])
    expected = (naive_closest_mean(a.points, b.points)
                + naive_closest_mean(b.points, a.points)) / 2
    assert expected == pytest.approx(1.20711, abs=5e-6)
    assert d_mc(a, b) == pytest.approx(expected, rel=1e-9)


def test_sc_lc_asymmetric_fixture():
    a = S([[0, 0, 0], [1, 0, 0], [2, 0, 0]])
    b = S([[0, 0, 0], [0, 0, 0.001]])
    ab = naive_closest_mean(a.points, b.points)
    ba = naive_closest_mean(b.points, a.points)
    assert ba < 0.001 and ab >= 1.0
    assert d_sc(a, b) == pytest.approx(min(ab, ba), rel=1e-9)
    assert d_lc(a, b) == pytest.approx(max(ab, ba), rel=1e-9)
    assert d_lc(a, b) == pytest.approx(1.0, abs=1e-2)


def test_mc_family_random_vs_oracle():
    rng = np.random.default_rng(21)
    for _ in range(30):
        a = random_streamline(rng, int(rng.integers(2, 12)))
        b = random_streamline(rng, int(rng.integers(2, 12)))
        assert d_mc(a, b) == pytest.approx(naive_mc(a.points, b.points), rel=1e-9)
        assert d_sc(a, b) == pytest.approx(naive_sc(a.points, b.points), rel=1e-9)
        assert d_lc(a, b) == pytest.approx(naive_lc(a.points, b.points), rel=1e-9)


def test_sc_mc_lc_ordering_random():
    rng = np.random.default_rng(22)
    for _ in range(50):
        a, b = random_streamline(rng), random_streamline(rng)
        assert d_sc(a, b) <= d_mc(a, b) <= d_lc(a, b)


# ---------------------------------------------------------------------------
# MDF
# ---------------------------------------------------------------------------

def test_mdf_hand_expansion():
    # Parallel unit segments at height 1: direct pairing 1, flipped sqrt(2).
    a = S([[0, 0, 0], [1, 0, 0]])
    b = S([[0, 1, 0], [1, 1, 0]])
    direct = (math.dist((0, 0, 0), (0, 1, 0)) + math.dist((1, 0, 0), (1, 1, 0))) / 2
    flipped = (math.dist((0, 0, 0), (1, 1, 0)) + math.dist((1, 0, 0), (0, 1, 0))) / 2
    assert (direct, flipped) == (1.0, math.sqrt(2))
    assert d_mdf(a, b, 2) == pytest.approx(min(direct, flipped), rel=1e-9)


def test_mdf_random_vs_oracle():
    rng = np.random.default_rng(23)
    for _ in range(25):
        a, b = random_streamline(rng), random_streamline(rng)
        m = int(rng.choice([12, 20, 32]))
        assert d_mdf(a, b, m) == pytest.approx(naive_mdf(a.points, b.points, m), rel=1e-9)


def test_mdf_flip_invariance_and_self():
    rng = np.random.default_rng(24)
    for _ in range(20):
        a, b = random_streamline(rng), random_streamline(rng)
        assert d_mdf(a, a, 20) == pytest.approx(0.0, abs=1e-9)
        assert d_mdf(a, flip(a), 20) == pytest.approx(0.0, abs=1e-9)
        assert d_mdf(a, b, 20) == pytest.approx(d_mdf(flip(a), b, 20), abs=1e-9)
        assert d_mdf(a, b, 20) == pytest.approx(d_mdf(a, flip(b), 20), abs=1e-9)


def test_mdf_batch_matches_per_pair():
    rng = np.random.default_rng(25)
    pool = [random_streamline(rng) for _ in range(12)]
    m = 20
    stack = resample_stack(pool, m)
    ii = rng.integers(0, len(pool), 40)
    jj = rng.integers(0, len(pool), 40)
    batch = mdf_min_direct_flipped(stack[ii], stack[jj])
    for k in range(40):
        assert batch[k] == pytest.approx(d_mdf(pool[ii[k]], pool[jj[k]], m), rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# PDM
# ---------------------------------------------------------------------------

def test_pdm_inner_double_sum():
    a = S([[0, 0, 0], [1, 0, 0]])
    expected = naive_pdm_inner(a.points, a.points, 1.0)
    assert expected == pytest.approx((1 + math.exp(-1)) / 2, rel=1e-12)
    assert pdm_inner(a, a, 1.0) == pytest.approx(expected, rel=1e-9)


def test_pdm_point_pair_closed_form():
    # Near-point streamlines one bandwidth apart: d^2 = 2(1 - e^-1).
    sigma = 42.0
    a = S([[0, 0, 0], [0, 0, 1e-9]])
    b = S([[sigma, 0, 0], [sigma, 0, 1e-9]])
    expected = math.sqrt(2 * (1 - math.exp(-1)))
    assert expected == pytest.approx(1.12438, abs=5e-6)
    assert d_pdm(a, b, sigma) == pytest.approx(expected, rel=1e-9)


def test_pdm_random_vs_oracle():
    rng = np.random.default_rng(26)
    for _ in range(20):
        a = random_streamline(rng, int(rng.integers(2, 10)))
        b = random_streamline(rng, int(rng.integers(2, 10)))
        assert d_pdm(a, b, 42.0) == pytest.approx(
            naive_pdm(a.points, b.points, 42.0), rel=1e-9, abs=1e-12)


def test_pdm_self_distance_zero():
    rng = np.random.default_rng(27)
    for _ in range(10):
        a = random_streamline(rng)
        assert d_pdm(a, a, 42.0) == 0.0


# ---------------------------------------------------------------------------
# Varifolds
# ---------------------------------------------------------------------------

def test_var_inner_parallel_segments_closed_form():
    # Two parallel unit segments at center distance h: kernel weight alone.
    sigma, h = 42.0, 5.0
    a = S([[0, 0, 0], [1, 0, 0]])
    b = S([[0, h, 0], [1, h, 0]])
    expected = math.exp(-h * h / sigma ** 2)
    assert varifolds_inner(a, b, sigma) == pytest.approx(expected, rel=1e-9)
    assert naive_var_inner(a.points, b.points, sigma) == pytest.approx(expected, rel=1e-12)


def test_var_parallel_segments_distance_closed_form():
    sigma, h = 42.0, 5.0
    a = S([[0, 0, 0], [1, 0, 0]])
    b = S([[0, h, 0], [1, h, 0]])
    expected = math.sqrt(2 - 2 * math.exp(-h * h / sigma ** 2))
    assert d_varifolds(a, b, sigma) == pytest.approx(expected, rel=1e-9)


def test_var_random_vs_oracle():
    rng = np.random.default_rng(29)
    for _ in range(15):
        a = random_streamline(rng, int(rng.integers(2, 10)))
        b = random_streamline(rng, int(rng.integers(2, 10)))
        assert varifolds_inner(a, b, 42.0) == pytest.approx(
            naive_var_inner(a.points, b.points, 42.0), rel=1e-9)
        assert d_varifolds(a, b, 42.0) == pytest.approx(
            naive_var(a.points, b.points, 42.0), rel=1e-9, abs=1e-12)


def test_var_orientation_invariance():
    rng = np.random.default_rng(30)
    for _ in range(15):
        a, b = random_streamline(rng), random_streamline(rng)
        assert d_varifolds(a, b, 42.0) == pytest.approx(
            d_varifolds(flip(a), b, 42.0), abs=1e-9)
        # Self-vs-flip sits under a square root of a cancelling difference,
        # so the achievable zero scales with sqrt of the inner product.
        scale = math.sqrt(varifolds_inner(a, a, 42.0))
        assert d_varifolds(a, flip(a), 42.0) <= 1e-6 * max(scale, 1.0)


# ---------------------------------------------------------------------------
# Dispatch and matrices
# ---------------------------------------------------------------------------

def test_dispatch_matches_direct_calls():
    rng = np.random.default_rng(31)
    a, b = random_streamline(rng), random_streamline(rng)
    assert distance(mdf(12), a, a) == 0.0
    assert distance(pdm(42.0), a, b) == d_pdm(a, b, 42.0)
    assert distance(varifolds(42.0), a, b) == d_varifolds(a, b, 42.0)
    assert distance(MC, a, b) == d_mc(a, b)


def test_all_kinds_finite_nonnegative_on_random_pairs():
    rng = np.random.default_rng(32)
    for _ in range(25):
        a, b = random_streamline(rng), random_streamline(rng)
        for kind in default_kinds():
            v = distance(kind, a, b)
            assert math.isfinite(v) and v >= 0.0


def naive_distance(kind, s_a, s_b) -> float:
    """The conftest loop oracle for any kind; shares no code with the library."""
    pa, pb = s_a.points, s_b.points
    if kind.tag == "mdf":
        return naive_mdf(pa, pb, kind.param)
    if kind.tag == "pdm":
        return naive_pdm(pa, pb, kind.param)
    if kind.tag == "var":
        return naive_var(pa, pb, kind.param)
    return {"mc": naive_mc, "sc": naive_sc, "lc": naive_lc}[kind.tag](pa, pb)


def test_distance_matrix_matches_per_pair_calls():
    rng = np.random.default_rng(33)
    streams = [random_streamline(rng) for _ in range(7)]
    for kind in default_kinds():
        m = distance_matrix(kind, streams)
        assert m.shape == (7, 7)
        for i in range(7):
            for j in range(7):
                assert m[i, j] == pytest.approx(
                    distance(kind, streams[i], streams[j]), rel=1e-9, abs=1e-9)
                assert m[i, j] == pytest.approx(
                    naive_distance(kind, streams[i], streams[j]), rel=1e-9, abs=1e-9)
        np.testing.assert_array_equal(m, m.T)


def test_distance_matrix_rectangular():
    rng = np.random.default_rng(34)
    rows = [random_streamline(rng) for _ in range(5)]
    cols = [random_streamline(rng) for _ in range(3)]
    for kind in default_kinds():
        m = distance_matrix(kind, rows, cols)
        assert m.shape == (5, 3)
        for i in range(5):
            for j in range(3):
                assert m[i, j] == pytest.approx(
                    naive_distance(kind, rows[i], cols[j]), rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("kind", default_kinds(), ids=str)
def test_tractogram_and_list_give_the_same_matrix(kind):
    rng = np.random.default_rng(38)
    t = Tractogram([random_streamline(rng) for _ in range(7)])
    cols = Tractogram([random_streamline(rng) for _ in range(3)])
    assert np.array_equal(distance_matrix(kind, t), distance_matrix(kind, list(t)))
    assert np.array_equal(distance_matrix(kind, t, cols),
                          distance_matrix(kind, list(t), list(cols)))


@pytest.mark.parametrize("kind", default_kinds(), ids=str)
def test_same_sequence_twice_is_the_symmetric_matrix(kind):
    rng = np.random.default_rng(37)
    streams = [random_streamline(rng) for _ in range(6)]
    assert np.array_equal(distance_matrix(kind, streams, streams),
                          distance_matrix(kind, streams))


@pytest.mark.parametrize("n_rows, n_cols", [(6, 40), (40, 6)])
def test_mdf_rectangular_matrix_is_bit_identical_to_per_pair(n_rows, n_cols):
    rng = np.random.default_rng(36)
    rows = [random_streamline(rng) for _ in range(n_rows)]
    cols = [random_streamline(rng) for _ in range(n_cols)]
    for m in (3, 12, 20):
        got = distance_matrix(mdf(m), rows, cols)
        expected = np.array([[d_mdf(a, b, m) for b in cols] for a in rows])
        assert np.array_equal(got, expected)


def test_rigid_motion_invariance_all_kinds():
    rng = np.random.default_rng(35)
    for _ in range(10):
        a, b = random_streamline(rng), random_streamline(rng)
        rot = random_rotation(rng)
        shift = rng.uniform(-100, 100, 3)
        a2, b2 = rigid_motion(a, rot, shift), rigid_motion(b, rot, shift)
        for kind in default_kinds():
            assert distance(kind, a, b) == pytest.approx(
                distance(kind, a2, b2), rel=1e-7, abs=1e-7)


# ---------------------------------------------------------------------------
# The row-batched closest-point kernel (mc, sc, lc)
# ---------------------------------------------------------------------------

CLOSEST = [MC, SC, LC]
PICK = {"mc": lambda ab, ba: (ab + ba) / 2.0, "sc": min, "lc": max}


def closest_fixture():
    """Rows of 2-40 points against 26 columns, one of them 1,200 points
    long: longer than a whole run for every row of 28+ points at the
    module's run size, and the rest spread over several runs."""
    rng = np.random.default_rng(37)
    rows = [random_streamline(rng, n) for n in (2, 17, 28, 40)]
    cols = [random_streamline(rng, int(rng.integers(2, 30))) for _ in range(25)]
    cols.insert(10, random_streamline(rng, 1200))
    return rows, cols


@pytest.fixture(scope="module")
def closest_case():
    rows, cols = closest_fixture()
    # Both asymmetric means per pair, from the loop oracle, computed once.
    means = [[(naive_closest_mean(a.points, b.points), naive_closest_mean(b.points, a.points))
              for b in cols] for a in rows]
    return rows, cols, means


@pytest.mark.parametrize("run", [None, 64, 300])
@pytest.mark.parametrize("kind", CLOSEST, ids=str)
def test_closest_runs_match_oracle(closest_case, kind, run, monkeypatch):
    if run is not None:
        monkeypatch.setattr("tractodist.distances._RUN_POINT_PAIRS", run)
    rows, cols, means = closest_case
    got = distance_matrix(kind, rows, cols)
    assert got.shape == (len(rows), len(cols))
    for i in range(len(rows)):
        for j in range(len(cols)):
            assert got[i, j] == pytest.approx(PICK[kind.tag](*means[i][j]), rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("kind", CLOSEST, ids=str)
def test_closest_two_point_streamlines(kind):
    rng = np.random.default_rng(38)
    streams = [random_streamline(rng, 2) for _ in range(9)]
    naive = {"mc": naive_mc, "sc": naive_sc, "lc": naive_lc}[kind.tag]
    sym = distance_matrix(kind, streams)
    rect = distance_matrix(kind, streams[:4], streams[4:])
    for i in range(9):
        for j in range(9):
            assert sym[i, j] == pytest.approx(naive(streams[i].points, streams[j].points),
                                              rel=1e-9, abs=1e-9)
    for i in range(4):
        for j in range(5):
            assert rect[i, j] == pytest.approx(
                naive(streams[i].points, streams[4 + j].points), rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("kind", CLOSEST, ids=str)
def test_closest_duplicates_are_exactly_zero(kind):
    rng = np.random.default_rng(39)
    base = [random_streamline(rng, n) for n in (2, 15, 33)]
    # The same objects twice, and equal copies built from their points.
    streams = base + base + [S(s.points.copy()) for s in base]
    for m in (distance_matrix(kind, streams), distance_matrix(kind, streams, list(streams))):
        for i in range(len(streams)):
            for j in range(len(streams)):
                if i % 3 == j % 3:
                    assert m[i, j] == 0.0
                else:
                    assert m[i, j] > 0.0


@pytest.mark.parametrize("run", [None, 64])
@pytest.mark.parametrize("kind", CLOSEST, ids=str)
def test_closest_entries_do_not_depend_on_the_call(kind, run, monkeypatch):
    """One row alone, the symmetric upper triangle and the rectangular
    matrix give the same bits, whichever run an entry falls in."""
    if run is not None:
        monkeypatch.setattr("tractodist.distances._RUN_POINT_PAIRS", run)
    rows, cols = closest_fixture()
    streams = rows + cols
    full = distance_matrix(kind, rows, cols)
    for i in range(len(rows)):
        assert np.array_equal(distance_matrix(kind, rows[i:i + 1], cols)[0], full[i])
    sym = distance_matrix(kind, streams)
    upper = np.triu_indices(len(streams))
    assert np.array_equal(sym[upper], distance_matrix(kind, streams, list(streams))[upper])


# ---------------------------------------------------------------------------
# The mdf row-block loop
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("budget", ["default", "one", "split"])
@pytest.mark.parametrize("m", [2, 3, 12, 20, 32])
def test_mdf_row_blocks_give_the_per_pair_bits(m, budget, monkeypatch):
    """Blocks of one row, blocks that split the matrix with a short last
    block, and the default budget all give d_mdf's bits, an exactly
    symmetric matrix and the rows of one-row calls."""
    rng = np.random.default_rng(41)
    rows = [random_streamline(rng) for _ in range(11)]
    cols = [random_streamline(rng) for _ in range(7)]
    streams = rows + cols
    # "split": 4 rows per symmetric block (4+4+4+4+2), 10 per rectangular (10+1).
    size = {"one": 1, "split": 4 * len(streams) * m}.get(budget)
    if size is not None:
        monkeypatch.setattr("tractodist.distances._RUN_POINT_PAIRS", size)
    kind = mdf(m)
    rect = distance_matrix(kind, rows, cols)
    for i, a in enumerate(rows):
        assert [rect[i, j] for j in range(len(cols))] == [d_mdf(a, b, m) for b in cols]
        assert np.array_equal(distance_matrix(kind, rows[i:i + 1], cols)[0], rect[i])
    sym = distance_matrix(kind, streams)
    assert np.array_equal(sym, sym.T)
    upper = np.triu_indices(len(streams))
    assert np.array_equal(sym[upper], distance_matrix(kind, streams, list(streams))[upper])
    stack = resample_stack(streams, m)
    ii, jj = rng.integers(0, len(streams), (2, 40))
    assert list(mdf_min_direct_flipped(stack[ii], stack[jj])) == \
        [d_mdf(streams[i], streams[j], m) for i, j in zip(ii, jj)]
    assert distance_matrix(kind, [], cols).shape == (0, len(cols))
    assert distance_matrix(kind, rows, []).shape == (len(rows), 0)
    assert distance_matrix(kind, []).shape == (0, 0)
    assert mdf_min_direct_flipped(stack[:0], stack[:0]).shape == (0,)


@pytest.mark.parametrize("m", [2, 20])
def test_mdf_engine_reads_the_resampled_store_without_a_copy(m, monkeypatch):
    """The engine's planes are resample_stack's (3, n, m) store itself, and
    gathered (n, m, 3) stacks, views or copies, give the per-pair bits."""
    rng = np.random.default_rng(42)
    streams = [random_streamline(rng) for _ in range(9)]
    made = []

    def recording(t, m):
        made.append(resample_stack(t, m))
        return made[-1]

    monkeypatch.setattr("tractodist.distances.resample_stack", recording)
    planes = distances._prepare(mdf(m), Tractogram(streams))
    assert planes.shape == (3, len(streams), m)
    assert np.shares_memory(planes, made[0].base)
    stack = made[0]
    ii, jj = rng.integers(0, len(streams), (2, 30))
    expected = [d_mdf(streams[i], streams[j], m) for i, j in zip(ii, jj)]
    assert list(mdf_min_direct_flipped(stack[ii], stack[jj])) == expected
    copies = np.ascontiguousarray(stack[ii]), np.ascontiguousarray(stack[jj])
    assert list(mdf_min_direct_flipped(*copies)) == expected


@pytest.mark.parametrize("m", [2, 12, 20, 32])
def test_mdf_self_distance_is_exactly_zero(m):
    rng = np.random.default_rng(43)
    streams = [random_streamline(rng) for _ in range(9)]
    assert [d_mdf(s, s, m) for s in streams] == [0.0] * len(streams)
    assert np.all(np.diag(distance_matrix(mdf(m), streams)) == 0.0)
    assert np.all(np.diag(distance_matrix(mdf(m), streams, list(streams))) == 0.0)


@pytest.mark.parametrize("kind", default_kinds(), ids=str)
def test_empty_rows_or_columns(kind):
    rng = np.random.default_rng(40)
    streams = [random_streamline(rng) for _ in range(3)]
    assert distance_matrix(kind, [], streams).shape == (0, 3)
    assert distance_matrix(kind, streams, []).shape == (3, 0)
    assert distance_matrix(kind, []).shape == (0, 0)
