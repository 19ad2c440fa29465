import numpy as np
import pytest

from conftest import (
    naive_arclength_resample,
    naive_points_at_arc_lengths,
    naive_resample,
    random_streamline,
)
from tractodist.errors import (
    FewerThanTwoDistinctPoints,
    InvalidResampleCount,
    IndexOutOfRange,
    NonFiniteCoordinate,
)
from tractodist.model import (
    BundleRef,
    Streamline,
    Tractogram,
    arc_lengths,
    build_streamline,
    flip,
    points_at_arc_lengths,
    resample,
    resample_stack,
)
from tractodist.io import read_tractogram, write_tractogram


def test_construction_copies_and_freezes():
    raw = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0]])
    s = build_streamline(raw)
    raw[0, 0] = 99.0
    assert s.points[0, 0] == 0.0
    with pytest.raises(ValueError):
        s.points[0, 0] = -1.0


def test_consecutive_duplicates_collapse():
    s = build_streamline([[0, 0, 0], [0, 0, 0], [1, 0, 0], [1, 0, 0], [2, 0, 0]])
    assert len(s) == 3
    np.testing.assert_array_equal(s.points[:, 0], [0, 1, 2])


def test_nonconsecutive_repeats_survive():
    s = build_streamline([[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    assert len(s) == 3


def test_rejects_degenerate_inputs():
    with pytest.raises(FewerThanTwoDistinctPoints):
        build_streamline([[1, 1, 1]])
    with pytest.raises(FewerThanTwoDistinctPoints):
        build_streamline([[1, 1, 1], [1, 1, 1], [1, 1, 1]])
    with pytest.raises(FewerThanTwoDistinctPoints):
        build_streamline(np.empty((0, 3)))
    with pytest.raises(NonFiniteCoordinate):
        build_streamline([[0, 0, 0], [np.nan, 0, 0]])
    with pytest.raises(NonFiniteCoordinate):
        build_streamline([[0, 0, 0], [np.inf, 0, 0]])


def test_resample_straight_midpoint():
    s = build_streamline([[0, 0, 0], [2, 0, 0]])
    np.testing.assert_allclose(resample(s, 3).points,
                               [[0, 0, 0], [1, 0, 0], [2, 0, 0]], atol=1e-12)


def test_resample_m2_keeps_endpoints():
    s = build_streamline([[0, 0, 0], [1, 0, 0]])
    np.testing.assert_array_equal(resample(s, 2).points, [[0, 0, 0], [1, 0, 0]])


def test_resample_corner_matches_walker_oracle():
    # L-shaped polyline, arc length 2; checkpoint positions 0, 1, 2 land on
    # the original vertices. Oracle: brute-force arc-length walker.
    pts = [[0, 0, 0], [1, 0, 0], [1, 1, 0]]
    expected = naive_arclength_resample(pts, 3)
    got = resample(build_streamline(pts), 3).points
    np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(got, pts, atol=1e-12)


def test_resample_random_matches_walker_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        s = random_streamline(rng)
        m = int(rng.integers(2, 50))
        np.testing.assert_allclose(
            resample(s, m).points,
            naive_arclength_resample(s.points, m),
            rtol=1e-9, atol=1e-9,
        )


def test_resample_point_count_and_endpoints():
    rng = np.random.default_rng(5)
    for _ in range(20):
        s = random_streamline(rng)
        m = int(rng.integers(2, 64))
        r = resample(s, m)
        assert len(r) == m
        np.testing.assert_array_equal(r.points[0], s.points[0])
        np.testing.assert_array_equal(r.points[-1], s.points[-1])


def test_resample_preserves_arc_length_of_straight_lines():
    s = build_streamline([[0, 0, 0], [10, 0, 0]])
    for m in (2, 3, 7, 33):
        assert arc_lengths(resample(s, m).points)[-1] == pytest.approx(10.0, abs=1e-12)


def test_resample_rejects_bad_counts():
    s = build_streamline([[0, 0, 0], [1, 0, 0]])
    for m in (1, 0, -3):
        with pytest.raises(InvalidResampleCount):
            resample(s, m)


def _mixed_pool(rng) -> list:
    """601 streamlines (ten resampling blocks) of 2 to 300 points, shuffled so
    that short and long ones share blocks, plus two fixed polylines."""
    pool = [random_streamline(rng, int(n)) for n in rng.integers(2, 40, 560)]
    pool += [random_streamline(rng, 2) for _ in range(30)]
    pool += [random_streamline(rng, int(n)) for n in rng.integers(150, 300, 9)]
    pool.append(build_streamline([[0, 0, 0], [2, 0, 0], [0, 0, 0]]))
    # Interpolating to the end gives -36.6 + (34.7 - -36.6) != 34.7, so
    # only pinning keeps the last point exact.
    pool.append(build_streamline([[0, 0, 0], [-36.6, 0, 0], [34.7, 0, 0]]))
    rng.shuffle(pool)
    return pool


@pytest.mark.parametrize("m", [2, 3, 12, 20, 32])
def test_resample_stack_is_bit_identical_to_per_streamline(m):
    pool = _mixed_pool(np.random.default_rng(40 + m))
    got = resample_stack(pool, m)
    assert got.shape == (len(pool), m, 3)
    expected = np.stack([naive_resample(s.points, m) for s in pool])
    assert np.array_equal(got, expected)
    for s in pool[:20]:
        assert np.array_equal(resample(s, m).points, naive_resample(s.points, m))


@pytest.mark.parametrize("n", [0, 1, 601])
def test_resample_stack_is_a_view_of_coordinate_planes(n):
    pool = _mixed_pool(np.random.default_rng(44))[:n]
    got = resample_stack(pool, 20)
    assert got.shape == (n, 20, 3)
    assert got.base.shape == (3, n, 20)
    assert got.base.flags.c_contiguous
    assert np.array_equal(np.moveaxis(got.base, 0, -1), got)
    for i in range(min(n, 5)):
        assert np.array_equal(got[i], resample(pool[i], 20).points)


def test_resample_stack_reversal_puts_two_samples_on_one_spot():
    s = build_streamline([[0, 0, 0], [2, 0, 0], [0, 0, 0]])
    got = resample_stack([s], 5)[0]
    assert np.array_equal(got, naive_resample(s.points, 5))
    assert np.array_equal(got[1], got[3])


def test_resample_stack_on_trgx_points_is_bit_identical(tmp_path):
    pool = _mixed_pool(np.random.default_rng(41))
    write_tractogram(Tractogram(pool), tmp_path / "t.trgx")
    quantized = list(read_tractogram(tmp_path / "t.trgx").tractogram)
    for m in (12, 20, 32):
        expected = np.stack([naive_resample(s.points, m) for s in quantized])
        assert np.array_equal(resample_stack(quantized, m), expected)


def test_resample_stack_empty_and_bad_counts():
    assert resample_stack([], 20).shape == (0, 20, 3)
    s = build_streamline([[0, 0, 0], [1, 0, 0]])
    for m in (1, 0, 2.5):
        with pytest.raises(InvalidResampleCount):
            resample_stack([s], m)


def test_points_at_arc_lengths_is_bit_identical_to_per_streamline():
    rng = np.random.default_rng(42)
    for s in _mixed_pool(rng)[:200]:
        total = arc_lengths(s.points)[-1]
        # voxelize's positions, plus some outside [0, total] to be clipped
        ts = np.append(np.arange(0.0, total, 0.625), [total, -1.0, total + 1.0])
        assert np.array_equal(points_at_arc_lengths(s.points, ts),
                              naive_points_at_arc_lengths(s.points, ts))


def test_flip_reverses_and_roundtrips():
    s = build_streamline([[0, 0, 0], [1, 0, 0], [3, 1, 0]])
    f = flip(s)
    np.testing.assert_array_equal(f.points, s.points[::-1])
    np.testing.assert_array_equal(flip(f).points, s.points)


def test_length_is_sum_of_segment_norms():
    s = build_streamline([[0, 0, 0], [3, 4, 0], [3, 4, 12]])
    assert arc_lengths(s.points)[-1] == pytest.approx(17.0, abs=1e-12)


def test_tractogram_indexing_and_iteration():
    rng = np.random.default_rng(2)
    streams = [random_streamline(rng) for _ in range(5)]
    t = Tractogram(streams)
    assert len(t) == 5
    assert t[3] == streams[3]
    assert t[-1] == streams[-1]
    assert list(t) == streams
    with pytest.raises(IndexError):
        t[5]
    with pytest.raises(IndexError):
        t[-6]


def test_tractogram_store_is_read_only_and_indexing_views_it():
    rng = np.random.default_rng(5)
    streams = [random_streamline(rng) for _ in range(4)]
    t = Tractogram(streams)
    counts = [len(s) for s in streams]
    assert t.points.dtype == np.float64 and t.points.shape == (sum(counts), 3)
    assert t.offsets.tolist() == np.concatenate(([0], np.cumsum(counts))).tolist()
    for i, s in enumerate(streams):
        assert np.array_equal(t.points[t.offsets[i]:t.offsets[i + 1]], s.points)
        assert np.shares_memory(t[i].points, t.points)
    for array in (t.points, t.offsets, t[-1].points):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0
    empty = Tractogram([])
    assert len(empty) == 0 and list(empty) == []
    assert empty.points.shape == (0, 3) and empty.offsets.tolist() == [0]
    with pytest.raises(IndexError):
        empty[0]


def test_bundle_ref_sorts_dedupes_and_validates():
    rng = np.random.default_rng(3)
    t = Tractogram([random_streamline(rng) for _ in range(4)])
    ref = BundleRef(t, [3, 1, 1, 0], name="x")
    assert ref.indices == (0, 1, 3)
    assert len(ref.streamlines()) == 3
    with pytest.raises(IndexOutOfRange):
        BundleRef(t, [4])
    with pytest.raises(IndexOutOfRange):
        BundleRef(t, [-1])


def test_streamline_equality_and_hash():
    a = build_streamline([[0, 0, 0], [1, 0, 0]])
    b = build_streamline([[0, 0, 0], [1, 0, 0]])
    c = build_streamline([[0, 0, 0], [2, 0, 0]])
    assert a == b and hash(a) == hash(b)
    assert a != c
