import math
import re

import numpy as np
import pytest

from conftest import naive_nearest, naive_points_at_arc_lengths, random_streamline
from tractodist.ann import KdTree
from tractodist.bench import default_benchmark_subjects
from tractodist.distances import MC, distance, distance_matrix, mdf
from tractodist import segmentation
from tractodist.errors import (
    BothEmpty,
    EmptyExampleBundle,
    IndexOutOfRange,
    InvalidSpec,
    KindMismatch,
)
from tractodist.model import (
    _PAD_ROWS,
    BundleRef,
    Tractogram,
    arc_lengths,
    build_streamline,
)
from tractodist.synth import random_smooth_curve
from tractodist.segmentation import (
    VoxelGrid,
    VoxelSet,
    dsc,
    prepare_target,
    segment,
    voxelize,
)


def small_subject(seed=0, n=30):
    rng = np.random.default_rng(seed)
    return Tractogram([random_streamline(rng) for _ in range(n)])


# ---------------------------------------------------------------------------
# segment
# ---------------------------------------------------------------------------

def test_self_segmentation_identity():
    t = small_subject()
    example = BundleRef(t, [2, 5, 9, 11], name="b")
    kind = mdf(12)
    embedded, tree = prepare_target(t, kind, prototype_count=8, rng_seed=0)
    result = segment(example, embedded, tree, t, kind)
    assert result.predicted.indices == example.indices
    assert result.predicted.name == "b"
    for e_idx, t_idx, d in result.per_query:
        assert t_idx == e_idx
        assert d == pytest.approx(0.0, abs=1e-9)


def test_predicted_no_larger_than_example_and_multiplicity_sums():
    subjects = default_benchmark_subjects(subject_count=2, seed=11)
    target = subjects[1].tractogram
    kind = MC
    embedded, tree = prepare_target(target, kind, rng_seed=0)
    example = subjects[0].truth["arc"]
    result = segment(example, embedded, tree, target, kind)
    assert len(result.predicted) <= len(example)
    assert sum(result.multiplicity.values()) == len(example)
    assert result.example_indices == example.indices


def test_embedded_picks_mostly_match_original_distance_nn():
    # The embedded pipeline should agree with brute-force NN in the
    # original distance for >= 80% of queries at the default dimension.
    # Target: 200 scattered curves; queries: slightly displaced copies of
    # 50 of them, so each true NN is well defined.
    rng = np.random.default_rng(19)
    curves = [random_smooth_curve(rng, (-50.0,) * 3, (50.0,) * 3, (20, 40))
              for _ in range(200)]
    target = Tractogram(curves)
    queries = Tractogram(
        [build_streamline(curves[4 * i].points + rng.normal(0.0, 1.0, 3))
         for i in range(50)]
    )
    kind = mdf(20)
    embedded, tree = prepare_target(target, kind, prototype_count=40, rng_seed=0)
    result = segment(BundleRef(queries, range(50)), embedded, tree, target, kind)

    agree = 0
    for e_idx, picked, _ in result.per_query:
        q = queries[e_idx]
        true_nn = min(range(len(target)),
                      key=lambda j: (distance(kind, q, target[j]), j))
        agree += picked == true_nn
    assert agree / len(result.per_query) >= 0.8


def test_far_noise_does_not_change_prediction():
    # Noise streamlines far from a well-separated bundle must not change
    # the predicted set, even though they change the prototypes.
    rng = np.random.default_rng(3)
    curves = [random_smooth_curve(rng, (-50.0,) * 3, (50.0,) * 3, (20, 40))
              for _ in range(40)]
    target = Tractogram(curves)
    queries = Tractogram(
        [build_streamline(curves[2 * i].points + rng.normal(0.0, 0.5, 3))
         for i in range(15)]
    )
    example = BundleRef(queries, range(15))
    far = [random_smooth_curve(rng, (900.0,) * 3, (1000.0,) * 3, (20, 40))
           for _ in range(30)]
    noisy = Tractogram(curves + far)

    kind = MC
    picks = {}
    for label, t in (("clean", target), ("noisy", noisy)):
        embedded, tree = prepare_target(t, kind, prototype_count=20, rng_seed=0)
        picks[label] = set(segment(example, embedded, tree, t, kind).predicted.indices)
    assert picks["clean"] == picks["noisy"]


@pytest.mark.parametrize("kind", [MC, mdf(12)])
def test_segment_per_query_matches_linear_scan(kind):
    # The target repeats its first 10 streamlines, so their embedding rows
    # tie exactly and must resolve to the lower index.
    base = small_subject(seed=3, n=40)
    target = Tractogram(list(base) + list(base)[:10])
    other = small_subject(seed=4, n=20)
    embedded, tree = prepare_target(target, kind, prototype_count=6, rng_seed=0)
    protos = [target[j] for j in embedded.prototypes.indices]
    picks = []
    for example in (BundleRef(target, [2, 7, 19, 41, 45, 49]),
                    BundleRef(other, range(20))):
        result = segment(example, embedded, tree, target, kind)
        queries = distance_matrix(kind, example.streamlines(), protos)
        want = [(e, *naive_nearest(embedded.vectors, q))
                for e, q in zip(example.indices, queries)]
        assert list(result.per_query) == want
        picks.append([t_idx for _, t_idx, _ in result.per_query])
    assert picks[0] == [2, 7, 19, 1, 5, 9]


def test_segment_rejects_empty_example():
    t = small_subject()
    embedded, tree = prepare_target(t, MC, prototype_count=4, rng_seed=0)
    with pytest.raises(EmptyExampleBundle):
        segment(BundleRef(t, []), embedded, tree, t, MC)


def test_segment_rejects_kind_mismatch():
    t = small_subject()
    embedded, tree = prepare_target(t, MC, prototype_count=4, rng_seed=0)
    with pytest.raises(KindMismatch):
        segment(BundleRef(t, [0]), embedded, tree, t, mdf(12))


def test_segment_rejects_inconsistent_tree():
    t = small_subject()
    embedded, _ = prepare_target(t, MC, prototype_count=4, rng_seed=0)
    wrong_dim = KdTree(np.zeros((len(t), 3)))
    with pytest.raises(KindMismatch):
        segment(BundleRef(t, [0]), embedded, wrong_dim, t, MC)
    wrong_rows = KdTree(embedded.vectors[:5])
    with pytest.raises(KindMismatch):
        segment(BundleRef(t, [0]), embedded, wrong_rows, t, MC)


def test_result_json_dict_shape():
    t = small_subject()
    example = BundleRef(t, [1, 3], name="x")
    embedded, tree = prepare_target(t, MC, prototype_count=4, rng_seed=0)
    doc = segment(example, embedded, tree, t, MC).to_json_dict()
    assert doc["kind"] == "mc"
    assert doc["prototype_count"] == 4
    assert doc["example"] == [1, 3]
    assert doc["predicted"] == [1, 3]
    assert doc["multiplicity"] == {"1": 1, "3": 1}
    assert [q[0] for q in doc["per_query"]] == [1, 3]


# ---------------------------------------------------------------------------
# voxelize
# ---------------------------------------------------------------------------

def test_voxelize_single_voxel():
    t = Tractogram([build_streamline([[0.1, 0.1, 0.1], [0.2, 0.1, 0.1]])])
    vox = voxelize(BundleRef(t, [0]), t, VoxelGrid())
    assert vox == {(0, 0, 0)}


def test_voxelize_straight_line_walk_oracle():
    # Hand walk: samples every voxel_size/2 = 0.625 mm plus both endpoints;
    # floor(x / 1.25) for x = 0, .625, ..., 5.0 gives indices 0..4.
    t = Tractogram([build_streamline([[0, 0, 0], [5, 0, 0]])])
    expected = set()
    x, total, step = 0.0, 5.0, 1.25 / 2
    while x < total:
        expected.add((math.floor(x / 1.25), 0, 0))
        x += step
    expected.add((math.floor(total / 1.25), 0, 0))
    assert expected == {(i, 0, 0) for i in range(5)}
    vox = voxelize(BundleRef(t, [0]), t, VoxelGrid())
    assert vox == expected


def test_voxelize_respects_origin():
    t = Tractogram([build_streamline([[0, 0, 0], [5, 0, 0]])])
    vox = voxelize(BundleRef(t, [0]), t, VoxelGrid(origin=(-1.25, -1.25, -1.25)))
    assert vox == {(i, 1, 1) for i in range(1, 6)}


def naive_voxelize_one(points, grid):
    """Walk one polyline at half-voxel arc-length steps, pure Python."""
    step = grid.voxel_size / 2.0
    cum = [0.0]
    for a, b in zip(points[:-1], points[1:]):
        cum.append(cum[-1] + math.dist(a, b))
    total = cum[-1]
    targets = [k * step for k in range(math.ceil(total / step))] + [total]
    out = set()
    for s in targets:
        seg = max(0, min(np.searchsorted(cum, s, side="right") - 1, len(cum) - 2))
        seglen = cum[seg + 1] - cum[seg]
        frac = (s - cum[seg]) / seglen if seglen > 0 else 0.0
        p = points[seg] + frac * (points[seg + 1] - points[seg])
        out.add(tuple(math.floor((p[i] - grid.origin[i]) / grid.voxel_size)
                      for i in range(3)))
    return out


def test_voxelize_matches_naive_walk():
    rng = np.random.default_rng(61)
    t = Tractogram([random_streamline(rng) for _ in range(6)])
    grid = VoxelGrid(origin=(-0.4, 0.3, 0.0), voxel_size=1.7)
    expected = set()
    for i in (0, 2, 4, 5):
        expected |= naive_voxelize_one(t[i].points, grid)
    assert voxelize(BundleRef(t, [0, 2, 4, 5]), t, grid) == expected


def test_voxelize_union_is_union_of_parts():
    rng = np.random.default_rng(62)
    t = Tractogram([random_streamline(rng) for _ in range(4)])
    grid = VoxelGrid()
    whole = voxelize(BundleRef(t, range(4)), t, grid)
    parts = set()
    for i in range(4):
        parts.update(voxelize(BundleRef(t, [i]), t, grid))
    assert whole == parts


def test_voxelize_empty_bundle_is_empty():
    t = small_subject()
    assert voxelize(BundleRef(t, []), t, VoxelGrid()) == set()


def test_voxel_grid_validates():
    with pytest.raises(InvalidSpec):
        VoxelGrid(voxel_size=0.0)
    with pytest.raises(InvalidSpec):
        VoxelGrid(voxel_size=-1.0)


@pytest.mark.parametrize("origin", [(0, 0), (math.nan, 0.0, 0.0), (0.0, -math.inf, 0.0), "abc"])
def test_voxel_grid_rejects_an_origin_other_than_three_finite_numbers(origin):
    with pytest.raises(InvalidSpec, match=r"origin .*" + re.escape(repr(origin))):
        VoxelGrid(origin=origin)


def test_voxel_grid_rejects_non_finite_sizes():
    for size in (math.inf, math.nan):
        with pytest.raises(InvalidSpec):
            VoxelGrid(voxel_size=size)


def test_voxelize_rejects_a_walk_past_the_sample_bound(monkeypatch):
    t = Tractogram([build_streamline([[0.0, 0.0, 0.0], [100.0, 0.0, 0.0]])])
    for size in (1e-30, 1e-300):
        with pytest.raises(InvalidSpec):
            voxelize(BundleRef(t, [0]), t, VoxelGrid(voxel_size=size))
    # 100 mm at half-voxel steps: exactly at, then just past the bound.
    monkeypatch.setattr("tractodist.segmentation.MAX_VOXEL_SAMPLES", 1000)
    assert len(voxelize(BundleRef(t, [0]), t, VoxelGrid(voxel_size=0.2))) == 501
    with pytest.raises(InvalidSpec):
        voxelize(BundleRef(t, [0]), t, VoxelGrid(voxel_size=0.1999))


def reference_voxelize(bundle, tractogram, grid):
    """voxelize one streamline at a time: the per-streamline walk that the
    blocked walk must equal set for set, with the same checks raised for
    the first bad streamline in bundle order."""
    step = grid.voxel_size / 2.0
    origin = np.asarray(grid.origin, dtype=np.float64)
    voxels = set()
    n = len(tractogram)
    for i in bundle.indices:
        if i >= n:
            raise IndexOutOfRange(f"bundle index {i} not in tractogram of size {n}")
        pts = tractogram[i].points
        total = arc_lengths(pts)[-1]
        if total / step > segmentation.MAX_VOXEL_SAMPLES:
            raise InvalidSpec(f"streamline {i} ({total:.6g} mm) needs more than "
                              f"{segmentation.MAX_VOXEL_SAMPLES} samples at voxel size "
                              f"{grid.voxel_size:g} mm")
        ts = np.append(np.arange(0.0, total, step), total)
        floored = np.floor((naive_points_at_arc_lengths(pts, ts) - origin) / grid.voxel_size)
        if not ((floored >= -2.0 ** 63) & (floored < 2.0 ** 63)).all():
            raise InvalidSpec(f"streamline {i} reaches a voxel index outside int64 "
                              f"at voxel size {grid.voxel_size:g} mm")
        voxels.update(map(tuple, floored.astype(np.int64).tolist()))
    return voxels


def mixed_tractogram(seed, n):
    """Random walks of 2 to 39 points and lengths from a few mm to ~200 mm."""
    rng = np.random.default_rng(seed)
    return Tractogram([random_streamline(rng, scale=float(rng.uniform(2.0, 120.0)))
                       for _ in range(n)])


ROWS = _PAD_ROWS


@pytest.mark.parametrize("size", [0, 1, ROWS - 1, ROWS, ROWS + 1])
@pytest.mark.parametrize("voxel_size", [1.25, 1.7, 0.3])
@pytest.mark.parametrize("block_samples", [segmentation._VOXEL_BLOCK_SAMPLES, 700])
def test_blocked_voxelize_equals_the_per_streamline_walk(monkeypatch, size, voxel_size,
                                                         block_samples):
    monkeypatch.setattr(segmentation, "_VOXEL_BLOCK_SAMPLES", block_samples)
    t = mixed_tractogram(70, ROWS + 12)
    picks = np.random.default_rng(size).choice(len(t), size, replace=False)
    bundle = BundleRef(t, picks)
    grid = VoxelGrid(origin=(-3.1, 0.45, 2.2), voxel_size=voxel_size)
    assert voxelize(bundle, t, grid) == reference_voxelize(bundle, t, grid)


def test_blocked_voxelize_far_apart_streamlines_take_the_exact_fallback():
    # Streamlines ~1e10 mm apart on every axis in one block: ~1e30 linear
    # codes, past int64, so the block takes np.unique(axis=0).
    t = mixed_tractogram(71, 6)
    t = Tractogram([t[0], t[1], build_streamline(t[2].points + 1e10),
                    build_streamline(t[3].points - 1e10), t[4]])
    bundle = BundleRef(t, range(len(t)))
    grid = VoxelGrid(origin=(0.5, -0.5, 0.25))
    expected = reference_voxelize(bundle, t, grid)
    extent = [max(v[a] for v in expected) - min(v[a] for v in expected) + 1 for a in range(3)]
    assert math.prod(extent) > np.iinfo(np.int64).max
    assert voxelize(bundle, t, grid) == expected


def test_distinct_rows_is_exact_at_the_int64_extremes():
    lo, hi = -2 ** 63, 2 ** 63 - 1
    for rows in ([[lo, 0, 0], [hi, 0, 0], [lo, 0, 0], [0, hi, lo]],  # codes overflow
                 [[lo, 7, -1], [lo + 5, 7, -1], [lo, 7, -1]],  # codes fit
                 [[hi, hi, hi], [hi, hi, hi]]):
        got = segmentation._distinct_rows(np.array(rows, dtype=np.int64))
        assert got.dtype == np.int64
        assert got.tolist() == sorted(map(list, {tuple(r) for r in rows}))
        assert VoxelSet([(1, 2, 3), *rows]) == {(1, 2, 3)} | {tuple(r) for r in rows}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("lines, voxel_size, message", [
    # floor(±1e30 / 1.25) is no int64; a cast wraps both to -2**63.
    ([[[1e30, 0, 0], [1e30, 1, 0]], [[-1e30, 0, 0], [-1e30, 1, 0]]], 1.25,
     "streamline 0 reaches a voxel index outside int64"),
    # 1e300 / 1e-290 overflows to inf.
    ([[[1e300, 0, 0], [1e300, 1e-300, 0]]], 1e-290,
     "streamline 0 reaches a voxel index outside int64"),
    # 1 mm / (1e-320 / 2) overflows to inf samples.
    ([[[0, 0, 0], [1, 0, 0]]], 1e-320, "streamline 0 .* needs more than"),
])
def test_voxelize_rejects_out_of_range_walks_without_a_warning(lines, voxel_size, message):
    t = Tractogram([build_streamline(line) for line in lines])
    with pytest.raises(InvalidSpec, match=message):
        voxelize(BundleRef(t, range(len(t))), t, VoxelGrid(voxel_size=voxel_size))


@pytest.mark.parametrize("far, long, cut", [
    (3, 9, None),              # int64 overflow first
    (9, 3, None),              # too many samples first
    (ROWS + 2, 5, None),       # the first bad one is in the first block
    (5, ROWS + 2, None),
    (ROWS + 3, ROWS + 1, None),
    (None, ROWS + 1, ROWS + 3),  # a walk too long, then indices past the end
    (None, None, ROWS + 3),    # only indices past the end
    (ROWS + 4, None, ROWS + 3),
])
def test_voxelize_reports_the_first_bad_streamline_in_bundle_order(monkeypatch, far, long, cut):
    monkeypatch.setattr(segmentation, "MAX_VOXEL_SAMPLES", 100)
    rng = np.random.default_rng(72)
    lines = [random_streamline(rng, scale=5.0) for _ in range(ROWS + 6)]
    if far is not None:
        lines[far] = build_streamline([[1e30, 0.0, 0.0], [1e30, 1.0, 0.0]])
    if long is not None:
        lines[long] = build_streamline([[0.0, 0.0, 0.0], [200.0, 0.0, 0.0]])
    full = Tractogram(lines)
    bundle = BundleRef(full, range(len(full)))
    t = Tractogram(lines[:cut]) if cut else full
    with pytest.raises((InvalidSpec, IndexOutOfRange)) as want:
        reference_voxelize(bundle, t, VoxelGrid())
    with pytest.raises(type(want.value)) as got:
        voxelize(bundle, t, VoxelGrid())
    assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# dsc
# ---------------------------------------------------------------------------

def test_dsc_identical_and_disjoint():
    a = VoxelSet({(0, 0, 0), (1, 0, 0)})
    assert dsc(a, VoxelSet(set(a))) == 1.0
    assert dsc(a, VoxelSet({(9, 9, 9)})) == 0.0


def test_dsc_closed_form():
    a = VoxelSet({(i, 0, 0) for i in range(4)})
    b = VoxelSet({(i, 0, 0) for i in range(2, 8)})
    # |a & b| = 2, |a| = 4, |b| = 6
    assert dsc(a, b) == pytest.approx(2 * 2 / (4 + 6), rel=1e-12)


def test_dsc_equals_the_python_set_oracle():
    rng = np.random.default_rng(93)
    pairs = [tuple({tuple(r) for r in rng.integers(-4, 5, size=(rng.integers(1, 40), 3)).tolist()}
                   for _ in range(2))
             for _ in range(30)]
    # Joint extent 2**64 on the first axis: the overlap takes np.unique(axis=0).
    far = ({(-2 ** 63, 0, 0), (0, 0, 0), (5, 5, 5)},
           {(2 ** 63 - 1, 0, 0), (0, 0, 0), (0, 2 ** 62, -2 ** 62)})
    assert max(v[0] for v in far[1]) - min(v[0] for v in far[0]) + 1 > np.iinfo(np.int64).max
    for a, b in pairs + [far, far[::-1], (far[0], far[0])]:
        assert dsc(VoxelSet(a), VoxelSet(b)) == 2 * len(a & b) / (len(a) + len(b))


def test_voxel_set_equals_python_sets_from_either_side():
    tuples = {(0, 0, 0), (-3, 2, 1), (2 ** 40, -1, 7)}
    v = VoxelSet(sorted(tuples, reverse=True) + [(0, 0, 0)])
    assert len(v) == 3
    assert v == tuples and tuples == v
    assert v == frozenset(tuples) and frozenset(tuples) == v
    assert v == VoxelSet(tuples)
    assert v.rows.dtype == np.int64 and v.rows.tolist() == sorted(map(list, tuples))
    assert not v.rows.flags.writeable
    assert all(type(i) is int for voxel in v for i in voxel)
    assert set(v) == tuples
    other = {(0, 0, 0), (-3, 2, 1), (2 ** 40, -1, 8)}
    assert len(other) == len(v)
    assert v != other and other != v
    assert not v == other and not other == v
    assert v != VoxelSet(other)
    assert VoxelSet() == set() and len(VoxelSet()) == 0


def test_dsc_one_empty_is_zero():
    assert dsc(set(), {(0, 0, 0)}) == 0.0
    assert dsc({(0, 0, 0)}, set()) == 0.0


def test_dsc_takes_python_sets_on_both_paths():
    assert dsc({(0, 0, 0)}, {(0, 0, 0)}) == 1.0
    a = {(i, 0, 0) for i in range(4)}
    b = {(i, 0, 0) for i in range(2, 8)}
    both = dsc(VoxelSet(a), VoxelSet(b))
    assert dsc(a, VoxelSet(b)) == dsc(VoxelSet(a), b) == dsc(a, b) == both


def test_dsc_both_empty_raises():
    with pytest.raises(BothEmpty):
        dsc(set(), set())
