import math

import numpy as np
import pytest

from conftest import naive_nearest, random_streamline
from tractodist.ann import KdTree
from tractodist.bench import default_benchmark_subjects
from tractodist.distances import MC, distance, distance_matrix, mdf
from tractodist.errors import BothEmpty, EmptyExampleBundle, InvalidSpec, KindMismatch
from tractodist.model import BundleRef, Tractogram, build_streamline
from tractodist.synth import random_smooth_curve
from tractodist.segmentation import (
    VoxelGrid,
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
        parts |= voxelize(BundleRef(t, [i]), t, grid)
    assert whole == parts


def test_voxelize_empty_bundle_is_empty():
    t = small_subject()
    assert voxelize(BundleRef(t, []), t, VoxelGrid()) == set()


def test_voxel_grid_validates():
    with pytest.raises(InvalidSpec):
        VoxelGrid(voxel_size=0.0)
    with pytest.raises(InvalidSpec):
        VoxelGrid(voxel_size=-1.0)


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


# ---------------------------------------------------------------------------
# dsc
# ---------------------------------------------------------------------------

def test_dsc_identical_and_disjoint():
    a = {(0, 0, 0), (1, 0, 0)}
    assert dsc(a, set(a)) == 1.0
    assert dsc(a, {(9, 9, 9)}) == 0.0


def test_dsc_closed_form():
    a = {(i, 0, 0) for i in range(4)}
    b = {(i, 0, 0) for i in range(2, 8)}
    # |a & b| = 2, |a| = 4, |b| = 6
    assert dsc(a, b) == pytest.approx(2 * 2 / (4 + 6), rel=1e-12)


def test_dsc_one_empty_is_zero():
    assert dsc(set(), {(0, 0, 0)}) == 0.0
    assert dsc({(0, 0, 0)}, set()) == 0.0


def test_dsc_both_empty_raises():
    with pytest.raises(BothEmpty):
        dsc(set(), set())
