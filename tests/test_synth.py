import math

import numpy as np
import pytest

from conftest import naive_mc
from tractodist.distances import d_mc, default_kinds
from tractodist.errors import InvalidSpec
from tractodist.model import Tractogram, build_streamline, resample
from tractodist.segmentation import VoxelGrid, dsc, prepare_target, segment, voxelize
from tractodist.synth import (
    CENTERLINE_SAMPLES,
    BundleSpec,
    evaluate_centerline,
    generate_subject,
    perturb_subject,
    random_smooth_curve,
)


def arc_spec(center=(0.0, 0.0, 0.0), axis="z", **kw):
    spec = {"type": "arc", "center": center, "radius": 40.0,
            "theta0_deg": 0.0, "theta1_deg": 120.0, "axis": axis}
    return BundleSpec(spec, streamline_count=kw.pop("streamline_count", 8),
                      radial_jitter_sigma=kw.pop("radial_jitter_sigma", 2.0), **kw)


# ---------------------------------------------------------------------------
# centerlines
# ---------------------------------------------------------------------------

def test_arc_centerline_geometry():
    pts = evaluate_centerline({"type": "arc", "center": (1.0, 2.0, 3.0),
                               "radius": 5.0, "theta0_deg": 0.0,
                               "theta1_deg": 90.0, "axis": "z"}, samples=33)
    assert pts.shape == (33, 3)
    np.testing.assert_allclose(pts[:, 2], 3.0)
    radii = np.sqrt((pts[:, 0] - 1.0) ** 2 + (pts[:, 1] - 2.0) ** 2)
    np.testing.assert_allclose(radii, 5.0, rtol=1e-12)
    np.testing.assert_allclose(pts[0], [6.0, 2.0, 3.0], atol=1e-12)
    np.testing.assert_allclose(pts[-1], [1.0, 7.0, 3.0], atol=1e-12)


def test_helix_centerline_geometry():
    pts = evaluate_centerline({"type": "helix", "center": (0.0, 0.0, 0.0),
                               "radius": 22.0, "pitch": 35.0, "turns": 1.5,
                               "axis": "y"}, samples=61)
    radii = np.sqrt(pts[:, 0] ** 2 + pts[:, 2] ** 2)
    np.testing.assert_allclose(radii, 22.0, rtol=1e-12)
    np.testing.assert_allclose(pts[0, 1], 0.0, atol=1e-12)
    np.testing.assert_allclose(pts[-1, 1], 35.0 * 1.5, rtol=1e-12)


def test_polyline_centerline_resamples_controls():
    pts = evaluate_centerline({"type": "polyline",
                               "points": [[0, 0, 0], [10, 0, 0], [10, 10, 0]]},
                              samples=21)
    assert pts.shape == (21, 3)
    np.testing.assert_allclose(pts[0], [0, 0, 0], atol=1e-12)
    np.testing.assert_allclose(pts[-1], [10, 10, 0], atol=1e-12)
    steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    np.testing.assert_allclose(steps, steps[0], rtol=1e-9)


@pytest.mark.parametrize("spec", [
    "not a dict",
    {"no_type": 1},
    {"type": "blob"},
    {"type": "arc"},
    {"type": "arc", "radius": "wide"},
    {"type": "arc", "radius": 5.0, "axis": "w"},
    {"type": "helix", "radius": 5.0, "axis": "zz"},
    {"type": "polyline", "points": [[0, 0, 0]]},
    {"type": "polyline", "points": [[0, 0], [1, 1]]},
    {"type": "polyline", "points": "abc"},
])
def test_bad_centerlines_rejected(spec):
    with pytest.raises(InvalidSpec):
        evaluate_centerline(spec)


def test_bundle_spec_validates():
    with pytest.raises(InvalidSpec):
        arc_spec(streamline_count=0)
    with pytest.raises(InvalidSpec):
        arc_spec(radial_jitter_sigma=-0.5)
    with pytest.raises(InvalidSpec):
        arc_spec(points_range=(1, 5))
    with pytest.raises(InvalidSpec):
        arc_spec(points_range=(10, 5))
    with pytest.raises(InvalidSpec):
        BundleSpec({"type": "blob"}, streamline_count=3, radial_jitter_sigma=1.0)
    # Seeds and point counts that numpy's generator or TRGX cannot take.
    for kw in ({"rng_seed": -1}, {"rng_seed": 1.5}, {"rng_seed": "3"}, {"rng_seed": None},
               {"points_range": (3, 1e30)}, {"points_range": (3, 2 ** 32)},
               {"points_range": (3.5, 8)}, {"points_range": (3, 4, 5)}, {"points_range": 7}):
        with pytest.raises(InvalidSpec):
            arc_spec(**kw)


def test_bundle_spec_whole_floats_generate_as_ints():
    as_float = arc_spec(points_range=(10.0, 2.0 ** 32 - 1), rng_seed=3.0)
    assert as_float.points_range == (10, 2 ** 32 - 1) and as_float.rng_seed == 3
    a = generate_subject({"a": arc_spec(points_range=(10.0, 20.0), rng_seed=3.0)})
    b = generate_subject({"a": arc_spec(points_range=(10, 20), rng_seed=3)})
    for s, t in zip(a.tractogram, b.tractogram):
        assert np.array_equal(s.points, t.points)


# ---------------------------------------------------------------------------
# generate_subject
# ---------------------------------------------------------------------------

def test_counts_and_truth_coverage():
    subject = generate_subject({"a": arc_spec(streamline_count=10)}, global_seed=1)
    assert len(subject.tractogram) == 10
    assert subject.truth["a"].indices == tuple(range(10))


def test_noise_extends_tractogram_outside_truth():
    specs = {"a": arc_spec(streamline_count=10),
             "b": arc_spec(center=(100.0, 0.0, 0.0), streamline_count=6, rng_seed=1)}
    subject = generate_subject(specs, noise_streamline_count=7, global_seed=1)
    assert len(subject.tractogram) == 23
    claimed = set(subject.truth["a"].indices) | set(subject.truth["b"].indices)
    assert claimed == set(range(16))
    assert subject.truth["a"].indices == tuple(range(10))
    assert subject.truth["b"].indices == tuple(range(10, 16))


def test_zero_jitter_reproduces_centerline():
    spec = arc_spec(streamline_count=5, radial_jitter_sigma=0.0,
                    points_range=(24, 24))
    subject = generate_subject({"a": spec}, global_seed=3)
    dense = evaluate_centerline(spec.centerline, CENTERLINE_SAMPLES)
    expected = resample(build_streamline(dense), 24)
    for s in subject.tractogram:
        np.testing.assert_array_equal(s.points, expected.points)


def test_point_counts_within_range():
    spec = arc_spec(streamline_count=40, points_range=(20, 25))
    subject = generate_subject({"a": spec}, global_seed=4)
    counts = {len(s) for s in subject.tractogram}
    assert counts <= set(range(20, 26))
    assert len(counts) > 1


def test_generation_is_deterministic():
    specs = {"a": arc_spec(), "b": arc_spec(center=(50.0, 0.0, 0.0), rng_seed=9)}
    s1 = generate_subject(specs, noise_streamline_count=5, global_seed=7)
    s2 = generate_subject(specs, noise_streamline_count=5, global_seed=7)
    assert len(s1.tractogram) == len(s2.tractogram)
    for a, b in zip(s1.tractogram, s2.tractogram):
        np.testing.assert_array_equal(a.points, b.points)
    s3 = generate_subject(specs, noise_streamline_count=5, global_seed=8)
    assert any(not np.array_equal(a.points, b.points)
               for a, b in zip(s1.tractogram, s3.tractogram))


def test_noise_curves_stay_in_bundle_bounding_box():
    subject = generate_subject({"a": arc_spec(streamline_count=12)},
                               noise_streamline_count=20, global_seed=2)
    bundle_pts = np.vstack([subject.tractogram[i].points
                            for i in subject.truth["a"].indices])
    lo, hi = bundle_pts.min(axis=0), bundle_pts.max(axis=0)
    for i in range(12, len(subject.tractogram)):
        pts = subject.tractogram[i].points
        assert np.all(pts >= lo - 1e-9) and np.all(pts <= hi + 1e-9)


def test_generate_subject_validates():
    with pytest.raises(InvalidSpec):
        generate_subject({}, global_seed=0)
    with pytest.raises(InvalidSpec):
        generate_subject({"a": arc_spec()}, noise_streamline_count=-1)


# ---------------------------------------------------------------------------
# bundle separation
# ---------------------------------------------------------------------------

def two_far_bundles(streamline_count):
    return {
        "a": arc_spec(streamline_count=streamline_count, rng_seed=1),
        "b": BundleSpec({"type": "arc", "center": (100.0, 0.0, 100.0),
                         "radius": 40.0, "theta0_deg": 0.0,
                         "theta1_deg": 120.0, "axis": "x"},
                        streamline_count=streamline_count,
                        radial_jitter_sigma=2.0, rng_seed=2),
    }


def test_far_bundles_separate_in_mc_distance():
    subject = generate_subject(two_far_bundles(8), global_seed=5)
    groups = [subject.truth["a"].indices, subject.truth["b"].indices]
    intra, inter = [], []
    for gi, g in enumerate(groups):
        for hi, h in enumerate(groups):
            for i in g:
                for j in h:
                    if i < j:
                        d = naive_mc(subject.tractogram[i].points,
                                     subject.tractogram[j].points)
                        (intra if gi == hi else inter).append(d)
    assert min(inter) > max(intra)


def test_far_bundles_segment_above_dice_floor():
    base = generate_subject(two_far_bundles(50), global_seed=5)
    target_subj = perturb_subject(base, 0.5, seed=6)
    grid = VoxelGrid()
    truth_vox = {name: voxelize(ref, target_subj.tractogram, grid)
                 for name, ref in target_subj.truth.items()}
    for kind in default_kinds():
        embedded, tree = prepare_target(target_subj.tractogram, kind,
                                        prototype_count=40, rng_seed=0)
        for name, ref in base.truth.items():
            res = segment(ref, embedded, tree, target_subj.tractogram, kind)
            score = dsc(voxelize(res.predicted, target_subj.tractogram, grid),
                        truth_vox[name])
            assert score >= 0.8, f"{kind} {name}: {score:.3f}"


# ---------------------------------------------------------------------------
# perturb_subject
# ---------------------------------------------------------------------------

def test_perturb_zero_is_identity():
    subject = generate_subject({"a": arc_spec()}, noise_streamline_count=3,
                               global_seed=1)
    moved = perturb_subject(subject, 0.0, seed=5)
    assert len(moved.tractogram) == len(subject.tractogram)
    for a, b in zip(subject.tractogram, moved.tractogram):
        np.testing.assert_array_equal(a.points, b.points)
    assert {n: r.indices for n, r in moved.truth.items()} \
        == {n: r.indices for n, r in subject.truth.items()}


def test_perturb_preserves_structure():
    subject = generate_subject({"a": arc_spec(streamline_count=10)},
                               noise_streamline_count=4, global_seed=1)
    moved = perturb_subject(subject, 3.0, seed=5)
    assert len(moved.tractogram) == 14
    assert moved.truth["a"].indices == subject.truth["a"].indices
    for a, b in zip(subject.tractogram, moved.tractogram):
        assert len(a) == len(b)


def test_perturb_distance_matches_displacement_scale():
    # Mean MC distance between original and perturbed copies should sit at
    # the scale of E|N(0, sigma^2 I_3)|, estimated here by sampling. The
    # offset is constant per streamline, so MC <= |offset| exactly; the
    # perpendicular component keeps it within a constant factor below.
    sigma = 2.0
    subject = generate_subject({"a": arc_spec(streamline_count=30,
                                              radial_jitter_sigma=1.0)},
                               global_seed=9)
    moved = perturb_subject(subject, sigma, seed=10)
    dists = [d_mc(a, b) for a, b in zip(subject.tractogram, moved.tractogram)]
    mean_mc = float(np.mean(dists))

    rng = np.random.default_rng(123)
    scale = float(np.mean(np.linalg.norm(rng.normal(0.0, sigma, (20000, 3)), axis=1)))
    assert math.isclose(scale, sigma * math.sqrt(8.0 / math.pi), rel_tol=0.02)
    assert 0.5 * scale <= mean_mc <= 1.25 * scale

    # Doubling sigma roughly doubles the mean displacement distance.
    double = perturb_subject(subject, 2.0 * sigma, seed=10)
    mean2 = float(np.mean([d_mc(a, b)
                           for a, b in zip(subject.tractogram, double.tractogram)]))
    assert 1.5 <= mean2 / mean_mc <= 2.2


def test_perturb_equals_per_streamline_offsets():
    subject = generate_subject({"a": arc_spec(streamline_count=12)},
                               noise_streamline_count=5, global_seed=2)
    moved = perturb_subject(subject, 1.5, seed=7)
    rng = np.random.default_rng([7, 0x70657274])
    for s, m in zip(subject.tractogram, moved.tractogram):
        assert m.points.tobytes() == (s.points + rng.normal(0.0, 1.5, 3)).tobytes()


def test_perturb_validates():
    subject = generate_subject({"a": arc_spec()}, global_seed=1)
    with pytest.raises(InvalidSpec):
        perturb_subject(subject, -1.0)


# ---------------------------------------------------------------------------
# random_smooth_curve
# ---------------------------------------------------------------------------

def test_random_smooth_curve_bounds_and_counts():
    lo, hi = np.array([-5.0, 0.0, 10.0]), np.array([5.0, 4.0, 30.0])
    rng = np.random.default_rng(0)
    seen = set()
    for _ in range(25):
        s = random_smooth_curve(rng, lo, hi, (10, 14))
        seen.add(len(s))
        assert np.all(s.points >= lo - 1e-9) and np.all(s.points <= hi + 1e-9)
    assert seen <= set(range(10, 15)) and len(seen) > 1


def test_random_smooth_curve_deterministic():
    a = random_smooth_curve(np.random.default_rng(7), (0, 0, 0), (9, 9, 9), (12, 12))
    b = random_smooth_curve(np.random.default_rng(7), (0, 0, 0), (9, 9, 9), (12, 12))
    np.testing.assert_array_equal(a.points, b.points)
