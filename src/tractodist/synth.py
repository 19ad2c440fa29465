"""Synthetic tractograms with known ground-truth bundles.

Each bundle is a jittered family of copies of a parametric centerline
(arc, helix, or polyline through control points); optional noise
streamlines are smooth random curves spanning the same bounding box.
Everything is deterministic given the seeds, so experiments are
reproducible at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSpec, TractodistError
from .model import BundleRef, Streamline, Tractogram, build_streamline, resample

CENTERLINE_SAMPLES = 128
NOISE_CURVE_SAMPLES = 64
MAX_POINT_COUNT = 2 ** 32 - 1  # TRGX stores a streamline's point count as uint32
# Most points generate_subject may have to build: 2^25 float64 points take
# 0.8 GB. The benchmark's 10,000-streamline subject needs at most ~1M.
MAX_TOTAL_POINTS = 2 ** 25


def _whole(value, what: str) -> int:
    """value as an int if it is a whole number, else InvalidSpec."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != value:
        raise InvalidSpec(f"{what} must be a whole number, got {value!r}")
    return whole


@dataclass(frozen=True)
class BundleSpec:
    """Recipe for one synthetic bundle.

    centerline is a dict: {"type": "arc", "center", "radius", "theta0_deg",
    "theta1_deg", "axis"}, {"type": "helix", "center", "radius", "pitch",
    "turns", "axis"}, or {"type": "polyline", "points": [[x,y,z], ...]}.
    radial_jitter_sigma (mm) displaces each streamline by a constant
    isotropic offset; per-point noise is added at a tenth of that.
    """

    centerline: dict
    streamline_count: int
    radial_jitter_sigma: float
    points_range: tuple[int, int] = (30, 60)
    rng_seed: int = 0

    def __post_init__(self):
        count = _whole(self.streamline_count, "streamline_count")
        if count < 1:
            raise InvalidSpec(f"streamline_count must be >= 1, got {count}")
        if self.radial_jitter_sigma < 0:
            raise InvalidSpec(f"radial_jitter_sigma must be >= 0, got {self.radial_jitter_sigma}")
        try:
            lo, hi = (_whole(v, "points_range") for v in self.points_range)
        except (TypeError, ValueError):
            raise InvalidSpec(f"points_range must be [lo, hi], got {self.points_range!r}") from None
        if not 2 <= lo <= hi <= MAX_POINT_COUNT:
            raise InvalidSpec(f"points_range must satisfy 2 <= lo <= hi <= {MAX_POINT_COUNT}, "
                              f"got {self.points_range}")
        seed = _whole(self.rng_seed, "rng_seed")
        if seed < 0:
            raise InvalidSpec(f"rng_seed must be >= 0, got {seed}")
        # Frozen: store the validated ints that generate_subject hands to numpy.
        object.__setattr__(self, "streamline_count", count)
        object.__setattr__(self, "points_range", (lo, hi))
        object.__setattr__(self, "rng_seed", seed)
        _ = evaluate_centerline(self.centerline, 4)  # validate eagerly


@dataclass(frozen=True)
class SyntheticSubject:
    """A tractogram plus the ground-truth bundle membership."""

    tractogram: Tractogram
    truth: dict[str, BundleRef] = field(default_factory=dict)


def evaluate_centerline(spec: dict, samples: int = CENTERLINE_SAMPLES) -> np.ndarray:
    """Sample a centerline spec into a dense (samples, 3) polyline."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise InvalidSpec(f"centerline must be a dict with a 'type' key, got {spec!r}")
    kind = spec["type"]
    try:
        if kind == "arc":
            center = np.asarray(spec.get("center", (0.0, 0.0, 0.0)), dtype=np.float64)
            radius = float(spec["radius"])
            theta = np.radians(np.linspace(float(spec.get("theta0_deg", 0.0)),
                                           float(spec.get("theta1_deg", 180.0)), samples))
            return center + radius * _circle_frame(spec.get("axis", "z"), theta)
        if kind == "helix":
            center = np.asarray(spec.get("center", (0.0, 0.0, 0.0)), dtype=np.float64)
            radius = float(spec["radius"])
            turns = float(spec.get("turns", 1.0))
            pitch = float(spec.get("pitch", 10.0))
            theta = np.linspace(0.0, 2.0 * np.pi * turns, samples)
            rise = pitch * theta / (2.0 * np.pi)
            return center + _circle_frame(spec.get("axis", "z"), theta) * radius \
                + _axis_vector(spec.get("axis", "z")) * rise[:, None]
        if kind == "polyline":
            ctrl = np.asarray(spec["points"], dtype=np.float64)
            if ctrl.ndim != 2 or ctrl.shape[1] != 3 or len(ctrl) < 2:
                raise InvalidSpec("polyline centerline needs >= 2 control points")
            return resample(build_streamline(ctrl), samples).points
    except InvalidSpec:
        raise
    except (KeyError, TypeError, ValueError, TractodistError) as exc:
        raise InvalidSpec(f"bad {kind!r} centerline parameters: {exc}") from exc
    raise InvalidSpec(f"unknown centerline type {kind!r}")


def _axis_vector(axis: str) -> np.ndarray:
    try:
        return np.eye(3)["xyz".index(axis)]
    except (ValueError, TypeError):
        raise InvalidSpec(f"axis must be one of x, y, z, got {axis!r}") from None


def _circle_frame(axis: str, theta: np.ndarray) -> np.ndarray:
    """Unit circle in the plane orthogonal to the named axis."""
    i = "xyz".index(axis) if isinstance(axis, str) and axis in "xyz" and len(axis) == 1 else -1
    if i < 0:
        raise InvalidSpec(f"axis must be one of x, y, z, got {axis!r}")
    u, v = (i + 1) % 3, (i + 2) % 3
    out = np.zeros((len(theta), 3))
    out[:, u] = np.cos(theta)
    out[:, v] = np.sin(theta)
    return out


def generate_subject(
    specs: dict[str, BundleSpec],
    noise_streamline_count: int = 0,
    global_seed: int = 0,
) -> SyntheticSubject:
    """Generate a synthetic subject with the given bundles plus noise.

    Bundle k's streamlines are the densely sampled centerline displaced by
    a per-streamline constant isotropic offset (std radial_jitter_sigma)
    plus per-point noise at a tenth of that, resampled to a point count
    drawn uniformly from points_range. Noise streamlines are smooth random
    Bezier curves spanning the bundles' joint bounding box. Deterministic
    for fixed specs and seeds. A spec that may need more than
    MAX_TOTAL_POINTS points raises InvalidSpec before anything is built.
    """
    if not specs:
        raise InvalidSpec("at least one bundle spec is required")
    noise_streamline_count = _whole(noise_streamline_count, "noise_streamline_count")
    if noise_streamline_count < 0:
        raise InvalidSpec("noise_streamline_count must be >= 0")
    top = max(s.points_range[1] for s in specs.values())
    worst = sum(s.streamline_count * s.points_range[1] for s in specs.values())
    if worst + noise_streamline_count * top > MAX_TOTAL_POINTS:
        raise InvalidSpec(f"the spec may need {worst + noise_streamline_count * top} points, "
                          f"more than the {MAX_TOTAL_POINTS} synth builds")

    streamlines: list[Streamline] = []
    membership: dict[str, list[int]] = {}
    for ordinal, (name, spec) in enumerate(specs.items()):
        rng = np.random.default_rng([global_seed, spec.rng_seed, ordinal])
        dense = evaluate_centerline(spec.centerline)
        lo, hi = spec.points_range
        idx = []
        for _ in range(spec.streamline_count):
            offset = rng.normal(0.0, spec.radial_jitter_sigma, 3)
            noise = rng.normal(0.0, spec.radial_jitter_sigma / 10.0, dense.shape)
            n_points = int(rng.integers(lo, hi + 1))
            s = resample(build_streamline(dense + offset + noise), n_points)
            idx.append(len(streamlines))
            streamlines.append(s)
        membership[name] = idx

    if noise_streamline_count:
        box_lo, box_hi = _bounding_box(streamlines)
        rng = np.random.default_rng([global_seed, 0x6E6F69])
        lo = min(s.points_range[0] for s in specs.values())
        for _ in range(noise_streamline_count):
            streamlines.append(random_smooth_curve(rng, box_lo, box_hi, (lo, top)))

    tractogram = Tractogram(streamlines)
    truth = {name: BundleRef(tractogram, idx, name=name) for name, idx in membership.items()}
    return SyntheticSubject(tractogram=tractogram, truth=truth)


def perturb_subject(
    subject: SyntheticSubject,
    displacement_sigma: float,
    seed: int = 0,
) -> SyntheticSubject:
    """Displace every streamline by a constant random offset.

    Stands in for anatomical variability between co-registered subjects:
    bundle structure and truth indices are preserved, geometry shifts
    smoothly by ~displacement_sigma mm.
    """
    if displacement_sigma < 0:
        raise InvalidSpec("displacement_sigma must be >= 0")
    rng = np.random.default_rng([seed, 0x70657274])
    t = subject.tractogram
    counts = np.diff(t.offsets)
    # One draw of N offsets takes the values of N draws of one each.
    moved = np.repeat(rng.normal(0.0, displacement_sigma, (len(t), 3)), counts, axis=0)
    moved += t.points
    tractogram = Tractogram._from_counts(moved, counts)
    truth = {
        name: BundleRef(tractogram, ref.indices, name=name)
        for name, ref in subject.truth.items()
    }
    return SyntheticSubject(tractogram=tractogram, truth=truth)


def random_smooth_curve(
    rng: np.random.Generator,
    box_lo,
    box_hi,
    points_range: tuple[int, int],
) -> Streamline:
    """One random cubic Bezier curve inside a box, uniformly resampled.

    Control points are uniform in the box; the point count is uniform over
    points_range (inclusive). Used for noise streamlines and for timing
    pools of realistic unstructured curves.
    """
    ctrl = rng.uniform(box_lo, box_hi, (4, 3))
    curve = _cubic_bezier(ctrl, NOISE_CURVE_SAMPLES)
    n_points = int(rng.integers(points_range[0], points_range[1] + 1))
    return resample(build_streamline(curve), n_points)


def _bounding_box(streamlines: list[Streamline]) -> tuple[np.ndarray, np.ndarray]:
    los = np.min([s.points.min(axis=0) for s in streamlines], axis=0)
    his = np.max([s.points.max(axis=0) for s in streamlines], axis=0)
    return los, his


def _cubic_bezier(ctrl: np.ndarray, samples: int) -> np.ndarray:
    t = np.linspace(0.0, 1.0, samples)[:, None]
    u = 1.0 - t
    return (u ** 3 * ctrl[0] + 3 * u ** 2 * t * ctrl[1]
            + 3 * u * t ** 2 * ctrl[2] + t ** 3 * ctrl[3])
