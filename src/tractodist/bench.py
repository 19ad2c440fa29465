"""Benchmark experiments: DSC tables, timing runs, and NN agreement.

Three reproducible analyses over synthetic subjects:

* run_dsc_experiment — segment every bundle across ordered subject pairs
  and tabulate voxel DSC per bundle and distance kind.
* run_timing — wall-clock cost of a fixed number of direct (non-embedded)
  streamline distances per kind.
* run_agreement — how often two kinds pick the same nearest neighbor for
  the same query through the embedded pipeline.

Timing deliberately measures only the distance evaluations: pairs are
drawn and, for the fixed-point-count kinds, resampled up front, since
that preprocessing happens once per tractogram in any real pipeline and
would otherwise dominate and equalize the per-kind costs being compared.
"""

from __future__ import annotations

import logging
import statistics
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distances import (
    DistanceKind,
    d_lc,
    d_mc,
    d_pdm,
    d_sc,
    d_varifolds,
    default_kinds,
    mdf_min_direct_flipped,
)
from .embedding import DEFAULT_PROTOTYPE_COUNT
from .errors import EmptyInput, NoQueries
from .model import BundleRef, Streamline, Tractogram, resample_stack
from .segmentation import VoxelGrid, dsc, prepare_target, segment, voxelize
from .synth import (
    BundleSpec,
    SyntheticSubject,
    generate_subject,
    perturb_subject,
    random_smooth_curves,
)

log = logging.getLogger(__name__)

# Point counts of the benchmark's streamlines, drawn uniformly (inclusive).
_POINTS_RANGE = (20, 100)


# ---------------------------------------------------------------------------
# Result containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimingRow:
    """Median wall time for pair_count direct distance evaluations."""

    kind: DistanceKind
    pair_count: int
    wall_seconds: float

    @property
    def pairs_per_second(self) -> float:
        return self.pair_count / self.wall_seconds


@dataclass(frozen=True)
class AgreementMatrix:
    """Frequency with which each pair of kinds picked the same neighbor."""

    kinds: tuple[DistanceKind, ...]
    freq: np.ndarray  # (K, K), symmetric, unit diagonal
    query_count: int

    def pair(self, a: DistanceKind, b: DistanceKind) -> float:
        return float(self.freq[self.kinds.index(a), self.kinds.index(b)])


@dataclass(frozen=True)
class DscTable:
    """Per-bundle, per-kind DSC statistics: (mean, std, trial count)."""

    rows: dict[str, dict[DistanceKind, tuple[float, float, int]]]
    kinds: tuple[DistanceKind, ...]

    def mean(self, bundle: str, kind: DistanceKind) -> float:
        return self.rows[bundle][kind][0]

    def kind_means(self) -> dict[DistanceKind, float]:
        """Mean DSC per kind, averaged over bundles (equal trial counts)."""
        return {
            k: float(np.mean([stats[k][0] for stats in self.rows.values()]))
            for k in self.kinds
        }


# ---------------------------------------------------------------------------
# Timing (direct distances)
# ---------------------------------------------------------------------------

def timing_pool(
    pool_size: int = 600,
    points_range: tuple[int, int] = _POINTS_RANGE,
    seed: int = 0,
) -> list[Streamline]:
    """Random smooth curves in a 100 mm cube with realistic point counts,
    for timing runs."""
    rng = np.random.default_rng([seed, 0x74696D65])
    return list(random_smooth_curves(rng, np.zeros(3), np.full(3, 100.0), points_range,
                                     pool_size))


def run_timing(
    kinds: Sequence[DistanceKind] | None = None,
    pair_count: int = 90000,
    repetitions: int = 3,
    seed: int = 0,
    pool_size: int = 600,
    points_range: tuple[int, int] = _POINTS_RANGE,
) -> list[TimingRow]:
    """Time pair_count direct distance evaluations per kind.

    The streamline pool and the pair index draw are shared across kinds
    and repetitions; the reported time is the median over repetitions of
    the distance evaluations alone.
    """
    if pair_count < 1:
        raise EmptyInput("pair_count must be >= 1")
    kinds = list(default_kinds()) if kinds is None else list(kinds)
    pool = timing_pool(pool_size, points_range, seed)
    rng = np.random.default_rng([seed, 0x70616972])
    ii = rng.integers(0, len(pool), pair_count)
    jj = rng.integers(0, len(pool), pair_count)

    rows = []
    for kind in kinds:
        times = [_time_once(kind, pool, ii, jj) for _ in range(repetitions)]
        median = statistics.median(times)
        if repetitions >= 2 and median > 0:
            cov = statistics.pstdev(times) / statistics.fmean(times)
            log.info("timing %s: median %.4fs over %d reps (cov %.1f%%)",
                     kind, median, repetitions, 100.0 * cov)
        rows.append(TimingRow(kind=kind, pair_count=pair_count, wall_seconds=median))
    return rows


def _time_once(kind, pool, ii, jj) -> float:
    tag = kind.tag
    if tag == "mdf":
        stack = resample_stack(pool, int(kind.param))
        a, b = stack[ii], stack[jj]
        t0 = time.perf_counter()
        mdf_min_direct_flipped(a, b)
        return time.perf_counter() - t0
    per_pair = {
        "mc": d_mc,
        "sc": d_sc,
        "lc": d_lc,
        "pdm": lambda x, y: d_pdm(x, y, kind.param),
        "var": lambda x, y: d_varifolds(x, y, kind.param),
    }[tag]
    t0 = time.perf_counter()
    for i, j in zip(ii, jj):
        per_pair(pool[i], pool[j])
    return time.perf_counter() - t0


def timing_csv(rows: Sequence[TimingRow]) -> str:
    lines = ["kind,pairs,seconds,pairs_per_sec"]
    for r in rows:
        lines.append(f"{r.kind},{r.pair_count},{r.wall_seconds:.6f},{r.pairs_per_second:.3f}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Nearest-neighbor agreement
# ---------------------------------------------------------------------------

def _transfers(target, kinds, bundles, prototype_count, subset_size, rng_seed):
    """Per kind, in order: prepare the target once, then segment each bundle.

    Yields (kind, [SegmentationResult per bundle, in bundle order]).
    """
    for kind in kinds:
        embedded, tree = prepare_target(target, kind, prototype_count, subset_size, rng_seed)
        yield kind, [segment(ref, embedded, tree, target, kind) for ref in bundles]


def run_agreement(
    example_bundles: Sequence[BundleRef],
    targets: Sequence[Tractogram],
    kinds: Sequence[DistanceKind] | None = None,
    prototype_count: int = DEFAULT_PROTOTYPE_COUNT,
    subset_size: int | None = None,
    rng_seed: int = 0,
) -> AgreementMatrix:
    """Fraction of queries on which each pair of kinds picked the same NN.

    Every streamline of every example bundle is a query against every
    target, through the full embedded pipeline (prototypes, embedding,
    exact k-d search) per kind. The diagonal is exactly 1.0.
    """
    kinds = tuple(default_kinds()) if kinds is None else tuple(kinds)
    n_queries = sum(len(ref) for ref in example_bundles)
    if n_queries == 0 or not targets:
        raise NoQueries("agreement needs at least one example streamline and one target")

    matches = np.zeros((len(kinds), len(kinds)), dtype=np.int64)
    for target in targets:
        transfers = _transfers(target, kinds, example_bundles,
                               prototype_count, subset_size, rng_seed)
        picks = np.array([[t for r in results for _, t, _ in r.per_query]
                          for _, results in transfers], dtype=np.int64)  # (K, Q)
        matches += (picks[:, None] == picks[None]).sum(axis=2)
    total = n_queries * len(targets)

    freq = matches.astype(np.float64) / total
    freq.flags.writeable = False
    return AgreementMatrix(kinds=kinds, freq=freq, query_count=total)


def agreement_csv(m: AgreementMatrix) -> str:
    names = [str(k) for k in m.kinds]
    lines = ["kind," + ",".join(names)]
    for name, row in zip(names, m.freq):
        lines.append(name + "," + ",".join(f"{v:.6f}" for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# DSC experiment
# ---------------------------------------------------------------------------

def run_dsc_experiment(
    subjects: Sequence[SyntheticSubject],
    kinds: Sequence[DistanceKind] | None = None,
    grid: VoxelGrid | None = None,
    prototype_count: int = DEFAULT_PROTOTYPE_COUNT,
    subset_size: int | None = None,
    rng_seed: int = 0,
) -> DscTable:
    """Segment every bundle across all ordered subject pairs, tabulate DSC.

    For each ordered pair (example subject, target subject), example !=
    target, each ground-truth bundle of the example is segmented in the
    target and compared against the target's own ground truth by voxel
    DSC. Statistics are aggregated per bundle and kind over all pairs.
    """
    if len(subjects) < 2:
        raise EmptyInput("need at least two subjects for cross-subject pairs")
    kinds = tuple(default_kinds()) if kinds is None else tuple(kinds)
    grid = grid if grid is not None else VoxelGrid()
    names = list(subjects[0].truth)
    for s in subjects:
        if list(s.truth) != names:
            raise EmptyInput("subjects must share the same ground-truth bundle names")

    truth_vox = [
        {name: voxelize(s.truth[name], s.tractogram, grid) for name in names}
        for s in subjects
    ]
    samples: dict[str, dict[DistanceKind, list[float]]] = {
        name: {k: [] for k in kinds} for name in names
    }
    for ti, target in enumerate(subjects):
        examples = [(name, example.truth[name])
                    for ei, example in enumerate(subjects) if ei != ti for name in names]
        for kind, results in _transfers(target.tractogram, kinds, [ref for _, ref in examples],
                                        prototype_count, subset_size, rng_seed):
            for (name, _), result in zip(examples, results):
                pred = voxelize(result.predicted, target.tractogram, grid)
                samples[name][kind].append(dsc(pred, truth_vox[ti][name]))

    rows = {
        name: {
            k: (float(np.mean(v)), float(np.std(v)), len(v))
            for k, v in per_kind.items()
        }
        for name, per_kind in samples.items()
    }
    return DscTable(rows=rows, kinds=kinds)


def dsc_table_csv(table: DscTable) -> str:
    lines = ["bundle,kind,mean_dsc,std_dsc,n"]
    for bundle in table.rows:
        for kind in table.kinds:
            mean, std, n = table.rows[bundle][kind]
            lines.append(f"{bundle},{kind},{mean:.6f},{std:.6f},{n}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Default synthetic benchmark
# ---------------------------------------------------------------------------

def default_bundle_specs(
    streamline_count: int = 50,
    radial_jitter_sigma: float = 0.5,
) -> dict[str, BundleSpec]:
    """Three well-separated bundles of tract-like scale (~100 mm curves)."""
    return {
        "arc": BundleSpec(
            centerline={"type": "arc", "center": (0.0, 0.0, 0.0), "radius": 40.0,
                        "theta0_deg": 0.0, "theta1_deg": 180.0, "axis": "z"},
            streamline_count=streamline_count,
            radial_jitter_sigma=radial_jitter_sigma,
            points_range=_POINTS_RANGE,
            rng_seed=1,
        ),
        "helix": BundleSpec(
            centerline={"type": "helix", "center": (80.0, -50.0, -10.0), "radius": 22.0,
                        "pitch": 35.0, "turns": 1.5, "axis": "y"},
            streamline_count=streamline_count,
            radial_jitter_sigma=radial_jitter_sigma,
            points_range=_POINTS_RANGE,
            rng_seed=2,
        ),
        "scurve": BundleSpec(
            centerline={"type": "polyline",
                        "points": [[-70.0, 50.0, -30.0], [-55.0, 20.0, -5.0],
                                   [-75.0, -10.0, 15.0], [-55.0, -45.0, 35.0]]},
            streamline_count=streamline_count,
            radial_jitter_sigma=radial_jitter_sigma,
            points_range=_POINTS_RANGE,
            rng_seed=3,
        ),
    }


def default_benchmark_subjects(
    subject_count: int = 5,
    displacement_sigma: float = 1.0,
    noise_streamline_count: int = 50,
    seed: int = 42,
) -> list[SyntheticSubject]:
    """Co-registered subjects: independent perturbations of one base subject."""
    base = generate_subject(default_bundle_specs(), noise_streamline_count, global_seed=seed)
    return [perturb_subject(base, displacement_sigma, seed=seed + k)
            for k in range(subject_count)]
