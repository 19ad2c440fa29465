"""Shared fixtures and independent reference implementations (oracles).

Every numeric oracle here is written as plain double loops over points,
deliberately independent of the vectorized library code it checks.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from tractodist.errors import (
    BadMagic,
    CountMismatch,
    EmptyTractogram,
    NonFiniteCoordinate,
)
from tractodist.io import TRGX_MAGIC, TrgxFile, _Cursor
from tractodist.model import BundleRef, Streamline, Tractogram, build_streamline, resample
from tractodist.synth import NOISE_CURVE_SAMPLES, SyntheticSubject, evaluate_centerline


# ---------------------------------------------------------------------------
# Random inputs
# ---------------------------------------------------------------------------

def random_streamline(rng: np.random.Generator, n_points: int | None = None,
                      scale: float = 30.0) -> Streamline:
    """A random-walk polyline; valid by construction (distinct steps)."""
    n = int(rng.integers(2, 40)) if n_points is None else n_points
    steps = rng.normal(0.0, scale / max(n - 1, 1), (n - 1, 3))
    norms = np.sqrt((steps ** 2).sum(axis=1))
    steps[norms < 1e-6] = (1e-3, 0.0, 0.0)  # keep consecutive points distinct
    pts = np.vstack([rng.uniform(-50, 50, 3), steps]).cumsum(axis=0)
    return build_streamline(pts)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """A uniform-ish random rotation matrix via QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def rigid_motion(s: Streamline, rot: np.ndarray, shift: np.ndarray) -> Streamline:
    return build_streamline(s.points @ rot.T + shift)


# ---------------------------------------------------------------------------
# Distance oracles (double loops)
# ---------------------------------------------------------------------------

def naive_closest_mean(pa: np.ndarray, pb: np.ndarray) -> float:
    """Mean over points of pa of the distance to the closest point of pb."""
    total = 0.0
    for p in pa:
        best = math.inf
        for q in pb:
            best = min(best, math.dist(p, q))
        total += best
    return total / len(pa)


def naive_mc(pa, pb) -> float:
    return (naive_closest_mean(pa, pb) + naive_closest_mean(pb, pa)) / 2.0


def naive_sc(pa, pb) -> float:
    return min(naive_closest_mean(pa, pb), naive_closest_mean(pb, pa))


def naive_lc(pa, pb) -> float:
    return max(naive_closest_mean(pa, pb), naive_closest_mean(pb, pa))


def naive_arclength_resample(pts: np.ndarray, m: int) -> np.ndarray:
    """Brute-force arc-length walker: cumulative lengths, then per-target
    linear walk along the polyline."""
    pts = np.asarray(pts, dtype=np.float64)
    seg_len = [math.dist(pts[i], pts[i + 1]) for i in range(len(pts) - 1)]
    total = sum(seg_len)
    out = [np.array(pts[0])]
    for k in range(1, m - 1):
        target = total * k / (m - 1)
        walked = 0.0
        for i, L in enumerate(seg_len):
            if walked + L >= target:
                f = (target - walked) / L if L > 0 else 0.0
                out.append(pts[i] + f * (pts[i + 1] - pts[i]))
                break
            walked += L
        else:
            out.append(np.array(pts[-1]))
    out.append(np.array(pts[-1]))
    return np.asarray(out)


def naive_points_at_arc_lengths(points: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """One polyline at a time: arc lengths, searchsorted, then interpolation.

    The library's former per-streamline code; the batch path must equal it
    bit for bit.
    """
    seg = np.diff(points, axis=0)
    cum = np.empty(len(points))
    cum[0] = 0.0
    np.cumsum(np.sqrt((seg * seg).sum(axis=1)), out=cum[1:])
    ts = np.clip(np.asarray(ts, dtype=np.float64), 0.0, cum[-1])
    idx = np.searchsorted(cum, ts, side="right") - 1
    idx = np.clip(idx, 0, len(points) - 2)
    seg = points[idx + 1] - points[idx]
    seglen = cum[idx + 1] - cum[idx]
    frac = np.where(seglen > 0.0, (ts - cum[idx]) / np.where(seglen > 0.0, seglen, 1.0), 0.0)
    return points[idx] + frac[:, None] * seg


def naive_resample(points: np.ndarray, m: int) -> np.ndarray:
    """m points equally spaced by arc length, endpoints pinned, one polyline
    at a time (the library's former resample)."""
    seg = np.diff(points, axis=0)
    total = np.cumsum(np.sqrt((seg * seg).sum(axis=1)))[-1]
    out = naive_points_at_arc_lengths(points, np.linspace(0.0, total, m))
    out[0] = points[0]
    out[-1] = points[-1]
    return out


def naive_mdf(pa, pb, m: int) -> float:
    ra = naive_arclength_resample(pa, m)
    rb = naive_arclength_resample(pb, m)
    direct = sum(math.dist(ra[i], rb[i]) for i in range(m)) / m
    flipped = sum(math.dist(ra[i], rb[m - 1 - i]) for i in range(m)) / m
    return min(direct, flipped)


def naive_pdm_inner(pa, pb, sigma: float) -> float:
    total = 0.0
    for p in pa:
        for q in pb:
            total += math.exp(-math.dist(p, q) ** 2 / sigma ** 2)
    return total / (len(pa) * len(pb))


def naive_pdm(pa, pb, sigma: float) -> float:
    sq = (naive_pdm_inner(pa, pa, sigma) + naive_pdm_inner(pb, pb, sigma)
          - 2.0 * naive_pdm_inner(pa, pb, sigma))
    return math.sqrt(max(sq, 0.0))


def naive_var_inner(pa, pb, sigma: float) -> float:
    total = 0.0
    for i in range(len(pa) - 1):
        ci = (pa[i] + pa[i + 1]) / 2.0
        ti = pa[i + 1] - pa[i]
        for j in range(len(pb) - 1):
            cj = (pb[j] + pb[j + 1]) / 2.0
            tj = pb[j + 1] - pb[j]
            dot = float(np.dot(ti, tj))
            ni = float(np.linalg.norm(ti))
            nj = float(np.linalg.norm(tj))
            total += math.exp(-math.dist(ci, cj) ** 2 / sigma ** 2) * dot * dot / (ni * nj)
    return total


def naive_var(pa, pb, sigma: float) -> float:
    sq = (naive_var_inner(pa, pa, sigma) + naive_var_inner(pb, pb, sigma)
          - 2.0 * naive_var_inner(pa, pb, sigma))
    return math.sqrt(max(sq, 0.0))


# ---------------------------------------------------------------------------
# Exact-NN oracle
# ---------------------------------------------------------------------------

def naive_nearest(vectors: np.ndarray, query: np.ndarray) -> tuple[int, float]:
    """Linear scan; ties resolved to the lowest index."""
    best_id, best_sq = -1, math.inf
    for i, v in enumerate(vectors):
        sq = float(((v - query) ** 2).sum())
        if sq < best_sq:
            best_id, best_sq = i, sq
    return best_id, math.sqrt(best_sq)


# ---------------------------------------------------------------------------
# Prototype selection oracle
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# TRGX reader oracle (one streamline at a time)
# ---------------------------------------------------------------------------

def naive_read_trgx(path) -> TrgxFile:
    """Streamline-by-streamline TRGX read: each count, each slice of points
    and each Streamline construction in file order, so the first defect
    met is the error raised."""
    data = Path(path).read_bytes()
    cur = _Cursor(data)
    if cur.take(len(TRGX_MAGIC), "magic") != TRGX_MAGIC:
        raise BadMagic(f"{path}: not a TRGX file")
    header = np.frombuffer(cur.take(16, "header"), dtype="<f4")
    if not np.all(np.isfinite(header)):
        raise NonFiniteCoordinate(f"{path}: non-finite voxel_size/origin")
    (n_streamlines,) = struct.unpack("<Q", cur.take(8, "streamline count"))
    if n_streamlines == 0:
        raise EmptyTractogram(f"{path}: declares zero streamlines")
    streamlines = []
    for i in range(n_streamlines):
        (count,) = struct.unpack("<I", cur.take(4, f"point count of streamline {i}"))
        if count < 2:
            raise CountMismatch(f"{path}: streamline {i} declares {count} point(s), need >= 2")
        raw = cur.take(12 * count, f"points of streamline {i}")
        with np.errstate(invalid="ignore"):  # signaling NaNs rejected just below
            pts = np.frombuffer(raw, dtype="<f4").reshape(count, 3).astype(np.float64)
        streamlines.append(build_streamline(pts))
    if cur.remaining():
        raise CountMismatch(f"{path}: {cur.remaining()} trailing byte(s) after declared payload")
    return TrgxFile(
        tractogram=Tractogram(streamlines),
        voxel_size=float(header[0]),
        origin=(float(header[1]), float(header[2]), float(header[3])),
    )


# ---------------------------------------------------------------------------
# Synthetic subject oracle (one streamline at a time)
# ---------------------------------------------------------------------------

def reference_random_smooth_curve(rng, box_lo, box_hi, points_range) -> Streamline:
    """One random cubic Bezier curve, drawn, built and resampled on its own
    (the library's former random_smooth_curve)."""
    ctrl = rng.uniform(box_lo, box_hi, (4, 3))
    t = np.linspace(0.0, 1.0, NOISE_CURVE_SAMPLES)[:, None]
    u = 1.0 - t
    curve = (u ** 3 * ctrl[0] + 3 * u ** 2 * t * ctrl[1]
             + 3 * u * t ** 2 * ctrl[2] + t ** 3 * ctrl[3])
    n_points = int(rng.integers(points_range[0], points_range[1] + 1))
    return resample(build_streamline(curve), n_points)


def reference_generate_subject(specs, noise_streamline_count=0,
                               global_seed=0) -> SyntheticSubject:
    """synth.generate_subject one streamline at a time: each one's draws,
    build_streamline and resample in turn (the library's former loop)."""
    top = max(s.points_range[1] for s in specs.values())
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
        box_lo = np.min([s.points.min(axis=0) for s in streamlines], axis=0)
        box_hi = np.max([s.points.max(axis=0) for s in streamlines], axis=0)
        rng = np.random.default_rng([global_seed, 0x6E6F69])
        lo = min(s.points_range[0] for s in specs.values())
        for _ in range(noise_streamline_count):
            streamlines.append(reference_random_smooth_curve(rng, box_lo, box_hi, (lo, top)))

    tractogram = Tractogram(streamlines)
    truth = {name: BundleRef(tractogram, idx, name=name) for name, idx in membership.items()}
    return SyntheticSubject(tractogram=tractogram, truth=truth)
