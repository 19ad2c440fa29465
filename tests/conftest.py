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
from tractodist.model import Streamline, Tractogram, build_streamline


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
