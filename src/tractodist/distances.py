"""The eight streamline-streamline distance functions and their registry.

Three families:

* mean-of-closest distances (mc, sc, lc): symmetrizations of the average
  closest-point distance, on native point counts;
* minimum average direct-flip (mdf-m): mean pointwise distance after
  resampling both streamlines to m points, minimized over the two
  point-order correspondences;
* kernel distances (pdm-sigma, var-sigma): norms induced by a Gaussian
  kernel on points (pdm) or on segment centers weighted by squared tangent
  alignment and segment lengths (varifolds).

All distances are symmetric, nonnegative and zero on identical inputs.
mdf and varifolds are additionally invariant to flipping either argument.
The Gaussian kernel is exp(-||x - y||^2 / sigma^2); sigma in millimeters.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .model import Streamline, Tractogram, resample, resample_stack

DEFAULT_SIGMA = 42.0
DEFAULT_MDF_POINTS = (12, 20, 32)
# The largest mdf point count. The paper uses 12 to 32; at 1,024 the
# resampled stack of a 10k-streamline tractogram is ~250 MB.
MAX_MDF_POINTS = 1024

_TAGS = ("mc", "sc", "lc", "mdf", "pdm", "var")


@dataclass(frozen=True)
class DistanceKind:
    """A distance function selector: tag plus optional parameter.

    tag is one of 'mc', 'sc', 'lc' (no parameter), 'mdf' (point count m,
    2 <= m <= MAX_MDF_POINTS), 'pdm' or 'var' (kernel bandwidth sigma in mm).
    """

    tag: str
    param: float | None = None

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise ValueError(f"unknown distance tag {self.tag!r}")
        if self.tag in ("mc", "sc", "lc"):
            if self.param is not None:
                raise ValueError(f"{self.tag} takes no parameter")
        elif self.tag == "mdf":
            m = self.param
            if m is None or not 2 <= m <= MAX_MDF_POINTS or int(m) != m:
                raise ValueError(f"mdf requires an integer point count 2 <= m <= {MAX_MDF_POINTS}")
            object.__setattr__(self, "param", int(m))
        else:
            # The kernel divides by sigma squared; 0 or inf there makes every
            # distance NaN or 0.
            s = self.param
            if s is None or not (s > 0 and 0 < s * s < math.inf):
                raise ValueError(f"{self.tag} requires a sigma > 0 with a finite nonzero square")
            object.__setattr__(self, "param", float(self.param))

    def __str__(self) -> str:
        """The canonical string, which parse_kind reads back to this kind."""
        return self.tag if self.param is None else f"{self.tag}-{self.param!r}"


MC = DistanceKind("mc")
SC = DistanceKind("sc")
LC = DistanceKind("lc")


def mdf(m: int = 20) -> DistanceKind:
    return DistanceKind("mdf", m)


def pdm(sigma: float = DEFAULT_SIGMA) -> DistanceKind:
    return DistanceKind("pdm", sigma)


def varifolds(sigma: float = DEFAULT_SIGMA) -> DistanceKind:
    return DistanceKind("var", sigma)


def parse_kind(text: str) -> DistanceKind:
    """Parse a canonical kind string: mc, sc, lc, mdf-<m>, pdm-<sigma>, var-<sigma>."""
    text = text.strip().lower()
    tag, sep, param = text.partition("-")
    try:
        if not sep:
            return DistanceKind(tag)
        if tag == "mdf":
            return DistanceKind(tag, int(param))
        return DistanceKind(tag, float(param))
    except ValueError as exc:
        raise ValueError(f"cannot parse distance kind {text!r}: {exc}") from None


def default_kinds(sigma: float = DEFAULT_SIGMA) -> list[DistanceKind]:
    """The eight kinds compared by the benchmark, in canonical order."""
    return [MC, SC, LC, *(mdf(m) for m in DEFAULT_MDF_POINTS), pdm(sigma), varifolds(sigma)]


# ---------------------------------------------------------------------------
# Mean-of-closest family
# ---------------------------------------------------------------------------

def _closest_means(pa: np.ndarray, pb: np.ndarray) -> tuple[float, float]:
    """Both asymmetric closest-point means: over pa's points, then over pb's."""
    d = cdist(pa, pb)
    return float(d.min(axis=1).mean()), float(d.min(axis=0).mean())


def _mean(ab: float, ba: float) -> float:
    return (ab + ba) / 2.0


# How the batch engine symmetrizes mc, sc and lc, on arrays of both means.
_SYMMETRIZE = {"mc": _mean, "sc": np.minimum, "lc": np.maximum}


def d_mc(s_a: Streamline, s_b: Streamline) -> float:
    """Mean of the two asymmetric closest-point averages."""
    return _mean(*_closest_means(s_a.points, s_b.points))


def d_sc(s_a: Streamline, s_b: Streamline) -> float:
    """Shorter (min) of the two asymmetric closest-point averages."""
    return min(_closest_means(s_a.points, s_b.points))


def d_lc(s_a: Streamline, s_b: Streamline) -> float:
    """Longer (max) of the two asymmetric closest-point averages."""
    return max(_closest_means(s_a.points, s_b.points))


# The batch engine's one work budget, in point pairs per numpy call: an
# mc/sc/lc run of whole column streamlines, or a pdm/var run of whole row
# streamlines, fills one reused 256 KB buffer, and an mdf block of whole
# rows, or of aligned pairs, keeps each _mdf_core temporary under 1 MB (a
# wider row or streamline is one call).
_RUN_POINT_PAIRS = 32768


def _run_end(offsets: np.ndarray, lo: int, points: int) -> int:
    """The end of the run from streamline lo of a store with these offsets:
    the whole streamlines that fit in points, or streamline lo alone when
    it is longer."""
    return max(lo + 1, int(np.searchsorted(offsets, offsets[lo] + points, side="right")) - 1)


def _closest_row(pick, pa: np.ndarray, cols: Tractogram, j0: int) -> np.ndarray:
    """pick(ab, ba) of points pa against streamlines j0, j0+1, ... of cols.

    Per run: the squared distances from every point of pa to every column
    point, then minima per column segment in one direction and per column
    point in the other. sqrt is monotone, so taking it after the minimum
    gives the per-pair values. ab sums each column's minima as one
    contiguous row, in _closest_means's order whatever the run's width; ba
    sums each segment left to right. So an entry does not depend on the
    run it falls in.
    """
    n = len(pa)
    flat, offsets = cols.points, cols.offsets
    run_points = _RUN_POINT_PAIRS // n
    buf = np.empty(n * run_points)
    out = np.empty(len(cols) - j0)
    lo = j0
    while lo < len(cols):
        p0 = offsets[lo]
        hi = _run_end(offsets, lo, run_points)
        size = n * (offsets[hi] - p0)
        sq = cdist(pa, flat[p0:offsets[hi]], "sqeuclidean",
                   out=buf[:size].reshape(n, -1) if size <= len(buf) else None)
        starts = offsets[lo:hi] - p0
        ab = np.sqrt(np.minimum.reduceat(sq, starts, axis=1).T.copy()).sum(axis=1) / n
        ba = np.add.reduceat(np.sqrt(sq.min(axis=0)), starts) / np.diff(offsets[lo:hi + 1])
        out[lo - j0:hi - j0] = pick(ab, ba)
        lo = hi
    return out


# ---------------------------------------------------------------------------
# Minimum average direct-flip
# ---------------------------------------------------------------------------

def _mdf_core(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """min(direct, flipped) mean pointwise distance of resampled streamlines.

    a and b are (3, ..., m) coordinate planes (x, y, z first), broadcast
    against each other over the middle axes; the result has their broadcast
    middle shape. Each plane's last axis holds one streamline's m points.
    """
    def mean_norm(c):
        # Squared norms summed in x, y, z order, on whole planes.
        sq = (a[0] - c[0]) ** 2
        sq += (a[1] - c[1]) ** 2
        sq += (a[2] - c[2]) ** 2
        return np.sqrt(sq, out=sq).mean(axis=-1)

    return np.minimum(mean_norm(b), mean_norm(b[..., ::-1]))


def d_mdf(s_a: Streamline, s_b: Streamline, m: int) -> float:
    """Min of mean pointwise distance under direct and reversed pairing.

    Both streamlines are resampled to m equally spaced points first, so
    the result is invariant to flipping either argument.
    """
    return float(_mdf_core(resample(s_a, m).points.T, resample(s_b, m).points.T))


def mdf_min_direct_flipped(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batch mdf core on aligned stacks of already-resampled streamlines.

    a and b are (n, m, 3) arrays; returns the n distances
    min(direct, flipped) without any resampling.
    """
    n = len(a)
    step = max(1, _RUN_POINT_PAIRS // max(1, a.shape[1]))
    out = np.empty(n)
    for lo in range(0, n, step):
        # Views, not copies: a copy per chunk faults its pages in on every call.
        out[lo:lo + step] = _mdf_core(np.moveaxis(a[lo:lo + step], -1, 0),
                                      np.moveaxis(b[lo:lo + step], -1, 0))
    return out


# ---------------------------------------------------------------------------
# Kernel distances
# ---------------------------------------------------------------------------

def _kernel_distance(aa: float, bb: float, ab: float) -> float:
    """Norm of the difference from inner products; the squared distance is
    clamped at zero because floating-point cancellation can push it a hair
    negative for near-identical streamlines."""
    return math.sqrt(max(aa + bb - 2.0 * ab, 0.0))


def _gauss_mean(pa: np.ndarray, pb: np.ndarray, sigma: float) -> float:
    """Mean Gaussian kernel value over all point pairs of pa and pb."""
    sq = cdist(pa, pb, "sqeuclidean")
    return float(np.exp(-sq / (sigma * sigma)).mean())


def d_pdm(s_a: Streamline, s_b: Streamline, sigma: float) -> float:
    """Kernel distance induced by the point-cloud Gaussian inner product."""
    pa, pb = s_a.points, s_b.points
    return _kernel_distance(_gauss_mean(pa, pa, sigma), _gauss_mean(pb, pb, sigma),
                            _gauss_mean(pa, pb, sigma))


def _segment_arrays(s: Streamline) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Segment centers (x_i + x_{i+1})/2, tangents x_{i+1} - x_i, tangent norms."""
    p = s.points
    tangents = p[1:] - p[:-1]
    centers = 0.5 * (p[1:] + p[:-1])
    norms = np.sqrt((tangents * tangents).sum(axis=1))
    return centers, tangents, norms


def _var_inner(seg_a, seg_b, sigma: float) -> float:
    """Varifold inner product of two _segment_arrays descriptors."""
    ca, ta, na = seg_a
    cb, tb, nb = seg_b
    sq = cdist(ca, cb, "sqeuclidean")
    dots = ta @ tb.T
    # K_n * |n_i| * |n_j| = (n_i . n_j)^2 / (|n_i| |n_j|)
    w = np.exp(-sq / (sigma * sigma)) * (dots * dots) / np.outer(na, nb)
    return float(w.sum())


def d_varifolds(s_a: Streamline, s_b: Streamline, sigma: float) -> float:
    """Kernel distance on segment varifolds."""
    # Fresh descriptors for each product: t @ t.T on one array takes BLAS's
    # symmetric path, whose rounding differs from the general product that
    # ab takes, and d(a, a) would not be 0.
    aa = _var_inner(_segment_arrays(s_a), _segment_arrays(s_a), sigma)
    bb = _var_inner(_segment_arrays(s_b), _segment_arrays(s_b), sigma)
    ab = _var_inner(_segment_arrays(s_a), _segment_arrays(s_b), sigma)
    return _kernel_distance(aa, bb, ab)


# ---------------------------------------------------------------------------
# Dispatch and the batch engine
# ---------------------------------------------------------------------------

def distance(kind: DistanceKind, s_a: Streamline, s_b: Streamline) -> float:
    """Evaluate one streamline pair under the given kind."""
    tag = kind.tag
    if tag == "mc":
        return d_mc(s_a, s_b)
    if tag == "sc":
        return d_sc(s_a, s_b)
    if tag == "lc":
        return d_lc(s_a, s_b)
    if tag == "mdf":
        return d_mdf(s_a, s_b, kind.param)
    if tag == "pdm":
        return d_pdm(s_a, s_b, kind.param)
    return d_varifolds(s_a, s_b, kind.param)


def _prepare(kind: DistanceKind, t: Tractogram):
    """Per-streamline state for the batch engine, computed once each.

    mdf: the (3, n, m) coordinate planes of resample_stack's store, not a
    copy. mc/sc/lc: the tractogram itself, whose flat store the
    closest-point runs read. pdm/var: (descriptor stack, offsets, kernel
    self-products), the stack a list of arrays whose rows offsets[i] to
    offsets[i + 1] describe streamline i: pdm's is the tractogram's own
    points and offsets, not a copy; var's is every streamline's segment
    centers, tangents and tangent norms, concatenated.
    """
    tag, param = kind.tag, kind.param
    if tag == "mdf":
        return np.moveaxis(resample_stack(t, param), -1, 0)
    if tag == "pdm":
        return [t.points], t.offsets, np.array([_gauss_mean(s.points, s.points, param) for s in t])
    if tag == "var":
        segs = [_segment_arrays(s) for s in t]
        # The self-product on a second, fresh descriptor, as d_varifolds
        # takes it: t @ t.T on one array takes BLAS's symmetric path.
        selfs = np.array([_var_inner(g, _segment_arrays(s), param) for s, g in zip(t, segs)])
        # A zero-length first block, so that an empty t stacks too.
        empty = (np.empty((0, 3)), np.empty((0, 3)), np.empty(0))
        stack = [np.concatenate(parts) for parts in zip(empty, *segs)]
        return stack, t.offsets - np.arange(len(t) + 1), selfs
    return t


def _kernel_column(sigma: float, rows, cols, j: int, n: int, bufs: np.ndarray) -> np.ndarray:
    """pdm or var distances of rows' streamlines 0..n-1 to cols' streamline j.

    rows and cols are _prepare's (stack, offsets, self-products). The rows
    meet the column in runs of whole streamlines of at most
    _RUN_POINT_PAIRS point pairs, worked in place in the two rows of bufs
    (a longer streamline is a run alone, on fresh arrays). Each step is
    the per-pair oracle's IEEE operation on each element, and each pair's
    weights are one contiguous row-major block, summed alone with .sum()
    as the oracle sums it; so an entry equals d_pdm or d_varifolds of its
    pair bit for bit.
    """
    (ra, ro, raa), (ca, co, cbb) = rows, cols
    cb = [c[co[j]:co[j + 1]] for c in ca]
    nb = len(cb[0])
    var = len(ca) == 3
    ab = np.empty(n)
    lo = 0
    while lo < n:
        hi = min(n, _run_end(ro, lo, _RUN_POINT_PAIRS // nb))
        p0, p1 = ro[lo], ro[hi]
        size = (p1 - p0) * nb
        w, d = [b[:size].reshape(-1, nb) for b in bufs] if size <= bufs.shape[1] else (None, None)
        w = cdist(ra[0][p0:p1], cb[0], "sqeuclidean", out=w)
        # x / -y is -x / y: IEEE division rounds the magnitude alone.
        np.divide(w, -(sigma * sigma), out=w)
        np.exp(w, out=w)
        if var:
            d = np.matmul(ra[1][p0:p1], cb[1].T, out=d)
            d *= d
            w *= d
            np.multiply(ra[2][p0:p1, None], cb[2], out=d)
            w /= d
        edges = (ro[lo:hi + 1] - p0).tolist()
        ab[lo:hi] = [w[a:b].sum() for a, b in zip(edges, edges[1:])]
        lo = hi
    if var:
        # matmul takes gemv for a one-row product, whose rounding differs
        # from that row's part of the stacked gemm: a one-segment row
        # takes the oracle's own call.
        for i in np.flatnonzero(np.diff(ro[:n + 1]) == 1):
            ab[i] = _var_inner([c[ro[i]:ro[i + 1]] for c in ra], cb, sigma)
    else:
        ab /= np.diff(ro[:n + 1]) * nb
    return np.sqrt(np.maximum(raa[:n] + cbb[j] - 2.0 * ab, 0.0))


def distance_matrix(
    kind: DistanceKind,
    rows: Tractogram | Sequence[Streamline],
    cols: Tractogram | Sequence[Streamline] | None = None,
) -> np.ndarray:
    """All pairwise distances between two streamline collections.

    With cols omitted (or identical to rows) only the upper triangle is
    evaluated and mirrored, and the diagonal is 0; all kinds here are
    symmetric by construction.
    Per-streamline quantities (resampled points, kernel self-products,
    segment descriptors) are computed once and reused. mdf takes blocks
    of whole rows, one _mdf_core call per block of at most _RUN_POINT_PAIRS
    resampled point pairs; a rectangular mdf matrix equals the per-pair
    d_mdf bit for bit. mc, sc and lc meet a row's columns in runs of whole
    streamlines of the columns' store, each entry computed the same way
    whatever run it falls in. pdm and var meet a column with runs of whole
    row streamlines (_kernel_column); a rectangular pdm or var matrix
    equals d_pdm or d_varifolds bit for bit. A list is copied into a
    Tractogram once.
    """
    symmetric = cols is None or cols is rows
    rows = Tractogram(rows)
    cols = rows if symmetric else Tractogram(cols)
    tag, sigma = kind.tag, kind.param
    closest = tag in _SYMMETRIZE
    cs = _prepare(kind, cols)
    # mc/sc/lc read each row's own points, never rs.
    rs = cs if symmetric or closest else _prepare(kind, rows)
    out = np.empty((len(rows), len(cols)))
    if tag == "mdf":
        # The rows stay _mdf_core's first argument, so each entry is the
        # per-pair value; the mirror below overwrites what a symmetric block
        # computes below the diagonal.
        k = max(1, _RUN_POINT_PAIRS // max(1, len(cols) * rs.shape[-1]))
        for i in range(0, len(rows), k):
            j0 = i if symmetric else 0
            out[i:i + k, j0:] = _mdf_core(rs[:, i:i + k, None], cs[:, None, j0:])
    elif closest:
        for i in range(len(rows)):
            j0 = i if symmetric else 0
            out[i, j0:] = _closest_row(_SYMMETRIZE[tag], rows[i].points, cs, j0)
    else:
        # Column j of a symmetric matrix takes rows 0..j, its upper triangle.
        bufs = np.empty((2, _RUN_POINT_PAIRS))
        for j in range(len(cols)):
            n = j + 1 if symmetric else len(rows)
            out[:n, j] = _kernel_column(sigma, rs, cs, j, n, bufs)
    if symmetric:
        # Every oracle gives 0 on identical streamlines; a var diagonal entry
        # shares one descriptor between both sides of its cross product.
        np.fill_diagonal(out, 0.0)
        # One row at a time: index arrays over the whole triangle would
        # allocate more than the matrix itself.
        for i in range(len(rows) - 1):
            out[i + 1:, i] = out[i, i + 1:]
    return out
