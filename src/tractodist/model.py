"""Core streamline geometry: types, validation, resampling and flipping.

A streamline is an ordered polyline in millimeter coordinates, stored as
an immutable (n, 3) float64 array. Construction collapses consecutive
duplicate points so that downstream segment tangents always have positive
length; every function that builds a store applies the same rule, _checked_rows.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Sequence

import numpy as np

from .errors import (
    FewerThanTwoDistinctPoints,
    IndexOutOfRange,
    InvalidResampleCount,
    NonFiniteCoordinate,
)


class Streamline:
    """An ordered sequence of >= 2 distinct 3D points (millimeters).

    Instances are immutable: the underlying array is read-only and shared,
    so streamlines are safe to pass between threads.
    """

    __slots__ = ("_points",)

    def __init__(self, points):
        pts = _as_points(points)
        if len(pts) == 0:
            raise FewerThanTwoDistinctPoints("streamline needs >= 2 distinct points, got 0")
        pts = pts[_checked_rows(pts, np.zeros(1, dtype=np.intp))[0]]
        pts.flags.writeable = False
        self._points = pts

    @classmethod
    def _from_valid(cls, pts: np.ndarray) -> "Streamline":
        # Fast path for internally produced arrays (resample, flip) and for
        # views of a Tractogram's store, validated and collapsed when it was
        # built: skips validation and duplicate collapse, keeping point counts.
        s = object.__new__(cls)
        pts.flags.writeable = False
        s._points = pts
        return s

    @property
    def points(self) -> np.ndarray:
        """Read-only (n, 3) float64 array of the points."""
        return self._points

    def __len__(self) -> int:
        return len(self._points)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Streamline):
            return NotImplemented
        return np.array_equal(self._points, other._points)

    def __hash__(self):
        return hash(self._points.tobytes())

    def __repr__(self) -> str:
        p = self._points
        return f"Streamline({len(p)} points, {p[0]} .. {p[-1]})"


class Tractogram:
    """An indexed, immutable collection of streamlines, stored flat.

    Streamline i is points[offsets[i]:offsets[i + 1]] of one read-only
    (P, 3) float64 array of all points and read-only (N + 1,) int64
    offsets; t[i] is a Streamline viewing that slice, so it keeps the
    whole store alive, and Tractogram(t) shares t's store. Index i names
    streamline i for the object's life.
    """

    __slots__ = ("_points", "_offsets")

    def __init__(self, streamlines: Iterable[Streamline]):
        t = streamlines
        if not isinstance(t, Tractogram):
            sls = tuple(streamlines)
            for s in sls:
                if not isinstance(s, Streamline):
                    raise TypeError(f"expected Streamline, got {type(s).__name__}")
            # The empty block gives Tractogram([]) its (0, 3) float64 store.
            points = np.concatenate([np.empty((0, 3)), *(s.points for s in sls)])
            t = Tractogram._from_counts(points, [len(s) for s in sls])
        self._points, self._offsets = t.points, t.offsets

    @classmethod
    def _from_counts(cls, points: np.ndarray, counts) -> "Tractogram":
        """Over valid streamlines stored back to back, counts[i] points for streamline i."""
        offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        points.flags.writeable = offsets.flags.writeable = False
        t = object.__new__(cls)
        t._points, t._offsets = points, offsets
        return t

    @property
    def points(self) -> np.ndarray:
        """Read-only (P, 3) float64 array of every streamline's points."""
        return self._points

    @property
    def offsets(self) -> np.ndarray:
        """Read-only (N + 1,) int64 array: streamline i is points[offsets[i]:offsets[i + 1]]."""
        return self._offsets

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __getitem__(self, i) -> Streamline:
        n, i = len(self), operator.index(i)
        if not -n <= i < n:
            raise IndexError(f"streamline index {i} out of range for {n} streamlines")
        i %= n
        return Streamline._from_valid(self._points[self._offsets[i]:self._offsets[i + 1]])

    def take(self, ids) -> "Tractogram":
        """Streamlines ids (each in 0..N-1), in that order, gathered into a new store."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and not (ids.min() >= 0 and ids.max() < len(self)):
            raise IndexError(f"streamline ids outside 0..{len(self) - 1}")
        first = self._offsets[ids]
        counts = self._offsets[ids + 1] - first
        # Row r of the gather is store row r + shift of its streamline: the
        # streamline's first row in the store minus its first row here.
        shift = first - (np.cumsum(counts) - counts)
        rows = np.arange(counts.sum()) + np.repeat(shift, counts)
        return Tractogram._from_counts(self._points[rows], counts)

    def __repr__(self) -> str:
        return f"Tractogram({len(self)} streamlines)"


class BundleRef:
    """A named subset of a tractogram, held as sorted unique indices."""

    __slots__ = ("_tractogram", "_indices", "_name")

    def __init__(self, tractogram: Tractogram, indices: Iterable[int], name: str = ""):
        idx = sorted(set(int(i) for i in indices))
        n = len(tractogram)
        for i in idx:
            if i < 0 or i >= n:
                raise IndexOutOfRange(
                    f"bundle index {i} out of range for tractogram of size {n}"
                )
        self._tractogram = tractogram
        self._indices = tuple(idx)
        self._name = name

    @property
    def tractogram(self) -> Tractogram:
        return self._tractogram

    @property
    def indices(self) -> tuple[int, ...]:
        return self._indices

    @property
    def name(self) -> str:
        return self._name

    def streamlines(self) -> list[Streamline]:
        """The referenced streamlines, in index order."""
        return [self._tractogram[i] for i in self._indices]

    def __len__(self) -> int:
        return len(self._indices)

    def __repr__(self) -> str:
        label = f" {self._name!r}" if self._name else ""
        return f"BundleRef({len(self._indices)} streamlines{label})"


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def build_streamline(raw_points) -> Streamline:
    """Validate raw points and build a streamline.

    Consecutive duplicate points are collapsed. Raises
    NonFiniteCoordinate on NaN/Inf input and FewerThanTwoDistinctPoints
    if fewer than two distinct points remain.
    """
    return Streamline(raw_points)


def arc_lengths(points: np.ndarray) -> np.ndarray:
    """Cumulative arc length at each vertex of a polyline; starts at 0.

    points is (..., n, 3); leading axes hold independent polylines.
    """
    seg = np.diff(points, axis=-2)
    seg *= seg
    # x + y + z summed left to right, as .sum(axis=-1) sums them, bit for
    # bit: numpy's reductions over a length-3 axis are several times slower.
    seglen = seg[..., 0] + seg[..., 1]
    seglen += seg[..., 2]
    np.sqrt(seglen, out=seglen)
    out = np.zeros(points.shape[:-1])
    np.cumsum(seglen, axis=-1, out=out[..., 1:])
    return out


def _segment_starts(cum: np.ndarray, last: np.ndarray,
                    ts: np.ndarray) -> tuple[np.ndarray, ...]:
    """Where padded polylines pass arc-length positions, first step.

    cum (b, n) holds the arc_lengths of b polylines, each padded past its
    last vertex (index last[r]) by repeating that vertex; the padding adds
    segments of length 0, so cum[:, -1] is each total length. ts (b, k) are
    positions. Returns (ts, idx, start, seglen), each (b, k): ts clipped to
    [0, total], and the segment each position falls on, from vertex idx to
    vertex idx + 1 (flat indices into the b * n vertices), with its start's
    arc length and its length. _sample finishes the lookup.
    """
    b, n = cum.shape
    ts = np.minimum(np.maximum(ts, 0.0), cum[:, -1:])
    # The last vertex at arc length <= t; >= 0 since cum starts at 0. Padding
    # vertices count only at t == total, where the bound to the last real
    # segment undoes them.
    idx = np.empty(ts.shape, dtype=np.intp)
    for r in range(b):
        # The method skips np.searchsorted's dispatch, ~1 µs of ~2 µs a call.
        idx[r] = cum[r].searchsorted(ts[r], side="right")
    idx = np.minimum(idx, last[:, None]) - 1
    idx += np.arange(0, b * n, n)[:, None]  # flat index of the segment start
    cum = cum.ravel()
    start = cum[idx]
    seglen = cum[idx + 1] - start
    return ts, idx, start, seglen


def _sample(planes: np.ndarray, cum: np.ndarray, last: np.ndarray, ts: np.ndarray,
            out: np.ndarray) -> np.ndarray:
    """Evaluate padded polylines at the positions ts (b, k), as
    _segment_starts places them, into out (3, b, k), and return out.

    planes (3, b, n) holds the polylines one coordinate plane at a time,
    each plane row-contiguous, and cum (b, n) their arc lengths. A sample is
    p0 + frac * (p1 - p0) on its segment from p0 to p1, computed per plane
    with one 1-D take of each end: a row-major (b, k, 3) gather, transposed
    for voxelize's codes, made voxelize ~12% slower on 3,000-streamline
    bundles.
    """
    ts, idx, start, seglen = _segment_starts(cum, last, ts)
    moved = seglen > 0.0
    frac = np.where(moved, (ts - start) / np.where(moved, seglen, 1.0), 0.0)
    nxt = idx + 1
    for a in range(3):
        plane = planes[a].reshape(-1)
        p0 = plane.take(idx)
        seg = plane.take(nxt, out=out[a])
        seg -= p0
        seg *= frac
        seg += p0
    return out


def _pad_polylines(t: Tractogram, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Streamlines ids of t as _sample's callers take them: (b, n, 3), each
    padded to the longest by repeating its last vertex, plus each one's last
    index."""
    first = t.offsets[ids]
    counts = t.offsets[ids + 1] - first
    take = first[:, None] + np.minimum(np.arange(counts.max()), counts[:, None] - 1)
    return t.points[take], counts - 1


def _resample_planes(points: np.ndarray, last: np.ndarray, m: np.ndarray,
                     out: np.ndarray) -> np.ndarray:
    """resample() on padded polylines points (b, n, 3), row r to m[r]
    points, into out (3, b, max m) one coordinate plane at a time; returns
    out. Columns past a row's m[r] hold unpinned samples at its end, for
    callers to drop.

    Row r's positions are np.linspace(0, total, m[r]) as linspace computes
    them for a scalar total: i * (total / (m[r] - 1)), and total itself
    last. Its other formula, for a step that underflows to 0, gives the same
    zeros here: a total above 0 is at least sqrt(5e-324) ~ 2e-162, so at any
    point count that fits in memory only a total of 0 has a step of 0.
    """
    cum = arc_lengths(points)
    total = cum[:, -1:]
    div = (m - 1)[:, None].astype(np.float64)
    i = np.arange(out.shape[-1], dtype=np.float64)
    ts = np.where(i < div, i * (total / div), total)
    planes = np.ascontiguousarray(np.moveaxis(points, -1, 0))
    _sample(planes, cum, last, ts, out)
    rows = np.arange(len(m))
    out[:, :, 0] = planes[:, :, 0]
    out[:, rows, m - 1] = planes[:, rows, last]
    return out


def _resample_rows(points: np.ndarray, last: np.ndarray, m: np.ndarray) -> np.ndarray:
    """_resample_planes with rows back to back: the samples of row r, then
    of row r + 1; (m.sum(), 3)."""
    out = _resample_planes(points, last, m, np.empty((3, len(m), m.max())))
    return np.moveaxis(out, 0, -1)[np.arange(m.max()) < m[:, None]]


def _check_resample_count(m) -> int:
    if m < 2 or int(m) != m:
        raise InvalidResampleCount(f"resample count must be an integer >= 2, got {m}")
    return int(m)


# Streamlines per _pad_polylines call, in resample_stack and voxelize, and
# per block that synth builds.
# Resampling 10k streamlines takes the same time with blocks of 32 to 256,
# but the transient arrays of a 256 block raised the peak RSS of the
# benchmark's paper200 workload by 1.2 MB (1.6%); blocks of 64 keep it flat.
_PAD_ROWS = 64


def resample_stack(streamlines: Tractogram | Sequence[Streamline], m: int) -> np.ndarray:
    """Resample each streamline as resample() does; stack into (n, m, 3).

    The result is a non-contiguous view of a C-contiguous (3, n, m) store,
    its .base: one plane per coordinate, which the mdf engine reads without
    a copy. Works a block of streamlines at a time: each block is padded to
    its longest member by repeating last points, and all its samples are
    interpolated at once.
    """
    m = _check_resample_count(m)
    t = Tractogram(streamlines)
    store = np.empty((3, len(t), m))
    counts = np.full(_PAD_ROWS, m)
    for lo in range(0, len(t), _PAD_ROWS):
        hi = min(lo + _PAD_ROWS, len(t))
        points, last = _pad_polylines(t, np.arange(lo, hi))
        _resample_planes(points, last, counts[:hi - lo], store[:, lo:hi])
    return np.moveaxis(store, 0, -1)


def resample(s: Streamline, m: int) -> Streamline:
    """Resample to exactly m points equally spaced by arc length.

    The first and last points of s are preserved exactly. The result has
    exactly m points even where equal-arc sampling of a direction-reversing
    polyline lands two samples on the same spot, so it bypasses the
    duplicate-collapse step of construction.
    """
    m = _check_resample_count(m)
    p = s.points
    return Streamline._from_valid(_resample_rows(p[None], np.array([len(p) - 1]),
                                                 np.array([m])))


def flip(s: Streamline) -> Streamline:
    """Reverse the point order. flip(flip(s)) == s."""
    return Streamline._from_valid(np.ascontiguousarray(s.points[::-1]))


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _as_points(points) -> np.ndarray:
    if isinstance(points, Streamline):
        return np.array(points.points, dtype=np.float64)
    if isinstance(points, np.ndarray):
        pts = np.array(points, dtype=np.float64)
    else:
        pts = np.array([tuple(p) for p in points], dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise FewerThanTwoDistinctPoints(
            f"expected an (n, 3) point array, got shape {pts.shape}"
        )
    return pts


def _checked_rows(pts: np.ndarray, first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The construction rule on nonempty polylines stored back to back in
    pts (P, 3), float32 or float64, polyline r from row first[r].

    Returns keep, True at each polyline's first point and each point unlike
    the one before, and kept, each polyline's count of kept points. Raises
    the first bad polyline's error, a non-finite point before too few.
    """
    # Per-coordinate flags reduced by flat index, and per-axis comparisons:
    # numpy's reductions over a length-3 axis are several times slower.
    finite = np.logical_and.reduceat(np.isfinite(pts).ravel(), 3 * first)
    moved = pts[1:] != pts[:-1]
    keep = np.empty(len(pts), dtype=bool)
    np.logical_or(moved[:, 0], moved[:, 1], out=keep[1:])
    keep[1:] |= moved[:, 2]
    keep[first] = True
    kept = np.add.reduceat(keep, first, dtype=np.intp)
    bad = ~finite | (kept < 2)
    if bad.any():
        k = int(np.argmax(bad))
        if not finite[k]:
            raise NonFiniteCoordinate("streamline contains NaN or Inf coordinates")
        raise FewerThanTwoDistinctPoints(f"streamline needs >= 2 distinct points, got {kept[k]}")
    return keep, kept
