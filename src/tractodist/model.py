"""Core streamline geometry: types, validation, resampling and flipping.

A streamline is an ordered polyline in millimeter coordinates, stored as
an immutable (n, 3) float64 array. Construction collapses consecutive
duplicate points so that downstream segment tangents always have positive
length; all other modules rely on that guarantee.
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
        if not np.isfinite(pts).all():
            raise NonFiniteCoordinate("streamline contains NaN or Inf coordinates")
        pts = pts[_distinct_mask(pts, slice(0, 1))]
        if len(pts) < 2:
            raise FewerThanTwoDistinctPoints(
                f"streamline needs >= 2 distinct points, got {len(pts)}"
            )
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
    seglen = np.sqrt((seg * seg).sum(axis=-1))
    out = np.zeros(points.shape[:-1])
    np.cumsum(seglen, axis=-1, out=out[..., 1:])
    return out


def _interpolate(points: np.ndarray, cum: np.ndarray, last: np.ndarray,
                 ts: np.ndarray) -> np.ndarray:
    """Evaluate padded polylines at arc-length positions.

    points (b, n, 3) holds b polylines, each padded past its last vertex
    (index last[r]) by repeating that vertex, and cum (b, n) their
    arc_lengths; the padding adds segments of length 0, so cum[:, -1] is
    each total length. ts (b, k) are positions, clipped to [0, total].
    Linear interpolation within segments.
    """
    b, n = cum.shape
    ts = np.minimum(np.maximum(ts, 0.0), cum[:, -1:])
    # The last vertex at arc length <= t; >= 0 since cum starts at 0. Padding
    # vertices count only at t == total, where the bound to the last real
    # segment undoes them.
    idx = np.empty(ts.shape, dtype=np.intp)
    for r in range(b):
        idx[r] = np.searchsorted(cum[r], ts[r], side="right")
    idx = np.minimum(idx, last[:, None]) - 1
    idx += np.arange(0, b * n, n)[:, None]  # flat index of the segment start
    cum = cum.ravel()
    points = points.reshape(-1, 3)
    start = cum[idx]
    seglen = cum[idx + 1] - start
    p0 = np.take(points, idx, axis=0)  # 2-3x faster than points[idx] on (k, 3) rows
    seg = np.take(points, idx + 1, axis=0) - p0
    moved = seglen > 0.0
    frac = np.where(moved, (ts - start) / np.where(moved, seglen, 1.0), 0.0)
    seg *= frac[..., None]
    seg += p0  # p0 + frac * seg, in place: two fewer (b, k, 3) temporaries
    return seg


def points_at_arc_lengths(points: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Evaluate a polyline at the given arc-length positions.

    Positions are clipped to [0, total length]. Linear interpolation
    within segments.
    """
    ts = np.asarray(ts, dtype=np.float64)
    last = np.array([len(points) - 1])
    return _interpolate(points[None], arc_lengths(points)[None], last, ts[None])[0]


def _pad_polylines(t: Tractogram, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Streamlines ids of t as _interpolate takes them: (b, n, 3), each padded
    to the longest by repeating its last vertex, plus each one's last index."""
    first = t.offsets[ids]
    counts = t.offsets[ids + 1] - first
    take = first[:, None] + np.minimum(np.arange(counts.max()), counts[:, None] - 1)
    return t.points[take], counts - 1


def _resample_padded(points: np.ndarray, last: np.ndarray, m: int) -> np.ndarray:
    """resample() on padded polylines as _interpolate takes them; (b, m, 3)."""
    cum = arc_lengths(points)
    out = _interpolate(points, cum, last, np.linspace(0.0, cum[:, -1], m, axis=1))
    out[:, 0] = points[:, 0]
    out[:, -1] = points[:, -1]
    return out


def _check_resample_count(m) -> int:
    if m < 2 or int(m) != m:
        raise InvalidResampleCount(f"resample count must be an integer >= 2, got {m}")
    return int(m)


# Streamlines per _pad_polylines call, in resample_stack and voxelize.
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
    out = np.moveaxis(np.empty((3, len(t), m)), 0, -1)
    for lo in range(0, len(t), _PAD_ROWS):
        points, last = _pad_polylines(t, np.arange(lo, min(lo + _PAD_ROWS, len(t))))
        out[lo:lo + len(last)] = _resample_padded(points, last, m)
    return out


def resample(s: Streamline, m: int) -> Streamline:
    """Resample to exactly m points equally spaced by arc length.

    The first and last points of s are preserved exactly. The result has
    exactly m points even where equal-arc sampling of a direction-reversing
    polyline lands two samples on the same spot, so it bypasses the
    duplicate-collapse step of construction.
    """
    m = _check_resample_count(m)
    p = s.points
    out = _resample_padded(p[None], np.array([len(p) - 1]), m)
    # A copy owns its memory; a view of out would cost every streamline a
    # second array header (~1.5 MB for a 10k-streamline synthetic subject).
    return Streamline._from_valid(out[0].copy())


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


def _distinct_mask(pts: np.ndarray, starts) -> np.ndarray:
    """The duplicate-collapse rule on polylines stored back to back: True at
    each polyline start (starts indexes pts) and at each point unlike the last."""
    # Per axis: numpy's reductions over a length-3 axis are several times slower.
    moved = pts[1:] != pts[:-1]
    keep = np.empty(len(pts), dtype=bool)
    np.logical_or(moved[:, 0], moved[:, 1], out=keep[1:])
    keep[1:] |= moved[:, 2]
    keep[starts] = True
    return keep
