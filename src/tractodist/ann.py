"""Exact 1-nearest-neighbor search over embedded vectors with a k-d tree.

The tree is the acceleration structure of the segmentation pipeline: any
approximation in that pipeline comes from the dissimilarity embedding,
never from here. Queries return the exact Euclidean nearest neighbor
among the stored vectors, ties broken toward the lowest stored id.

Build splits on the axis of greatest spread at the median position and
stops at leaves of at most 16 points. The tree is immutable after build;
concurrent readers are safe.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, EmptyInput

LEAF_SIZE = 16


class _Leaf:
    __slots__ = ("ids", "pts")

    def __init__(self, ids: np.ndarray, pts: np.ndarray):
        order = np.argsort(ids, kind="stable")
        self.ids = ids[order]
        self.pts = pts[order]


class _Split:
    __slots__ = ("axis", "value", "left", "right")

    def __init__(self, axis: int, value: float, left, right):
        self.axis = axis
        self.value = value
        self.left = left
        self.right = right


class KdTree:
    """Immutable k-d tree over N vectors of dimension d with integer ids."""

    __slots__ = ("_root", "_dim", "_size", "_node_count", "_depth")

    def __init__(self, vectors: np.ndarray, ids=None):
        vectors = np.ascontiguousarray(vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise DimensionMismatch(f"expected an (N, d) matrix, got shape {vectors.shape}")
        n, d = vectors.shape
        if n == 0:
            raise EmptyInput("cannot build a kd-tree over zero vectors")
        if ids is None:
            ids = np.arange(n)
        else:
            ids = np.asarray(ids, dtype=np.int64)
            if ids.shape != (n,):
                raise DimensionMismatch(f"need {n} ids, got shape {ids.shape}")
        self._dim = d
        self._size = n
        self._node_count = 0
        self._depth = 0
        self._root = self._build(vectors, ids, 1)

    def _build(self, pts: np.ndarray, ids: np.ndarray, level: int):
        self._node_count += 1
        self._depth = max(self._depth, level)
        n = len(pts)
        if n <= LEAF_SIZE:
            return _Leaf(ids, pts)
        spread = pts.max(axis=0) - pts.min(axis=0)
        axis = int(np.argmax(spread))
        order = np.argsort(pts[:, axis], kind="stable")
        mid = n // 2
        value = float(pts[order[mid], axis])
        lo, hi = order[:mid], order[mid:]
        return _Split(
            axis,
            value,
            self._build(pts[lo], ids[lo], level + 1),
            self._build(pts[hi], ids[hi], level + 1),
        )

    @property
    def dimension(self) -> int:
        return self._dim

    def __len__(self) -> int:
        return self._size

    @property
    def node_count(self) -> int:
        return self._node_count

    @property
    def depth(self) -> int:
        return self._depth

    def nearest(self, q) -> tuple[int, float]:
        """Exact nearest neighbor of q: (stored id, Euclidean distance)."""
        nid, dist, _ = self.nearest_with_stats(q)
        return nid, dist

    def nearest_with_stats(self, q) -> tuple[int, float, int]:
        """Like nearest(), also reporting the number of nodes visited."""
        q = np.asarray(q, dtype=np.float64)
        if q.shape != (self._dim,):
            raise DimensionMismatch(
                f"query of shape {q.shape} against a {self._dim}-dimensional tree"
            )
        best_id = -1
        best_sq = np.inf
        visited = 0
        # Explicit stack of (node, squared distance to its half-space).
        stack = [(self._root, 0.0)]
        while stack:
            node, bound_sq = stack.pop()
            # <= keeps equal-distance candidates reachable for the id tiebreak.
            if not bound_sq <= best_sq:
                continue
            while isinstance(node, _Split):
                visited += 1
                delta = q[node.axis] - node.value
                if delta < 0.0:
                    near, far = node.left, node.right
                else:
                    near, far = node.right, node.left
                far_bound = max(bound_sq, delta * delta)
                if far_bound <= best_sq:
                    stack.append((far, far_bound))
                node = near
            visited += 1
            diff = node.pts - q
            sq = (diff * diff).sum(axis=1)
            j = int(np.argmin(sq))
            s = float(sq[j])
            nid = int(node.ids[j])
            if s < best_sq or (s == best_sq and nid < best_id):
                best_sq = s
                best_id = nid
        return best_id, float(np.sqrt(best_sq)), visited
