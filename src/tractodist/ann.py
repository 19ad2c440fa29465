"""Exact 1-nearest-neighbor search over embedded vectors.

The search is the last step of the segmentation pipeline: any
approximation in that pipeline comes from the dissimilarity embedding,
never from here. Queries return the exact Euclidean nearest neighbor
among the stored vectors, ties broken toward the lowest stored id, so
every answer equals a linear scan bit for bit.

scipy's compiled ``cKDTree`` (median splits on the axis of greatest
spread, leaves of at most 16 vectors) proposes each query's two nearest
vectors, at tree distances d1 <= d2. Its arithmetic may round them
differently from a numpy scan, so the proposal alone could pick the
wrong one of two near-equal vectors, or a tie's higher id. The
candidates are therefore every stored vector whose distance could round
to d1 or below: those inside a ball of radius d1 * (1 + 1e-9). The slack
is many orders of magnitude above float64 rounding, and a radius of 0
still includes a vector at distance 0.

When d2 > d1 * (1 + 2e-9) that ball holds the proposed vector alone, and
it is the one candidate. The factor 2 is a margin over the ball's own
slack: it covers any rounding difference between the query's distance
and the ball query's inclusion test, so the shortcut never drops a
vector the ball would hold. Only the remaining near-ties run the ball
query, which builds one Python list a query. Either way the candidates
are re-scored with the scan's numpy arithmetic,
``((v - q) * (v - q)).sum``, and the lowest id among the exact minima
wins. The re-score count of a query is the size of its ball: 1 on the
shortcut, and on the near-tie path every vector in the ball, ties and
duplicates included.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .errors import DimensionMismatch, EmptyInput

LEAF_SIZE = 16

# Relative slack of the ball query that collects re-score candidates.
_BALL_SLACK = 1e-9


class KdTree:
    """Immutable exact-NN index over N vectors of dimension d, ids 0..N-1.

    The tree keeps a reference to the vectors; they must not be modified
    after the build.
    """

    __slots__ = ("_tree", "_depth")

    def __init__(self, vectors: np.ndarray):
        vectors = np.ascontiguousarray(vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise DimensionMismatch(f"expected an (N, d) matrix, got shape {vectors.shape}")
        if len(vectors) == 0:
            raise EmptyInput("cannot build a kd-tree over zero vectors")
        self._tree = cKDTree(vectors, leafsize=LEAF_SIZE)
        self._depth = None

    @property
    def dimension(self) -> int:
        return self._tree.m

    def __len__(self) -> int:
        return self._tree.n

    @property
    def node_count(self) -> int:
        return self._tree.size

    @property
    def depth(self) -> int:
        """Levels from the root to the deepest leaf, the root being level 1."""
        if self._depth is None:
            depth, stack = 0, [self._tree.tree]
            while stack:
                node = stack.pop()
                depth = max(depth, node.level + 1)
                if node.split_dim != -1:
                    stack += (node.lesser, node.greater)
            self._depth = depth
        return self._depth

    def nearest(self, q) -> tuple[int, float]:
        """Exact nearest neighbor of q: (stored id, Euclidean distance)."""
        nid, dist, _ = self.nearest_with_stats(q)
        return nid, dist

    def nearest_with_stats(self, q) -> tuple[int, float, int]:
        """Like nearest(), also reporting the number of re-scored vectors."""
        ids, dists, rescored = self.nearest_many(np.asarray(q)[None])
        return int(ids[0]), float(dists[0]), int(rescored[0])

    def nearest_many(self, queries) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exact nearest neighbor of each row of an (M, d) query matrix.

        Returns the stored ids, the Euclidean distances and the number of
        vectors re-scored for each query, as arrays of length M. One k=2
        tree query proposes every match. A query whose second tree
        distance is within twice the ball's slack of its first also runs
        the ball query, and re-scores every vector in that ball; any other
        query re-scores its proposed vector alone, with count 1, which is
        the size its ball would have had.
        """
        queries = np.ascontiguousarray(queries, dtype=np.float64)
        if queries.ndim != 2 or queries.shape[1] != self.dimension:
            raise DimensionMismatch(
                f"queries of shape {queries.shape} against a "
                f"{self.dimension}-dimensional tree"
            )
        if len(queries) == 0:
            return np.empty(0, np.intp), np.empty(0), np.empty(0, np.intp)
        tree_d, tree_i = self._tree.query(queries, k=2)
        proposed = tree_d[:, 0]
        # The ball of radius proposed * (1 + slack) holds the proposed vector
        # alone when the second tree distance is beyond proposed * (1 + 2 *
        # slack). The factor 2 is a margin for any rounding difference between
        # the k=2 query's distances and the ball query's own inclusion test.
        # On a store of one vector the second distance is inf, so the missing
        # neighbour's index (N) is never used.
        near = np.flatnonzero(tree_d[:, 1] <= proposed * (1.0 + 2.0 * _BALL_SLACK))
        balls = self._tree.query_ball_point(queries[near], proposed[near] * (1.0 + _BALL_SLACK))
        # Each ball holds at least the proposed vector, so no group is empty.
        counts = np.ones(len(queries), np.intp)
        counts[near] = [len(ball) for ball in balls]
        starts = np.cumsum(counts) - counts
        cand = np.repeat(tree_i[:, 0], counts)
        for start, ball in zip(starts[near], balls):
            cand[start : start + len(ball)] = ball
        diff = self._tree.data[cand] - np.repeat(queries, counts, axis=0)
        sq = (diff * diff).sum(axis=1)
        best_sq = np.minimum.reduceat(sq, starts)
        at_min = sq == np.repeat(best_sq, counts)
        ids = np.minimum.reduceat(np.where(at_min, cand, len(self)), starts)
        return ids, np.sqrt(best_sq), counts
