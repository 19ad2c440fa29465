import numpy as np
import pytest
from scipy.spatial import cKDTree

from conftest import naive_nearest
from tractodist.ann import _BALL_SLACK, LEAF_SIZE, KdTree
from tractodist.errors import DimensionMismatch, EmptyInput


def reference_shape(pts: np.ndarray, level=1):
    """Independent recursive construction; returns (node_count, depth).

    Mirrors the declared rules: leaves hold <= LEAF_SIZE vectors, splits
    use the widest-spread axis, and the median element (position n//2 of
    a stable sort) starts the right child.
    """
    n = len(pts)
    if n <= LEAF_SIZE:
        return 1, level
    axis = int(np.argmax(pts.max(axis=0) - pts.min(axis=0)))
    order = np.argsort(pts[:, axis], kind="stable")
    mid = n // 2
    ln, ld = reference_shape(pts[order[:mid]], level + 1)
    rn, rd = reference_shape(pts[order[mid:]], level + 1)
    return 1 + ln + rn, max(ld, rd)


def reference_nearest_many(pts: np.ndarray, queries: np.ndarray):
    """The ball-only search: (ids, distances, re-score counts).

    A k=1 proposal, then a ball of radius d * (1 + slack) around every
    query, every vector in it re-scored with the scan's arithmetic, ties
    to the lowest id.
    """
    tree = cKDTree(pts, leafsize=LEAF_SIZE)
    proposed, _ = tree.query(queries, k=1)
    balls = tree.query_ball_point(queries, proposed * (1.0 + _BALL_SLACK))
    counts = np.array([len(ball) for ball in balls], dtype=np.intp)
    starts = np.cumsum(counts) - counts
    cand = np.concatenate(balls)
    diff = pts[cand] - np.repeat(queries, counts, axis=0)
    sq = (diff * diff).sum(axis=1)
    best_sq = np.minimum.reduceat(sq, starts)
    at_min = sq == np.repeat(best_sq, counts)
    ids = np.minimum.reduceat(np.where(at_min, cand, len(pts)), starts)
    return ids, np.sqrt(best_sq), counts


def assert_many_equals_reference(pts, queries):
    got = KdTree(pts).nearest_many(queries)
    for g, r in zip(got, reference_nearest_many(pts, queries)):
        assert g.dtype == r.dtype
        assert np.array_equal(g, r)
    return got


def test_structure_matches_reference_builder():
    rng = np.random.default_rng(51)
    pts = rng.normal(size=(100, 8))
    tree = KdTree(pts)
    nodes, depth = reference_shape(pts)
    assert tree.node_count == nodes
    assert tree.depth == depth


def test_single_vector_tree():
    tree = KdTree(np.array([[1.0, 2.0, 3.0]]))
    assert len(tree) == 1
    nid, dist = tree.nearest(np.array([4.0, 2.0, 3.0]))
    assert nid == 0
    assert dist == pytest.approx(3.0)


def test_build_is_deterministic():
    rng = np.random.default_rng(52)
    pts = rng.normal(size=(200, 5))
    a, b = KdTree(pts), KdTree(pts.copy())
    assert (a.node_count, a.depth) == (b.node_count, b.depth)
    q = rng.normal(size=5)
    assert a.nearest(q) == b.nearest(q)


def test_exact_query_returns_zero_distance():
    rng = np.random.default_rng(53)
    pts = rng.normal(size=(300, 6))
    tree = KdTree(pts)
    for i in (0, 17, 299):
        nid, dist = tree.nearest(pts[i])
        ref_id, _ = naive_nearest(pts, pts[i])
        assert nid == ref_id  # duplicates resolve to the lowest id
        assert dist == 0.0


def test_equidistant_tie_resolves_to_lowest_id():
    # Two stored points symmetric about the query.
    pts = np.array([[2.0, 0.0], [-2.0, 0.0], [0.0, 5.0]])
    tree = KdTree(pts)
    nid, dist = tree.nearest(np.array([0.0, 0.0]))
    assert nid == 0
    assert dist == pytest.approx(2.0)


def test_duplicate_points_tie_to_lowest_id():
    pts = np.array([[1.0, 1.0], [3.0, 3.0], [1.0, 1.0], [1.0, 1.0]])
    tree = KdTree(pts)
    nid, dist = tree.nearest(np.array([1.0, 1.0]))
    assert (nid, dist) == (0, 0.0)


def test_forced_tie_across_split_boundary():
    # Enough points to force splits; queries land between mirrored clusters.
    rng = np.random.default_rng(54)
    base = rng.normal(size=(40, 3))
    pts = np.vstack([base + [10, 0, 0], base - [10, 0, 0]])
    tree = KdTree(pts)
    for q in (np.zeros(3), np.array([0.0, 1.0, -1.0])):
        got_id, got_d = tree.nearest(q)
        ref_id, ref_d = naive_nearest(pts, q)
        assert got_id == ref_id
        assert got_d == pytest.approx(ref_d, rel=1e-12)


def test_random_queries_match_linear_scan():
    rng = np.random.default_rng(55)
    pts = rng.normal(size=(500, 12))
    tree = KdTree(pts)
    for _ in range(200):
        q = rng.normal(size=12) * rng.uniform(0.5, 2.0)
        got_id, got_d = tree.nearest(q)
        ref_id, ref_d = naive_nearest(pts, q)
        assert got_id == ref_id
        assert got_d == pytest.approx(ref_d, rel=1e-12, abs=1e-12)


def test_low_precision_grid_ties_match_scan():
    # Integer-valued coordinates generate many exact distance ties.
    rng = np.random.default_rng(56)
    pts = rng.integers(0, 4, size=(300, 4)).astype(float)
    tree = KdTree(pts)
    for _ in range(100):
        q = rng.integers(0, 4, size=4).astype(float)
        assert tree.nearest(q) == naive_nearest(pts, q)


def test_visited_counts_reported():
    rng = np.random.default_rng(57)
    pts = rng.normal(size=(1000, 4))
    tree = KdTree(pts)
    nid, dist, visited = tree.nearest_with_stats(rng.normal(size=4))
    assert 1 <= visited <= tree.node_count


def test_validation_errors():
    with pytest.raises(EmptyInput):
        KdTree(np.empty((0, 3)))
    with pytest.raises(DimensionMismatch):
        KdTree(np.zeros((4,)))
    tree = KdTree(np.zeros((3, 3)))
    with pytest.raises(DimensionMismatch):
        tree.nearest(np.zeros(2))


def assert_many_matches_scan(tree, pts, queries):
    ids, dists, rescored = tree.nearest_many(queries)
    assert ids.shape == dists.shape == rescored.shape == (len(queries),)
    for q, nid, dist, n in zip(queries, ids, dists, rescored):
        assert (int(nid), float(dist)) == naive_nearest(pts, q)
        assert n >= 1


def test_nearest_many_random_queries_match_linear_scan():
    rng = np.random.default_rng(58)
    pts = rng.normal(size=(500, 12))
    tree = KdTree(pts)
    assert_many_matches_scan(tree, pts, rng.normal(size=(200, 12)))


def test_nearest_many_grid_ties_match_scan():
    rng = np.random.default_rng(56)
    pts = rng.integers(0, 4, size=(300, 4)).astype(float)
    tree = KdTree(pts)
    assert_many_matches_scan(tree, pts, rng.integers(0, 4, size=(100, 4)).astype(float))


def test_nearest_many_identical_vectors():
    # Zero spread: the tree cannot split, every vector ties.
    pts = np.full((1000, 5), 0.25)
    tree = KdTree(pts)
    ids, dists, rescored = tree.nearest_many(np.full((3, 5), 0.25))
    assert ids.tolist() == [0, 0, 0]
    assert dists.tolist() == [0.0, 0.0, 0.0]
    assert rescored.tolist() == [1000, 1000, 1000]
    ids, dists, _ = tree.nearest_many(np.full((1, 5), 1.25))
    assert (int(ids[0]), float(dists[0])) == naive_nearest(pts, np.full(5, 1.25))


def test_nearest_many_query_at_distance_zero():
    rng = np.random.default_rng(59)
    pts = rng.normal(size=(400, 6))
    tree = KdTree(pts)
    ids, dists, rescored = tree.nearest_many(pts[[7, 123, 399]])
    assert ids.tolist() == [7, 123, 399]
    assert dists.tolist() == [0.0, 0.0, 0.0]
    assert rescored.tolist() == [1, 1, 1]


def test_nearest_many_one_row_equals_nearest_with_stats():
    rng = np.random.default_rng(60)
    pts = rng.normal(size=(300, 8))
    tree = KdTree(pts)
    q = rng.normal(size=8)
    ids, dists, rescored = tree.nearest_many(q[None])
    assert (int(ids[0]), float(dists[0]), int(rescored[0])) == tree.nearest_with_stats(q)
    assert (int(ids[0]), float(dists[0])) == naive_nearest(pts, q)
    assert [len(a) for a in tree.nearest_many(np.empty((0, 8)))] == [0, 0, 0]


def test_nearest_many_dimension_errors():
    tree = KdTree(np.zeros((3, 3)))
    for bad in (np.zeros(3), np.zeros((2, 2)), np.zeros((2, 4)), np.zeros((1, 3, 1))):
        with pytest.raises(DimensionMismatch):
            tree.nearest_many(bad)


def test_nearest_many_equals_ball_reference_on_random_40d_vectors():
    rng = np.random.default_rng(61)
    pts = rng.normal(size=(5000, 40))
    assert_many_equals_reference(pts, rng.normal(size=(300, 40)))


def test_nearest_many_equals_ball_reference_on_grid_ties():
    rng = np.random.default_rng(62)
    pts = rng.integers(0, 4, size=(2000, 4)).astype(float)
    queries = rng.integers(0, 7, size=(400, 4)) / 2.0
    _, _, counts = assert_many_equals_reference(pts, queries)
    assert counts.max() > 1  # ties reached the ball path


def test_nearest_many_equals_ball_reference_on_identical_vectors():
    pts = np.full((1000, 5), 0.25)
    queries = np.vstack([np.full((3, 5), 0.25), np.full((2, 5), 1.25)])
    _, _, counts = assert_many_equals_reference(pts, queries)
    assert counts.tolist() == [1000] * 5


def test_nearest_many_equals_ball_reference_at_distance_zero():
    rng = np.random.default_rng(63)
    pts = rng.normal(size=(400, 6))
    ids, dists, _ = assert_many_equals_reference(pts, pts[[0, 7, 123, 399, 7]])
    assert ids.tolist() == [0, 7, 123, 399, 7]
    assert not dists.any()


class BallSpy:
    """A cKDTree stand-in that records how many rows reach the ball query."""

    def __init__(self, tree):
        self.tree, self.ball_rows = tree, 0

    def __getattr__(self, name):
        return getattr(self.tree, name)

    def query_ball_point(self, x, r):
        self.ball_rows += len(x)
        return self.tree.query_ball_point(x, r)


@pytest.mark.parametrize("rel, count, ball_rows", [
    (0.5e-9, 2, 1),  # inside the ball: both re-scored
    (1.5e-9, 1, 1),  # inside twice the slack, outside the ball
    (2.5e-9, 1, 0),  # beyond twice the slack: the proposed vector alone
])
def test_second_neighbour_near_the_slack(rel, count, ball_rows):
    # The farther vector has the lower id, so only the exact re-score
    # picks the nearer one.
    pts = np.array([[-(1.0 + rel), 0.0], [1.0, 0.0], [0.0, 5.0]])
    tree = KdTree(pts)
    tree._tree = spy = BallSpy(tree._tree)
    ids, dists, counts = tree.nearest_many(np.zeros((1, 2)))
    assert (ids.tolist(), dists.tolist(), counts.tolist()) == ([1], [1.0], [count])
    assert spy.ball_rows == ball_rows
    assert_many_equals_reference(pts, np.zeros((1, 2)))


def test_single_vector_store_many_queries():
    pts = np.array([[1.0, 2.0, 3.0]])
    queries = np.array([[4.0, 2.0, 3.0], [1.0, 2.0, 3.0], [-1.0, 0.0, 9.0], [1.0, 2.0, 3.5]])
    ids, dists, counts = assert_many_equals_reference(pts, queries)
    assert ids.tolist() == [0, 0, 0, 0]
    assert counts.tolist() == [1, 1, 1, 1]
    assert dists.tolist() == [naive_nearest(pts, q)[1] for q in queries]


def test_mixed_batch_equals_one_row_calls_in_order():
    # Duplicates at ids 2 and 5 and a pair 1 + 0.5e-9 apart make near-ties;
    # the other rows are lone.
    pts = np.array([[10.0, 0.0], [0.0, 10.0], [3.0, 3.0], [-1.0 - 0.5e-9, -20.0],
                    [1.0, -20.0], [3.0, 3.0], [-7.0, 4.0]])
    queries = np.array([[9.0, 1.0], [3.0, 3.0], [0.0, 9.0], [0.0, -20.0],
                        [-7.0, 3.0], [3.1, 3.0], [10.0, 0.5]])
    tree = KdTree(pts)
    ids, dists, counts = assert_many_equals_reference(pts, queries)
    assert counts.tolist() == [1, 2, 1, 2, 1, 2, 1]
    rows = [tree.nearest_with_stats(q) for q in queries]
    assert rows == list(zip(ids.tolist(), dists.tolist(), counts.tolist()))


def test_nearest_many_nan_query_raises():
    tree = KdTree(np.random.default_rng(64).normal(size=(50, 3)))
    with pytest.raises(ValueError):
        tree.nearest_many(np.array([[0.0, 0.0, 0.0], [np.nan, 0.0, 0.0]]))
