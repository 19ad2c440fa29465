import numpy as np
import pytest

from conftest import naive_nearest
from tractodist.ann import LEAF_SIZE, KdTree
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
