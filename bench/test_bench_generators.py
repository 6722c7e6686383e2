import numpy as np
import scipy.sparse.csgraph

import generators
import reference
from fconn import load_graph


def _connected(n, edges):
    A = reference.sparse_adjacency(n, edges)
    return scipy.sparse.csgraph.connected_components(A, directed=False)[0] == 1


def _simple(edges):
    pairs = {tuple(p) for p in edges.tolist()}
    return len(pairs) == len(edges) and all(i < j for i, j in pairs)


class TestTreePlusChords:
    def test_deterministic_per_seed(self):
        a, _ = generators.tree_plus_chords(200, 800, seed=5)
        b, _ = generators.tree_plus_chords(200, 800, seed=5)
        c, _ = generators.tree_plus_chords(200, 800, seed=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_connected_simple_and_sized(self):
        edges, weights = generators.tree_plus_chords(300, 1200, seed=[2, 0])
        assert weights is None
        assert len(edges) == 299 + 1200
        assert _simple(edges) and _connected(300, edges)

    def test_weighted_draws(self):
        edges, w = generators.tree_plus_chords(60, 240, seed=1, weighted=True)
        again, w2 = generators.tree_plus_chords(60, 240, seed=1, weighted=True)
        assert np.array_equal(edges, again) and np.array_equal(w, w2)
        assert len(w) == len(edges) and np.all((w >= 0.5) & (w < 1.5))

    def test_false_convergence_case_has_its_edge(self):
        edges, _ = generators.tree_plus_chords(1500, 12000, seed=3)
        assert (289, 366) in {tuple(p) for p in edges.tolist()}


class TestBarabasiAlbert:
    def test_deterministic_per_seed(self):
        a = generators.barabasi_albert(500, 5, seed=1)
        assert np.array_equal(a, generators.barabasi_albert(500, 5, seed=1))
        assert not np.array_equal(a, generators.barabasi_albert(500, 5, seed=2))

    def test_shape_and_heavy_tail(self):
        n, m = 2000, 5
        edges = generators.barabasi_albert(n, m, seed=[0, 1])
        assert len(edges) == m + (n - m - 1) * m
        assert _simple(edges) and _connected(n, edges)
        deg = np.bincount(edges.ravel(), minlength=n)
        assert deg.min() >= 1 and deg.max() > 10 * np.median(deg)


class TestCartesianProduct:
    def test_deterministic_and_sized(self):
        a, _ = generators.tree_plus_chords(20, 40, seed=1)
        b, _ = generators.tree_plus_chords(20, 40, seed=2)
        p = generators.cartesian_product(a, 20, b, 20)
        assert np.array_equal(p, generators.cartesian_product(a, 20, b, 20))
        assert len(p) == len(a) * 20 + len(b) * 20
        assert _simple(p) and _connected(400, p)

    def test_factorized_trace_matches_dense(self):
        a, _ = generators.tree_plus_chords(20, 40, seed=[3, 2])
        b, _ = generators.tree_plus_chords(20, 40, seed=[3, 3])
        p = generators.cartesian_product(a, 20, b, 20)
        dense = reference.trace_exp_dense(generators.dense_adjacency(400, p))
        exact = generators.product_trace_exp(a, 20, b, 20)
        assert abs(exact - dense) <= 1e-10 * dense


def test_edge_list_round_trip_through_cli_loader(tmp_path):
    edges, w = generators.tree_plus_chords(50, 100, seed=4, weighted=True)
    path = tmp_path / "g.txt"
    generators.write_edge_list(path, edges, w)
    g = load_graph(path)
    want = reference.sparse_adjacency(50, edges, w)
    assert g.n == 50 and abs(g.adjacency - want).max() == 0.0
