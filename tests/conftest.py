import tracemalloc

import numpy as np
import pytest

from fconn import SparseSymGraph


def random_connected_graph(n, extra_edges=0, seed=0, weighted=False, wlo=0.5, whi=1.5):
    """Random tree plus ``extra_edges`` chords: connected, deterministic per seed."""
    return SparseSymGraph(n, random_connected_edges(n, extra_edges, seed, weighted, wlo, whi))


def random_connected_edges(n, extra_edges=0, seed=0, weighted=False, wlo=0.5, whi=1.5):
    """The (i, j, w) triples, i < j, sorted, of :func:`random_connected_graph`."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    edges = set()
    for k in range(1, n):
        a = perm[k]
        b = perm[rng.integers(0, k)]
        edges.add((min(a, b), max(a, b)))
    while len(edges) < min(n - 1 + extra_edges, n * (n - 1) // 2):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            edges.add((min(i, j), max(i, j)))
    if weighted:
        return [(i, j, float(rng.uniform(wlo, whi))) for i, j in sorted(edges)]
    return [(i, j, 1.0) for i, j in sorted(edges)]


def barabasi_albert(n, m, seed=0):
    """Preferential attachment: from a star on nodes 0..m, each later node links
    to m distinct earlier nodes drawn with probability proportional to degree."""
    return SparseSymGraph(n, barabasi_albert_edges(n, m, seed))


def barabasi_albert_edges(n, m, seed=0):
    """The (i, j, 1.0) triples, i < j, of :func:`barabasi_albert`, in the order they are drawn."""
    rng = np.random.default_rng(seed)
    edges = [(0, v) for v in range(1, m + 1)]
    ends = [v for e in edges for v in e]
    for v in range(m + 1, n):
        picks = set()
        while len(picks) < m:
            picks.add(ends[int(rng.integers(len(ends)))])
        for t in sorted(picks):
            edges.append((t, v))
            ends += [t, v]
    return [(i, j, 1.0) for i, j in edges]


def triangle():
    return SparseSymGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])


def star(leaves=4):
    return SparseSymGraph(leaves + 1, [(0, k, 1.0) for k in range(1, leaves + 1)])


def path(n):
    return SparseSymGraph(n, [(k, k + 1, 1.0) for k in range(n - 1)])


def cycle(n):
    return SparseSymGraph(
        n, [(k, k + 1, 1.0) for k in range(n - 1)] + [(0, n - 1, 1.0)]
    )


def complete_bipartite(a, b):
    return SparseSymGraph(a + b, [(i, a + j, 1.0) for i in range(a) for j in range(b)])


def k6_and_star20():
    """K6 on nodes 0-5 beside the star K_{1,20} centred at node 6."""
    k6 = [(i, j, 1.0) for i in range(6) for j in range(i + 1, 6)]
    return SparseSymGraph(27, k6 + [(6, 6 + k, 1.0) for k in range(1, 21)])


def missing_pairs(g):
    return [
        (i, j)
        for i in range(g.n)
        for j in range(i + 1, g.n)
        if not g.has_edge(i, j)
    ]


@pytest.fixture(scope="session")
def bench_tree_edges():
    """The triples of the benchmark's break-tree graph for seed 1, input 0."""
    return random_connected_edges(20000, 4 * 20000, seed=[1, 0, 0])


@pytest.fixture(scope="session")
def bench_tree(bench_tree_edges):
    """The benchmark's break-tree graph for seed 1, input 0: 20000 nodes, 99999 edges."""
    return SparseSymGraph(20000, bench_tree_edges)


def traced_mib(fn):
    """``fn()``, and the peak of the memory traced during it and what it left, in MiB.

    Both are counted above what was traced before; what is left is measured
    while the result is still held. tracemalloc counts numpy's array data
    exactly, so neither depends on how the allocator reuses freed memory.
    """
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, (peak - before) / 2**20, (after - before) / 2**20
