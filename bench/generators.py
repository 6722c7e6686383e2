"""Seeded synthetic graphs for the benchmark workloads.

Every generator is a pure function of its arguments: the same seed gives the
same edges. Edges come back as an (E, 2) int64 array of 0-based pairs with
i < j, sorted lexicographically, plus a weight array where the graph is
weighted. The benchmark writes them as 1-based edge lists, so the program
under test receives only the generated file.
"""

from __future__ import annotations

import numpy as np


def tree_plus_chords(n, extra_edges=0, seed=0, weighted=False, wlo=0.5, whi=1.5):
    """Random tree plus ``extra_edges`` chords: connected, deterministic per seed.

    The draw order is that of ``random_connected_graph`` in the test suite's
    conftest, so both produce the same graph for the same arguments. Returns
    ``(edges, weights)``; ``weights`` is None for an unweighted graph.
    """
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
    pairs = sorted(edges)
    weights = None
    if weighted:
        weights = np.array([float(rng.uniform(wlo, whi)) for _ in pairs])
    return np.array(pairs, dtype=np.int64).reshape(-1, 2), weights


def barabasi_albert(n, m, seed=0):
    """Barabasi-Albert preferential attachment: each new node links to m others.

    Starts from a star on nodes 0..m; node v > m then draws m distinct
    targets with probability proportional to their current degree (uniform
    draws from the list of edge endpoints).
    """
    if not 1 <= m < n:
        raise ValueError("need 1 <= m < n")
    rng = np.random.default_rng(seed)
    pairs = [(0, v) for v in range(1, m + 1)]
    ends = [v for p in pairs for v in p]
    for v in range(m + 1, n):
        targets = set()
        while len(targets) < m:
            targets.add(ends[int(rng.integers(0, len(ends)))])
        for t in sorted(targets):
            pairs.append((t, v))
            ends += [t, v]
    edges = np.array(pairs, dtype=np.int64)
    return edges[np.lexsort((edges[:, 1], edges[:, 0]))]


def cartesian_product(edges_a, n_a, edges_b, n_b):
    """Edges of the Cartesian product A x B, adjacency A (x) I + I (x) B.

    Node (a, b) gets index a * n_b + b, matching the Kronecker ordering, so
    f(A x B) = f(A) (x) f(B) holds entrywise for f = exp.
    """
    edges_a = np.asarray(edges_a, dtype=np.int64).reshape(-1, 2)
    edges_b = np.asarray(edges_b, dtype=np.int64).reshape(-1, 2)
    b = np.arange(n_b, dtype=np.int64)
    a = np.arange(n_a, dtype=np.int64)
    along_a = (edges_a[:, None, :] * n_b + b[None, :, None]).reshape(-1, 2)
    along_b = (a[:, None, None] * n_b + edges_b[None, :, :]).reshape(-1, 2)
    edges = np.vstack([along_a, along_b])
    return edges[np.lexsort((edges[:, 1], edges[:, 0]))]


def dense_adjacency(n, edges, weights=None):
    """Dense symmetric adjacency matrix of an edge array."""
    A = np.zeros((n, n))
    w = np.ones(len(edges)) if weights is None else np.asarray(weights, dtype=float)
    A[edges[:, 0], edges[:, 1]] = w
    A[edges[:, 1], edges[:, 0]] = w
    return A


def product_trace_exp(edges_a, n_a, edges_b, n_b):
    """Exact Tr exp(A x B) = Tr exp(A) * Tr exp(B) from two dense spectra."""
    ta = float(np.sum(np.exp(np.linalg.eigvalsh(dense_adjacency(n_a, edges_a)))))
    tb = float(np.sum(np.exp(np.linalg.eigvalsh(dense_adjacency(n_b, edges_b)))))
    return ta * tb


def write_edge_list(path, edges, weights=None):
    """Write a 1-based edge list; weights with 17 significant digits."""
    rows = np.asarray(edges, dtype=np.int64) + 1
    if weights is None:
        lines = [f"{i} {j}" for i, j in rows.tolist()]
    else:
        lines = [f"{i} {j} {w:.17g}" for (i, j), w in zip(rows.tolist(), weights)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
