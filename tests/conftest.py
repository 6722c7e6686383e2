import os
import pathlib

import numpy as np
import pytest

from fconn import SparseSymGraph


def random_connected_graph(n, extra_edges=0, seed=0, weighted=False, wlo=0.5, whi=1.5):
    """Random tree plus ``extra_edges`` chords: connected, deterministic per seed."""
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
        return SparseSymGraph(
            n, [(i, j, float(rng.uniform(wlo, whi))) for i, j in sorted(edges)]
        )
    return SparseSymGraph(n, [(i, j, 1.0) for i, j in sorted(edges)])


def barabasi_albert(n, m, seed=0):
    """Preferential attachment: from a star on nodes 0..m, each later node links
    to m distinct earlier nodes drawn with probability proportional to degree."""
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
    return SparseSymGraph(n, [(i, j, 1.0) for i, j in edges])


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


def missing_pairs(g):
    return [
        (i, j)
        for i in range(g.n)
        for j in range(i + 1, g.n)
        if not g.has_edge(i, j)
    ]


def data_dir() -> pathlib.Path:
    return pathlib.Path(os.environ.get("FCONN_DATA", pathlib.Path(__file__).parent.parent / "data"))


def find_dataset(*names):
    """First existing dataset file among candidate names, else None."""
    base = data_dir()
    for name in names:
        p = base / name
        if p.exists():
            return p
    return None


def require_dataset(*names):
    p = find_dataset(*names)
    if p is None:
        pytest.skip(
            f"benchmark dataset not available (looked for {', '.join(names)} under "
            f"{data_dir()}; see data/README.md)"
        )
    return p
