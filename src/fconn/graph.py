"""Sparse symmetric graphs: storage, file I/O, centrality, edge orderings.

Nodes are 0-based integers internally; the file formats use 1-based indices
(edge lists and Matrix-Market coordinate files both follow that convention).

A graph stores its edges as three parallel read-only arrays ``(i, j, w)``
with ``i < j``, sorted by ``(i, j)``, plus the symmetric adjacency matrix in
CSR form built from them (sorted column indices, no explicit zeros).
Construction, loading, single-edge updates and search-space ranking work on
these arrays; the tuple views ``edges``, ``edge_pairs`` and ``edge_set()``
are materialized only when asked for. Graphs are immutable: every
modification returns a new object, which shares the arrays it does not
change with the original, so instances are safe to share between threads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .errors import ConvergenceError, InputFormatError, ValidationError

__all__ = [
    "SparseSymGraph",
    "load_graph",
    "save_graph",
    "eigenvector_centrality",
    "Ordering",
    "CentralityRanking",
    "Strategy",
    "select_search_space",
    "top_edges",
    "top_missing_pairs",
    "ranked_pairs",
]


def normalize_pair(i, j):
    """Order a node pair as (min, max)."""
    return (i, j) if i < j else (j, i)


def _first_failure(checks):
    """Raise ValidationError for the earliest row failing any check.

    ``checks`` lists ``(mask, message)`` pairs in the order a row is checked;
    ``message(k)`` formats the error for row k.
    """
    first = None
    for mask, message in checks:
        hit = np.flatnonzero(mask)
        if hit.size and (first is None or hit[0] < first[0]):
            first = (int(hit[0]), message)
    if first is not None:
        raise ValidationError(first[1](first[0]))


def _repeats(lo, hi):
    """Pairs (lo[k], hi[k]) that already occur at an earlier k, and the (lo, hi) sort order.

    Needs lo <= hi. Returns ``(mask, order)``; ``order`` is a stable sort of
    the pairs, the order of ``np.lexsort((hi, lo))``. It is found by one
    stable argsort of the int64 key (lo - base) * span + (hi - base), which
    is distinct for distinct pairs and about twice as fast; a key that could
    overflow int64 falls back to the lexsort.
    """
    base = int(lo.min(initial=0))
    span = int(hi.max(initial=0)) - base + 1
    if span * span < 2**63:
        order = np.argsort((lo - base) * span + (hi - base), kind="stable")
    else:
        order = np.lexsort((hi, lo))
    a, b = order[1:], order[:-1]
    rep = np.zeros(len(lo), dtype=bool)
    rep[a] = (lo[a] == lo[b]) & (hi[a] == hi[b])
    return rep, order


def _readonly(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


class SparseSymGraph:
    """Immutable undirected graph with strictly positive edge weights.

    The adjacency matrix is stored in CSR form, so matrix-vector products
    cost O(nnz). No self-loops, no duplicate edges; absence means weight 0.
    """

    __slots__ = ("n", "_i", "_j", "_w", "adjacency", "_norm1", "_edges")

    def __init__(self, n: int, edges):
        """Graph on ``n`` nodes from (i, j, w) triples in any order and orientation."""
        arr = np.array(list(edges), dtype=float).reshape(-1, 3)
        self._init(n, arr[:, 0].astype(np.int64), arr[:, 1].astype(np.int64), arr[:, 2])

    def _init(self, n, i, j, w, order=None):
        """Check and store the edges.

        ``order``, when given, is the edges' (lo, hi) sort order from a caller
        that has already rejected duplicates; it saves sorting them again.
        """
        if n < 1:
            raise ValidationError("graph must have at least one node")
        n = int(n)
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        repeated, order = _repeats(lo, hi) if order is None else (False, order)
        _first_failure([
            ((lo < 0) | (hi >= n),
             lambda k: f"node index out of range: ({i[k]}, {j[k]}) with n={n}"),
            (lo == hi, lambda k: f"self-loop at node {i[k]} is not allowed"),
            (w <= 0, lambda k: f"edge ({i[k]}, {j[k]}) has non-positive weight {w[k]}"),
            (repeated, lambda k: f"duplicate edge ({lo[k]}, {hi[k]})"),
        ])
        lo, hi, w = lo[order], hi[order], w[order]
        self._set(n, lo, hi, w, _adjacency(n, lo, hi, w))

    def _set(self, n, i, j, w, adjacency):
        self.n = n
        self._i, self._j, self._w = _readonly(i, j, w)
        self.adjacency = adjacency
        self._norm1 = None
        self._edges = None

    # -- basic queries -------------------------------------------------

    @property
    def num_edges(self) -> int:
        return len(self._i)

    @property
    def edge_arrays(self):
        """Read-only arrays (i, j, w) of the edges, i < j, sorted by (i, j)."""
        return self._i, self._j, self._w

    @property
    def edges(self):
        """Edge triples (i, j, w) with i < j, in lexicographic order."""
        if self._edges is None:
            self._edges = tuple(zip(self._i.tolist(), self._j.tolist(), self._w.tolist()))
        return self._edges

    @property
    def edge_pairs(self):
        """Edge endpoints (i, j) with i < j, in lexicographic order."""
        return tuple(zip(self._i.tolist(), self._j.tolist()))

    def edge_set(self) -> frozenset:
        return frozenset(zip(self._i.tolist(), self._j.tolist()))

    def _find(self, i, j):
        """(position, present) of the pair (i, j), i < j, in the edge arrays."""
        lo = int(np.searchsorted(self._i, i, side="left"))
        hi = int(np.searchsorted(self._i, i, side="right"))
        k = lo + int(np.searchsorted(self._j[lo:hi], j))
        return k, bool(k < hi and self._j[k] == j)

    def weight(self, i, j) -> float:
        k, present = self._find(*normalize_pair(i, j))
        return float(self._w[k]) if present else 0.0

    def has_edge(self, i, j) -> bool:
        return self._find(*normalize_pair(i, j))[1]

    def degrees(self) -> np.ndarray:
        """Unweighted node degrees (neighbor counts)."""
        return np.diff(self.adjacency.indptr).astype(int)

    @property
    def norm1(self) -> float:
        """Exact 1-norm of the adjacency matrix (max absolute column sum), cached."""
        if self._norm1 is None:
            A = self.adjacency
            self._norm1 = float(np.max(np.abs(A).sum(axis=0))) if A.nnz else 0.0
        return self._norm1

    # -- modification (returns new graphs) -----------------------------

    def with_edge_delta(self, i, j, delta) -> "SparseSymGraph":
        """Return a copy with w(i, j) changed by ``delta``.

        The edge is dropped when the new weight is (numerically) zero;
        a negative result is rejected. Only the entries that change are
        patched: the CSR arrays and edge arrays are copied with one edge
        updated, inserted or removed.
        """
        n = self.n
        a, b = normalize_pair(int(i), int(j))
        if not (0 <= a and b < n):
            raise ValidationError(f"node index out of range: ({a}, {b}) with n={n}")
        if a == b:
            raise ValidationError(f"self-loop at node {a} is not allowed")
        k, present = self._find(a, b)
        w_old = float(self._w[k]) if present else 0.0
        w_new = w_old + float(delta)
        A = self.adjacency
        indptr, indices = A.indptr, A.indices
        # CSR slots of (a, b) and (b, a): found entries, or insertion points
        pa = int(indptr[a] + np.searchsorted(indices[indptr[a] : indptr[a + 1]], b))
        pb = int(indptr[b] + np.searchsorted(indices[indptr[b] : indptr[b + 1]], a))
        if abs(w_new) <= 1e-12 * max(1.0, abs(w_old)):
            if not present:
                return self
            edges = [np.delete(x, k) for x in (self._i, self._j, self._w)]
            data = np.delete(A.data, [pa, pb])
            indices = np.delete(indices, [pa, pb])
            indptr = _shift(indptr, a, b, -1)
        elif w_new < 0:
            raise ValidationError(f"modification of ({a}, {b}) yields negative weight {w_new}")
        elif present:
            w = self._w.copy()
            w[k] = w_new
            edges = [self._i, self._j, w]
            data = A.data.copy()
            data[[pa, pb]] = w_new
        else:
            edges = [np.insert(x, k, v) for x, v in ((self._i, a), (self._j, b), (self._w, w_new))]
            data = np.insert(A.data, [pa, pb], w_new)
            indices = np.insert(indices, [pa, pb], [b, a])
            indptr = _shift(indptr, a, b, 1)
        g = object.__new__(SparseSymGraph)
        g._set(n, *edges, scipy.sparse.csr_matrix((data, indices, indptr), shape=(n, n)))
        return g

    def __repr__(self):
        return f"SparseSymGraph(n={self.n}, edges={self.num_edges})"


def _shift(indptr, a, b, step):
    """Row pointers after adding ``step`` entries to rows a and b each."""
    out = indptr.copy()
    out[a + 1 :] += step
    out[b + 1 :] += step
    return out


def _adjacency(n, i, j, w):
    """Symmetric CSR matrix of the edges (i < j, sorted), with sorted column indices."""
    rows = np.concatenate([i, j])
    cols = np.concatenate([j, i])
    order = np.argsort(rows * n + cols)
    idx = np.int32 if max(n, len(rows)) < 2**31 else np.int64
    indptr = np.zeros(n + 1, dtype=idx)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    data = np.concatenate([w, w])[order]
    return scipy.sparse.csr_matrix((data, cols[order].astype(idx), indptr), shape=(n, n))


# ---------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------

_SPACE = np.zeros(256, dtype=bool)
_SPACE[[9, 10, 11, 12, 13, 32]] = True


class _Table:
    """Whitespace-separated tokens of a text, grouped by line, comment lines dropped.

    ``starts``/``ends`` are byte offsets of the tokens into ``data``;
    ``line`` holds the 1-based line number of each kept line, ``first`` the
    index of its first token and ``count`` its number of tokens.
    """

    def __init__(self, text, comments, first_lineno=1):
        self.data = text.encode("utf-8")
        buf = np.frombuffer(self.data, dtype=np.uint8)
        solid = np.concatenate(([False], ~_SPACE[buf], [False]))
        edges = np.flatnonzero(solid[1:] != solid[:-1])
        starts, ends = edges[::2], edges[1::2]
        tok_line = np.searchsorted(np.flatnonzero(buf == 10), starts)
        new_line = np.diff(tok_line, prepend=-1) != 0
        first = np.flatnonzero(new_line)
        comment = np.isin(buf[starts[first]], np.frombuffer(comments.encode(), dtype=np.uint8))
        keep = ~np.repeat(comment, np.diff(np.append(first, len(starts))))
        self.starts, self.ends = starts[keep], ends[keep]
        self.first = (np.cumsum(keep) - 1)[first[~comment]]
        self.count = np.diff(np.append(self.first, len(self.starts)))
        self.line = tok_line[new_line][~comment] + first_lineno
        lines = text.count("\n") + (bool(text) and not text.endswith("\n"))
        self.last_line = first_lineno - 1 + lines

    def tokens(self, row):
        """The decoded tokens of kept line ``row``."""
        span = slice(self.first[row], self.first[row] + self.count[row])
        return [
            self.data[s:e].decode("utf-8", "replace")
            for s, e in zip(self.starts[span], self.ends[span])
        ]

    def integers(self, tok):
        """Values of the tokens ``tok``; ``ok`` is False where one is not a decimal integer."""
        buf = np.frombuffer(self.data, dtype=np.uint8)
        lead = buf[self.starts[tok]]
        neg = lead == ord("-")
        begin = self.starts[tok] + (neg | (lead == ord("+")))
        end = self.ends[tok]
        ok = (end > begin) & (end - begin <= 18)
        value = np.zeros(len(tok), dtype=np.int64)
        for k in range(min(int((end - begin).max(initial=0)), 18)):  # k-th digit from the right
            pos = end - 1 - k
            inside = pos >= begin
            digit = buf[np.where(inside, pos, 0)].astype(np.int64) - 48
            ok &= ~inside | ((digit >= 0) & (digit <= 9))
            value += np.where(inside, digit, 0) * 10**k
        return np.where(neg, -value, value), ok

    def floats(self, tok):
        """Values of the tokens ``tok`` as Python's float() reads them; ``ok`` marks failures."""
        value = np.empty(len(tok))
        ok = np.ones(len(tok), dtype=bool)
        for n, (s, e) in enumerate(zip(self.starts[tok].tolist(), self.ends[tok].tolist())):
            try:
                value[n] = float(self.data[s:e])
            except ValueError:
                value[n], ok[n] = np.nan, False
        return value, ok


def _entry_error(path, lineno, toks, fields, msg_fields):
    """Raise the InputFormatError for a malformed 'i j [w]' entry line."""
    if len(toks) not in fields:
        raise InputFormatError(msg_fields(len(toks)), path=path, line=lineno)
    try:
        i, j = int(toks[0]), int(toks[1])
        if len(toks) == 3:
            float(toks[2])
    except ValueError as exc:
        raise InputFormatError(f"cannot parse entry: {exc}", path=path, line=lineno)
    raise InputFormatError(
        f"cannot parse entry: node index {toks[0]!r} or {toks[1]!r} is not a decimal integer",
        path=path,
        line=lineno,
    )


def _parse_entries(path, table, rows, fields, msg_fields, one_based):
    """Vectorized parse of 'i j [w]' entry lines; returns (i, j, w, lineno) arrays.

    Errors are reported for the first malformed line, with its line number.
    """
    count = table.count[rows]
    shaped = np.isin(count, fields)
    first = table.first[rows]
    i, ok_i = table.integers(first)
    j, ok_j = table.integers(np.where(count >= 2, first + 1, first))
    weighted = shaped & (count == 3)
    w = np.ones(len(rows))
    ok_w = np.ones(len(rows), dtype=bool)
    if weighted.any():
        w[weighted], ok_w[weighted] = table.floats(first[weighted] + 2)
    parsed = shaped & ok_i & ok_j & ok_w
    bad = ~parsed
    if one_based:
        bad |= parsed & ((i < 1) | (j < 1))
    if bad.any():
        r = int(np.flatnonzero(bad)[0])
        lineno = int(table.line[rows[r]])
        if parsed[r]:
            raise InputFormatError("node indices are 1-based", path=path, line=lineno)
        _entry_error(path, lineno, table.tokens(rows[r]), fields, msg_fields)
    return i, j, w, table.line[rows]


def _parse_edge_list(path):
    with open(path, "r", encoding="utf-8") as fh:
        table = _Table(fh.read(), "%#")
    rows = np.arange(len(table.line))
    i, j, w, lines = _parse_entries(
        path, table, rows, (2, 3), lambda k: f"expected 'i j [w]', got {k} fields", True
    )
    nmax = int(max(i.max(initial=0), j.max(initial=0)))
    return nmax, (i - 1, j - 1, w, lines)


def _parse_matrix_market(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("%%MatrixMarket"):
            raise InputFormatError("missing MatrixMarket header", path=path, line=1)
        fields = header.split()
        if len(fields) < 5 or fields[1].lower() != "matrix" or fields[2].lower() != "coordinate":
            raise InputFormatError("only 'matrix coordinate' files are supported", path=path, line=1)
        valtype = fields[3].lower()
        symmetry = fields[4].lower()
        if valtype not in ("real", "pattern", "integer"):
            raise InputFormatError(f"unsupported value type {valtype!r}", path=path, line=1)
        if symmetry != "symmetric":
            raise ValidationError(f"{path}: Matrix-Market file must use symmetric storage")
        table = _Table(fh.read(), "%", first_lineno=2)
    if not len(table.line):
        raise InputFormatError("missing size line", path=path, line=table.last_line)
    toks = table.tokens(0)
    lineno = int(table.line[0])
    if len(toks) != 3:
        raise InputFormatError("expected 'rows cols nnz'", path=path, line=lineno)
    try:
        r, c, _ = (int(t) for t in toks)
    except ValueError as exc:
        raise InputFormatError(f"cannot parse size line: {exc}", path=path, line=lineno)
    if r != c:
        raise ValidationError(f"{path}: adjacency matrix must be square, got {r}x{c}")
    want = 2 if valtype == "pattern" else 3
    i, j, w, lines = _parse_entries(
        path,
        table,
        np.arange(1, len(table.line)),
        (want,),
        lambda k: f"expected {want} fields per entry for {valtype} file",
        False,
    )
    return r, (i - 1, j - 1, w, lines)


def load_graph(path, fmt="auto") -> SparseSymGraph:
    """Read a graph from an edge list or a Matrix-Market coordinate file.

    Edge lists are whitespace-separated with 1-based indices and an optional
    weight column; comment lines start with '%' or '#'. Matrix-Market files
    must be coordinate/symmetric (real, integer or pattern). Node indices
    are decimal integers; weights are read as Python's float() reads them.
    Each undirected edge must appear exactly once in either orientation;
    duplicates (including mirrored ones), self-loops and non-positive
    weights are rejected with the file and line of the offending entry.
    """
    path = str(path)
    if fmt == "auto":
        fmt = "matrix-market" if path.lower().endswith((".mtx", ".mm")) else "edge-list"
    try:
        if fmt == "matrix-market":
            n, (i, j, w, lines) = _parse_matrix_market(path)
        elif fmt == "edge-list":
            n, (i, j, w, lines) = _parse_edge_list(path)
        else:
            raise ValueError(f"unknown format {fmt!r}")
    except OSError as exc:
        raise InputFormatError(f"cannot read file: {exc}", path=path)
    lo, hi = np.minimum(i, j), np.maximum(i, j)

    def at(k):
        return f"{path}:{lines[k]}: "

    repeated, order = _repeats(lo, hi)
    _first_failure([
        (i == j, lambda k: at(k) + f"self-loop at node {i[k] + 1}"),
        (w < 0, lambda k: at(k) + f"negative weight {w[k]}"),
        (w == 0, lambda k: at(k) + "zero weight (omit the edge instead)"),
        (repeated, lambda k: at(k) + f"duplicate entry for edge ({lo[k] + 1}, {hi[k] + 1})"),
    ])
    if not len(i):
        raise ValidationError(f"{path}: no edges found")
    # the edges are sorted once, here: the constructor reuses this order
    g = object.__new__(SparseSymGraph)
    g._init(n, lo, hi, w, order)
    return g


def save_graph(g: SparseSymGraph, path) -> None:
    """Write an edge list (1-based, 17 significant digits) that round-trips bit-exactly."""
    i, j, w = (x.tolist() for x in g.edge_arrays)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{a + 1} {b + 1} {x:.17g}\n" for a, b, x in zip(i, j, w)))


# ---------------------------------------------------------------------
# Eigenvector centrality
# ---------------------------------------------------------------------


def eigenvector_centrality(g: SparseSymGraph, tol=1e-8, max_iter=None) -> np.ndarray:
    """Perron eigenvector of the adjacency matrix, unit 2-norm, entrywise >= 0.

    Shifted power iteration on I + A/rho (rho = max row sum), which converges
    for connected graphs even when the spectrum is symmetric (bipartite
    graphs have a -lambda_max eigenvalue that defeats the unshifted
    iteration). The residual test ``||A x - lambda x|| <= tol * lambda`` is
    evaluated on the original matrix.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = g.n
    A = g.adjacency
    if max_iter is None:
        # 10n scales with problem size; the floor covers small graphs whose
        # iteration count is set by the spectral gap, not by n
        max_iter = max(10 * n, 500)
    rho = max(1.0, float(np.max(np.abs(A).sum(axis=1))))
    x = np.full(n, 1.0 / np.sqrt(n))
    resid = np.inf
    for _ in range(max_iter):
        ax = A @ x
        lam = float(x @ ax)
        resid = float(np.linalg.norm(ax - lam * x))
        if resid <= tol * abs(lam) + 1e-300:
            x = np.maximum(x, 0.0)
            return x / np.linalg.norm(x)
        y = x + ax / rho
        x = y / np.linalg.norm(y)
    raise ConvergenceError(
        "power iteration did not converge", residual=resid, iterations=max_iter
    )


class Ordering(enum.Enum):
    """Edge orderings induced by node centrality scores."""

    PRODUCT = "product"  # compare score products
    MINMAX = "minmax"    # compare (min score, max score) lexicographically


@dataclass(frozen=True)
class CentralityRanking:
    """Node scores plus the ordering used to rank node pairs.

    ``scores`` must be entrywise nonnegative with unit 2-norm (as produced by
    :func:`eigenvector_centrality`).
    """

    scores: np.ndarray
    ordering: Ordering = Ordering.PRODUCT

    def __post_init__(self):
        s = np.asarray(self.scores, dtype=float)
        object.__setattr__(self, "scores", s)
        if np.any(s < 0):
            raise ValidationError("centrality scores must be nonnegative")
        if abs(np.linalg.norm(s) - 1.0) > 1e-12:
            raise ValidationError("centrality scores must have unit 2-norm")

    def key(self, pair):
        """Comparable ranking key of a node pair (larger key = more important)."""
        si = float(self.scores[pair[0]])
        sj = float(self.scores[pair[1]])
        if self.ordering is Ordering.PRODUCT:
            return (si * sj,)
        return (min(si, sj), max(si, sj))


def _pair_array(pairs):
    """(lo, hi) int arrays of node pairs given as an (E, 2) array or an iterable."""
    if not isinstance(pairs, np.ndarray):
        pairs = list(pairs)
    P = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return P.min(axis=1), P.max(axis=1)


def _rank_order(ranking, lo, hi, count):
    """Indices of the ``count`` best pairs by ranking key descending, ties by (min, max index).

    Equal to the first ``count`` entries of the full lexsort, but only the
    head is sorted: ``np.partition`` finds the count-th best primary key (the
    product, or the min score for MINMAX), and only the pairs at least that
    good, every pair tied with the cut included, are lexsorted.
    """
    a, b = ranking.scores[lo], ranking.scores[hi]
    if ranking.ordering is Ordering.PRODUCT:
        keys = (-(a * b),)
    else:
        keys = (-np.minimum(a, b), -np.maximum(a, b))
    count = min(max(count, 0), len(lo))
    head = np.arange(len(lo))
    if 0 < count < len(lo):
        head = np.flatnonzero(keys[0] <= np.partition(keys[0], count - 1)[count - 1])
    order = np.lexsort((hi[head], lo[head]) + tuple(k[head] for k in reversed(keys)))
    return head[order[:count]]


def top_edges(pairs, ranking: CentralityRanking, count: int):
    """The ``count`` most important pairs among ``pairs``, deterministic order.

    ``pairs`` is an (E, 2) array or an iterable of node pairs; the result is
    a list of (min, max) tuples, best first.
    """
    lo, hi = _pair_array(pairs)
    top = _rank_order(ranking, lo, hi, count)
    return list(zip(lo[top].tolist(), hi[top].tolist()))


def top_missing_pairs(n, ranking: CentralityRanking, count, forbidden):
    """Top ``count`` node pairs not in ``forbidden``, without scanning all O(n^2) pairs.

    Candidates are enumerated among the q' highest-score nodes and q' is grown
    until the selection is certified: every pair touching a node outside the
    top q' has key at most key(best node, next node), so once the count-th
    candidate key strictly exceeds that bound no outside pair can displace the
    selection. Score plateaus fall back to the exact full scan (q' = n).
    ``forbidden`` is an (E, 2) array or an iterable of node pairs.
    """
    if count <= 0:
        return []
    flo, fhi = _pair_array(forbidden)
    fkeys = np.unique(flo * n + fhi)
    order = np.lexsort((np.arange(n), -ranking.scores))
    qp = min(n, max(8, int(np.ceil(np.sqrt(2 * (count + len(fkeys))))) + 1))
    while True:
        nodes = order[:qp]
        a, b = np.triu_indices(qp, 1)
        lo, hi = np.minimum(nodes[a], nodes[b]), np.maximum(nodes[a], nodes[b])
        allowed = ~np.isin(lo * n + hi, fkeys)
        lo, hi = lo[allowed], hi[allowed]
        top = _rank_order(ranking, lo, hi, count)
        cands = list(zip(lo[top].tolist(), hi[top].tolist()))
        if qp >= n:
            return cands
        if len(cands) >= count:
            kth = ranking.key(cands[count - 1])
            bound = ranking.key((int(order[0]), int(order[qp])))
            if kth > bound:
                return cands
        qp = min(n, 2 * qp)


def ranked_pairs(g: SparseSymGraph, scores, ordering: Ordering, count, missing):
    """The ``count`` best edges of ``g``, or with ``missing`` its best missing pairs.

    Pairs are ranked by the node ``scores`` (see :class:`CentralityRanking`)
    under ``ordering``, with :func:`top_edges` or :func:`top_missing_pairs`;
    the result is a list of (min, max) tuples, best first. Every method that
    draws candidates from a centrality pool takes it from here.
    """
    ranking = CentralityRanking(scores, ordering)
    edges = np.column_stack(g.edge_arrays[:2])
    if missing:
        return top_missing_pairs(g.n, ranking, count, edges)
    return top_edges(edges, ranking, count)


# ---------------------------------------------------------------------
# Greedy search-space selection
# ---------------------------------------------------------------------


class Strategy(enum.Enum):
    """Search-space selection strategies for the greedy optimizers.

    DG_* shrink the existing edge set (edge removal); AD_* pick among missing
    pairs (edge addition). The numbered variants rank by centrality (1 =
    product ordering, 2 = minmax ordering); AD_3 restricts to pairs among the
    d highest-degree nodes, d being the maximum degree.
    """

    DG_FULL = "dg_full"
    DG_1 = "dg1"
    DG_2 = "dg2"
    AD_1 = "ad1"
    AD_2 = "ad2"
    AD_3 = "ad3"

    @property
    def is_removal(self):
        return self in (Strategy.DG_FULL, Strategy.DG_1, Strategy.DG_2)

    @property
    def implied_ordering(self):
        if self in (Strategy.DG_1, Strategy.AD_1):
            return Ordering.PRODUCT
        if self in (Strategy.DG_2, Strategy.AD_2):
            return Ordering.MINMAX
        return None


def select_search_space(g: SparseSymGraph, strategy: Strategy, chosen, ranked=None):
    """Candidate pairs for the next greedy step; empty list signals exhaustion.

    ``chosen`` holds the (min, max) pairs picked so far. DG_FULL takes the
    working graph's edges minus the chosen ones, AD_3 the missing pairs among
    its d highest-degree nodes. The ranked strategies (DG_1/DG_2/AD_1/AD_2)
    keep the ranking of the *initial* graph fixed across steps: ``ranked``
    holds its best candidates in rank order (the top q + step of them at
    greedy step ``step``, from :func:`ranked_pairs`), and they return those
    not chosen. Without ``ranked`` they raise ValueError.
    """
    if strategy is Strategy.DG_FULL:
        return [p for p in g.edge_pairs if p not in chosen]

    if strategy.implied_ordering is not None:
        if ranked is None:
            raise ValueError(f"{strategy} requires the ranked candidates of the initial graph")
        return [p for p in ranked if p not in chosen]

    if strategy is Strategy.AD_3:
        deg = g.degrees()
        d = int(deg.max()) if g.num_edges else 0
        if d == 0:
            return []
        n, (i, j, _) = g.n, g.edge_arrays
        nodes = np.sort(np.lexsort((np.arange(n), -deg))[:d])
        a, b = np.triu_indices(d, 1)
        lo, hi = nodes[a], nodes[b]
        # the edge keys i n + j are sorted, as the edges are
        keys, edge_keys = lo * n + hi, i * n + j
        at = np.minimum(np.searchsorted(edge_keys, keys), len(edge_keys) - 1)
        new = edge_keys[at] != keys
        pairs = zip(lo[new].tolist(), hi[new].tolist())
        return [p for p in pairs if p not in chosen]

    raise ValueError(f"unknown strategy {strategy}")
