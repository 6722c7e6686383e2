"""Sparse symmetric graphs: storage, file I/O, pair ranking.

Nodes are 0-based integers internally; the file formats use 1-based indices
(edge lists and Matrix-Market coordinate files both follow that convention).

A graph stores its edges as three parallel read-only arrays ``(i, j, w)``
with ``i < j``, sorted by ``(i, j)``, plus the symmetric adjacency matrix as
three read-only CSR arrays ``(indptr, indices, data)`` built from them by a
numpy counting merge (:func:`_csr`): sorted column indices, no explicit
zeros, and the index dtype scipy picks, so they equal scipy's ``U + U.T`` of
the upper triangle U bit for bit.
Construction, loading, single-edge updates and search-space ranking work on
these arrays; the tuple views ``edges``, ``edge_pairs`` and ``edge_set()``
are materialized only when asked for. Graphs are immutable: every
modification returns a new object, which shares the arrays it does not
change with the original, so instances are safe to share between threads.

The CSR arrays are the graph's one matrix. Every product with A,
:meth:`SparseSymGraph.matmul`, calls scipy's compiled CSR kernels
``csr_matvec`` and ``csr_matvecs``, the ones ``csr_matrix @ X`` runs, so it
equals that product bit for bit. The kernels' extension module is loaded
from scipy's install without importing the scipy package
(:func:`_csr_kernels`), whose start-up (about 0.3 s, mostly numpy modules
that ``scipy.sparse`` pulls in) would otherwise dominate a job's. No job
reads A in any other form: MIOBI hands ``matmul`` to ``eigsh`` as a linear
operator.

Every graph passes one edge check, :func:`_checked_order`: nodes in [0, n),
no self-loop, finite positive weights, no pair twice in either orientation.
The constructor, the loader (whose messages add the file, the line and
1-based nodes) and ``with_edge_delta`` (on the pair it changes) all call it.

:func:`load_graph` reads either file format through one reader,
:func:`_tables`, which parses the text in chunks of whole lines, so the
parser's working set is one chunk's token arrays beside the entries parsed
so far, whatever the file's size. Errors name the same line whichever chunk
holds it. The entries are sorted once, and their line numbers are dropped
as soon as the checks that report them have passed.

:func:`ranked_pairs` ranks a graph's edges or missing pairs by node
centrality, with one ordering key (``_pair_keys``) and one edge-membership
test (``_not_edges``), which AD_3 in :func:`select_search_space` shares.
:func:`eigenvector_centrality` comes from :mod:`fconn.krylov` (Lanczos, to
order 100 at most: paths of more than about 200 nodes raise).
"""

from __future__ import annotations

import enum
import importlib.machinery
import importlib.util
import os
import sys

# Ahead of numpy, so that numpy's import reuses the memory freed by compiling
# krylov in a job without cached bytecode; after it, the heap grew 0.3 MB.
from .krylov import eigenvector_centrality  # isort: skip

import numpy as np

from .errors import InputFormatError, ValidationError

__all__ = [
    "SparseSymGraph",
    "load_graph",
    "save_graph",
    "eigenvector_centrality",
    "Ordering",
    "Strategy",
    "select_search_space",
    "ranked_pairs",
]


def _csr_kernels():
    """scipy's compiled CSR products ``(csr_matvec, csr_matvecs)``, without importing scipy.

    ``find_spec`` locates the scipy package without running its
    ``__init__``, and ``PathFinder`` finds the ``_sparsetools`` extension
    under ``scipy/sparse``; loading it takes about 1 ms. Loading registers
    it in ``sys.modules`` under its own name, so a later ``import
    scipy.sparse`` uses this module. If scipy's layout has no such kernel,
    raises ImportError naming the installed scipy version.
    """
    name = "scipy.sparse._sparsetools"
    module = sys.modules.get(name)
    if module is None:
        package = importlib.util.find_spec("scipy")
        dirs = package.submodule_search_locations if package is not None else None
        spec = importlib.machinery.PathFinder.find_spec(
            name, [os.path.join(d, "sparse") for d in dirs or ()]
        )
        if spec is not None:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
    kernels = tuple(getattr(module, k, None) for k in ("csr_matvec", "csr_matvecs"))
    if None in kernels:
        from importlib import metadata

        try:
            version = f"scipy {metadata.version('scipy')}"
        except metadata.PackageNotFoundError:
            version = "no scipy"
        raise ImportError(
            f"fconn needs the compiled CSR kernels csr_matvec and csr_matvecs of scipy's "
            f"{name}, which were not found ({version} is installed)"
        )
    return kernels


_csr_matvec, _csr_matvecs = _csr_kernels()


def normalize_pair(i, j):
    """Order a node pair as (min, max)."""
    return (i, j) if i < j else (j, i)


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


def _checked_order(n, lo, hi, w, at=None):
    """The (lo, hi) sort order of the edges (lo[k], hi[k], w[k]), lo <= hi, that pass the check.

    The earliest edge failing a test raises ValidationError with the first
    test's message it fails: a node outside [0, n), a self-loop, a weight
    that is not finite, negative or zero, or a pair already at an earlier k.
    ``at(k)``, if given, prefixes the message of edge k and shows its nodes
    1-based; otherwise they are 0-based. A graph without nodes raises at once.
    """
    if n < 1:
        raise ValidationError("graph must have at least one node")
    repeated, order = _repeats(lo, hi)

    def first(mask):  # only one test's mask is alive at a time
        return int(np.argmax(mask)) if mask.any() else len(mask)

    hits = [first((lo < 0) | (hi >= n)), first(lo == hi), first(~np.isfinite(w)),
            first(w < 0), first(w == 0), first(repeated)]
    k = min(hits)
    if k < len(lo):
        a, b = (lo[k], hi[k]) if at is None else (lo[k] + 1, hi[k] + 1)
        message = [
            f"node index out of range: ({a}, {b}) with n={n}",
            f"self-loop at node {a}",
            f"non-finite weight {w[k]}",
            f"negative weight {w[k]}",
            "zero weight (omit the edge instead)",
            f"duplicate entry for edge ({a}, {b})",
        ][hits.index(k)]
        raise ValidationError(message if at is None else at(k) + message)
    return order


class SparseSymGraph:
    """Immutable undirected graph with finite, strictly positive edge weights.

    The adjacency matrix is stored in CSR form, so products with it
    (:meth:`matmul`) cost O(nnz). No self-loops, no duplicate edges; absence
    means weight 0.
    """

    __slots__ = ("n", "_i", "_j", "_w", "_csr", "_norm1", "_edges")

    def __init__(self, n: int, edges):
        """Graph on ``n`` nodes from (i, j, w) triples in any order and orientation."""
        n = int(n)
        arr = np.array(list(edges), dtype=float).reshape(-1, 3)
        lo, hi = np.sort(arr[:, :2].astype(np.int64), axis=1).T
        order = _checked_order(n, lo, hi, arr[:, 2])
        self._set(n, lo[order], hi[order], arr[order, 2])

    def _set(self, n, i, j, w, csr=None):
        """Store checked edges (i < j, sorted); their CSR arrays are built if not given."""
        self.n = n
        csr = _csr(n, i, j, w) if csr is None else csr
        for a in (i, j, w, *csr):
            a.flags.writeable = False
        self._i, self._j, self._w = i, j, w
        self._csr = csr
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
    def csr_arrays(self):
        """Read-only CSR arrays (indptr, indices, data) of the adjacency, sorted indices."""
        return self._csr

    @property
    def adjacency(self):
        """A new ``scipy.sparse.csr_matrix`` over :attr:`csr_arrays`, no copy; imports scipy.sparse.

        Nothing in the package reads it. It stays while the benchmark's own
        loader test compares a loaded graph with it.
        """
        import scipy.sparse

        indptr, indices, data = self._csr
        return scipy.sparse.csr_matrix((data, indices, indptr), shape=(self.n, self.n), copy=False)

    def matmul(self, X, out=None):
        """A @ X for a vector or an (n, k) block X, equal to scipy's CSR product bit for bit.

        It calls the kernel that ``csr_matrix @ X`` calls for X: ``csr_matvec``
        for a vector or a single column, ``csr_matvecs`` for a wider block,
        on a C-contiguous float64 X, into a zeroed result. The kernels add
        into their result, so ``out``, a C-contiguous float64 array of X's
        shape that does not overlap X, is zeroed before it takes the product;
        without it a new array is returned.
        """
        X = np.ascontiguousarray(X, dtype=np.float64)
        n = self.n
        if X.ndim not in (1, 2) or X.shape[0] != n:
            raise ValueError(f"cannot multiply an order-{n} adjacency by an array of shape {X.shape}")
        if out is None:
            out = np.zeros(X.shape)
        elif (
            out.shape != X.shape
            or out.dtype != np.float64
            or not out.flags.c_contiguous
            or np.may_share_memory(out, X)
        ):
            raise ValueError("out must be a C-contiguous float64 array of X's shape apart from X")
        else:
            out.fill(0.0)
        if X.ndim == 1 or X.shape[1] == 1:
            _csr_matvec(n, n, *self._csr, X.ravel(), out.ravel())
        else:
            _csr_matvecs(n, n, X.shape[1], *self._csr, X.ravel(), out.ravel())
        return out

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
        return np.diff(self._csr[0]).astype(int)

    @property
    def norm1(self) -> float:
        """1-norm of the adjacency matrix, its largest weighted degree, cached.

        Weights are positive and A is symmetric, so every column sum is a
        node's weighted degree, summed from the edge arrays without a copy
        of |A|.
        """
        if self._norm1 is None:
            i, j, w = self.edge_arrays
            n = self.n
            self._norm1 = float(np.max(np.bincount(i, w, n) + np.bincount(j, w, n)))
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
        _checked_order(n, np.array([a]), np.array([b]), np.ones(1))
        k, present = self._find(a, b)
        w_old = float(self._w[k]) if present else 0.0
        w_new = w_old + float(delta)
        indptr, indices, data = self._csr
        # CSR slots of (a, b) and (b, a): found entries, or insertion points
        pa = int(indptr[a] + np.searchsorted(indices[indptr[a] : indptr[a + 1]], b))
        pb = int(indptr[b] + np.searchsorted(indices[indptr[b] : indptr[b + 1]], a))
        if abs(w_new) <= 1e-12 * max(1.0, abs(w_old)):
            if not present:
                return self
            edges = [np.delete(x, k) for x in (self._i, self._j, self._w)]
            data = np.delete(data, [pa, pb])
            indices = np.delete(indices, [pa, pb])
            indptr = _shift(indptr, a, b, -1)
        elif w_new < 0:
            raise ValidationError(f"modification of ({a}, {b}) yields negative weight {w_new}")
        elif present:
            w = self._w.copy()
            w[k] = w_new
            edges = [self._i, self._j, w]
            data = data.copy()
            data[[pa, pb]] = w_new
        else:
            edges = [np.insert(x, k, v) for x, v in ((self._i, a), (self._j, b), (self._w, w_new))]
            data = np.insert(data, [pa, pb], w_new)
            indices = np.insert(indices, [pa, pb], [b, a])
            indptr = _shift(indptr, a, b, 1)
        g = object.__new__(SparseSymGraph)
        g._set(n, *edges, (indptr, indices, data))
        return g

    def __repr__(self):
        return f"SparseSymGraph(n={self.n}, edges={self.num_edges})"


def _shift(indptr, a, b, step):
    """Row pointers after adding ``step`` entries to rows a and b each."""
    out = indptr.copy()
    out[a + 1 :] += step
    out[b + 1 :] += step
    return out


def _stable_order(keys, top):
    """Stable argsort of integer keys in [0, top), by radix passes over 16-bit digits.

    numpy sorts 16-bit keys stably by a radix sort, so each pass, least
    significant digit first, is a counting sort; on 100000 keys below 20000
    one pass took 1.1 ms, where a stable argsort of the keys took 8.9 ms.
    """
    order = np.argsort(keys.astype(np.uint16), kind="stable")  # the low digit: the cast wraps
    shift = 16
    while top > 1 << shift:
        order = order[np.argsort((keys[order] >> shift).astype(np.uint16), kind="stable")]
        shift += 16
    return order


def _csr(n, i, j, w):
    """CSR arrays (indptr, indices, data) of the symmetric adjacency of the edges (i < j, sorted).

    The sorted edges are the upper triangle U in CSR order already. Row r of
    A = U^T + U holds the i of the edges (i, r), all below r, then the j of
    the edges (r, j), all above it, each part in increasing order. The second
    part of row r is the contiguous run of edges with i = r, and a stable
    sort of the edges by j (:func:`_stable_order`), which keeps each run of
    equal j in increasing i, lists the first parts in CSR order (that of
    U^T); counts of the two parts per row place every entry. No entry is in
    both parts, so every weight is stored unchanged. The index dtype is the
    one scipy picks for ``U + U.T``: int32 unless n or the 2m entries exceed
    its range. So the arrays equal scipy's bit for bit.
    """
    m = len(i)
    idx = np.int32 if max(n, 2 * m) <= np.iinfo(np.int32).max else np.int64
    below = np.bincount(j, minlength=n)  # entries of each row left of the diagonal
    above = np.bincount(i, minlength=n)
    indptr = np.zeros(n + 1, dtype=idx)
    np.cumsum(below + above, out=indptr[1:])
    indices = np.empty(2 * m, dtype=idx)
    data = np.empty(2 * m)
    # edge k sits at its rank k - (first edge of row i) after row i's first part
    at = np.arange(m) + (indptr[:-1] + below - (np.cumsum(above) - above))[i]
    indices[at] = j
    data[at] = w
    order = _stable_order(j, n)
    at = np.arange(m) + (indptr[:-1] - (np.cumsum(below) - below))[j[order]]
    indices[at] = i[order]
    data[at] = w[order]
    return indptr, indices, data


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
    """Vectorized parse of 'i j [w]' entry lines; returns (i, j, w, lineno) arrays, i and j 0-based.

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
    i -= 1
    j -= 1
    return i, j, w, table.line[rows]


# Characters of text parsed in one pass. A pass holds about a dozen arrays
# with one entry per byte or token of its text, 15 times the text's size, so
# a whole file parsed at once sets a loader's memory peak; in chunks, the
# peak is the parsed entries, twice over while the chunks' parts are joined,
# plus one chunk's arrays. On the benchmark's 1.09 MB tree edge list,
# load_graph peaks at 6.5 MiB traced with 2^16 characters, 7.2 MiB with 2^18
# and 16.2 MiB with the whole text, and parsing took 37 ms with 2^16 or 2^18
# characters against 44 ms with 2^20.
_CHUNK = 2**16


def _tables(fh, comments, lineno):
    """The rest of the text file ``fh`` as one :class:`_Table` per chunk.

    A chunk is ``_CHUNK`` characters, read on to the end of its last line, so
    no line is split; ``lineno`` is the number of the first line left in
    ``fh``. The last table is empty, and its ``last_line`` is the file's.
    """
    while True:
        text = fh.read(_CHUNK)
        if text and text[-1] != "\n":
            text += fh.readline()
        table = _Table(text, comments, lineno)
        yield table
        if not text:
            return
        lineno = table.last_line + 1


def _parse_edge_list(path):
    with open(path, "r", encoding="utf-8") as fh:
        parts = [
            _parse_entries(
                path,
                table,
                np.arange(len(table.line)),
                (2, 3),
                lambda k: f"expected 'i j [w]', got {k} fields",
                True,
            )
            for table in _tables(fh, "%#", 1)
        ]
    i, j, w, lines = (np.concatenate(field) for field in zip(*parts))
    return int(max(i.max(initial=-1), j.max(initial=-1))) + 1, (i, j, w, lines)


def _size_line(path, table):
    """Number of nodes from the Matrix-Market size line, the first kept line of ``table``."""
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
    return r


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
        want = 2 if valtype == "pattern" else 3
        n, parts = None, []
        for table in _tables(fh, "%", 2):
            rows = np.arange(len(table.line))
            if n is None and len(rows):
                n, rows = _size_line(path, table), rows[1:]
            parts.append(_parse_entries(
                path,
                table,
                rows,
                (want,),
                lambda k: f"expected {want} fields per entry for {valtype} file",
                False,
            ))
    if n is None:
        raise InputFormatError("missing size line", path=path, line=table.last_line)
    return n, [np.concatenate(field) for field in zip(*parts)]


def load_graph(path, fmt="auto") -> SparseSymGraph:
    """Read a graph from an edge list or a Matrix-Market coordinate file.

    Edge lists are whitespace-separated with 1-based indices and an optional
    weight column; comment lines start with '%' or '#'. Matrix-Market files
    must be coordinate/symmetric (real, integer or pattern). Node indices
    are decimal integers; weights are read as Python's float() reads them.
    Each undirected edge must appear exactly once in either orientation;
    duplicates (including mirrored ones), self-loops, weights that are not
    finite and positive, and nodes beyond a Matrix-Market size line are
    rejected by :func:`_checked_order` with the file and line of the
    offending entry. A file that is not UTF-8 text raises InputFormatError.

    The text is parsed in chunks of whole lines (``_CHUNK`` characters), so
    the parser's working set does not grow with the file, and the entries'
    line numbers are dropped once the edges have passed their checks.
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
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"not UTF-8 text: {exc.reason}", path=path)
    lo = np.minimum(i, j)
    hi = np.maximum(i, j, out=j)
    del i, j
    if not len(lo):
        raise ValidationError(f"{path}: no edges found")
    order = _checked_order(n, lo, hi, w, lambda k: f"{path}:{lines[k]}: ")
    del lines
    # one sort, here; each sorted copy replaces its input
    lo = lo[order]
    hi = hi[order]
    w = w[order]
    del order
    g = object.__new__(SparseSymGraph)
    g._set(int(n), lo, hi, w)
    return g


def save_graph(g: SparseSymGraph, path) -> None:
    """Write an edge list (1-based, 17 significant digits) that round-trips bit-exactly."""
    i, j, w = (x.tolist() for x in g.edge_arrays)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{a + 1} {b + 1} {x:.17g}\n" for a, b, x in zip(i, j, w)))


class Ordering(enum.Enum):
    """Edge orderings induced by node centrality scores."""

    PRODUCT = "product"  # compare score products
    MINMAX = "minmax"    # compare (min score, max score) lexicographically


def _pair_keys(scores, ordering, lo, hi):
    """Sort keys of the pairs (lo[k], hi[k]) under ``ordering``, primary key first.

    The better pair has the smaller key: -(s_lo s_hi) for PRODUCT, and
    (-min, -max) of the two scores for MINMAX.
    """
    a, b = scores[lo], scores[hi]
    if ordering is Ordering.PRODUCT:
        return (-(a * b),)
    return (-np.minimum(a, b), -np.maximum(a, b))


def _rank_order(scores, ordering, lo, hi, count):
    """Indices of the ``count`` best pairs by ranking key, ties by (min, max index).

    Equal to the first ``count`` entries of the full lexsort, but only the
    head is sorted: ``np.partition`` finds the count-th best primary key (the
    product, or the min score for MINMAX), and only the pairs at least that
    good, every pair tied with the cut included, are lexsorted.
    """
    keys = _pair_keys(scores, ordering, lo, hi)
    count = min(max(count, 0), len(lo))
    head = np.arange(len(lo))
    if 0 < count < len(lo):
        head = np.flatnonzero(keys[0] <= np.partition(keys[0], count - 1)[count - 1])
    order = np.lexsort((hi[head], lo[head]) + tuple(k[head] for k in reversed(keys)))
    return head[order[:count]]


def _not_edges(g: SparseSymGraph, lo, hi):
    """Mask of the pairs (lo[k], hi[k]), lo < hi, that are not edges of ``g``."""
    n, (i, j, _) = g.n, g.edge_arrays
    # the edge keys i n + j are sorted, as the edges are; the sentinel n^2
    # exceeds every pair key, so each lookup lands inside the array
    edge_keys = np.append(i * n + j, n * n)
    keys = lo * n + hi
    return edge_keys[np.searchsorted(edge_keys, keys)] != keys


def ranked_pairs(g: SparseSymGraph, scores, ordering: Ordering, count, missing):
    """The ``count`` best edges of ``g``, or with ``missing`` its best missing pairs.

    Pairs are ranked by the node ``scores`` (from :func:`eigenvector_centrality`)
    under ``ordering``, best first, ties by (min, max) index; the result is a
    list of (min, max) tuples. Every method that draws candidates from a
    centrality pool takes it from here.

    Missing pairs are found without scanning all O(n^2) of them: they are
    enumerated among the q' highest-score nodes, and q' doubles until the
    selection is certified. Every pair touching a node outside the top q'
    ranks no better than (best node, (q'+1)-th node), so once the count-th
    candidate ranks strictly better than that pair, no outside pair can
    displace the selection. Score plateaus fall back to the full scan (q' = n).
    """
    if not missing:
        lo, hi = g.edge_arrays[:2]
        top = _rank_order(scores, ordering, lo, hi, count)
        return list(zip(lo[top].tolist(), hi[top].tolist()))
    if count <= 0:
        return []
    n = g.n
    order = np.lexsort((np.arange(n), -scores))
    qp = min(n, max(8, int(np.ceil(np.sqrt(2 * (count + g.num_edges)))) + 1))
    while True:
        nodes = order[:qp]
        a, b = np.triu_indices(qp, 1)
        lo, hi = np.minimum(nodes[a], nodes[b]), np.maximum(nodes[a], nodes[b])
        new = _not_edges(g, lo, hi)
        lo, hi = lo[new], hi[new]
        top = _rank_order(scores, ordering, lo, hi, count)
        if qp >= n:
            break
        if len(top) == count:
            kth, bound = zip(*_pair_keys(
                scores, ordering, [lo[top[-1]], order[0]], [hi[top[-1]], order[qp]]
            ))
            if kth < bound:
                break
        qp = min(n, 2 * qp)
    return list(zip(lo[top].tolist(), hi[top].tolist()))


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
        d = int(deg.max())
        nodes = np.sort(np.lexsort((np.arange(g.n), -deg))[:d])
        a, b = np.triu_indices(d, 1)
        lo, hi = nodes[a], nodes[b]
        new = _not_edges(g, lo, hi)
        pairs = zip(lo[new].tolist(), hi[new].tolist())
        return [p for p in pairs if p not in chosen]

    raise ValueError(f"unknown strategy {strategy}")
