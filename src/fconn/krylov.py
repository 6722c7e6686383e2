"""Block Krylov machinery for low-rank matrix-function updates.

Provides incremental block Arnoldi/Lanczos factorizations and, on top of
them:

* ``trace_fun_update``      -- Tr(f(A+X)) - Tr(f(A)) from projected eigenvalues
* ``multiple_frechet_eval`` -- factored derivatives of f at M along the
                               indicator directions 1_i 1_j^T of an edge set,
                               with one shared basis per node (a single
                               derivative is a one-pair call)
* ``fun_action``            -- f(A) v for a single vector
* ``eigenvector_centrality``-- the Perron vector of A, for :mod:`fconn.graph`
* ``estimate_trace_f``      -- Hutch++ stochastic estimate of Tr(f(A))

The weighted solver (:mod:`fconn.weighted`) builds its own model of phi, grad
phi and the Hessian on one :class:`BlockKrylov` space per solve, with the
driver and stopping test below. No pipeline path calls
``multiple_frechet_eval`` any more; it stays because the tests use it as an
independent reference for that Hessian (one Arnoldi space per node, at
A + X) and because the benchmark's tracer binds it by name.

``trace_fun_update``, ``multiple_frechet_eval``, the weighted model and
``fun_action`` grow a Krylov space one order at a time until the projected
quantity stops moving, and share one driver, ``_lagged``, for that loop: it
keeps the last ``lag`` values, stops at the first order m where the change
from value_{m-lag} is settled or at the order whose extension exhausts the
space (the value is then exact), and otherwise returns the value at
``m_max`` with ``converged=False``. Callers supply the step that extends the
space to order m and evaluates the quantity there, and ``moved``, which
measures the change, the quantity's size and its rounding level.

One stopping test, ``_settled``, serves the driver and the lockstep kernel:
a change is settled once it is at most max(tol * size, floor), so ``tol``
is a relative tolerance. The change |Delta_m - Delta_{m-lag}| of a trace
update is compared with tol * |Delta_m|, and the spectral norm of a core's
change with tol * ||core_m||_2. The floor is the quantity's rounding level
(a small multiple of eps times the summed |f| of the projected spectra for
a trace, times max |f| for a core or a Lanczos result), so an update that
is zero stops at order lag + 1. An absolute test cannot serve both a trace
update of 1e8, which it never lets stop, and one of 1e-3, which it stops
before a single digit is right.

``estimate_trace_f`` needs only quadratic forms v^T f(A) v, and computes them
with a lockstep Lanczos kernel: b independent single-vector recurrences
advance together, with one CSR SpMM over the active vectors per step,
vector-wise recurrence updates and a stacked ``eigh`` of the (b, m, m)
tridiagonal matrices. The kernel stores its vectors as the rows of (b, n)
arrays, so the inner products and updates of each recurrence run over
contiguous memory; the graph's product (``SparseSymGraph.matmul``, scipy's
compiled CSR kernel) takes its vectors as columns, so a step copies the rows
as columns into the block where the next vector is built, has the product
written into a fourth block, and copies it back into rows. A form is
||v||^2 e_1^T f(T_m) e_1 and needs no basis, so only the two newest basis
vectors of each recurrence are kept.
Each recurrence stops on its own form, by ``_settled`` with the rounding
floor 100 eps ||v||^2 max |f(T_m)|, and leaves the batch when it stops, its
rows compacted in place.

Memory: the kernel runs in four (b, n) row blocks of a workspace it is
given, and allocates no block in a step. ``estimate_trace_f`` allocates a
vector block and a kernel block once and runs every phase in them; its
tracemalloc peak is these two blocks and a row chunk's product.
The sketch's SVQB gives other digits than a Householder QR, but the same
span up to rounding, and the estimate depends on the sketch only through its
span.
The probes are random signs from a counter-based SplitMix64 stream (Steele,
Lea & Flood, OOPSLA 2014) written in numpy (``_rademacher``): the i-th word
of the stream keyed by the seed is the generator's i-th output, computed
from i alone on uint64 arrays, and gives 64 signs, one per bit. The
sketch reads stream 0 and the residual probes stream 1, the words from 2^63
on. A sign depends only on the seed, the stream and its position, so a seed
gives the same digits at any batch or chunk size. A job imports no
``numpy.random``.
Every break, make and weighted job runs the estimate for its denominator.
Weighted jobs run the recurrence in ``fun_action`` too, which keeps its basis
V_m and returns ||v|| V_m f(T_m) e_1. ``eigenvector_centrality``, which ranks
the candidate pools, runs it until the largest Ritz pair converges and then
again to sum the Ritz vector, so that it keeps no basis; the rerun repeats
its digits.
All take the start vector to be the first basis vector exactly, never
recomputed from inner products with the basis, which lose their meaning once
the basis loses orthogonality (Musco, Musco & Sidford, SODA 2018).

Every block Krylov space starts from graph nodes, since the space of an
update X = U B U^T with indicator columns U depends only on A and the nodes
(Beckermann, Kressner & Schweitzer, SIMAX 2018): its first block is the
indicator block, and the basis applied to it is the basis rows at the nodes.
:class:`BlockKrylov` has one layout and one step in both of its modes. It
keeps its basis blocks as the rows of C-contiguous (s_j, n) arrays in one
list: every block, one array each, in Arnoldi mode (the weighted model and
``multiple_frechet_eval``), and only the previous and the current block,
stacked in one array, in Lanczos mode (``trace_fun_update``, the greedy
scorer). A step takes the rows W of A times the current block and makes two
block classical Gram-Schmidt passes over the kept list (CGS2): each pass
computes ``C_j = B_j W^T`` for every kept array B_j from the same W, then
subtracts every ``C_j^T B_j``. Block j is nonzero only on the nodes within
j steps of the start nodes, so while the CSR rows of that support hold at
most ``SUPPORT_SHARE`` of A's entries, A times the block is computed from
those rows alone. That product is exact, and for a CSR matrix with sorted
indices, as every graph's is, it equals the full product bit for bit. Each
new block is orthonormalized on its rows in place by a pivoted Gram-Schmidt
with two orthogonalization passes written in numpy (``_qr_rows``), so the
module imports no scipy; a vector whose residual norm is at most the
deflation threshold 1e-12 * max(1, ||A||_1) is deflated. Callers reach an
order through ``BlockKrylov.reach``, which extends the space by at most one
block and says whether the value at that order is still not exact.

Every routine takes the large symmetric matrix as a
:class:`fconn.graph.SparseSymGraph`, whose CSR arrays have sorted indices
and whose cached 1-norm sets the deflation threshold; every block Krylov
start is a list of node indices.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import matfun
from .errors import ConvergenceError, ValidationError

__all__ = [
    "LowRankUpdate",
    "BlockKrylov",
    "TraceUpdateResult",
    "trace_fun_update",
    "MultiFrechetResult",
    "multiple_frechet_eval",
    "fun_action",
    "eigenvector_centrality",
    "TraceEstimate",
    "estimate_trace_f",
]

DEFAULT_LAG = 2
DEFAULT_M_MAX = 100
DEFAULT_TOL = 1e-6  # relative tolerance of trace_fun_update, the greedy scorer


def _deflation_tol(g):
    """Deflation threshold 1e-12 * max(1, ||A||_1), from the graph's cached 1-norm."""
    return 1e-12 * max(1.0, g.norm1)


class LowRankUpdate:
    """Symmetric edge perturbation X = U B U^T of an n x n matrix.

    U, the indicator columns of the sorted ``nodes`` the edges touch, is never
    formed: a Krylov space starts from the nodes. B holds the signed weight
    deltas, so ``from_edge(n, s, t, delta)`` reproduces X with
    X[s, t] = X[t, s] = delta and zeros elsewhere.
    """

    __slots__ = ("n", "nodes", "B")

    def __init__(self, n, nodes, B):
        self.n = n
        self.nodes = nodes
        self.B = B

    @classmethod
    def from_edge(cls, n, i, j, delta):
        return cls.from_edge_deltas(n, [(i, j, delta)])

    @classmethod
    def from_edge_deltas(cls, n, deltas):
        """Build X = sum delta_ij (1_i 1_j^T + 1_j 1_i^T) from (i, j, delta) triples.

        Diagonal entries (i == j) contribute delta once. Duplicate pairs are
        rejected. Zero deltas are kept (they fix the factor shape, which the
        weighted optimizers rely on).
        """
        deltas = list(deltas)
        nodes = sorted({v for i, j, _ in deltas for v in (i, j)})
        if not nodes:
            raise ValidationError("at least one edge delta is required")
        if nodes[0] < 0 or nodes[-1] >= n:
            raise ValidationError("node index out of range")
        pos = {v: a for a, v in enumerate(nodes)}
        B = np.zeros((len(nodes), len(nodes)))
        seen = set()
        for i, j, d in deltas:
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValidationError(f"duplicate edge delta for {key}")
            seen.add(key)
            B[pos[i], pos[j]] = d
            B[pos[j], pos[i]] = d
        return cls(n, np.array(nodes, dtype=np.intp), B)

    @property
    def rank(self):
        return len(self.nodes)

    def dense(self):
        D = np.zeros((self.n, self.n))
        D[np.ix_(self.nodes, self.nodes)] = self.B
        return D


def _qr_rows(W, thr):
    """Rank-revealing QR of the rows of W, in place; rows with |R_ii| <= thr are deflated.

    W is a C-contiguous (s, n) array whose rows are the vectors to
    orthonormalize. Returns (Q, C) with W_in^T ~ Q^T C, where Q = W[:r] is a
    view of the first r <= s rows of W, orthonormal, and r may be zero. The QR
    is a pivoted Gram-Schmidt: each step takes the remaining row of largest
    residual norm as the pivot (Businger & Golub, 1965), orthogonalizes it a
    second time against the rows of Q taken so far ("twice is enough":
    Giraud, Langou & Rozloznik, 2005), normalizes it, and projects it out of
    the rows still remaining. Once the largest residual norm is at most
    ``thr``, the remaining rows are deflated.
    """
    s = W.shape[0]
    R = np.zeros((s, s))
    piv = np.arange(s)
    norms = np.sqrt(np.einsum("ij,ij->i", W, W))
    r = 0
    while r < s:
        j = r + int(np.argmax(norms[r:]))
        if norms[j] <= thr:
            break
        if j != r:
            W[[r, j]] = W[[j, r]]
            R[:, [r, j]] = R[:, [j, r]]
            piv[[r, j]] = piv[[j, r]]
            norms[[r, j]] = norms[[j, r]]
        w = W[r]
        if r:
            c = W[:r] @ w
            w -= np.dot(c, W[:r])  # as W[:r].T @ c, bit for bit, without matmul's slow r = 1 path
            R[:r, r] += c
        nrm = np.sqrt(w @ w)
        if nrm <= thr:
            break
        w *= 1.0 / nrm
        R[r, r] = nrm
        r += 1
        if r < s:
            rest = W[r:]
            c = rest @ w
            rest -= np.outer(c, w)
            R[r - 1, r:] = c
            norms[r:] = np.sqrt(np.einsum("ij,ij->i", rest, rest))
    C = np.zeros((r, s))
    C[:, piv] = R[:r]
    return W[:r], C


# A @ Q is computed from the CSR rows of the support of Q (the nodes a block
# can be nonzero on) while those rows hold at most this share of A's stored
# entries. On a 20000-node tree with 200000 stored entries and a 2-row block,
# the support product took 25-30 ns per entry it reads and the full CSR
# product (scipy's compiled csr_matvecs, through the graph's matmul) 3.6-5.7
# ns per stored entry (2-core shared host), so they cost the same at
# a share of about 1/7 to 1/5. On that tree the supports of blocks 0-3 of
# the greedy's candidates hold 0.02%, 0.2-0.3%, 2.2-3.1% and 20-27% of the
# entries; on a 2000-node Barabasi-Albert graph, blocks 0 and 1 hold 0.9-1.4%
# and 16-24%. Any gate from 1/32 to 1/7 takes the same products on both.
SUPPORT_SHARE = 1 / 8


def _support_product(g, Q, support):
    """(A Q^T)^T for the adjacency A of graph ``g`` and rows Q that vanish off ``support``.

    ``support`` is a sorted array of node indices. Only the CSR rows of the
    support are read: output entry i sums A[j, i] Q[c, j] over the support
    nodes j in increasing order, the order in which the CSR kernel of
    ``g.matmul`` sums row i over the graph's sorted indices, and skips only
    terms whose Q factor is an exact zero. So the result equals the full
    product ``g.matmul(Q.T).T`` bit for bit. Returns the (k, n) product and
    the sorted nodes it can be nonzero on, the support and its neighbours.
    """
    indptr, indices, data = g.csr_arrays
    n = g.n
    starts = indptr[support]
    counts = indptr[support + 1] - starts
    ends = np.cumsum(counts)
    pos = np.arange(ends[-1]) + np.repeat(starts - ends + counts, counts)
    cols = indices[pos]
    src = np.repeat(support, counts)
    vals = data[pos]
    Y = np.empty((Q.shape[0], n))
    for c, q in enumerate(Q):
        # bincount adds the terms of each output entry in the order given, from 0.0
        Y[c] = np.bincount(cols, weights=q[src] * vals, minlength=n)
    reach = np.zeros(n, dtype=bool)
    reach[support] = True
    reach[cols] = True
    return Y, np.flatnonzero(reach)


class BlockKrylov:
    """Incrementally built block Krylov factorization A U_m = U_m H_m + residual.

    The first block is the indicator columns of ``nodes``, in the order given;
    no nodes, a repeated node or one out of range raise ValidationError.

    The basis blocks are kept as the rows of C-contiguous (s_j, n) arrays in
    one list. ``mode='arnoldi'`` keeps every block, one array each, so the
    whole basis is at hand (:meth:`basis`) and each new block is fully
    reorthogonalized. ``mode='lanczos'`` uses the symmetric three-term
    recurrence and keeps only the previous and the current block, stacked as
    the rows of a single array. Both run the same step: A times the current
    block, as rows W, then two block classical Gram-Schmidt passes over the
    kept arrays B_j (CGS2), each computing ``C_j = B_j W^T`` for every j from
    the same W before it subtracts every ``C_j^T B_j``. While the current
    block's support (the nodes it can be nonzero on: for block j, the nodes
    within j steps of the start nodes) has CSR rows holding at most
    ``SUPPORT_SHARE`` of A's stored entries, A times the block is computed
    from those rows only (see :func:`_support_product`); this is exact, and
    bit-identical to the full product, since a graph's CSR has sorted
    indices. Every block past that point takes the full product, the
    graph's ``matmul``.

    ``extend()`` orthogonalizes A times the newest block, filling one more
    block column of the projected matrix, and appends the next basis block.
    It returns False once the Krylov space is exhausted (new block deflates
    to nothing), in which case the factorization is exact. Rank-deficient
    blocks are handled by deflation: each new block is orthonormalized on its
    rows by :func:`_qr_rows`, and a vector whose residual norm is at most the
    deflation threshold is dropped. ``reach(m)`` is how callers step through
    the orders: it extends at most once and reports the order reached.
    """

    def __init__(self, g, nodes, mode="arnoldi"):
        if mode not in ("arnoldi", "lanczos"):
            raise ValueError(f"unknown mode {mode!r}")
        n = g.n
        nodes = np.asarray(nodes, dtype=np.intp)
        if not len(nodes) or min(nodes) < 0 or max(nodes) >= n or len(set(nodes)) < len(nodes):
            raise ValidationError("start nodes must be nonempty, distinct and in range")
        self._g = g
        self._keep = mode == "arnoldi"
        self._thr = _deflation_tol(g)
        self._nodes = nodes
        s = len(nodes)
        Q0 = np.zeros((s, n))
        Q0[np.arange(s), nodes] = 1.0
        self._rows = [Q0]  # kept row arrays; the current block is the last one's rows from _split
        self._split = 0  # Lanczos: number of rows of the previous block in its one array
        self._support = np.sort(nodes)  # None once the product is a full SpMM
        self._offsets = [0, s]
        self._H = np.zeros((s, s))
        self._W = np.eye(s)  # rows of the basis at the start nodes, transposed
        self.filled = 0
        self._exhausted = False

    @property
    def total_cols(self):
        return self._offsets[-1]

    @property
    def exhausted(self):
        return self._exhausted

    def extend(self) -> bool:
        """Fill the next block column of H and append a basis block.

        Returns True if a new block was appended, False when the space is
        exhausted (the current factorization is then exact).
        """
        if self._exhausted:
            return False
        m = self.filled
        col = slice(self._offsets[m], self._offsets[m + 1])
        C, at_nodes = self._step(m, col)
        self.filled = m + 1
        r = C.shape[0]
        if r == 0:
            self._exhausted = True
            return False
        k = self.total_cols
        H = np.zeros((k + r, k + r))
        H[:k, :k] = self._H
        H[k : k + r, col] = C
        self._H = H
        self._offsets.append(k + r)
        self._W = np.concatenate([self._W, at_nodes])
        return True

    def reach(self, m):
        """Extend once if the space is below order m; return ``(order, grew)``.

        ``order`` is min(m, filled), the order a caller can read. ``grew`` is
        False once the space was exhausted at or below order m, so the
        factorization at ``order`` is exact and no later order differs.
        """
        if self.filled < m and not self._exhausted:
            self.extend()
        return min(m, self.filled), not (self._exhausted and self.filled <= m)

    def _step(self, m, col):
        """Orthogonalize A times the current block against the kept rows; keep the new block."""
        kept = self._rows
        curr = kept[-1][self._split :]
        W = self._product(curr)
        end = self._offsets[m + 1]
        span = slice(end - sum(B.shape[0] for B in kept), end)
        for _ in range(2):
            Cs = [B @ W.T for B in kept]
            for B, C in zip(kept, Cs):
                W -= C.T @ B
            self._H[span, col] += np.concatenate(Cs)
        Q, C = _qr_rows(W, self._thr)
        if self._keep:
            kept.append(Q)
        else:
            self._rows = [np.concatenate([curr, Q])]
            self._split = curr.shape[0]
        return C, Q[:, self._nodes]

    def _product(self, Q):
        """A times the rows Q, as a C-contiguous (k, n) array of rows."""
        S = self._support
        if S is not None:
            indptr, _, data = self._g.csr_arrays
            if np.sum(indptr[S + 1] - indptr[S]) <= SUPPORT_SHARE * len(data):
                Y, self._support = _support_product(self._g, Q, S)
                return Y
            self._support = None  # supports only grow
        # column_stack builds the (n, k) input column by column, several times
        # faster than a transposing copy for k = 2
        return np.ascontiguousarray(self._g.matmul(np.column_stack(Q)).T)

    def projected(self, m=None):
        """Symmetric projected matrix over the first m filled block columns."""
        m = self.filled if m is None else m
        if m > self.filled:
            raise ValueError("factorization not yet filled to this order")
        k = self._offsets[min(m, len(self._offsets) - 1)]
        return matfun.symmetrize(self._H[:k, :k])

    def start_projection(self, m=None):
        """W_m (k_m x s): the basis applied to the start block, i.e. its rows at the nodes."""
        m = self.filled if m is None else m
        k = self._offsets[min(m, len(self._offsets) - 1)]
        return self._W[:k]

    def basis(self, m=None):
        """Basis matrix with the first m blocks as columns (Arnoldi mode only)."""
        if not self._keep:
            raise ValueError("basis was not kept")
        return np.concatenate(self._rows[: self.filled if m is None else m]).T


def _core_change(curr, prev):
    """Spectral norm of curr - prev, with the smaller prev zero-padded."""
    d = curr.copy()
    d[: prev.shape[0], : prev.shape[1]] -= prev
    return np.linalg.norm(d, 2)


# Rounding level of a projected quantity, per unit of its scale. The lagged
# differences of a converged trace update level off at 30-120 eps times the
# summed |f| of the projected spectra on 1000-1500-node graphs.
_ROUNDING = 100.0 * np.finfo(float).eps


def _settled(change, size, floor, tol):
    """Whether a lagged change is settled: ``change <= max(tol * size, floor)``.

    ``size`` is the size of the quantity and ``floor`` its rounding level, so
    a quantity that is exactly or numerically zero settles too. Scalars or
    arrays, elementwise; a NaN change never settles.
    """
    return change <= np.maximum(tol * size, floor)


def _check_controls(lag, tol, m_max):
    """Reject a lag or m_max below 1 and a tol that is negative or not finite; None passes."""
    if lag is not None and lag < 1:
        raise ValidationError(f"lag must be >= 1, got {lag}")
    if m_max is not None and m_max < 1:
        raise ValidationError(f"m_max must be >= 1, got {m_max}")
    if tol is not None and not 0.0 <= tol < np.inf:
        raise ValidationError(f"tol must be finite and >= 0, got {tol}")


def _check_seed(seed):
    """Reject a seed outside [0, 2^64), the range of the sign stream's key."""
    if not 0 <= seed < 2**64:
        raise ValidationError(f"seed must be in [0, 2^64), got {seed}")


def _lagged(step, moved, lag, tol, m_max):
    """The lagged stopping loop over the orders m = 1, ..., m_max of a Krylov space.

    ``step(m)`` extends the space to order m and returns ``(value, grew)``:
    the projected quantity at order m, and whether the extension added a
    basis block. ``moved(value_m, value_{m-lag})`` returns the
    ``(change, size, floor)`` of the quantity, scalars or arrays of one
    entry per part. The loop stops at the first m > lag where every part is
    :func:`_settled` at ``tol``, a relative tolerance, or at the first order
    whose extension exhausted the space (the value is then exact); both
    count as converged. Otherwise it returns the value at ``m_max``
    unconverged. Returns ``(value, m, converged)``; ``lag`` and ``m_max``
    below 1, and a ``tol`` that is negative or not finite, raise
    ValidationError.
    """
    _check_controls(lag, tol, m_max)
    recent = deque(maxlen=lag)  # values at orders m - lag, ..., m - 1
    for m in range(1, m_max + 1):
        value, grew = step(m)
        if len(recent) == lag and np.all(_settled(*moved(value, recent[0]), tol)):
            return value, m, True
        if not grew:
            return value, m, True
        recent.append(value)
    return value, m_max, False


# ---------------------------------------------------------------------
# Tr(f(A+X)) - Tr(f(A))
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class TraceUpdateResult:
    delta: float
    iterations: int
    converged: bool
    drift: float  # max |entry| of the start projection below its first block, at the stop


def trace_fun_update(
    A, X: LowRankUpdate, f, lag=DEFAULT_LAG, tol=DEFAULT_TOL, m_max=DEFAULT_M_MAX
):
    """Tr(f(A+X)) - Tr(f(A)) from eigenvalues of the projected matrices.

    Uses the block Lanczos recurrence (two-term orthogonalization, only the
    last two blocks retained), so only the small projected eigenproblems are
    solved: Delta = sum f(eig(H_m + W B W^T)) - sum f(eig(H_m)). Runs the
    lagged stopping loop on the relative change
    ``|Delta_m - Delta_{m-lag}| <= tol * |Delta_m|``. A change at or below
    the rounding level of the difference, a small multiple of
    eps * (sum |f(eig(H_m + W B W^T))| + sum |f(eig(H_m))|), also stops it,
    so a Delta that is zero, such as that of a zero-delta X, stops at order
    lag + 1.

    The result's ``drift`` measures the recurrence's loss of orthogonality
    at the returned order: the largest |entry| of W below its first block,
    i.e. max |Q_j^T q| over the later basis blocks Q_j and the start
    columns q, which is zero in exact arithmetic.
    """
    kry = BlockKrylov(A, X.nodes, mode="lanczos")
    s = X.rank

    def step(m):
        _, grew = kry.reach(m)
        H = kry.projected()
        W = kry.start_projection()
        w_pert = np.linalg.eigvalsh(H + W @ X.B @ W.T)
        w_base = np.linalg.eigvalsh(H)
        f.check_spectrum(w_pert)
        f.check_spectrum(w_base)
        f_pert, f_base = f(w_pert), f(w_base)
        floor = _ROUNDING * (np.sum(np.abs(f_pert)) + np.sum(np.abs(f_base)))
        drift = float(np.max(np.abs(W[s:]), initial=0.0))
        return (float(np.sum(f_pert) - np.sum(f_base)), floor, drift), grew

    def moved(curr, prev):
        return abs(curr[0] - prev[0]), abs(curr[0]), curr[1]

    (delta, _, drift), m, converged = _lagged(step, moved, lag, tol, m_max)
    return TraceUpdateResult(delta, m, converged, drift)


# ---------------------------------------------------------------------
# Frechet derivatives along indicator directions
# ---------------------------------------------------------------------


@dataclass
class MultiFrechetResult:
    """Batched Frechet derivatives along 1_i 1_j^T for all (i, j) in an edge set.

    One Krylov basis per node, shared across incident edges; each edge core
    is frozen at its own first-converged order m_(i,j).
    """

    node_basis: dict
    cores: dict
    orders: dict
    iterations: int
    converged: bool
    pending: frozenset = field(default_factory=frozenset)

    def entry(self, pair, h, k):
        """Approximate (L_f(M, 1_i 1_j^T))_{hk} for pair = (i, j)."""
        i, j = pair
        core = self.cores[pair]
        mu, mv = core.shape
        return float(self.node_basis[i][h, :mu] @ core @ self.node_basis[j][k, :mv])

    def implied_matrix(self, pair):
        i, j = pair
        core = self.cores[pair]
        mu, mv = core.shape
        return self.node_basis[i][:, :mu] @ core @ self.node_basis[j][:, :mv].T


def multiple_frechet_eval(M, F, f, lag=DEFAULT_LAG, tol=1e-8, m_max=DEFAULT_M_MAX):
    """Frechet derivatives of f at M along 1_i 1_j^T for every (i, j) in F.

    Each core is the (1,2) block of f of the projected 2x2 block
    upper-triangular matrix, evaluated through divided differences, and
    runs the lagged stopping loop on its own, on the relative change
    ``||core_m - pad(core_{m-lag})||_2 <= tol * ||core_m||_2``; a change at
    the rounding level eps * max |f(w)| over the two projected spectra also
    stops it. Nodes appearing in several
    edges get a single Krylov basis, extended to the largest order any
    incident edge asks for; an edge reads the first m blocks of it. A
    diagonal direction (i, i) uses one basis for both sides.
    """
    F = list(dict.fromkeys(tuple(p) for p in F))
    if not F:
        raise ValidationError("edge set must be nonempty")
    nodes = sorted({v for p in F for v in p})
    kry = {v: BlockKrylov(M, [v], mode="arnoldi") for v in nodes}
    scales = {}  # (node, order) -> max |f| over the projected spectrum

    def scale(v, m):
        if (v, m) not in scales:
            w = np.linalg.eigvalsh(kry[v].projected(m))
            scales[(v, m)] = float(np.max(np.abs(f(w))))
        return scales[(v, m)]

    def moved(curr, prev):
        return _core_change(curr[0], prev[0]), np.linalg.norm(curr[0], 2), curr[1]

    cores, orders, pending = {}, {}, set()
    for i, j in F:
        ku, kv = kry[i], kry[j]

        def step(m):
            mu, grew_u = ku.reach(m)
            mv, grew_v = kv.reach(m)
            E = np.outer(ku.start_projection(mu)[:, 0], kv.start_projection(mv)[:, 0])
            core = matfun.block_frechet(f, ku.projected(mu), kv.projected(mv), E)
            return (core, _ROUNDING * max(scale(i, mu), scale(j, mv))), grew_u or grew_v

        (core, _), m, converged = _lagged(step, moved, lag, tol, m_max)
        cores[(i, j)] = core
        orders[(i, j)] = m
        if not converged:
            pending.add((i, j))
    return MultiFrechetResult(
        node_basis={v: kry[v].basis() for v in nodes},
        cores=cores,
        orders=orders,
        iterations=max(orders.values()),
        converged=not pending,
        pending=frozenset(pending),
    )


# ---------------------------------------------------------------------
# f(A) v, the Perron vector and stochastic trace estimation
# ---------------------------------------------------------------------


def _rowdot(X, Y):
    """Row-wise inner products of two (b, n) arrays, summed alike for every b.

    numpy's einsum sums a lone row longer than its buffer (8192 entries) in
    buffered pieces, and each of two or more rows in one pass, so a single
    row is summed as both rows of a two-row broadcast view.
    """
    if len(X) == 1:
        X, Y = (np.broadcast_to(Z, (2, Z.shape[1])) for Z in (X, Y))
        return np.einsum("ij,ij->i", X, Y)[:1]
    return np.einsum("ij,ij->i", X, Y)


# Row blocks of a lockstep batch (see _LanczosBatch).
_BATCH_BLOCKS = 4


class _LanczosBatch:
    """Independent single-vector Lanczos recurrences advanced in lockstep.

    Row c of the (b, n) start block runs its own recurrence; one step applies
    A to the newest vector of every active recurrence in a single product,
    ``g.matmul``. Each recurrence takes the steps of :class:`BlockKrylov` in
    Lanczos mode on a one-column start: two orthogonalization passes against
    the previous two basis vectors, and exhaustion once the new vector's norm
    is at most the deflation threshold. (One pass is cheaper, but it loses
    enough orthogonality on hub-heavy graphs that some probes stop
    converging.)
    Vectors are stored as rows, so that the per-vector inner products and
    updates run over contiguous memory. Only the previous two basis vectors
    are kept. No recurrence's arithmetic depends on the others in its batch,
    so a start vector gives the same digits alone or in any batch.

    The batch runs in ``_BATCH_BLOCKS`` = 4 (b, n) row blocks, the first
    4 b n entries of the flat float64 array ``work`` (allocated when not
    given), and allocates no block in a step. Three hold q_{s-1}, q_s and
    the next vector in turn; the next vector's block first holds the SpMM's
    input, A's rows being read once per step for every vector. The fourth
    holds the SpMM's output and then the products that the
    orthogonalization subtracts. The active recurrences are the first rows
    of each block; :meth:`drop` compacts the rows in place.
    """

    def __init__(self, g, starts, m_max, work=None):
        b, n = starts.shape
        if work is None:
            work = np.empty(_BATCH_BLOCKS * b * n)
        self._g = g
        self._thr = _deflation_tol(g)
        self.ids = np.arange(b)  # start-block row of each active recurrence
        blocks = work[: _BATCH_BLOCKS * b * n].reshape(_BATCH_BLOCKS, b, n)
        # q_s, q_{s-1} and where q_{s+1} is built, rotated by each step
        self._vecs = [blocks[0], blocks[1], blocks[2]]
        self._out = blocks[3].reshape(-1)
        np.copyto(blocks[0], starts)
        self.steps = 0
        # tridiagonal entries: alpha[c, s] = T[s, s], beta[c, s] = T[s+1, s]
        # (the residual norm) and gamma[c, s] = T[s-1, s] (an inner product)
        self.alpha = np.zeros((b, m_max))
        self.beta = np.zeros((b, m_max))
        self.gamma = np.zeros((b, m_max))

    @property
    def Q(self):
        """Newest basis vector q_s of each active recurrence, as rows of a view."""
        return self._vecs[0][: len(self.ids)]

    def step(self):
        """Advance every active recurrence by one basis vector.

        Returns a mask of the recurrences that grew; the others are exhausted
        and their current tridiagonal matrix is exact. The vectors q_s of the
        previous step are overwritten.
        """
        s, ids = self.steps, self.ids
        Q, P, W = (B[: len(ids)] for B in self._vecs)
        k, n = Q.shape
        X = W.reshape(n, k)  # the CSR kernel takes its vectors as columns
        np.copyto(X, Q.T)
        np.copyto(W, self._g.matmul(X, out=self._out[: k * n].reshape(n, k)).T)
        prod = self._out[: k * n].reshape(k, n)
        for _ in range(2):
            if s:
                c = _rowdot(P, W)
                W -= np.multiply(c[:, None], P, out=prod)
                self.gamma[ids, s] += c
            c = _rowdot(Q, W)
            W -= np.multiply(c[:, None], Q, out=prod)
            self.alpha[ids, s] += c
        beta = np.sqrt(_rowdot(W, W))
        self.beta[ids, s] = beta
        grew = beta > self._thr
        W /= np.where(grew, beta, 1.0)[:, None]
        q, p, w = self._vecs
        self._vecs = [w, q, p]
        self.steps = s + 1
        return grew

    def tridiagonal(self):
        """Symmetrized projected matrices T_m of the active recurrences, (b, m, m)."""
        m, ids = self.steps, self.ids
        T = np.zeros((len(ids), m, m))
        k = np.arange(m)
        T[:, k, k] = self.alpha[ids, :m]
        off = 0.5 * (self.beta[ids, : m - 1] + self.gamma[ids, 1:m])
        T[:, k[1:], k[:-1]] = off
        T[:, k[:-1], k[1:]] = off
        return T

    def drop(self, keep):
        """Retire the active recurrences where ``keep`` is False, moving the others' rows up."""
        for dst, src in enumerate(np.flatnonzero(keep)):
            if dst != src:
                for B in self._vecs[:2]:  # q_s and q_{s-1}; the third is rebuilt
                    B[dst] = B[src]
        self.ids = self.ids[keep]


def _lanczos_lockstep(A, f, V, lag=DEFAULT_LAG, tol=1e-8, m_max=80, work=None):
    """The quadratic forms v_c^T f(A) v_c of the columns of V.

    Column c runs the Lanczos method from v_c / ||v_c||, and its form at
    order m is ``||v_c||^2 e_1^T f(T_m) e_1``. It stops at the first order
    m > lag where ``|form_m - form_{m-lag}| <= max(tol * |form_m|, floor_m)``
    (:func:`_settled`), with floor_m = 100 eps ||v_c||^2 max |f(T_m)| the
    rounding level of the form, or when its Krylov space is exhausted (the
    form is then exact); zero columns give zero. The columns run in batches
    in the flat float64 array ``work``, as wide as the ``_BATCH_BLOCKS``
    (b, n) row blocks of :class:`_LanczosBatch` that it holds, and at most as
    wide as V (without ``work``, one batch of every column runs in a new
    array); in a batch, all columns advance together and each drops out when
    it stops. Raises ConvergenceError if a column of a batch is still moving
    after ``m_max`` steps, with the largest lagged change among that batch's
    such columns as the residual.
    """
    V = np.asarray(V, dtype=float)
    n, k = V.shape
    if work is None:
        work = np.empty(_BATCH_BLOCKS * n * k)
    elif work.size < _BATCH_BLOCKS * n:
        raise ValueError(f"a workspace of {work.size} entries holds no batch of order {n}")
    width = max(1, min(k, work.size // (_BATCH_BLOCKS * n)))
    forms = np.zeros(k)
    for c in range(0, k, width):
        forms[c : c + width] = _lockstep_batch(A, f, V[:, c : c + width], lag, tol, m_max, work)
    return forms


def _lockstep_batch(A, f, V, lag, tol, m_max, work):
    """:func:`_lanczos_lockstep` on one batch of columns."""
    run = _LanczosBatch(A, V.T, m_max, work)  # row c of run.Q is v_c
    sq = _rowdot(run.Q, run.Q)  # ||v_c||^2, summed alike in any batch
    if not sq.all():
        run.drop(sq > 0.0)
    X = run.Q
    X /= np.sqrt(sq[run.ids])[:, None]
    forms = np.zeros(len(sq))
    history = np.zeros((len(sq), m_max))  # form of each recurrence at each order
    while len(run.ids):
        grew = run.step()
        m, ids = run.steps, run.ids
        w, Z = np.linalg.eigh(run.tridiagonal())
        f.check_spectrum(w)
        fw = f(w)
        scale = sq[ids]
        form = scale * np.einsum("bj,bj->b", fw, Z[:, 0, :] ** 2)
        history[ids, m - 1] = form
        done = ~grew
        if m > lag:
            change = np.abs(form - history[ids, m - 1 - lag])
            floor = _ROUNDING * scale * np.max(np.abs(fw), axis=1)
            done |= _settled(change, np.abs(form), floor, tol)
        forms[ids[done]] = form[done]
        if m == m_max and not done.all():
            resid = float(np.max(change[~done])) if m > lag else None
            raise ConvergenceError(
                "Lanczos quadratic form of f did not converge", residual=resid, iterations=m_max
            )
        if done.any():
            run.drop(~done)
    return forms


def fun_action(A, f, v, lag=DEFAULT_LAG, tol=1e-8, m_max=80):
    """f(A) v for symmetric A via the Lanczos method.

    Runs the recurrence of :class:`_LanczosBatch` from v / ||v||, keeping its
    basis V_m, and the lagged stopping loop on the coefficient vector
    y_m = ||v|| f(T_m) e_1: it stops once ``||y_m - y_{m-lag}|| <= tol *
    ||y_m||``, or once that change is at the rounding level
    100 eps ||v|| max |f(T_m)|, and exhaustion of the Krylov space yields the
    exact result. Returns V_m y_m; a zero v gives zero. Raises
    ConvergenceError after ``m_max`` steps.
    """
    v = np.asarray(v, dtype=float).ravel()
    norm = float(np.sqrt(v @ v))
    if norm == 0.0:
        return np.zeros_like(v)
    run = _LanczosBatch(A, (v / norm)[None, :], m_max)
    basis = [run.Q[0].copy()]  # the batch reuses its blocks

    def step(m):
        grew = bool(run.step()[0])
        basis.append(run.Q[0].copy())
        w, Z = np.linalg.eigh(run.tridiagonal()[0])
        f.check_spectrum(w)
        fw = f(w)
        return (norm * (Z @ (fw * Z[0])), _ROUNDING * norm * float(np.max(np.abs(fw)))), grew

    def moved(curr, prev):
        change = curr[0].copy()
        change[: prev[0].size] -= prev[0]
        return np.linalg.norm(change), np.linalg.norm(curr[0]), curr[1]

    (y, _), m, converged = _lagged(step, moved, lag, tol, m_max)
    if not converged:
        raise ConvergenceError("Lanczos action of f did not converge", iterations=m_max)
    return np.column_stack(basis[:m]) @ y


def eigenvector_centrality(g, tol=1e-8) -> np.ndarray:
    """Perron eigenvector of the adjacency matrix, unit 2-norm, entrywise >= 0.

    Runs the recurrence of :class:`_LanczosBatch` from ones / sqrt(n) until
    the Ritz estimate beta_m |z_m| of the largest Ritz value theta is at most
    ``tol * theta``, a bound on the residual ||A x - theta x|| of the Ritz
    vector x, or until the space is exhausted and x is exact. A second run of
    the same recurrence sums x = sum_j z_j q_j; the result is |x| / ||x||.
    Raises ConvergenceError at order ``DEFAULT_M_MAX``, where a path of more
    than about 200 nodes is neither exhausted nor resolved.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    run = _LanczosBatch(g, np.full((1, g.n), 1.0 / np.sqrt(g.n)), DEFAULT_M_MAX)
    for m in range(DEFAULT_M_MAX):
        grew = run.step()[0]
        w, Z = np.linalg.eigh(run.tridiagonal()[0])
        z, estimate = Z[:, -1], run.beta[0, m] * abs(Z[-1, -1])
        if not grew or estimate <= tol * w[-1]:
            break
    else:
        raise ConvergenceError("Lanczos Perron vector did not converge", estimate / w[-1], m + 1)
    run = _LanczosBatch(g, np.full((1, g.n), 1.0 / np.sqrt(g.n)), m + 1)
    x = z[0] * run.Q[0]
    for zj in z[1:]:
        run.step()
        x += zj * run.Q[0]
    return np.abs(x) / np.linalg.norm(x)


@dataclass(frozen=True)
class TraceEstimate:
    value: float
    stderr: float  # of the residual term; None with a single residual probe
    sketch_rank: int  # columns of the sketch Q kept by its orthonormalization


# Rows of an n-row block that the estimate draws or projects at a time, so
# that those steps hold no second block of the full size.
_CHUNK_ROWS = 2**12

# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): its output i >= 1 from
# state k is mix(k + i * _GAMMA mod 2^64).
_GAMMA = 0x9E3779B97F4A7C15


def _splitmix64(key, start, stop):
    """Words ``start`` to ``stop - 1`` of the SplitMix64 stream from state ``key``; word w is output w + 1.

    Each word is computed from its counter alone, on a uint64 array, whose
    arithmetic wraps mod 2^64 without numpy's scalar overflow warning.
    """
    z = np.arange(start + 1, stop + 1, dtype=np.uint64)
    z *= _GAMMA
    z += np.uint64(key)
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    return z


def _rademacher(seed, S, stream=0):
    """Fill S, a C-contiguous float64 array, with signs of stream 0 or 1 of ``seed``.

    The signs are drawn by row chunks. Entry k of S in C order is +1 where
    bit k mod 64 of word k // 64 of the SplitMix64 stream from state
    seed + stream * 2^63 (mod 2^64) is set, and -1 where it is clear. Since
    2^63 times the generator's odd increment is 2^63 mod 2^64, stream 1 is
    the words of stream 0 from 2^63 on, so the two streams never meet. A
    sign depends only on the seed, the stream and k, so any shape with the
    same C-order entries and any chunking draw the same signs. Returns S.
    """
    key = (seed + stream * 2**63) % 2**64
    flat = S.reshape(-1)
    step = max(1, _CHUNK_ROWS * S[:1].size)  # entries in _CHUNK_ROWS rows
    for a in range(0, S.size, step):
        b = min(a + step, S.size)
        words = _splitmix64(key, a // 64, -(-b // 64)).astype("<u8", copy=False)
        bits = np.unpackbits(words.view(np.uint8), bitorder="little")
        np.multiply(bits[a % 64 : a % 64 + b - a], 2.0, out=flat[a:b])
        flat[a:b] -= 1.0
    return S


# Eigenvalues of the Gram matrix Y^T Y at or below this share of its largest
# are rounding, and their directions are dropped. On rank-2 adjacencies
# (stars and complete bipartite graphs, n = 300 to 2 * 10^5) the eigenvalues
# of the sketch's null directions were at most 6.3 eps times the largest; the
# floor drops the directions whose singular value is below 4.7e-7 times Y's
# largest.
_GRAM_FLOOR = 1e3 * np.finfo(float).eps


def _svqb(Y, out):
    """An orthonormal basis of the span of Y's columns, Y V Lambda^{-1/2}, from eigh(Y^T Y).

    The eigen-decomposition form of Cholesky QR (Stathopoulos & Wu, SISC
    2002): the eigenpairs of the Gram matrix above ``_GRAM_FLOOR`` times its
    largest eigenvalue are kept, so a rank-deficient Y gives fewer columns,
    and a zero Y none. One pass leaves an orthogonality error of about eps
    times the square of Y's kept condition number; a second pass on its
    result brings it to rounding (CholeskyQR2: Fukaya, Nakatsukasa,
    Yanagisawa & Yamamoto, ScalA 2014). Y is a C-contiguous (n, r) array.
    The (n, r') result is written by ``_CHUNK_ROWS`` row chunks into the
    first n r' entries of the flat array ``out``, which may be Y's own
    memory: row i of the result starts at or before row i of Y, so a chunk
    overwrites only rows of Y already read. No block of Y's size is made.
    """
    n = Y.shape[0]
    w, V = np.linalg.eigh(Y.T @ Y)
    keep = w > _GRAM_FLOOR * w.max(initial=0.0)
    T = V[:, keep] / np.sqrt(w[keep])
    r = T.shape[1]
    for a in range(0, n, _CHUNK_ROWS):
        b = min(a + _CHUNK_ROWS, n)
        out[a * r : b * r] = (Y[a:b] @ T).reshape(-1)
    return out[: n * r].reshape(n, r)


# Block power steps of the Hutch++ sketch Q = orth(A^SKETCH_POWER S). With 40
# probes and 8 steps, the standard error is that of an f(A) S sketch (within
# 4%) on the benchmark's 20000-node trees, and 2x to 5x larger (at most 5.2e-6
# of the trace) on its 2000-node Barabasi-Albert graphs. 4 steps gave 2x on a
# tree and 200x to 600x on a Barabasi-Albert graph; 12 or 16 steps lowered the
# latter's error by under 20%.
SKETCH_POWER = 8


def _sketch(A, seed, half, blocks):
    """The Hutch++ sketch Q = orth(A^SKETCH_POWER S) of a sign block S with ``half`` columns.

    ``blocks`` is a pair of flat float64 arrays of at least n * half entries
    each, and the sketch runs in them alone. S holds the signs of ``seed``'s
    stream 0 (see :func:`_rademacher`), drawn into the first. Each power
    step writes the product A Q into the second and orthonormalizes it by
    two :func:`_svqb` passes, the first in place and the second back into
    the first block, where Q stays. Q has at most ``half`` columns, fewer
    where A Q is rank-deficient; once it has none (A Q = 0), the steps end.
    With ``half >= n``, Q is the n x n identity, and no sign is drawn.
    Returns Q, a C-contiguous view of the first block.
    """
    first, second = blocks
    n = A.n
    if half >= n:
        Q = first[: n * n].reshape(n, n)
        Q.fill(0.0)
        first[: n * n : n + 1] = 1.0
        return Q
    Q = _rademacher(seed, first[: n * half].reshape(n, half))
    for _ in range(SKETCH_POWER):
        if not Q.shape[1]:
            break
        Y = A.matmul(Q, out=second[: Q.size].reshape(Q.shape))
        Q = _svqb(_svqb(Y, second), first)
    return Q


def _residual_probes(seed, Q, half, blocks):
    """``half`` sign probes projected off Q's span, Z - Q (Q^T Z), written over Q.

    Q is the sketch, a view of the first of the flat arrays ``blocks``. Z
    holds the signs of ``seed``'s stream 1 (see :func:`_rademacher`), drawn
    into the second. The projected probes replace Q in the first block, by
    ``_CHUNK_ROWS`` row chunks from the last: row i of the result starts at
    or after row i of Q, so a chunk overwrites only rows of Q already read.
    Returns them as an (n, half) view of the first block.
    """
    first, second = blocks
    n = Q.shape[0]
    Z = _rademacher(seed, second[: n * half].reshape(n, half), stream=1)
    C = Q.T @ Z
    P = first[: n * half].reshape(n, half)
    for a in reversed(range(0, n, _CHUNK_ROWS)):
        rows = slice(a, a + _CHUNK_ROWS)
        np.subtract(Z[rows], Q[rows] @ C, out=P[rows])
    return P


# Entries of a half of the probes, n * n_probes/2, up to which the estimate's
# kernel block holds one lockstep batch of the whole half. A make-ba graph
# (n = 2000, 20 probes a half: 40000 entries) runs each half in one batch in
# a 160000-entry kernel block; in 5-column batches its job's peak resident
# set was 0.6 MB lower, but the job took 0.46 s against 0.41 s (medians of
# 20 alternating runs, 2-core host), its more and shorter lockstep steps
# running beside the greedy. The break-tree graph (n = 20000: 400000
# entries) runs 5-column batches in a kernel block the size of a half.
_ONE_BATCH_HALF = 2**17


def estimate_trace_f(A, f, n_probes=40, seed=0):
    """Hutch++ estimate of Tr(f(A)) and its standard error.

    Half of the probes sketch the dominant eigenspace of A: a Rademacher
    block S goes through ``SKETCH_POWER`` steps of block power iteration,
    Q <- orth(A Q) by SVQB after each SpMM (Musco & Musco, NeurIPS 2015; see
    :func:`_sketch`). The other half estimate the residual trace of
    (I - QQ^T) f(A) (I - QQ^T).
    Hutch++ is unbiased for any Q drawn independently of the residual probes
    (Meyer, Musco, Musco & Woodruff, SOSA 2021); the sketch sets only the
    variance. A power sketch finds the eigenvalues of A of largest modulus,
    among them the largest ones, which dominate Tr(f(A)) for an increasing f
    such as exp. The estimate is exact whenever Q spans the whole space: when
    n <= n_probes/2, Q is the identity, since power steps would drop the null
    space of a singular A. The standard error is that of the residual term,
    the only random one: the sample standard deviation of the residual
    probes' quadratic forms divided by sqrt(n_probes/2) (None with a single
    residual probe). ``sketch_rank`` is the number of Q's columns: n when
    n <= n_probes/2, and otherwise below n_probes/2 where A^SKETCH_POWER S
    has lower rank, as when A's rank is below n_probes/2.

    The probes are signs from streams 0 (the sketch block S) and 1 (the
    residual probes) of the SplitMix64 generator keyed by ``seed``, an
    integer in [0, 2^64) (see :func:`_rademacher`). A sign depends on its
    position alone, so a seed gives the same digits at any batch or chunk
    size.

    Every phase runs in two blocks allocated once, at the start: the vector
    block of n * n_probes/2 entries and the kernel block of W >= n *
    n_probes/2 entries. The sketch's power steps alternate between them and
    leave Q in the vector block (:func:`_sketch`). The lockstep Lanczos
    kernel takes the quadratic forms of f(A) for the columns of Q in the
    kernel block, in batches of b = min(n_probes/2, W // 4n) columns (see
    :class:`_LanczosBatch`). The residual probes are drawn into the kernel
    block and projected off Q by row chunks into the vector block, over Q
    (:func:`_residual_probes`), and their forms run in the kernel block
    too. W is n * n_probes/2 (b = 5 for 40 probes), or 4 n n_probes/2, one
    batch of a whole half, while a half holds at most ``_ONE_BATCH_HALF``
    entries, and never below 4 n, one batch of one column. Each recurrence
    is independent of its batch, so the batch width changes no digit.
    """
    if n_probes < 2 or n_probes % 2:
        raise ValidationError("n_probes must be an even number >= 2")
    seed = operator.index(seed)
    _check_seed(seed)
    half = n_probes // 2
    n = A.n
    kernel = n * half * (_BATCH_BLOCKS if n * half <= _ONE_BATCH_HALF else 1)
    work = np.empty(n * half + max(kernel, _BATCH_BLOCKS * n))
    blocks = work[: n * half], work[n * half :]

    Q = _sketch(A, seed, half, blocks)
    top = _lanczos_lockstep(A, f, Q, work=blocks[1])
    Z = _residual_probes(seed, Q, half, blocks)
    resid = _lanczos_lockstep(A, f, Z, work=blocks[1])
    stderr = float(np.std(resid, ddof=1) / np.sqrt(half)) if half > 1 else None
    return TraceEstimate(sum(top.tolist()) + sum(resid.tolist()) / half, stderr, len(top))
