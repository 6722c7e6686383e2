"""Block Krylov machinery for low-rank matrix-function updates.

Provides incremental block Arnoldi/Lanczos factorizations and, on top of
them:

* ``fun_update``            -- factored approximation of f(A+X) - f(A)
* ``trace_fun_update``      -- Tr(f(A+X)) - Tr(f(A)) from projected eigenvalues
* ``frechet_eval``          -- factored derivative of f at M along a rank-one
                               indicator direction
* ``multiple_frechet_eval`` -- the same, batched over an edge set with shared
                               per-node bases
* ``fun_action``            -- f(A) v for a single vector
* ``estimate_trace_f``      -- Hutch++ stochastic estimate of Tr(f(A))

``fun_action`` and ``estimate_trace_f`` share one lockstep Lanczos kernel:
b independent single-vector recurrences advance together, with one CSR
SpMM over the active vectors per step, vector-wise recurrence updates and
a stacked ``eigh`` of the (b, m, m) tridiagonal matrices. The kernel stores
its vectors as the rows of (b, n) arrays, so the inner products and updates
of each recurrence run over contiguous memory; each SpMM transposes its
input and output. Each recurrence keeps its own lagged stopping test and
deflation test and leaves the batch when it stops. Only the two newest
basis vectors of each recurrence are kept: a batch of b vectors holds fewer
than ten n x b blocks of doubles at once, input, output and temporaries
included, instead of b bases of n x m. Quadratic forms v^T f(A) v, which
make up most of Hutch++, come straight from the tridiagonal matrices as
||v||^2 w^T f(T_m) w, w being the start vector in basis coordinates; the
vectors f(A) v are rebuilt by replaying the recurrences in a second pass.

All routines accept a :class:`fconn.graph.SparseSymGraph`, a scipy sparse
matrix or a dense ndarray as the large symmetric matrix. A graph supplies
its cached 1-norm for the deflation threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse

from . import matfun
from .errors import ConvergenceError, MemoryBudgetError, ValidationError

__all__ = [
    "LowRankUpdate",
    "BlockKrylov",
    "FunUpdateResult",
    "fun_update",
    "TraceUpdateResult",
    "trace_fun_update",
    "FrechetResult",
    "frechet_eval",
    "MultiFrechetResult",
    "multiple_frechet_eval",
    "fun_action",
    "estimate_trace_f",
]

DEFAULT_LAG = 2
DEFAULT_M_MAX = 100


def _as_matrix(A):
    """Accept a SparseSymGraph, scipy sparse matrix or ndarray."""
    adj = getattr(A, "adjacency", None)
    if adj is not None:
        return adj
    if scipy.sparse.issparse(A):
        return A
    return np.asarray(A, dtype=float)


def _deflation_tol(A):
    """Deflation threshold 1e-12 * max(1, ||A||_1).

    A :class:`fconn.graph.SparseSymGraph` supplies its cached 1-norm; other
    matrices get the exact max absolute column sum computed here.
    """
    norm = getattr(A, "norm1", None)
    if norm is None:
        M = _as_matrix(A)
        size = M.nnz if scipy.sparse.issparse(M) else M.size
        norm = float(np.max(np.abs(M).sum(axis=0))) if size else 0.0
    return 1e-12 * max(1.0, norm)


class LowRankUpdate:
    """Symmetric perturbation X = U B U^T with orthonormal-column U.

    Edge-based constructors place indicator vectors in U (exactly
    orthonormal) and the signed weight deltas in B, so a single-edge update
    ``from_edge(n, s, t, delta)`` reproduces X with X[s, t] = X[t, s] = delta
    and zeros elsewhere.
    """

    __slots__ = ("U", "B")

    def __init__(self, U, B, validate=True):
        U = np.ascontiguousarray(U, dtype=float)
        B = np.asarray(B, dtype=float)
        if U.ndim != 2 or B.shape != (U.shape[1], U.shape[1]):
            raise ValidationError("need U of shape (n, s) and B of shape (s, s)")
        if validate:
            s = U.shape[1]
            if np.linalg.norm(U.T @ U - np.eye(s)) > 1e-12:
                raise ValidationError("columns of U must be orthonormal")
            if np.linalg.norm(B - B.T) > 1e-12 * max(1.0, np.linalg.norm(B)):
                raise ValidationError("core B must be symmetric")
        self.U = U
        self.B = matfun.symmetrize(B)

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
        s = len(nodes)
        U = np.zeros((n, s))
        for v, a in pos.items():
            U[v, a] = 1.0
        B = np.zeros((s, s))
        seen = set()
        for i, j, d in deltas:
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValidationError(f"duplicate edge delta for {key}")
            seen.add(key)
            if i == j:
                B[pos[i], pos[i]] = d
            else:
                B[pos[i], pos[j]] = d
                B[pos[j], pos[i]] = d
        return cls(U, B, validate=False)

    @property
    def rank(self):
        return self.U.shape[1]

    def dense(self):
        return self.U @ self.B @ self.U.T

    def negated(self):
        return LowRankUpdate(self.U, -self.B, validate=False)


def _qr_deflate(V, thr):
    """Rank-revealing economic QR; columns with |R_ii| <= thr are deflated.

    Returns (Q, C) with V ~ Q @ C, Q having r <= V.shape[1] orthonormal
    columns. r may be zero.
    """
    Q, R, piv = scipy.linalg.qr(V, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    r = int(np.sum(diag > thr))
    Q = Q[:, :r]
    C = np.zeros((r, V.shape[1]))
    C[:, piv] = R[:r, :]
    return Q, C


class BlockKrylov:
    """Incrementally built block Krylov factorization A U_m = U_m H_m + residual.

    ``mode='arnoldi'`` fully reorthogonalizes each new block against the whole
    basis (the basis is always kept). ``mode='lanczos'`` uses the symmetric
    two-term recurrence plus one reorthogonalization pass against the previous
    two blocks; with ``keep_basis=False`` only those two blocks are stored.

    ``extend()`` orthogonalizes A times the newest block, filling one more
    block column of the projected matrix, and appends the next basis block.
    It returns False once the Krylov space is exhausted (new block deflates
    to nothing), in which case the factorization is exact. Rank-deficient
    blocks are handled by column deflation through pivoted QR.
    """

    def __init__(self, A, start, mode="arnoldi", keep_basis=True, deflation_tol=None):
        if deflation_tol is None:
            deflation_tol = _deflation_tol(A)
        A = _as_matrix(A)
        start = np.atleast_2d(np.asarray(start, dtype=float))
        if start.shape[0] == 1 and A.shape[0] != 1:
            start = start.T
        if A.shape[0] != A.shape[1] or start.shape[0] != A.shape[0]:
            raise ValidationError("matrix must be square and match the start block")
        if mode not in ("arnoldi", "lanczos"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode == "arnoldi" and not keep_basis:
            raise ValueError("arnoldi mode requires the full basis")
        self._A = A
        self._mode = mode
        self._keep = keep_basis
        self.n = A.shape[0]
        self._thr = deflation_tol
        self._start = start
        Q0, _ = _qr_deflate(start, 1e-14 * max(1.0, float(np.linalg.norm(start))))
        if Q0.shape[1] == 0:
            raise ValidationError("start block is numerically zero")
        self._blocks = [Q0] if keep_basis else None
        self._recent = [Q0]
        self._offsets = [0, Q0.shape[1]]
        self._H = np.zeros((Q0.shape[1], Q0.shape[1]))
        self._Wrows = [Q0.T @ start]
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
        U_last = self._recent[-1]
        V = self._A @ U_last
        if V.ndim == 1:
            V = V[:, None]
        V = np.asarray(V, dtype=float)
        col = slice(self._offsets[m], self._offsets[m + 1])
        if self._mode == "arnoldi":
            targets = list(enumerate(self._blocks))
            passes = 2
        else:
            lo = max(0, m - 1)
            targets = list(zip(range(lo, m + 1), self._recent[-2:]))
            passes = 2
        for _ in range(passes):
            for idx, blk in targets:
                C = blk.T @ V
                V -= blk @ C
                row = slice(self._offsets[idx], self._offsets[idx + 1])
                self._H[row, col] += C
        self.filled = m + 1
        Q, C = _qr_deflate(V, self._thr)
        if Q.shape[1] == 0:
            self._exhausted = True
            return False
        r = Q.shape[1]
        k = self.total_cols
        H = np.zeros((k + r, k + r))
        H[:k, :k] = self._H
        H[k : k + r, col] = C
        self._H = H
        self._offsets.append(k + r)
        if self._keep:
            self._blocks.append(Q)
        self._recent = [U_last, Q]
        self._Wrows.append(Q.T @ self._start)
        return True

    def projected(self, m=None):
        """Symmetric projected matrix over the first m filled block columns."""
        m = self.filled if m is None else m
        if m > self.filled:
            raise ValueError("factorization not yet filled to this order")
        k = self._offsets[min(m, len(self._offsets) - 1)]
        return matfun.symmetrize(self._H[:k, :k])

    def start_projection(self, m=None):
        """W_m: the basis applied to the original start block (k_m x s)."""
        m = self.filled if m is None else m
        k = self._offsets[min(m, len(self._offsets) - 1)]
        return np.vstack(self._Wrows)[:k, :]

    def basis(self, m=None):
        """Basis matrix with the first m blocks as columns (requires keep_basis)."""
        if not self._keep:
            raise ValueError("basis was not kept")
        m = self.filled if m is None else m
        k = self._offsets[min(m, len(self._offsets) - 1)]
        return np.hstack(self._blocks)[:, :k]

    def basis_row(self, i, m=None):
        """Row i of the basis matrix (cheap way to project indicator vectors)."""
        return self.basis(m)[i, :]


def _pad_diff(curr, prev):
    d = curr.copy()
    d[: prev.shape[0], : prev.shape[1]] -= prev
    return d


# ---------------------------------------------------------------------
# f(A+X) - f(A)
# ---------------------------------------------------------------------


@dataclass
class FunUpdateResult:
    """Factored approximation f(A+X) - f(A) ~ basis @ core @ basis.T."""

    basis: np.ndarray
    core: np.ndarray
    iterations: int
    converged: bool

    def implied_matrix(self):
        return self.basis @ self.core @ self.basis.T

    def entry(self, i, j):
        return float(self.basis[i, :] @ self.core @ self.basis[j, :])

    def trace(self):
        return float(np.trace(self.core))


def fun_update(A, X: LowRankUpdate, f, lag=DEFAULT_LAG, tol=1e-6, m_max=DEFAULT_M_MAX):
    """Low-rank approximation of f(A+X) - f(A) by block Arnoldi projection.

    Iterates until the lagged stopping test
    ``||core_m - pad(core_{m-lag})||_2 <= tol`` fires, the Krylov space is
    exhausted (result exact, converged=True), or ``m_max`` is hit
    (converged=False). Exact at order m for polynomials of degree <= m - 1.
    """
    kry = BlockKrylov(A, X.U, mode="arnoldi", keep_basis=True)
    history = {}
    for m in range(1, m_max + 1):
        grew = kry.extend()
        H = kry.projected(m)
        W = kry.start_projection(m)
        core = matfun.apply_fun_sym(f, H + W @ X.B @ W.T) - matfun.apply_fun_sym(f, H)
        if m > lag and np.linalg.norm(_pad_diff(core, history[m - lag]), 2) <= tol:
            return FunUpdateResult(kry.basis(m), core, m, True)
        history[m] = core
        if not grew:
            return FunUpdateResult(kry.basis(m), core, m, True)
    return FunUpdateResult(kry.basis(m_max), history[m_max], m_max, False)


# ---------------------------------------------------------------------
# Tr(f(A+X)) - Tr(f(A))
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class TraceUpdateResult:
    delta: float
    iterations: int
    converged: bool


def trace_fun_update(
    A,
    X: LowRankUpdate,
    f,
    lag=DEFAULT_LAG,
    tol=1e-6,
    m_max=DEFAULT_M_MAX,
    m_fixed=None,
):
    """Tr(f(A+X)) - Tr(f(A)) from eigenvalues of the projected matrices.

    Uses the block Lanczos recurrence (two-term orthogonalization, only the
    last two blocks retained), so only the small projected eigenproblems are
    solved: Delta = sum f(eig(H_m + W B W^T)) - sum f(eig(H_m)). Stops on
    ``|Delta_m - Delta_{m-lag}| < tol``.

    ``m_fixed`` requests a fixed-order evaluation: exactly that many Lanczos
    steps (fewer on exhaustion) with a single evaluation at the end and no
    stopping tests.
    """
    kry = BlockKrylov(A, X.U, mode="lanczos", keep_basis=False)

    def evaluate(m):
        H = kry.projected(m)
        W = kry.start_projection(m)
        w_pert = np.linalg.eigvalsh(H + W @ X.B @ W.T)
        w_base = np.linalg.eigvalsh(H)
        f.check_spectrum(w_pert)
        f.check_spectrum(w_base)
        return float(np.sum(f(w_pert)) - np.sum(f(w_base)))

    if m_fixed is not None:
        for _ in range(m_fixed):
            if not kry.extend():
                break
        m = kry.filled
        return TraceUpdateResult(evaluate(m), m, True)

    history = {}
    for m in range(1, m_max + 1):
        grew = kry.extend()
        delta = evaluate(m)
        if m > lag and abs(delta - history[m - lag]) < tol:
            return TraceUpdateResult(delta, m, True)
        history[m] = delta
        if not grew:
            return TraceUpdateResult(delta, m, True)
    return TraceUpdateResult(history[m_max], m_max, False)


# ---------------------------------------------------------------------
# Frechet derivative along indicator directions
# ---------------------------------------------------------------------


@dataclass
class FrechetResult:
    """L_f(M, 1_i 1_j^T) ~ left_basis @ core @ right_basis.T."""

    left_basis: np.ndarray
    right_basis: np.ndarray
    core: np.ndarray
    iterations: int
    converged: bool

    def implied_matrix(self):
        return self.left_basis @ self.core @ self.right_basis.T

    def entry(self, h, k):
        return float(self.left_basis[h, :] @ self.core @ self.right_basis[k, :])


def _indicator(n, i):
    e = np.zeros((n, 1))
    e[i, 0] = 1.0
    return e


def frechet_eval(M, i, j, f, lag=DEFAULT_LAG, tol=1e-8, m_max=DEFAULT_M_MAX):
    """Derivative of f at symmetric M along 1_i 1_j^T, in factored form.

    Builds Krylov spaces for (M, 1_i) and (M, 1_j); the core is the (1,2)
    block of f of the projected 2x2 block upper-triangular matrix, evaluated
    through divided differences. ``i == j`` (diagonal direction) shares a
    single basis.
    """
    thr = _deflation_tol(M)
    M = _as_matrix(M)
    n = M.shape[0]
    ku = BlockKrylov(M, _indicator(n, i), mode="arnoldi", deflation_tol=thr)
    kv = ku if i == j else BlockKrylov(M, _indicator(n, j), mode="arnoldi", deflation_tol=thr)
    history = {}
    for m in range(1, m_max + 1):
        grew = ku.extend()
        if kv is not ku:
            grew = kv.extend() or grew
        H = ku.projected()
        G = kv.projected()
        E = np.outer(ku.basis_row(i), kv.basis_row(j))
        core = matfun.block_frechet(f, H, G, E)
        if m > lag and np.linalg.norm(_pad_diff(core, history[m - lag]), 2) <= tol:
            return FrechetResult(ku.basis(), kv.basis(), core, m, True)
        history[m] = core
        if not grew:
            return FrechetResult(ku.basis(), kv.basis(), core, m, True)
    return FrechetResult(ku.basis(), kv.basis(), history[m_max], m_max, False)


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


def multiple_frechet_eval(
    M, F, f, lag=DEFAULT_LAG, tol=1e-8, m_max=DEFAULT_M_MAX, max_floats=2**27
):
    """Frechet derivatives of f at M along 1_i 1_j^T for every (i, j) in F.

    Nodes appearing in several edges get a single Krylov basis, extended while
    any incident edge is unconverged. Raises MemoryBudgetError when storing
    the bases would exceed ``max_floats`` doubles.
    """
    F = list(dict.fromkeys(tuple(p) for p in F))
    if not F:
        raise ValidationError("edge set must be nonempty")
    thr = _deflation_tol(M)
    M = _as_matrix(M)
    n = M.shape[0]
    nodes = sorted({v for p in F for v in p})
    if n * len(nodes) > max_floats:
        raise MemoryBudgetError(
            f"{len(nodes)} bases of length {n} exceed the budget of {max_floats} floats"
        )
    kry = {v: BlockKrylov(M, _indicator(n, v), mode="arnoldi", deflation_tol=thr) for v in nodes}
    pending = set(F)
    cores, orders = {}, {}
    history = {p: {} for p in F}
    m = 0
    while pending and m < m_max:
        active = sorted({v for p in pending for v in p})
        total = sum(kry[v].total_cols for v in nodes)
        if n * (total + len(active)) > max_floats:
            raise MemoryBudgetError(
                f"extending {len(active)} bases would exceed the budget of {max_floats} floats"
            )
        grew = {v: kry[v].extend() for v in active}
        m += 1
        for pair in sorted(pending):
            i, j = pair
            ku, kv = kry[i], kry[j]
            E = np.outer(ku.basis_row(i), kv.basis_row(j))
            core = matfun.block_frechet(f, ku.projected(), kv.projected(), E)
            done = False
            if m > lag:
                prev = history[pair][m - lag]
                done = np.linalg.norm(_pad_diff(core, prev), 2) <= tol
            if not done and not grew[i] and not grew[j]:
                done = True  # both spaces exhausted: core is exact
            if done:
                cores[pair] = core
                orders[pair] = m
                pending.discard(pair)
            else:
                history[pair][m] = core
    converged = not pending
    for pair in sorted(pending):
        cores[pair] = history[pair][m]
        orders[pair] = m
    return MultiFrechetResult(
        node_basis={v: kry[v].basis() for v in nodes},
        cores=cores,
        orders=orders,
        iterations=m,
        converged=converged,
        pending=frozenset(pending),
    )


# ---------------------------------------------------------------------
# f(A) v and stochastic trace estimation
# ---------------------------------------------------------------------


def _rowdot(X, Y):
    """Row-wise inner products of two (b, n) arrays."""
    return np.einsum("ij,ij->i", X, Y)


class _LanczosBatch:
    """Independent single-vector Lanczos recurrences advanced in lockstep.

    Row c of the (b, n) start block runs its own recurrence; one step applies
    A to the newest vector of every active recurrence in a single SpMM. Each
    recurrence takes the steps of :class:`BlockKrylov` in Lanczos mode on a
    one-column start: two orthogonalization passes against the previous two
    basis vectors, and exhaustion once the new vector's norm is at most the
    deflation threshold. (One pass is cheaper, but it loses enough
    orthogonality on hub-heavy graphs that some probes stop converging.)
    Vectors are stored as rows, so that the per-vector inner products and
    updates run over contiguous memory. Only the previous two basis vectors
    are kept. Replaying the same start block with the same :meth:`drop`
    calls repeats the arithmetic exactly, which lets a second pass rebuild
    the basis.
    """

    def __init__(self, A, starts, thr, m_max):
        b = starts.shape[0]
        self._A = A
        self._thr = thr
        self.ids = np.arange(b)  # start-block row of each active recurrence
        self.Q = starts  # newest basis vector q_s of each active recurrence (never written)
        self._P = np.zeros_like(starts)  # q_{s-1}
        self.steps = 0
        # tridiagonal entries: alpha[c, s] = T[s, s], beta[c, s] = T[s+1, s]
        # (the residual norm) and gamma[c, s] = T[s-1, s] (an inner product)
        self.alpha = np.zeros((b, m_max))
        self.beta = np.zeros((b, m_max))
        self.gamma = np.zeros((b, m_max))

    def step(self):
        """Advance every active recurrence by one basis vector.

        Returns a mask of the recurrences that grew; the others are exhausted
        and their current tridiagonal matrix is exact.
        """
        s, ids = self.steps, self.ids
        W = np.ascontiguousarray((self._A @ self.Q.T).T, dtype=float)
        for _ in range(2):
            if s:
                c = _rowdot(self._P, W)
                W -= c[:, None] * self._P
                self.gamma[ids, s] += c
            c = _rowdot(self.Q, W)
            W -= c[:, None] * self.Q
            self.alpha[ids, s] += c
        beta = np.sqrt(_rowdot(W, W))
        self.beta[ids, s] = beta
        grew = beta > self._thr
        W /= np.where(grew, beta, 1.0)[:, None]
        self._P, self.Q = self.Q, W
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
        """Retire the active recurrences where ``keep`` is False."""
        self.ids = self.ids[keep]
        self.Q = self.Q[keep]
        self._P = self._P[keep]


def _lanczos_lockstep(A, f, V, quadratic, lag=DEFAULT_LAG, tol=1e-8, m_max=80):
    """f(A) V column by column, or the quadratic forms v_c^T f(A) v_c.

    Column c runs the Lanczos method from v_c / ||v_c|| and stops at the
    first order m where the lagged change of its coefficient vector
    satisfies ``||y_m - y_{m-lag}|| <= tol * ||y_m||``, or when its Krylov
    space is exhausted (the result is then exact); zero columns give zero.
    All columns advance together and each drops out when it stops.

    With ``quadratic`` the result is ``||v||^2 w^T f(T_m) w``, with w the
    basis coordinates of the start vector, and needs no basis. Otherwise a
    second pass replays the recurrences to sum the basis vectors with their
    coefficients, so memory stays at a few (n, b) blocks instead of b bases.
    Raises ConvergenceError if any column is still moving after ``m_max``
    steps.
    """
    thr = _deflation_tol(A)
    A = _as_matrix(A)
    V = np.asarray(V, dtype=float)
    b = V.shape[1]
    norms = np.sqrt(np.einsum("ij,ij->j", V, V))
    live = norms > 0.0
    cols = np.flatnonzero(live)  # column of V of each recurrence
    starts = V[:, cols].T / norms[cols, None]
    coef = np.zeros((b, m_max))  # final coefficient vectors, zero-padded
    orders = np.zeros(b, dtype=int)
    proj = np.zeros((b, m_max + 1))  # start vector in basis coordinates
    run = _LanczosBatch(A, starts, thr, m_max)
    proj[cols, 0] = _rowdot(run.Q, starts)
    history = {}
    while len(run.ids):
        m = run.steps + 1
        if m > m_max:
            resid = None
            if m_max - 1 in history:
                moved = history[m_max][cols[run.ids]] - history[m_max - 1][cols[run.ids]]
                resid = float(np.max(np.linalg.norm(moved, axis=1)))
            raise ConvergenceError(
                "Lanczos action of f did not converge", residual=resid, iterations=m_max
            )
        grew = run.step()
        w, Z = np.linalg.eigh(run.tridiagonal())
        f.check_spectrum(w)
        act = cols[run.ids]
        y = np.einsum("bkj,bj->bk", Z, f(w) * np.einsum("bkj,bk->bj", Z, proj[act, :m]))
        y *= norms[act, None]
        padded = np.zeros((b, m_max))
        padded[act, :m] = y
        history[m] = padded
        history.pop(m - max(lag, 1) - 1, None)
        done = ~grew
        if m > lag:
            moved = np.linalg.norm(y - history[m - lag][act, :m], axis=1)
            done |= moved <= tol * np.maximum(np.linalg.norm(y, axis=1), 1e-300)
        coef[act[done]] = padded[act[done]]
        orders[act[done]] = m
        if done.any():
            run.drop(~done)
            starts = starts[~done]
        proj[cols[run.ids], m] = _rowdot(run.Q, starts)

    if quadratic:
        return norms * np.einsum("bk,bk->b", coef, proj[:, :m_max])
    out = np.zeros_like(V)
    run = _LanczosBatch(A, V[:, cols].T / norms[cols, None], thr, m_max)
    acc = np.zeros_like(run.Q)
    while len(run.ids):
        acc += coef[cols[run.ids], run.steps][:, None] * run.Q
        run.step()
        keep = orders[cols[run.ids]] > run.steps
        if not keep.all():
            out[:, cols[run.ids[~keep]]] = acc[~keep].T
            run.drop(keep)
            acc = acc[keep]
    return out


def fun_action(A, f, v, lag=DEFAULT_LAG, tol=1e-8, m_max=80):
    """f(A) v for symmetric A via the Lanczos method.

    Stops when the lagged change ||y_m - y_{m-lag}|| <= tol * ||y_m||;
    exhaustion of the Krylov space yields the exact result. Raises
    ConvergenceError after ``m_max`` steps.
    """
    v = np.asarray(v, dtype=float).ravel()
    out = _lanczos_lockstep(A, f, v[:, None], quadratic=False, lag=lag, tol=tol, m_max=m_max)
    return out[:, 0]


def estimate_trace_f(A, f, n_probes=40, seed=0, action_tol=1e-8, action_m_max=80):
    """Hutch++ estimate of Tr(f(A)).

    Half of the probes sketch the range of f(A) (Rademacher draws pushed
    through f(A), orthonormalized into Q); the other half estimate the
    residual trace of (I - QQ^T) f(A) (I - QQ^T). The estimate is exact
    whenever Q captures the whole range of f(A), e.g. when n <= n_probes/2.

    Two lockstep Lanczos calls do the work: f(A) S for the sketch block S,
    then the quadratic forms of f(A) for the columns of Q and of the
    projected residual probes together.
    """
    n = _as_matrix(A).shape[0]
    if n_probes < 2 or n_probes % 2:
        raise ValidationError("n_probes must be an even number >= 2")
    rng = np.random.default_rng(seed)
    half = n_probes // 2
    opts = dict(tol=action_tol, m_max=action_m_max)

    S = rng.integers(0, 2, size=(n, half)) * 2.0 - 1.0
    Q, _ = np.linalg.qr(_lanczos_lockstep(A, f, S, quadratic=False, **opts))
    del S
    Z = rng.integers(0, 2, size=(n, half)) * 2.0 - 1.0
    Z -= Q @ (Q.T @ Z)
    k = Q.shape[1]
    probes = np.hstack([Q, Z])
    del Q, Z
    forms = _lanczos_lockstep(A, f, probes, quadratic=True, **opts)
    return sum(forms[:k].tolist()) + sum(forms[k:].tolist()) / half
