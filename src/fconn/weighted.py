"""Continuous weight optimization over a selected edge set.

Given a set F of modifiable (or insertable) edges with box bounds
``l_ij <= x_ij <= U_ij`` and a cumulative budget ``sum |x_ij| <= k``, these
routines maximize (or, for downgrading, minimize) the trace variation
``phi(x) = Tr(f(A+X)) - Tr(f(A))`` with a log-barrier interior-point method.
Inner solves use either L-BFGS or a damped Newton step with the exact
Krylov-projected Hessian.

The budget constraint is linearized by splitting each variable into
nonnegative increase/decrease parts, so every constraint admits a log
barrier; see :class:`SplitVariables`.
"""

from __future__ import annotations

import enum
import time
import warnings
from collections import deque
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse

from . import matfun
from .errors import ExhaustedSearchSpaceError, ValidationError
from .graph import (
    CentralityRanking,
    Ordering,
    SparseSymGraph,
    eigenvector_centrality,
    normalize_pair,
    top_edges,
    top_missing_pairs,
)
from .krylov import (
    BlockKrylov,
    LowRankUpdate,
    fun_action,
    multiple_frechet_eval,
    trace_fun_update,
)

__all__ = [
    "WeightedMode",
    "WeightedProblem",
    "SplitVariables",
    "BarrierConfig",
    "SolveReport",
    "objective",
    "entry_gradient_cache",
    "gradient",
    "hessian",
    "interior_point_solve",
    "CandidateMode",
    "select_candidates",
]

KRYLOV_TOL = 1e-8  # gradient/Hessian-grade Krylov tolerance


class WeightedMode(enum.Enum):
    DOWNGRADE = "downgrade"  # decrease weights of existing edges (minimize)
    ADD = "add"              # put weight on missing edges (maximize)
    TUNE = "tune"            # move weights of existing edges both ways (maximize)
    REWIRE = "rewire"        # tune existing and add new edges at once (maximize)

    @property
    def maximize(self):
        return self is not WeightedMode.DOWNGRADE


@dataclass(frozen=True)
class WeightedProblem:
    """Objective/constraint bundle: graph, function, edge set F and box bounds."""

    graph: SparseSymGraph
    f: object
    mode: WeightedMode
    F: tuple
    lower: np.ndarray
    upper: np.ndarray
    budget: float

    @property
    def n_F(self):
        return len(self.F)

    @property
    def index(self):
        return {pair: h for h, pair in enumerate(self.F)}

    @classmethod
    def build(cls, graph, F, mode, budget, f, upper=None):
        """Assemble bounds for the given mode.

        ``upper`` is a scalar or per-edge array of weight caps for the modes
        that increase weights; by default the largest existing edge weight is
        used (a new or tuned edge may not exceed the strongest initial tie).
        """
        if budget <= 0:
            raise ValidationError("budget must be positive")
        pairs = []
        seen = set()
        for p in F:
            p = normalize_pair(*p)
            if p in seen:
                raise ValidationError(f"duplicate edge {p} in F")
            seen.add(p)
            pairs.append(p)
        if not pairs:
            raise ValidationError("edge set F must be nonempty")
        w = np.array([graph.weight(i, j) for i, j in pairs])
        exists = w > 0
        if mode in (WeightedMode.DOWNGRADE, WeightedMode.TUNE) and not exists.all():
            raise ValidationError(f"{mode.value} requires existing edges only")
        if mode is WeightedMode.ADD and exists.any():
            raise ValidationError("add requires missing edges only")
        if upper is None:
            upper = float(graph.edge_arrays[2].max()) if graph.num_edges else 1.0
        ub = np.broadcast_to(np.asarray(upper, dtype=float), (len(pairs),)).astype(float).copy()
        if mode is WeightedMode.DOWNGRADE:
            ub = np.zeros(len(pairs))
        lb = np.where(exists, -w, 0.0)
        if mode is WeightedMode.ADD:
            lb = np.zeros(len(pairs))
        if np.any(lb > 0) or np.any(ub < 0):
            raise ValidationError("bounds must satisfy l <= 0 <= U")
        if np.any((ub - lb) <= 0):
            raise ValidationError("every edge needs a nonempty modification range")
        return cls(graph, f, mode, tuple(pairs), lb, ub, float(budget))

    def __post_init__(self):
        object.__setattr__(self, "lower", np.asarray(self.lower, dtype=float))
        object.__setattr__(self, "upper", np.asarray(self.upper, dtype=float))


@dataclass(frozen=True)
class SplitVariables:
    """Nonnegative split x = p - q with budget slack s = k - sum(p + q).

    In the barrier phase all of p, q (where present) and s stay strictly
    positive; since sum|p - q| <= sum(p + q), any interior iterate satisfies
    the budget strictly.
    """

    p: np.ndarray
    q: np.ndarray
    slack: float

    @property
    def x(self):
        return self.p - self.q


def _update_from_x(prob: WeightedProblem, x):
    return LowRankUpdate.from_edge_deltas(
        prob.graph.n, [(i, j, x[h]) for h, (i, j) in enumerate(prob.F)]
    )


def objective(prob: WeightedProblem, x) -> float:
    """phi(x) = Tr(f(A+X)) - Tr(f(A)) for the edge-delta vector x."""
    x = np.asarray(x, dtype=float)
    res = trace_fun_update(prob.graph, _update_from_x(prob, x), prob.f, tol=KRYLOV_TOL)
    return res.delta


def entry_gradient_cache(prob: WeightedProblem, tol=KRYLOV_TOL, m_max=80) -> dict:
    """f'(A)_ij for every (i, j) in F, one Lanczos column per node of V(F)."""
    return _entry_values(prob.graph, prob.f.derivative(), prob.F, tol=tol, m_max=m_max)


def _entry_values(graph, fn, pairs, tol=KRYLOV_TOL, m_max=80):
    nodes = sorted({v for p in pairs for v in p})
    cols = {}
    for v in nodes:
        e = np.zeros(graph.n)
        e[v] = 1.0
        cols[v] = fun_action(graph, fn, e, tol=tol, m_max=m_max)
    return {(i, j): 0.5 * (cols[j][i] + cols[i][j]) for i, j in pairs}


def _phi_and_grad(prob, x, cache, lag=2, tol=KRYLOV_TOL, m_max=100):
    """Objective and gradient from a single Krylov subspace.

    The projection space of f(A+X) - f(A) depends only on (A, X), so the
    cores for f (whose trace is the objective) and for f' (whose entries
    feed the gradient 2(f'(A)_ij + Delta_ij)) are evaluated on one basis;
    for f = exp the two cores coincide.
    """
    x = np.asarray(x, dtype=float)
    X = _update_from_x(prob, x)
    f = prob.f
    fp = f.derivative()
    shared = fp is f
    kry = BlockKrylov(prob.graph, X.U, mode="arnoldi", keep_basis=True)
    hist_o, hist_g = {}, {}
    core_obj = core_grad = None
    m = 0
    for m in range(1, m_max + 1):
        grew = kry.extend()
        H = kry.projected(m)
        W = kry.start_projection(m)
        w0, Q0 = matfun.sym_eig(H)
        w1, Q1 = matfun.sym_eig(H + W @ X.B @ W.T)
        for fn in (f, fp):
            fn.check_spectrum(w0)
            fn.check_spectrum(w1)
        core_obj = (Q1 * f(w1)) @ Q1.T - (Q0 * f(w0)) @ Q0.T
        core_grad = core_obj if shared else (Q1 * fp(w1)) @ Q1.T - (Q0 * fp(w0)) @ Q0.T
        if m > lag:
            do = np.linalg.norm(_pad(core_obj, hist_o[m - lag]), 2)
            dg = do if shared else np.linalg.norm(_pad(core_grad, hist_g[m - lag]), 2)
            if max(do, dg) <= tol:
                break
        hist_o[m] = core_obj
        hist_g[m] = core_grad
        if not grew:
            break
    phi = float(np.trace(core_obj))
    basis = kry.basis(m)
    grad = np.empty(prob.n_F)
    for h, (i, j) in enumerate(prob.F):
        grad[h] = 2.0 * (cache[(i, j)] + basis[i, :] @ core_grad @ basis[j, :])
    return phi, grad, m


def _pad(curr, prev):
    d = curr.copy()
    d[: prev.shape[0], : prev.shape[1]] -= prev
    return d


def gradient(prob: WeightedProblem, x, cache=None) -> np.ndarray:
    """Gradient of phi: component ind(i,j) equals 2 f'(A+X)_ij.

    Assembled as 2 (f'(A)_ij + Delta_ij) where Delta is the factored update
    of f'(A+X) - f'(A) and the cache holds the base entries f'(A)_ij.
    """
    if cache is None:
        cache = entry_gradient_cache(prob)
    _, grad, _ = _phi_and_grad(prob, x, cache)
    return grad


def hessian(prob: WeightedProblem, x, symmetrize=True, max_floats=2**27) -> np.ndarray:
    """Hessian of phi over the edge deltas, from batched Frechet derivatives.

    Each variable perturbs A by the symmetric pair 1_i 1_j^T + 1_j 1_i^T, so

        H[ind(i,j), ind(h,k)] = 2 [(L_{f'}(A+X, 1_i 1_j^T))_{hk}
                                   + (L_{f'}(A+X, 1_i 1_j^T))_{kh}],

    both terms read off one factored core per edge of F. In exact arithmetic
    H is symmetric; the Krylov projection perturbs the two index orders by
    O(tol), so the result is symmetrized by averaging unless
    ``symmetrize=False``.
    """
    x = np.asarray(x, dtype=float)
    M = prob.graph.adjacency + _sparse_update(prob, x)
    res = multiple_frechet_eval(
        M, prob.F, prob.f.derivative(), tol=KRYLOV_TOL, max_floats=max_floats
    )
    nf = prob.n_F
    H = np.empty((nf, nf))
    for a, pair in enumerate(prob.F):
        for b, (h, k) in enumerate(prob.F):
            H[a, b] = 2.0 * (res.entry(pair, h, k) + res.entry(pair, k, h))
    return 0.5 * (H + H.T) if symmetrize else H


def _sparse_update(prob, x):
    rows, cols, vals = [], [], []
    for h, (i, j) in enumerate(prob.F):
        if x[h] != 0.0:
            rows += [i, j]
            cols += [j, i]
            vals += [x[h], x[h]]
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(prob.graph.n,) * 2)


# ---------------------------------------------------------------------
# Barrier interior-point solver
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class BarrierConfig:
    """Schedule and line-search constants for the interior-point loop.

    ``mu0=None`` picks max(1, |phi(x0)|, ||grad phi(x0)||_inf k) / n_F, which
    balances the objective pull against the barrier at the starting point (the
    start sits near x = 0 where phi itself is tiny but its gradient need not
    be). The barrier weight shrinks by ``shrink`` after every inner solve and
    the outer loop stops once it falls below ``outer_tol``; each inner solve
    runs until the barrier-gradient norm drops under max(inner_tol, 0.1 mu).
    """

    mu0: float = None
    shrink: float = 10.0
    outer_tol: float = 1e-8
    inner_tol: float = 1e-6
    max_outer: int = 30
    max_inner: int = 200
    armijo_c: float = 1e-4
    backtrack: float = 0.5
    max_backtracks: int = 40
    history: int = 10


@dataclass
class SolveReport:
    objective: float
    inner_iterations: int
    outer_iterations: int
    converged: bool
    wall_time: float
    outer_objectives: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)


class LbfgsState:
    """Two-loop recursion over at most ``history`` curvature pairs.

    Pairs with nonpositive s.y are discarded; the inverse-Hessian seed is
    gamma I with gamma = s.y / y.y from the newest retained pair.
    """

    def __init__(self, history=10):
        self.pairs = deque(maxlen=history)
        self.gamma = None

    def push(self, s, y):
        sy = float(s @ y)
        if sy > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
            self.pairs.append((s, y, 1.0 / sy))
            self.gamma = sy / float(y @ y)

    def reset(self):
        self.pairs.clear()
        self.gamma = None

    def direction(self, g):
        if not self.pairs:
            # normalized steepest-descent seed: unit first trial step
            return -g / max(1.0, float(np.linalg.norm(g)))
        q = g.copy()
        alphas = []
        for s, y, rho in reversed(self.pairs):
            a = rho * float(s @ q)
            alphas.append(a)
            q -= a * y
        q *= self.gamma
        for (s, y, rho), a in zip(self.pairs, reversed(alphas)):
            b = rho * float(y @ q)
            q += (a - b) * s
        return -q


class _BarrierProblem:
    """Split-variable barrier reformulation of a WeightedProblem.

    Sides: one nonnegative variable per admissible direction of each edge
    (increase where U > 0, decrease where l < 0), x = S z. Barriers: log z on
    every side, log(U - x) on edges that can increase, log(x - l) on edges
    that can decrease (skipping the ones that would duplicate a side
    positivity term), and log of the budget slack k - sum(z).
    """

    def __init__(self, prob: WeightedProblem, cache, krylov_tol=KRYLOV_TOL):
        self.prob = prob
        self.cache = cache
        self.krylov_tol = krylov_tol
        self.sign = -1.0 if prob.mode.maximize else 1.0
        sides = []
        for h in range(prob.n_F):
            if prob.upper[h] > 0:
                sides.append((h, +1.0))
            if prob.lower[h] < 0:
                sides.append((h, -1.0))
        self.sides = sides
        self.S = np.zeros((prob.n_F, len(sides)))
        for col, (h, sgn) in enumerate(sides):
            self.S[h, col] = sgn
        # box barriers: log(U - x) only where an increase side exists (else the
        # gap equals a side variable already carrying its own barrier), and
        # log(x - l) only where a decrease side exists
        self.box_up = prob.upper > 0
        self.box_down = prob.lower < 0

    def initial_z(self):
        prob = self.prob
        z = np.empty(len(self.sides))
        for col, (h, sgn) in enumerate(self.sides):
            gap = prob.upper[h] if sgn > 0 else -prob.lower[h]
            z[col] = 0.01 * min(prob.budget / prob.n_F, gap)
        return z

    def x_of(self, z):
        return self.S @ z

    def split_of(self, z):
        p = np.zeros(self.prob.n_F)
        q = np.zeros(self.prob.n_F)
        for col, (h, sgn) in enumerate(self.sides):
            if sgn > 0:
                p[h] = z[col]
            else:
                q[h] = z[col]
        return SplitVariables(p, q, self.prob.budget - float(np.sum(z)))

    def gaps(self, z):
        x = self.x_of(z)
        up = self.prob.upper - x
        down = x - self.prob.lower
        slack = self.prob.budget - float(np.sum(z))
        return x, up, down, slack

    def strictly_feasible(self, z):
        if np.any(z <= 0):
            return False
        _, up, down, slack = self.gaps(z)
        return bool(
            slack > 0
            and np.all(up[self.box_up] > 0)
            and np.all(down[self.box_down] > 0)
        )

    def eval(self, z, mu):
        """Barrier objective and gradient; (inf, None, ...) outside the interior."""
        if np.any(z <= 0):
            return np.inf, None, None
        x, up, down, slack = self.gaps(z)
        if slack <= 0 or np.any(up[self.box_up] <= 0) or np.any(down[self.box_down] <= 0):
            return np.inf, None, None
        phi, gphi, _ = _phi_and_grad(self.prob, x, self.cache, tol=self.krylov_tol)
        barrier = -np.sum(np.log(z)) - np.log(slack)
        barrier -= np.sum(np.log(up[self.box_up]))
        barrier -= np.sum(np.log(down[self.box_down]))
        val = self.sign * phi + mu * barrier
        gb = -1.0 / z + 1.0 / slack
        box = np.zeros(self.prob.n_F)
        box[self.box_up] += 1.0 / up[self.box_up]
        box[self.box_down] -= 1.0 / down[self.box_down]
        gb += self.S.T @ box
        grad = self.sign * (self.S.T @ gphi) + mu * gb
        return val, grad, phi

    def hess(self, z, mu):
        x, up, down, slack = self.gaps(z)
        Hphi = hessian(self.prob, x)
        H = self.sign * (self.S.T @ Hphi @ self.S)
        H += mu * np.diag(1.0 / z**2)
        c = np.zeros(self.prob.n_F)
        c[self.box_up] += 1.0 / up[self.box_up] ** 2
        c[self.box_down] += 1.0 / down[self.box_down] ** 2
        H += mu * (self.S.T * c) @ self.S
        H += (mu / slack**2) * np.ones((len(z), len(z)))
        return H

    def barrier_diag(self, z, mu):
        """Diagonal of the barrier Hessian in z, one entry per side variable."""
        x, up, down, slack = self.gaps(z)
        box = np.zeros(self.prob.n_F)
        box[self.box_up] += 1.0 / up[self.box_up] ** 2
        box[self.box_down] += 1.0 / down[self.box_down] ** 2
        per_side = np.array([box[h] for h, _ in self.sides])
        return mu * (1.0 / z**2 + per_side + 1.0 / slack**2)

    def max_step(self, z, d):
        """Largest step keeping all barrier arguments positive."""
        x, up, down, slack = self.gaps(z)
        dx = self.S @ d
        caps = [np.inf]
        neg = d < 0
        if neg.any():
            caps.append(np.min(z[neg] / -d[neg]))
        mask = self.box_up & (dx > 0)
        if mask.any():
            caps.append(np.min(up[mask] / dx[mask]))
        mask = self.box_down & (dx < 0)
        if mask.any():
            caps.append(np.min(down[mask] / -dx[mask]))
        dsum = float(np.sum(d))
        if dsum > 0:
            caps.append(slack / dsum)
        return min(caps)


def _damped_newton_direction(H, g):
    """Descent direction from an eigenvalue-floored Newton model.

    The objective part of the barrier Hessian can be indefinite (maximizing a
    convex trace functional), so negative curvature is floored instead of
    shifting the whole matrix: directions behave like Newton where the model
    is convex and like scaled gradient descent elsewhere.
    """
    H = 0.5 * (H + H.T)
    w, Q = np.linalg.eigh(H)
    floor = max(1e-8 * float(np.max(np.abs(w))), 1e-12)
    w = np.maximum(w, floor)
    d = -(Q @ ((Q.T @ g) / w))
    if float(g @ d) < 0:
        return d
    return -g


def interior_point_solve(
    prob: WeightedProblem,
    inner: str = "lbfgs",
    bc: BarrierConfig = None,
    cache=None,
    callback=None,
):
    """Maximize (or minimize, for downgrading) phi over the feasible box/budget set.

    Outer loop: shrink the barrier weight mu; inner loop: minimize the
    barrier objective over the split variables with L-BFGS (``inner='lbfgs'``)
    or damped Newton on the exact Krylov Hessian (``inner='hessian'``). Line
    searches are Armijo backtracking capped at a 0.995 fraction of the step
    to the boundary, so every iterate stays strictly feasible. Returns
    ``(x, SolveReport)``.
    """
    if inner not in ("lbfgs", "hessian"):
        raise ValueError(f"unknown inner solver {inner!r}")
    if prob.f is None:
        raise ValidationError("problem has no scalar function attached")
    bc = bc or BarrierConfig()
    if cache is None:
        cache = entry_gradient_cache(prob)
    bp = _BarrierProblem(prob, cache)
    z = bp.initial_z()
    t0 = time.perf_counter()
    phi0, gphi0, _ = _phi_and_grad(prob, bp.x_of(z), cache, tol=KRYLOV_TOL)
    if bc.mu0 is not None:
        mu = bc.mu0
    else:
        gscale = float(np.max(np.abs(gphi0))) * prob.budget
        mu = max(1.0, abs(phi0), gscale) / prob.n_F
    total_inner = 0
    outer = 0
    all_ok = True
    outer_objectives = []
    min_slack = np.inf
    phi_last = phi0
    while mu >= bc.outer_tol and outer < bc.max_outer:
        z, its, ok, phi_last = _minimize_barrier(bp, z, mu, inner, bc, callback)
        total_inner += its
        outer += 1
        all_ok = all_ok and ok
        outer_objectives.append(phi_last)
        min_slack = min(min_slack, bp.split_of(z).slack)
        mu /= bc.shrink
    x = bp.x_of(z)
    report = SolveReport(
        objective=phi_last,
        inner_iterations=total_inner,
        outer_iterations=outer,
        converged=all_ok and mu < bc.outer_tol,
        wall_time=time.perf_counter() - t0,
        outer_objectives=outer_objectives,
        diagnostics={"min_slack": float(min_slack), "final_mu": mu * bc.shrink},
    )
    return x, report


def _minimize_barrier(bp, z, mu, inner, bc, callback):
    """One inner solve: minimize the barrier objective at fixed mu.

    The iteration runs in Jacobi-scaled variables w = z / c with
    c = 1/sqrt(diag of the barrier Hessian at the warm start), which
    equilibrates the boundary layers (both side positivity and box gaps)
    whose raw conditioning grows like 1/mu^2. The stopping test is on the
    scaled gradient, relative to its starting norm.
    """
    c = 1.0 / np.sqrt(bp.barrier_diag(z, mu))

    def ev(w):
        val, gz, phi = bp.eval(c * w, mu)
        return val, (None if gz is None else c * gz), phi

    w = z / c
    val, grad, phi = ev(w)
    if grad is None:
        raise ValidationError("initial point is not strictly feasible")
    tol = max(bc.inner_tol, 0.1 * mu) * (1.0 + float(np.linalg.norm(grad)))
    state = LbfgsState(bc.history)
    its = 0
    while float(np.linalg.norm(grad)) > tol and its < bc.max_inner:
        its += 1
        if inner == "lbfgs":
            d = state.direction(grad)
        else:
            Hw = (c[:, None] * bp.hess(c * w, mu)) * c[None, :]
            d = _damped_newton_direction(Hw, grad)
        if float(grad @ d) >= 0:
            state.reset()
            d = -grad
        accepted, w_new, val_new, grad_new, phi_new = _armijo(bp, c, w, d, val, grad, mu, bc)
        if not accepted and float(d @ -grad) < float(np.linalg.norm(d) * np.linalg.norm(grad)) * (1 - 1e-12):
            state.reset()
            d = -grad
            accepted, w_new, val_new, grad_new, phi_new = _armijo(
                bp, c, w, d, val, grad, mu, bc
            )
        if not accepted:
            # persistent line-search failure: accept when the best possible
            # Armijo decrease is below the Krylov evaluation noise in phi
            alpha0 = min(1.0, 0.995 * bp.max_step(c * w, c * d))
            predicted = abs(bc.armijo_c * alpha0 * float(grad @ d))
            noise = 10.0 * KRYLOV_TOL * (1.0 + abs(val))
            return c * w, its, predicted <= noise, phi
        if inner == "lbfgs":
            state.push(w_new - w, grad_new - grad)
        w, val, grad, phi = w_new, val_new, grad_new, phi_new
        if callback is not None:
            callback(bp.x_of(c * w), bp.split_of(c * w), mu)
    return c * w, its, float(np.linalg.norm(grad)) <= tol, phi


def _armijo(bp, c, w, d, val, grad, mu, bc):
    """Backtracking line search in scaled variables, capped inside the boundary."""
    slope = float(grad @ d)
    alpha = min(1.0, 0.995 * bp.max_step(c * w, c * d))
    for _ in range(bc.max_backtracks):
        w_try = w + alpha * d
        val_try, gz_try, phi_try = bp.eval(c * w_try, mu)
        if gz_try is not None and val_try <= val + bc.armijo_c * alpha * slope:
            return True, w_try, val_try, c * gz_try, phi_try
        alpha *= bc.backtrack
    return False, w, val, grad, None


# ---------------------------------------------------------------------
# Candidate-set selection
# ---------------------------------------------------------------------


class CandidateMode(enum.Enum):
    TUNING = "tuning"      # existing edges only
    REWIRING = "rewiring"  # half existing, half missing
    ADDITION = "addition"  # missing edges only


def select_candidates(graph, mode: CandidateMode, n_P=100, n_F=30, f=None):
    """Pick the n_F most gradient-sensitive edges among n_P centrality candidates.

    TUNING ranks existing edges by score products; ADDITION ranks missing
    pairs by the minmax ordering; REWIRING draws half of its candidates (and
    half of F) from each pool under the minmax ordering. The final cut keeps
    the candidates with the largest entries 2 f'(A)_ij, i.e. the largest
    gradient components at x = 0.
    """
    if f is None:
        raise ValidationError("a scalar function is required to rank candidates")
    scores = eigenvector_centrality(graph)
    fprime = f.derivative()

    def grad_sorted(pairs, count):
        vals = _entry_values(graph, fprime, pairs)
        ranked = sorted(pairs, key=lambda p: (-vals[p], p))
        return ranked[:count]

    if mode is CandidateMode.TUNING:
        rank = CentralityRanking(scores, Ordering.PRODUCT)
        cands = top_edges(graph.edge_pairs, rank, n_P)
        if len(cands) < n_P:
            warnings.warn(f"only {len(cands)} existing edges available (n_P={n_P})")
        return grad_sorted(cands, n_F)

    if mode is CandidateMode.ADDITION:
        rank = CentralityRanking(scores, Ordering.MINMAX)
        cands = top_missing_pairs(graph.n, rank, n_P, graph.edge_set())
        if not cands:
            raise ExhaustedSearchSpaceError("graph is complete: no edges to add")
        if len(cands) < n_P:
            warnings.warn(f"only {len(cands)} missing pairs available (n_P={n_P})")
        return grad_sorted(cands, n_F)

    if mode is CandidateMode.REWIRING:
        rank = CentralityRanking(scores, Ordering.MINMAX)
        c1 = top_edges(graph.edge_pairs, rank, n_P // 2)
        c2 = top_missing_pairs(graph.n, rank, n_P - n_P // 2, graph.edge_set())
        if len(c1) < n_P // 2 or len(c2) < n_P - n_P // 2:
            warnings.warn("candidate pools smaller than requested")
        if not c2:
            raise ExhaustedSearchSpaceError("graph is complete: no edges to add")
        take1 = n_F // 2
        return grad_sorted(c1, take1) + grad_sorted(c2, n_F - take1)

    raise ValueError(f"unknown candidate mode {mode}")
