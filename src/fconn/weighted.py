"""Continuous weight optimization over a selected edge set.

Given a set F of modifiable (or insertable) edges with box bounds
``l_ij <= x_ij <= U_ij`` and a cumulative budget ``sum |x_ij| <= k``, these
routines maximize (or, for downgrading, minimize) the trace variation
``phi(x) = Tr(f(A+X)) - Tr(f(A))`` with a log-barrier interior-point method.
Inner solves use either L-BFGS or a damped Newton step with the exact
Krylov-projected Hessian.

phi, grad phi and the Hessian of a whole solve come from one Krylov model,
:class:`_KrylovModel`, so they are exact derivatives of one function.

The budget constraint is linearized by splitting each variable into
nonnegative increase/decrease parts, so every constraint admits a log
barrier; see :class:`_BarrierProblem`.

F itself comes from :func:`select_candidates`: the :class:`WeightedMode`
fixes which centrality pools it draws from (existing edges, missing pairs or
half of each), and a gradient cut at x = 0 keeps n_F of the n_P candidates.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import matfun
from .errors import ExhaustedSearchSpaceError, ValidationError
from .graph import Ordering, SparseSymGraph, eigenvector_centrality, normalize_pair, ranked_pairs
from .krylov import (
    _ROUNDING,
    DEFAULT_LAG,
    DEFAULT_M_MAX,
    BlockKrylov,
    _lagged,
    fun_action,
)

__all__ = [
    "WeightedMode",
    "WeightedProblem",
    "SolveReport",
    "objective",
    "entry_gradient_cache",
    "gradient",
    "hessian",
    "interior_point_solve",
    "select_candidates",
]

# Relative tolerance of the lagged test on (phi, grad phi) that sets the
# order of a solve's Krylov model.
UPDATE_TOL = 1e-12

# Barrier schedule and line search. The barrier weight mu shrinks by
# MU_SHRINK after every inner solve and the outer loop stops once it falls
# below MU_STOP; each inner solve runs until the barrier-gradient norm drops
# under max(INNER_TOL, 0.1 mu), or, for Newton, until the decrement -g^T d
# falls to the rounding level of phi (Boyd & Vandenberghe, sec. 9.5.1): with
# an exact Hessian the gradient test alone can stall at that level on the
# last barrier levels.
MU_SHRINK = 10.0
MU_STOP = 1e-8
INNER_TOL = 1e-6
MAX_OUTER = 30
MAX_INNER = 200
ARMIJO_C = 1e-4
BACKTRACK = 0.5
MAX_BACKTRACKS = 40
LBFGS_HISTORY = 10


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

    @classmethod
    def build(cls, graph, F, mode, budget, f, upper=None):
        """Assemble bounds for the given mode.

        ``upper`` is a scalar or per-edge array of weight caps for the modes
        that increase weights; by default the largest existing edge weight is
        used (a new or tuned edge may not exceed the strongest initial tie).
        """
        if not 0.0 < budget < np.inf:
            raise ValidationError(f"budget must be positive and finite, got {budget}")
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
        if not np.all(np.isfinite(ub)):
            raise ValidationError(f"upper must be finite, got {upper}")
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


class _KrylovModel:
    """phi, grad phi and the Hessian of one problem from one Krylov space of A.

    X = U B(x) U^T with U the indicator columns of F's nodes, so
    K_m(A + X, U) = K_m(A, U) for every x (Beckermann, Kressner & Schweitzer,
    SIMAX 2018): one block Arnoldi space, started at the nodes and extended
    only when an evaluation's lagged test asks for it, serves the whole
    solve. With H the projected A and W the basis rows at the nodes, the
    model is phi_m(x) = Tr f(H + W B(x) W^T) - Tr f(H). One eigendecomposition
    Z diag(lam) Z^T of H + W B(x) W^T, with R = Z^T W and r_v its column at
    node v, gives the gradient 2 r_a^T f'(lam) r_b of edge h = (a, b) and, by
    Daleckii-Krein (Higham, Functions of Matrices, Thm. 3.11) with
    Gamma[p, q] = f'[lam_p, lam_q], the Hessian entry of edges h and g = (c, d)

        2 ((r_a o r_c)^T Gamma (r_b o r_d) + (r_a o r_d)^T Gamma (r_b o r_c)),

    with no SpMM. Arnoldi keeps the basis orthogonal, so no order drifts.
    """

    def __init__(self, prob: WeightedProblem):
        nodes = sorted({v for p in prob.F for v in p})
        pos = {v: a for a, v in enumerate(nodes)}
        self._a = np.array([pos[i] for i, _ in prob.F])
        self._b = np.array([pos[j] for _, j in prob.F])
        self._kry = BlockKrylov(prob.graph, nodes, mode="arnoldi")
        self._f, self._fp = prob.f, prob.f.derivative()
        self._base = {}  # order -> (Tr f(H), sum |f| over the spectrum of H)
        self.order = 0
        self.unconverged = 0  # evaluations that reached DEFAULT_M_MAX unconverged
        self._last = None  # (x, order, result) of the newest evaluation
        self.phi_floor = None  # rounding level of phi at the newest evaluation

    def _at(self, x, m):
        """phi_m, grad phi_m, (lam, R) and the rounding levels of phi_m and grad phi_m."""
        H, W = self._kry.projected(m), self._kry.start_projection(m)
        if m not in self._base:
            f0 = self._f(matfun.sym_eig(H)[0])
            self._base[m] = (float(np.sum(f0)), float(np.sum(np.abs(f0))))
        B = np.zeros((W.shape[1],) * 2)
        B[self._a, self._b] = B[self._b, self._a] = x
        lam, Z = matfun.sym_eig(H + W @ B @ W.T)
        self._f.check_spectrum(lam)
        R = Z.T @ W
        fl = self._f(lam)
        fpl = fl if self._fp is self._f else self._fp(lam)
        grad = 2.0 * np.einsum("ph,p,ph->h", R[:, self._a], fpl, R[:, self._b])
        floors = (
            _ROUNDING * (float(np.sum(np.abs(fl))) + self._base[m][1]),
            _ROUNDING * 2.0 * np.sqrt(len(grad)) * float(np.max(np.abs(fpl))),
        )
        return float(np.sum(fl)) - self._base[m][0], grad, (lam, R), floors

    def evaluate(self, x):
        """``(phi, grad phi, (lam, R))`` at x, by the lagged loop at UPDATE_TOL.

        The loop starts lag orders below the model's order, so the first
        order it can accept is the current one and the order never falls.
        A repeat of the newest x at the same order, as when Newton asks for
        the Hessian at the point its line search accepted, reuses that
        evaluation; that halves a 60-node downgrade Newton solve (0.69 s to
        0.37 s on one core).
        """
        x = np.asarray(x, dtype=float)
        last = self._last
        if last is not None and last[1] == self.order and np.array_equal(last[0], x):
            return last[2]
        kry, start = self._kry, max(self.order - DEFAULT_LAG, 1)

        def step(m):
            m, grew = kry.reach(start + m - 1)
            return (m, *self._at(x, m)), grew

        def moved(curr, prev):
            _, phi, grad, _, floors = curr
            change = (abs(phi - prev[1]), np.linalg.norm(grad - prev[2]))
            return np.array(change), np.array((abs(phi), np.linalg.norm(grad))), np.array(floors)

        (m, phi, grad, spectrum, (self.phi_floor, _)), _, converged = _lagged(
            step, moved, DEFAULT_LAG, UPDATE_TOL, DEFAULT_M_MAX - start + 1
        )
        self.order, self.unconverged = m, self.unconverged + (not converged)
        self._last = (x.copy(), m, (phi, grad, spectrum))
        return phi, grad, spectrum

    def hessian(self, x):
        """Hessian of phi at x by Daleckii-Krein, over the n_F^2 edge pairs."""
        _, _, (lam, R) = self.evaluate(x)
        gamma = self._fp.divided_difference(lam[:, None], lam[None, :])
        Ra, Rb = R[:, self._a], R[:, self._b]
        k, nf = Ra.shape
        # [:, h, g] = r_a(h) o r_c(g), r_b(h) o r_d(g) and r_a(h) o r_d(g)
        aa = Ra[:, :, None] * Ra[:, None, :]
        bb = Rb[:, :, None] * Rb[:, None, :]
        ab = Ra[:, :, None] * Rb[:, None, :]
        g_bb = (gamma @ bb.reshape(k, -1)).reshape(k, nf, nf)
        g_ab = (gamma @ ab.reshape(k, -1)).reshape(k, nf, nf)
        H = 2.0 * (np.einsum("phg,phg->hg", aa, g_bb) + np.einsum("phg,pgh->hg", ab, g_ab))
        return 0.5 * (H + H.T)


def entry_gradient_cache(prob: WeightedProblem) -> _KrylovModel:
    """The Krylov model of one solve; pass it to :func:`gradient` and :func:`hessian`."""
    return _KrylovModel(prob)


def objective(prob: WeightedProblem, x) -> float:
    """phi(x) = Tr(f(A+X)) - Tr(f(A)) for the edge-delta vector x."""
    return entry_gradient_cache(prob).evaluate(x)[0]


def gradient(prob: WeightedProblem, x, cache=None) -> np.ndarray:
    """Gradient of phi: component ind(i,j) equals 2 f'(A+X)_ij, projected."""
    return (cache or entry_gradient_cache(prob)).evaluate(x)[1]


def hessian(prob: WeightedProblem, x, cache=None) -> np.ndarray:
    """Hessian of phi: entry (ind(i,j), ind(h,k)) is 2 L_{f'}(A+X, E_hk)_ij.

    E_hk = 1_h 1_k^T + 1_k 1_h^T; exact for the projected model, symmetrized.
    """
    return (cache or entry_gradient_cache(prob)).hessian(x)


# ---------------------------------------------------------------------
# Barrier interior-point solver
# ---------------------------------------------------------------------


@dataclass
class SolveReport:
    objective: float
    inner_iterations: int
    outer_iterations: int
    converged: bool
    krylov_order: int  # final order of the solve's Krylov model
    unconverged: int  # model evaluations that reached DEFAULT_M_MAX unconverged


class LbfgsState:
    """Two-loop recursion over at most LBFGS_HISTORY curvature pairs.

    Pairs with nonpositive s.y are discarded; the inverse-Hessian seed is
    gamma I with gamma = s.y / y.y from the newest retained pair.
    """

    def __init__(self):
        self.pairs = deque(maxlen=LBFGS_HISTORY)
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
    positivity term), and log of the budget slack k - sum(z). Since
    sum |x| <= sum(z), every interior iterate satisfies the budget strictly.
    """

    def __init__(self, prob: WeightedProblem, model):
        self.prob = prob
        self.model = model
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

    def gaps(self, z):
        x = self.x_of(z)
        up = self.prob.upper - x
        down = x - self.prob.lower
        slack = self.prob.budget - float(np.sum(z))
        return x, up, down, slack

    def eval(self, z, mu):
        """Barrier objective and gradient, and phi with its rounding level.

        Outside the interior it returns (inf, None, None).
        """
        if np.any(z <= 0):
            return np.inf, None, None
        x, up, down, slack = self.gaps(z)
        if slack <= 0 or np.any(up[self.box_up] <= 0) or np.any(down[self.box_down] <= 0):
            return np.inf, None, None
        phi, gphi, _ = self.model.evaluate(x)
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
        return val, grad, (phi, self.model.phi_floor)

    def _curvature(self, z):
        """x, the budget slack and the box barriers' curvature in x, 1/up^2 + 1/down^2 per edge."""
        x, up, down, slack = self.gaps(z)
        box = np.zeros(self.prob.n_F)
        box[self.box_up] += 1.0 / up[self.box_up] ** 2
        box[self.box_down] += 1.0 / down[self.box_down] ** 2
        return x, slack, box

    def hess(self, z, mu):
        x, slack, box = self._curvature(z)
        Hphi = hessian(self.prob, x, self.model)
        H = self.sign * (self.S.T @ Hphi @ self.S)
        H += mu * np.diag(1.0 / z**2)
        H += mu * (self.S.T * box) @ self.S
        H += (mu / slack**2) * np.ones((len(z), len(z)))
        return H

    def barrier_diag(self, z, mu):
        """Diagonal of the barrier Hessian in z, one entry per side variable."""
        _, slack, box = self._curvature(z)
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


def interior_point_solve(prob: WeightedProblem, inner: str = "lbfgs"):
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
    model = entry_gradient_cache(prob)
    bp = _BarrierProblem(prob, model)
    z = bp.initial_z()
    phi0, gphi0, _ = model.evaluate(bp.x_of(z))
    # Balance the objective pull against the barrier at the start: the start
    # sits near x = 0, where phi itself is tiny but its gradient need not be.
    gscale = float(np.max(np.abs(gphi0))) * prob.budget
    mu = max(1.0, abs(phi0), gscale) / prob.n_F
    total_inner = 0
    outer = 0
    all_ok = True
    phi_last = phi0
    while mu >= MU_STOP and outer < MAX_OUTER:
        z, its, ok, phi_last = _minimize_barrier(bp, z, mu, inner)
        total_inner += its
        outer += 1
        all_ok = all_ok and ok
        mu /= MU_SHRINK
    report = SolveReport(
        objective=phi_last,
        inner_iterations=total_inner,
        outer_iterations=outer,
        converged=all_ok and mu < MU_STOP,
        krylov_order=model.order,
        unconverged=model.unconverged,
    )
    return bp.x_of(z), report


def _minimize_barrier(bp, z, mu, inner):
    """One inner solve: minimize the barrier objective at fixed mu.

    The iteration runs in Jacobi-scaled variables w = z / c with
    c = 1/sqrt(diag of the barrier Hessian at the warm start), which
    equilibrates the boundary layers (both side positivity and box gaps)
    whose raw conditioning grows like 1/mu^2. The stopping test is on the
    scaled gradient, relative to its starting norm; Newton also stops once its
    decrement -g^T d is at most the rounding level of phi, which the Krylov
    model measures at each point. ``phi`` holds (phi, that level).
    """
    c = 1.0 / np.sqrt(bp.barrier_diag(z, mu))

    def ev(w):
        val, gz, phi = bp.eval(c * w, mu)
        return val, (None if gz is None else c * gz), phi

    w = z / c
    val, grad, phi = ev(w)
    if grad is None:
        raise ValidationError("initial point is not strictly feasible")
    tol = max(INNER_TOL, 0.1 * mu) * (1.0 + float(np.linalg.norm(grad)))
    state = LbfgsState()
    its = 0
    while float(np.linalg.norm(grad)) > tol and its < MAX_INNER:
        if inner == "lbfgs":
            d = state.direction(grad)
        else:
            Hw = (c[:, None] * bp.hess(c * w, mu)) * c[None, :]
            d = _damped_newton_direction(Hw, grad)
            if -float(grad @ d) <= phi[1]:
                return c * w, its, True, phi[0]
        its += 1
        if float(grad @ d) >= 0:
            state.reset()
            d = -grad
        accepted, w_new, val_new, grad_new, phi_new = _armijo(bp, c, w, d, val, grad, mu)
        if not accepted and float(d @ -grad) < float(np.linalg.norm(d) * np.linalg.norm(grad)) * (1 - 1e-12):
            state.reset()
            d = -grad
            accepted, w_new, val_new, grad_new, phi_new = _armijo(bp, c, w, d, val, grad, mu)
        if not accepted:
            # persistent line-search failure: accept when the best possible
            # Armijo decrease is below the rounding level of phi
            alpha0 = min(1.0, 0.995 * bp.max_step(c * w, c * d))
            predicted = abs(ARMIJO_C * alpha0 * float(grad @ d))
            return c * w, its, predicted <= phi[1], phi[0]
        if inner == "lbfgs":
            state.push(w_new - w, grad_new - grad)
        w, val, grad, phi = w_new, val_new, grad_new, phi_new
    return c * w, its, float(np.linalg.norm(grad)) <= tol, phi[0]


def _armijo(bp, c, w, d, val, grad, mu):
    """Backtracking line search in scaled variables, capped inside the boundary."""
    slope = float(grad @ d)
    alpha = min(1.0, 0.995 * bp.max_step(c * w, c * d))
    for _ in range(MAX_BACKTRACKS):
        w_try = w + alpha * d
        val_try, gz_try, phi_try = bp.eval(c * w_try, mu)
        if gz_try is not None and val_try <= val + ARMIJO_C * alpha * slope:
            return True, w_try, val_try, c * gz_try, phi_try
        alpha *= BACKTRACK
    return False, w, val, grad, None


# ---------------------------------------------------------------------
# Candidate-set selection
# ---------------------------------------------------------------------


def _pole_warning(graph, x, mode, f, budget):
    """A message when a resolvent's pole may lie inside the feasible set, else none.

    By Weyl's inequality lambda_1(A + X) <= lambda_1(A) + ||X||_2, and
    ||X||_2 <= sum |x_e| <= budget, since each row of the symmetric X holds
    at most the entries x_e of the edges at its node. So for a resolvent
    with parameter alpha, every feasible A + X keeps alpha lambda_1 < 1 when
    alpha (lambda_1(A) + budget) < 1; otherwise the pole may lie inside the
    box and the objective may be unbounded. lambda_1(A) is the Rayleigh
    quotient x^T A x of the unit Perron vector x. DOWNGRADE only lowers
    nonnegative weights, which cannot raise lambda_1, and never warns.
    """
    if not isinstance(f, matfun.Resolvent) or mode is WeightedMode.DOWNGRADE:
        return []
    lam = float(x @ graph.matmul(x))
    bound = f.alpha * (lam + budget)
    if bound < 1.0:
        return []
    return [
        f"resolvent pole may lie inside the feasible set: alpha*(lambda_1(A) + budget) = "
        f"{bound:.4g} >= 1, so the objective may be unbounded"
    ]


def select_candidates(graph, mode: WeightedMode, f, n_P, n_F, budget):
    """Pick the n_F most gradient-sensitive edges among n_P centrality candidates.

    The mode fixes the pools: DOWNGRADE and TUNE rank existing edges by
    score products, ADD ranks missing pairs by the minmax ordering, and
    REWIRE draws half of its candidates (and half of F) from each of those
    two pools under the minmax ordering. Every pool comes from one
    eigenvector centrality through :func:`fconn.graph.ranked_pairs`. The
    final cut keeps each pool's candidates with the largest entries
    2 f'(A)_ij, i.e. the largest gradient components at x = 0. Returns F
    and the run's messages: the warning of :func:`_pole_warning` for the
    ``budget``, if it applies, and one for each pool that holds fewer
    candidates than asked for.
    """
    if mode is WeightedMode.REWIRE:
        pools = [(False, n_P // 2, n_F // 2), (True, n_P - n_P // 2, n_F - n_F // 2)]
    else:
        pools = [(mode is WeightedMode.ADD, n_P, n_F)]
    existing_only = mode in (WeightedMode.DOWNGRADE, WeightedMode.TUNE)
    ordering = Ordering.PRODUCT if existing_only else Ordering.MINMAX
    scores = eigenvector_centrality(graph)
    ranked = [ranked_pairs(graph, scores, ordering, size, missing) for missing, size, _ in pools]
    messages = _pole_warning(graph, scores, mode, f, budget)
    for (missing, size, _), cands in zip(pools, ranked):
        if missing and not cands:
            raise ExhaustedSearchSpaceError("graph is complete: no edges to add")
        if len(cands) < size:
            kind = "missing pairs" if missing else "existing edges"
            messages.append(f"only {len(cands)} {kind} available (pool of {size})")
    fprime = f.derivative()
    cols = {}  # f'(A) e_v, one Lanczos column per node the pools touch
    for v in sorted({v for cands in ranked for p in cands for v in p}):
        e = np.zeros(graph.n)
        e[v] = 1.0
        cols[v] = fun_action(graph, fprime, e)
    F = []
    for (_, _, take), cands in zip(pools, ranked):
        vals = {(i, j): 0.5 * (cols[j][i] + cols[i][j]) for i, j in cands}
        F += sorted(cands, key=lambda p: (-vals[p], p))[:take]
    return F, messages
