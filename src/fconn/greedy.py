"""Greedy optimizers for unweighted edge removal (break) and addition (make).

One greedy loop, ``_greedy``, serves two scorers: at each of k steps it
scores every candidate edge of the current search space by the trace
variation its modification would cause, keeps the first best one, applies it
to the working graph and repeats.

* ``greedy_krylov``   -- scores candidates with :func:`fconn.krylov.trace_fun_update`
* ``miobi``           -- scores with a first-order update of the dominant
                         eigenpairs ("make it or break it" baseline), which
                         it advances after each accepted edge

A third method skips the loop:

* ``eigenv_baseline`` -- one-shot top-k selection by centrality products,
                         no rescoring

``greedy_krylov`` scores each step's candidates in the calling thread, one
after the other, unless it runs inside ``with share:`` for a
:class:`fconn.share.ScoreShare`. Then the threads serving the share score
the step's candidates beside it, and the plan, its ``step_deltas`` and its
diagnostics are still those of the serial loop, bit for bit. MIOBI always
scores serially.
"""

from __future__ import annotations

import contextvars
import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, ValidationError
from .graph import (
    Ordering,
    SparseSymGraph,
    Strategy,
    eigenvector_centrality,
    normalize_pair,
    ranked_pairs,
    select_search_space,
)
from .krylov import (
    DEFAULT_LAG,
    DEFAULT_M_MAX,
    DEFAULT_TOL,
    LowRankUpdate,
    _check_controls,
    trace_fun_update,
)

__all__ = [
    "Mode",
    "GreedyConfig",
    "ModificationPlan",
    "greedy_krylov",
    "MiobiState",
    "miobi",
    "eigenv_baseline",
]


class Mode(enum.Enum):
    BREAK = "break"  # remove existing edges, minimize the trace
    MAKE = "make"    # add missing edges, maximize the trace


@dataclass(frozen=True)
class GreedyConfig:
    """Budget, search-space size and Krylov controls for the greedy loop.

    The mode follows from the strategy: a DG strategy breaks, an AD one makes.
    """

    budget: int
    q: int = 250
    strategy: Strategy = Strategy.DG_2
    tol: float = DEFAULT_TOL
    lag: int = DEFAULT_LAG
    m_max: int = DEFAULT_M_MAX

    def __post_init__(self):
        if self.budget < 1:
            raise ValidationError("budget must be >= 1")
        if self.q < 1:
            raise ValidationError("q must be >= 1")
        _check_controls(self.lag, self.tol, self.m_max)

    @property
    def mode(self) -> Mode:
        return Mode.BREAK if self.strategy.is_removal else Mode.MAKE


@dataclass
class ModificationPlan:
    """Chosen edges with signed weight deltas plus per-step objective changes.

    ``step_deltas`` holds the Krylov trace variation of each accepted step of
    ``greedy_krylov``. It is None for the centrality baseline, which never
    scores candidates, and for MIOBI, whose first-order scores only rank
    candidates and are not the trace change. ``exhausted`` flags an early
    stop on an empty search space.
    """

    edges: list
    mode: Mode
    step_deltas: list = None
    exhausted: bool = False
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        pairs = [normalize_pair(i, j) for i, j, _ in self.edges]
        if len(set(pairs)) != len(pairs):
            raise ValidationError("plan contains duplicate edges")
        sign = -1.0 if self.mode is Mode.BREAK else 1.0
        if any(np.sign(d) != sign for _, _, d in self.edges):
            raise ValidationError(f"all deltas must have sign {sign:+.0f} in {self.mode}")

    @property
    def pairs(self):
        return [normalize_pair(i, j) for i, j, _ in self.edges]

    def as_update(self, n) -> LowRankUpdate:
        """The cumulative modification as one factored low-rank update."""
        return LowRankUpdate.from_edge_deltas(n, self.edges)

    def apply_to(self, g: SparseSymGraph) -> SparseSymGraph:
        for i, j, d in self.edges:
            g = g.with_edge_delta(i, j, d)
        return g


def _candidate_delta(graph, pair, mode):
    if mode is Mode.BREAK:
        w = graph.weight(*pair)
        if w <= 0:
            raise ValidationError(f"cannot remove missing edge {pair}")
        return -w
    return 1.0


def _greedy(graph, cfg, strategy, score_step, on_accept=None):
    """The greedy step loop shared by the scored methods.

    Each step selects the search space of ``strategy`` on the working graph,
    takes the list of its candidates' scores from ``score_step(work, space,
    deltas)``, where ``deltas[k]`` is the weight change of ``space[k]``,
    keeps the minimizer (BREAK) or maximizer (MAKE) -- first candidate wins
    ties -- calls ``on_accept(pair, delta)`` and applies it to the working
    graph. The centrality ranking behind the DG_1/DG_2/AD_1/AD_2 strategies,
    and the candidate order it induces, are computed once on the initial
    graph. A NaN score never wins; a step whose scores are all NaN or all
    infinite the wrong way (+inf in BREAK, -inf in MAKE) has no best
    candidate and raises ConvergenceError.
    """
    if cfg.mode is Mode.BREAK and graph.num_edges < cfg.budget:
        raise ValidationError(
            f"budget {cfg.budget} exceeds the number of edges {graph.num_edges}"
        )
    ranked = None
    if strategy.implied_ordering is not None:
        ranked = ranked_pairs(
            graph,
            eigenvector_centrality(graph),
            strategy.implied_ordering,
            cfg.q + cfg.budget - 1,
            missing=not strategy.is_removal,
        )
    work = graph
    chosen, picked, step_deltas = [], set(), []
    exhausted = False
    evaluations = 0
    for step in range(cfg.budget):
        top = None if ranked is None else ranked[: cfg.q + step]
        space = select_search_space(work, strategy, picked, top)
        if not space:
            exhausted = True
            break
        evaluations += len(space)
        deltas = [_candidate_delta(work, pair, cfg.mode) for pair in space]
        best_idx, non_finite = None, 0
        best = np.inf if cfg.mode is Mode.BREAK else -np.inf
        for idx, val in enumerate(score_step(work, space, deltas)):
            non_finite += not np.isfinite(val)
            if (cfg.mode is Mode.BREAK and val < best) or (cfg.mode is Mode.MAKE and val > best):
                best, best_idx = val, idx
        if best_idx is None:
            raise ConvergenceError(
                f"greedy step {step + 1} of {cfg.budget} has no best candidate: "
                f"{non_finite} of {len(space)} scores are not finite"
            )
        pair, d = space[best_idx], deltas[best_idx]
        if on_accept is not None:
            on_accept(pair, d)
        work = work.with_edge_delta(pair[0], pair[1], d)
        chosen.append((pair[0], pair[1], d))
        picked.add(pair)
        step_deltas.append(best)
    return ModificationPlan(
        edges=chosen,
        mode=cfg.mode,
        step_deltas=step_deltas,
        exhausted=exhausted,
        diagnostics={"evaluations": evaluations},
    )


# The ScoreShare to which greedy_krylov calls in this thread's context hand
# their candidates, set by ``with share:``. The class lives in fconn.share,
# which only a job that shares its scoring loads.
_SHARE = contextvars.ContextVar("fconn.greedy.share", default=None)


def greedy_krylov(graph: SparseSymGraph, cfg: GreedyConfig, f) -> ModificationPlan:
    """Sequential greedy edge selection scored by Krylov trace updates.

    Each step evaluates Tr(f(A+X)) - Tr(f(A)) for a rank-2 candidate update X
    over the search space of ``cfg.strategy``. Besides ``evaluations``, the
    plan's diagnostics hold the min, median and max Krylov order of those
    evaluations and the largest Lanczos drift among them, ``drift_max``
    (None when there were none; see :class:`fconn.krylov.TraceUpdateResult`),
    and the number that reached ``cfg.m_max`` unconverged. Called inside
    ``with share:`` for a :class:`fconn.share.ScoreShare`, it scores each
    step's candidates together with the threads serving the share; the plan
    and its diagnostics are the same either way.
    """
    share = _SHARE.get()
    results = []  # every evaluation, in the order of the serial loop

    def score_step(work, space, deltas):
        def score(idx):
            i, j = space[idx]
            upd = LowRankUpdate.from_edge(work.n, i, j, deltas[idx])
            return trace_fun_update(work, upd, f, lag=cfg.lag, tol=cfg.tol, m_max=cfg.m_max)

        if share is None:
            step = [score(idx) for idx in range(len(space))]
        else:
            step = share.map(score, len(space))
        results.extend(step)
        return [res.delta for res in step]

    plan = _greedy(graph, cfg, cfg.strategy, score_step)
    orders = [res.iterations for res in results]
    plan.diagnostics.update(
        order_min=min(orders, default=None),
        order_median=float(np.median(orders)) if orders else None,
        order_max=max(orders, default=None),
        drift_max=max((res.drift for res in results), default=None),
        unconverged=sum(not res.converged for res in results),
    )
    return plan


# ---------------------------------------------------------------------
# MIOBI: first-order eigenpair-update baseline
# ---------------------------------------------------------------------

# Eigenvalue gaps |lambda_i - lambda_j| below this are skipped by the
# eigenvector update of MiobiState.apply_update.
_DEGENERATE_GAP = 1e-10


@dataclass
class MiobiState:
    """Retained dominant eigenpairs, updated to first order after each pick.

    Eigenvectors are deliberately not re-orthonormalized between steps; the
    accumulated drift ||U^T U - I||_F is reported, not corrected. Once the
    first-order updates diverge, the scores and the update overflow to inf
    and NaN; both run with numpy's overflow and invalid-value warnings off,
    since the greedy reports a step whose scores are all non-finite as its
    error and the drift says how far the eigenpairs have gone.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @classmethod
    def initialize(cls, graph: SparseSymGraph, h: int):
        """The h eigenpairs of largest |eigenvalue|, by ``eigsh`` on ``graph.matmul``.

        With h >= n - 1 or n <= 3, beyond ARPACK's reach, they come from a
        dense ``eigh`` of A.
        """
        n = graph.n
        if h < 1:
            raise ValidationError(f"the number of retained eigenpairs must be >= 1, got {h}")
        if h > n:
            raise ValidationError(f"cannot retain {h} eigenpairs of an order-{n} matrix")
        if h >= n - 1 or n <= 3:
            w, V = np.linalg.eigh(graph.matmul(np.eye(n)))
        else:
            import scipy.sparse.linalg  # only here: keeps it out of every other job's start-up

            A = scipy.sparse.linalg.LinearOperator((n, n), matvec=graph.matmul, dtype=float)
            v0 = np.full(n, 1.0 / np.sqrt(n))
            w, V = scipy.sparse.linalg.eigsh(A, k=h, which="LM", v0=v0)
        order = np.argsort(-np.abs(w))[:h]
        return cls(np.asarray(w[order], dtype=float), np.asarray(V[:, order], dtype=float))

    @np.errstate(over="ignore", invalid="ignore")
    def score(self, s, t, delta, f):
        """First-order trace variation sum f(lambda + u^T X u) - f(lambda)."""
        a = self.eigenvectors[s, :]
        b = self.eigenvectors[t, :]
        shifted = self.eigenvalues + 2.0 * delta * a * b
        return float(np.sum(f(shifted)) - np.sum(f(self.eigenvalues)))

    @np.errstate(over="ignore", invalid="ignore")
    def apply_update(self, s, t, delta):
        """First-order update of the retained eigenpairs after accepting an edge.

        Eigenvector corrections divide by lambda_i - lambda_j; terms with
        |lambda_i - lambda_j| below ``_DEGENERATE_GAP`` are skipped.
        """
        lam = self.eigenvalues
        U = self.eigenvectors
        a = U[s, :]
        b = U[t, :]
        cross = delta * (np.outer(a, b) + np.outer(b, a))  # u_i^T X u_j
        gaps = lam[:, None] - lam[None, :]
        safe = np.abs(gaps) >= _DEGENERATE_GAP
        np.fill_diagonal(safe, False)
        coeff = np.where(safe, cross / np.where(safe, gaps, 1.0), 0.0)
        self.eigenvalues = lam + np.diag(cross)
        self.eigenvectors = U + U @ coeff

    def orthonormality_drift(self):
        h = self.eigenvectors.shape[1]
        return float(np.linalg.norm(self.eigenvectors.T @ self.eigenvectors - np.eye(h)))


def miobi(graph: SparseSymGraph, cfg: GreedyConfig, f, h: int = 25) -> ModificationPlan:
    """Greedy selection scored by first-order perturbation of h dominant eigenpairs.

    Search spaces are fixed by the mode: the full current edge set for BREAK
    and the max-degree node block (AD_3, degrees recomputed each step) for
    MAKE. After each accepted edge both the eigenvalues and the eigenvectors
    are advanced by the first-order formulas. The first-order scores only
    rank candidates: the plan's ``step_deltas`` is None, so its trace change
    is computed from the plan itself.
    """
    h = min(h, graph.n)
    eig = MiobiState.initialize(graph, h)
    strategy = Strategy.DG_FULL if cfg.mode is Mode.BREAK else Strategy.AD_3
    plan = _greedy(
        graph,
        cfg,
        strategy,
        lambda work, space, deltas: [eig.score(i, j, d, f) for (i, j), d in zip(space, deltas)],
        on_accept=lambda pair, d: eig.apply_update(pair[0], pair[1], d),
    )
    plan.step_deltas = None
    plan.diagnostics.update(orthonormality_drift=eig.orthonormality_drift(), eigenpairs=h)
    return plan


# ---------------------------------------------------------------------
# One-shot centrality baseline
# ---------------------------------------------------------------------


def eigenv_baseline(graph: SparseSymGraph, k: int, mode: Mode) -> ModificationPlan:
    """Top-k edges by centrality product on the initial graph, no rescoring.

    BREAK removes the k existing edges with the largest products; MAKE adds
    the k missing pairs with the largest products. Ties break on the lowest
    (min index, max index) pair.
    """
    if k < 1:
        raise ValidationError("budget must be >= 1")
    if mode is Mode.BREAK and graph.num_edges < k:
        raise ValidationError(f"budget {k} exceeds the number of edges {graph.num_edges}")
    scores = eigenvector_centrality(graph)
    pairs = ranked_pairs(graph, scores, Ordering.PRODUCT, k, missing=mode is Mode.MAKE)
    edges = [(i, j, _candidate_delta(graph, (i, j), mode)) for i, j in pairs]
    return ModificationPlan(edges=edges, mode=mode, exhausted=len(edges) < k)
