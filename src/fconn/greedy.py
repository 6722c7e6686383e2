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
"""

from __future__ import annotations

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
from .krylov import DEFAULT_LAG, DEFAULT_M_MAX, DEFAULT_TOL, LowRankUpdate, trace_fun_update

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


def _greedy(graph, cfg, strategy, score, on_accept=None):
    """The greedy step loop shared by the scored methods.

    Each step selects the search space of ``strategy`` on the working graph,
    scores every candidate with ``score(work, pair, delta)``, keeps the
    minimizer (BREAK) or maximizer (MAKE) -- first candidate wins ties --
    calls ``on_accept(pair, delta)`` and applies it to the working graph.
    The centrality ranking behind the DG_1/DG_2/AD_1/AD_2 strategies, and
    the candidate order it induces, are computed once on the initial graph.
    A NaN score never wins; a step whose scores are all NaN or all infinite
    the wrong way (+inf in BREAK, -inf in MAKE) has no best candidate and
    raises ConvergenceError.
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
    chosen, picked, deltas = [], set(), []
    exhausted = False
    evaluations = 0
    for step in range(cfg.budget):
        top = None if ranked is None else ranked[: cfg.q + step]
        space = select_search_space(work, strategy, picked, top)
        if not space:
            exhausted = True
            break
        evaluations += len(space)
        best_idx, non_finite = None, 0
        best = np.inf if cfg.mode is Mode.BREAK else -np.inf
        for idx, pair in enumerate(space):
            val = score(work, pair, _candidate_delta(work, pair, cfg.mode))
            non_finite += not np.isfinite(val)
            if (cfg.mode is Mode.BREAK and val < best) or (cfg.mode is Mode.MAKE and val > best):
                best, best_idx = val, idx
        if best_idx is None:
            raise ConvergenceError(
                f"greedy step {step + 1} of {cfg.budget} has no best candidate: "
                f"{non_finite} of {len(space)} scores are not finite"
            )
        pair = space[best_idx]
        d = _candidate_delta(work, pair, cfg.mode)
        if on_accept is not None:
            on_accept(pair, d)
        work = work.with_edge_delta(pair[0], pair[1], d)
        chosen.append((pair[0], pair[1], d))
        picked.add(pair)
        deltas.append(best)
    return ModificationPlan(
        edges=chosen,
        mode=cfg.mode,
        step_deltas=deltas,
        exhausted=exhausted,
        diagnostics={"evaluations": evaluations},
    )


def greedy_krylov(graph: SparseSymGraph, cfg: GreedyConfig, f) -> ModificationPlan:
    """Sequential greedy edge selection scored by Krylov trace updates.

    Each step evaluates Tr(f(A+X)) - Tr(f(A)) for a rank-2 candidate update X
    over the search space of ``cfg.strategy``. Besides ``evaluations``, the
    plan's diagnostics hold the min, median and max Krylov order of those
    evaluations and the largest Lanczos drift among them, ``drift_max``
    (None when there were none; see :class:`fconn.krylov.TraceUpdateResult`),
    and the number that reached ``cfg.m_max`` unconverged.
    """
    orders, drifts, unconverged = [], [], 0

    def score(work, pair, d):
        nonlocal unconverged
        upd = LowRankUpdate.from_edge(work.n, pair[0], pair[1], d)
        res = trace_fun_update(work, upd, f, lag=cfg.lag, tol=cfg.tol, m_max=cfg.m_max)
        orders.append(res.iterations)
        drifts.append(res.drift)
        unconverged += not res.converged
        return res.delta

    plan = _greedy(graph, cfg, cfg.strategy, score)
    plan.diagnostics.update(
        order_min=min(orders, default=None),
        order_median=float(np.median(orders)) if orders else None,
        order_max=max(orders, default=None),
        drift_max=max(drifts, default=None),
        unconverged=unconverged,
    )
    return plan


# ---------------------------------------------------------------------
# MIOBI: first-order eigenpair-update baseline
# ---------------------------------------------------------------------


@dataclass
class MiobiState:
    """Retained dominant eigenpairs, updated to first order after each pick.

    Eigenvectors are deliberately not re-orthonormalized between steps; the
    accumulated drift ||U^T U - I||_F is reported, not corrected.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @classmethod
    def initialize(cls, graph: SparseSymGraph, h: int):
        A = graph.adjacency
        n = graph.n
        if h < 1:
            raise ValidationError(f"the number of retained eigenpairs must be >= 1, got {h}")
        if h > n:
            raise ValidationError(f"cannot retain {h} eigenpairs of an order-{n} matrix")
        if h >= n - 1 or n <= 3:
            w, V = np.linalg.eigh(A.toarray())
        else:
            import scipy.sparse.linalg  # only here: keeps it out of every other job's start-up

            v0 = np.full(n, 1.0 / np.sqrt(n))
            w, V = scipy.sparse.linalg.eigsh(A, k=h, which="LM", v0=v0)
        order = np.argsort(-np.abs(w))[:h]
        return cls(np.asarray(w[order], dtype=float), np.asarray(V[:, order], dtype=float))

    def score(self, s, t, delta, f):
        """First-order trace variation sum f(lambda + u^T X u) - f(lambda)."""
        a = self.eigenvectors[s, :]
        b = self.eigenvectors[t, :]
        shifted = self.eigenvalues + 2.0 * delta * a * b
        return float(np.sum(f(shifted)) - np.sum(f(self.eigenvalues)))

    def apply_update(self, s, t, delta, degenerate_gap=1e-10):
        """First-order update of the retained eigenpairs after accepting an edge.

        Eigenvector corrections divide by lambda_i - lambda_j; terms with
        |lambda_i - lambda_j| below ``degenerate_gap`` are skipped.
        """
        lam = self.eigenvalues
        U = self.eigenvectors
        a = U[s, :]
        b = U[t, :]
        cross = delta * (np.outer(a, b) + np.outer(b, a))  # u_i^T X u_j
        gaps = lam[:, None] - lam[None, :]
        safe = np.abs(gaps) >= degenerate_gap
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
        lambda work, pair, d: eig.score(pair[0], pair[1], d, f),
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
