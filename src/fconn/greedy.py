"""Greedy optimizers for unweighted edge removal (break) and addition (make).

Three methods share the same sequential template: at each of k steps, score
every candidate edge of the current search space by the trace variation its
modification would cause, apply the best one to the working graph, repeat.

* ``greedy_krylov``   -- scores candidates with :func:`fconn.krylov.trace_fun_update`
* ``miobi``           -- scores with a first-order update of the dominant
                         eigenpairs ("make it or break it" baseline)
* ``eigenv_baseline`` -- one-shot top-k selection by centrality products,
                         no rescoring
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg

from .errors import ValidationError
from .graph import (
    CentralityRanking,
    Ordering,
    SearchSpaceState,
    SparseSymGraph,
    Strategy,
    eigenvector_centrality,
    normalize_pair,
    ranked_candidates,
    select_search_space,
    top_edges,
    top_missing_pairs,
)
from .krylov import LowRankUpdate, trace_fun_update

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
    """Budget, search-space size and Krylov controls for the greedy loop."""

    budget: int
    q: int = 250
    strategy: Strategy = Strategy.DG_2
    mode: Mode = Mode.BREAK
    tol: float = 1e-6
    lag: int = 2
    m_max: int = 100

    def __post_init__(self):
        if self.budget < 1:
            raise ValidationError("budget must be >= 1")
        if self.q < 1:
            raise ValidationError("q must be >= 1")
        removal = self.strategy.is_removal
        if self.mode is Mode.BREAK and not removal:
            raise ValidationError(f"BREAK requires a DG strategy, got {self.strategy}")
        if self.mode is Mode.MAKE and removal:
            raise ValidationError(f"MAKE requires an AD strategy, got {self.strategy}")


@dataclass
class ModificationPlan:
    """Chosen edges with signed weight deltas plus per-step objective changes.

    ``step_deltas`` holds the predicted trace variation of each accepted step
    (None for the one-shot baseline, which never scores candidates);
    ``predicted_total`` is their sum. ``exhausted`` flags an early stop on an
    empty search space.
    """

    edges: list
    mode: Mode
    step_deltas: list = None
    predicted_total: float = None
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


def _ranking_for(graph, strategy):
    ordering = strategy.implied_ordering
    if ordering is None:
        return None
    return CentralityRanking(eigenvector_centrality(graph), ordering)


def greedy_krylov(graph: SparseSymGraph, cfg: GreedyConfig, f) -> ModificationPlan:
    """Sequential greedy edge selection scored by Krylov trace updates.

    Each step evaluates Tr(f(A+X)) - Tr(f(A)) for a rank-2 candidate update X
    over the search space, keeps the minimizer (BREAK) or maximizer (MAKE) --
    first candidate wins ties -- and applies it to the working graph. The
    centrality ranking behind the DG_1/DG_2/AD_1/AD_2 strategies, and the
    candidate order it induces, are computed once on the initial graph.
    """
    if cfg.mode is Mode.BREAK and graph.num_edges < cfg.budget:
        raise ValidationError(
            f"budget {cfg.budget} exceeds the number of edges {graph.num_edges}"
        )
    ranking = _ranking_for(graph, cfg.strategy)
    ranked = None
    if ranking is not None:
        edges = np.column_stack(graph.edge_arrays[:2])
        count = cfg.q + cfg.budget - 1
        ranked = tuple(ranked_candidates(graph.n, edges, cfg.strategy, ranking, count))
    work = graph
    chosen, deltas = [], []
    exhausted = False
    eval_count = 0
    for step in range(cfg.budget):
        state = SearchSpaceState(
            cfg.strategy,
            cfg.q,
            frozenset(normalize_pair(i, j) for i, j, _ in chosen),
            step,
            ranked,
        )
        space = select_search_space(work, state, ranking)
        if not space:
            exhausted = True
            break

        def score(pair):
            d = _candidate_delta(work, pair, cfg.mode)
            upd = LowRankUpdate.from_edge(work.n, pair[0], pair[1], d)
            res = trace_fun_update(work, upd, f, lag=cfg.lag, tol=cfg.tol, m_max=cfg.m_max)
            return res.delta

        scores = [score(p) for p in space]
        eval_count += len(space)

        best_idx = None
        best = np.inf if cfg.mode is Mode.BREAK else -np.inf
        for idx, val in enumerate(scores):
            if (cfg.mode is Mode.BREAK and val < best) or (
                cfg.mode is Mode.MAKE and val > best
            ):
                best, best_idx = val, idx
        pair = space[best_idx]
        d = _candidate_delta(work, pair, cfg.mode)
        work = work.with_edge_delta(pair[0], pair[1], d)
        chosen.append((pair[0], pair[1], d))
        deltas.append(best)
    return ModificationPlan(
        edges=chosen,
        mode=cfg.mode,
        step_deltas=deltas,
        predicted_total=float(np.sum(deltas)) if deltas else 0.0,
        exhausted=exhausted,
        diagnostics={"evaluations": eval_count},
    )


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
        if h > n:
            raise ValidationError(f"cannot retain {h} eigenpairs of an order-{n} matrix")
        if h >= n - 1 or n <= 3:
            w, V = np.linalg.eigh(A.toarray())
        else:
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
    are advanced by the first-order formulas.
    """
    if cfg.mode is Mode.BREAK and graph.num_edges < cfg.budget:
        raise ValidationError(
            f"budget {cfg.budget} exceeds the number of edges {graph.num_edges}"
        )
    h = min(h, graph.n)
    state_strategy = Strategy.DG_FULL if cfg.mode is Mode.BREAK else Strategy.AD_3
    eig = MiobiState.initialize(graph, h)
    work = graph
    chosen, deltas = [], []
    exhausted = False
    for step in range(cfg.budget):
        state = SearchSpaceState(
            state_strategy, cfg.q, frozenset(normalize_pair(i, j) for i, j, _ in chosen), step
        )
        space = select_search_space(work, state, None)
        if not space:
            exhausted = True
            break
        best_idx = None
        best = np.inf if cfg.mode is Mode.BREAK else -np.inf
        for idx, pair in enumerate(space):
            d = _candidate_delta(work, pair, cfg.mode)
            val = eig.score(pair[0], pair[1], d, f)
            if (cfg.mode is Mode.BREAK and val < best) or (
                cfg.mode is Mode.MAKE and val > best
            ):
                best, best_idx = val, idx
        pair = space[best_idx]
        d = _candidate_delta(work, pair, cfg.mode)
        eig.apply_update(pair[0], pair[1], d)
        work = work.with_edge_delta(pair[0], pair[1], d)
        chosen.append((pair[0], pair[1], d))
        deltas.append(best)
    return ModificationPlan(
        edges=chosen,
        mode=cfg.mode,
        step_deltas=deltas,
        predicted_total=float(np.sum(deltas)) if deltas else 0.0,
        exhausted=exhausted,
        diagnostics={"orthonormality_drift": eig.orthonormality_drift(), "eigenpairs": h},
    )


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
    ranking = CentralityRanking(eigenvector_centrality(graph), Ordering.PRODUCT)
    existing = np.column_stack(graph.edge_arrays[:2])
    if mode is Mode.BREAK:
        if graph.num_edges < k:
            raise ValidationError(f"budget {k} exceeds the number of edges {graph.num_edges}")
        pairs = top_edges(existing, ranking, k)
        edges = [(i, j, -graph.weight(i, j)) for i, j in pairs]
    else:
        pairs = top_missing_pairs(graph.n, ranking, k, existing)
        edges = [(i, j, 1.0) for i, j in pairs]
    return ModificationPlan(
        edges=edges,
        mode=mode,
        step_deltas=None,
        predicted_total=None,
        exhausted=len(edges) < k,
    )
