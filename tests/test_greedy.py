import itertools
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse.linalg

from fconn.errors import ConvergenceError, ValidationError
from fconn.graph import SparseSymGraph, Strategy
from fconn.greedy import (
    GreedyConfig,
    _greedy,
    MiobiState,
    Mode,
    ModificationPlan,
    eigenv_baseline,
    greedy_krylov,
    miobi,
)
from fconn.matfun import Exp, Resolvent
from fconn.share import ScoreShare

import oracles
from conftest import (
    barabasi_albert,
    cycle,
    missing_pairs,
    path,
    random_connected_graph,
    star,
)


def brute_force_break_one(g, f):
    """(best edge, its trace delta, gap to second best) by dense evaluation."""
    A = oracles.dense_adjacency(g)
    scored = sorted(
        (
            oracles.trace_delta(f, A, -oracles.symmetric_edge_matrix(g.n, i, j, g.weight(i, j))),
            (i, j),
        )
        for i, j in g.edge_pairs
    )
    gap = scored[1][0] - scored[0][0] if len(scored) > 1 else np.inf
    return scored[0][1], scored[0][0], gap


def brute_force_make_one(g, f):
    A = oracles.dense_adjacency(g)
    scored = sorted(
        (
            -oracles.trace_delta(f, A, oracles.symmetric_edge_matrix(g.n, i, j, 1.0)),
            (i, j),
        )
        for i, j in missing_pairs(g)
    )
    gap = scored[1][0] - scored[0][0] if len(scored) > 1 else np.inf
    return scored[0][1], -scored[0][0], gap


class TestGreedyConfig:
    def test_mode_strategy_pairing(self):
        with pytest.raises(ValidationError):
            GreedyConfig(budget=0)
        assert GreedyConfig(budget=1, strategy=Strategy.AD_3).mode is Mode.MAKE
        assert GreedyConfig(budget=1, strategy=Strategy.DG_1).mode is Mode.BREAK

    @pytest.mark.parametrize(
        "controls", [{"lag": 0}, {"m_max": 0}, {"tol": -1e-6}, {"tol": np.nan}, {"tol": np.inf}]
    )
    def test_bad_krylov_controls_fail_at_construction(self, controls):
        # before the centrality runs or any candidate is scored
        with pytest.raises(ValidationError):
            GreedyConfig(budget=1, **controls)


class TestModificationPlan:
    def test_duplicate_edges_rejected(self):
        with pytest.raises(ValidationError):
            ModificationPlan(edges=[(0, 1, -1.0), (1, 0, -1.0)], mode=Mode.BREAK)

    def test_sign_consistency(self):
        with pytest.raises(ValidationError):
            ModificationPlan(edges=[(0, 1, 1.0)], mode=Mode.BREAK)
        with pytest.raises(ValidationError):
            ModificationPlan(edges=[(0, 1, -1.0)], mode=Mode.MAKE)

    def test_apply_and_update(self):
        g = path(4)
        plan = ModificationPlan(edges=[(0, 3, 1.0)], mode=Mode.MAKE)
        g2 = plan.apply_to(g)
        assert g2.has_edge(0, 3)
        assert np.allclose(
            plan.as_update(4).dense(), oracles.symmetric_edge_matrix(4, 0, 3, 1.0)
        )


class TestGreedyKrylov:
    def test_break_one_on_four_cycle(self):
        g = cycle(4)
        cfg = GreedyConfig(budget=1, strategy=Strategy.DG_FULL, tol=1e-9)
        plan = greedy_krylov(g, cfg, Exp())
        # all edges are equivalent by symmetry; the chosen delta must match
        # the dense trace difference of removing that edge
        (i, j, d) = plan.edges[0]
        assert d == -1.0
        A = oracles.dense_adjacency(g)
        dense = oracles.trace_delta(Exp(), A, -oracles.symmetric_edge_matrix(4, i, j))
        assert plan.step_deltas[0] == pytest.approx(dense, abs=1e-8)

    @pytest.mark.parametrize("seed", range(5))
    def test_break_one_matches_brute_force(self, seed):
        g = random_connected_graph(18, 14, seed=seed)
        cfg = GreedyConfig(budget=1, q=5, strategy=Strategy.DG_FULL, tol=1e-9)
        plan = greedy_krylov(g, cfg, Exp())
        best, delta, gap = brute_force_break_one(g, Exp())
        if gap > 1e-9:
            assert plan.pairs[0] == best
        assert plan.step_deltas[0] == pytest.approx(delta, abs=1e-7)

    def test_make_one_on_path4_matches_brute_force(self):
        g = path(4)
        cfg = GreedyConfig(budget=1, q=6, strategy=Strategy.AD_1, tol=1e-10)
        plan = greedy_krylov(g, cfg, Exp())
        best, delta, gap = brute_force_make_one(g, Exp())
        assert plan.pairs[0] == best
        assert plan.step_deltas[0] == pytest.approx(delta, abs=1e-8)

    def test_break_two_disjoint_triangles_matches_exhaustive(self):
        g = SparseSymGraph(
            6,
            [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)],
        )
        cfg = GreedyConfig(budget=2, strategy=Strategy.DG_FULL, tol=1e-10)
        plan = greedy_krylov(g, cfg, Exp())
        A = oracles.dense_adjacency(g)
        best_pairset, best_val = None, np.inf
        for e1, e2 in itertools.combinations(g.edge_pairs, 2):
            X = -oracles.symmetric_edge_matrix(6, *e1) - oracles.symmetric_edge_matrix(6, *e2)
            val = oracles.trace_delta(Exp(), A, X)
            if val < best_val - 1e-12:
                best_val, best_pairset = val, {e1, e2}
        got_val = oracles.trace_delta(
            Exp(), A, plan.as_update(6).dense()
        )
        assert got_val == pytest.approx(best_val, abs=1e-9)

    @pytest.mark.parametrize(
        "mode,strategy",
        [(Mode.BREAK, Strategy.DG_2), (Mode.MAKE, Strategy.AD_2)],
    )
    def test_monotone_step_deltas(self, mode, strategy):
        g = random_connected_graph(25, 30, seed=7)
        cfg = GreedyConfig(budget=4, q=8, strategy=strategy, tol=1e-8)
        lam = np.max(np.abs(np.linalg.eigvalsh(oracles.dense_adjacency(g))))
        for f in (Exp(), Resolvent(0.4 / (lam + 2))):
            plan = greedy_krylov(g, cfg, f)
            if mode is Mode.BREAK:
                assert all(d <= 1e-12 for d in plan.step_deltas)
            else:
                assert all(d >= -1e-12 for d in plan.step_deltas)

    def test_plan_validity(self):
        g = random_connected_graph(20, 20, seed=8)
        initial_edges = g.edge_set()
        cfg = GreedyConfig(budget=3, q=6, strategy=Strategy.DG_1)
        plan = greedy_krylov(g, cfg, Exp())
        assert all(p in initial_edges for p in plan.pairs)
        cfg2 = GreedyConfig(budget=3, q=6, strategy=Strategy.AD_1)
        plan2 = greedy_krylov(g, cfg2, Exp())
        assert all(p not in initial_edges for p in plan2.pairs)

    def test_exhaustion_flag(self):
        g = star(3)  # only 3 missing pairs (between leaves)
        cfg = GreedyConfig(budget=5, q=10, strategy=Strategy.AD_1)
        plan = greedy_krylov(g, cfg, Exp())
        assert plan.exhausted and len(plan.edges) == 3

    def test_budget_exceeding_edges_rejected(self):
        g = path(3)
        cfg = GreedyConfig(budget=5, strategy=Strategy.DG_FULL)
        with pytest.raises(ValidationError):
            greedy_krylov(g, cfg, Exp())

    def test_telescoping_sum_matches_total(self):
        g = random_connected_graph(22, 26, seed=10)
        cfg = GreedyConfig(budget=3, q=6, strategy=Strategy.DG_2, tol=1e-9)
        plan = greedy_krylov(g, cfg, Exp())
        A = oracles.dense_adjacency(g)
        total_dense = oracles.trace_delta(Exp(), A, plan.as_update(g.n).dense())
        assert sum(plan.step_deltas) == pytest.approx(total_dense, rel=1e-6, abs=1e-7)


class TestKrylovDiagnostics:
    def test_orders_and_convergence_on_hub_graph(self):
        g = barabasi_albert(1000, 5, seed=[201, 1, 0])
        cfg = GreedyConfig(budget=1, q=8, strategy=Strategy.AD_2)
        d = greedy_krylov(g, cfg, Exp()).diagnostics
        assert d["evaluations"] == 8 and d["unconverged"] == 0
        assert 1 <= d["order_min"] <= d["order_median"] <= d["order_max"] <= 20
        assert 0.0 <= d["drift_max"] <= 1e-12

    def test_unconverged_evaluations_are_counted(self):
        g = random_connected_graph(30, 45, seed=14)
        cfg = GreedyConfig(budget=2, q=4, m_max=2)
        d = greedy_krylov(g, cfg, Exp()).diagnostics
        assert d["evaluations"] == 8 and d["unconverged"] == 8
        assert d["order_min"] == d["order_max"] == 2
        assert d["drift_max"] >= 0.0


class TestMiobi:
    def test_zero_update_scores_zero(self):
        g = random_connected_graph(15, 15, seed=11)
        st = MiobiState.initialize(g, 6)
        assert st.score(2, 7, 0.0, Exp()) == 0.0

    def test_full_rank_score_matches_dense_formula(self):
        g = random_connected_graph(20, 20, seed=12)
        st = MiobiState.initialize(g, 20)
        A = oracles.dense_adjacency(g)
        w, V = np.linalg.eigh(A)
        s, t = g.edge_pairs[4]
        delta = -1.0
        shifted = w + 2.0 * delta * V[s, :] * V[t, :]
        want = float(np.sum(np.exp(shifted)) - np.sum(np.exp(w)))
        assert st.score(s, t, delta, Exp()) == pytest.approx(want, rel=1e-9)

    def test_initial_pairs_are_accurate(self):
        g = random_connected_graph(30, 30, seed=13)
        st = MiobiState.initialize(g, 8)
        A = oracles.scipy_adjacency(g)
        for k in range(8):
            lam, u = st.eigenvalues[k], st.eigenvectors[:, k]
            assert np.linalg.norm(A @ u - lam * u) <= 1e-8

    def test_break_one_on_four_cycle_matches_dense_class(self):
        g = cycle(4)
        cfg = GreedyConfig(budget=1, strategy=Strategy.DG_FULL)
        plan = miobi(g, cfg, Exp(), h=4)
        A = oracles.dense_adjacency(g)
        got = oracles.trace_delta(
            Exp(), A, -oracles.symmetric_edge_matrix(4, plan.pairs[0][0], plan.pairs[0][1])
        )
        want, _, _ = brute_force_break_one(g, Exp())
        want_val = oracles.trace_delta(Exp(), A, -oracles.symmetric_edge_matrix(4, *want))
        assert got == pytest.approx(want_val, abs=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    def test_full_rank_first_pick_matches_exact_argmin_when_gap_clear(self, seed):
        g = random_connected_graph(16, 12, seed=40 + seed)
        A = oracles.dense_adjacency(g)
        best, best_val, gap = brute_force_break_one(g, Exp())
        # first-order error is O(||X||^2); only assert where the exact gap dominates
        if gap <= 10 * 2.0:  # ||X||_F^2 = 2 for a unit edge
            pytest.skip("top-two gap too small for the first-order score")
        cfg = GreedyConfig(budget=1, strategy=Strategy.DG_FULL)
        plan = miobi(g, cfg, Exp(), h=g.n)
        assert plan.pairs[0] == best

    def test_make_uses_degree_block(self):
        g = star(5)
        cfg = GreedyConfig(budget=2, strategy=Strategy.AD_3)
        plan = miobi(g, cfg, Exp(), h=4)
        for (i, j) in plan.pairs:
            assert i != 0 and j != 0  # leaf-leaf additions only

    def test_drift_reported(self):
        g = random_connected_graph(20, 22, seed=14)
        cfg = GreedyConfig(budget=3, strategy=Strategy.DG_FULL)
        plan = miobi(g, cfg, Exp(), h=6)
        assert "orthonormality_drift" in plan.diagnostics
        assert plan.diagnostics["orthonormality_drift"] >= 0.0

    def test_too_many_eigenpairs_rejected(self):
        with pytest.raises(ValidationError):
            MiobiState.initialize(path(4), 5)

    @pytest.mark.parametrize("h", [0, 5])
    def test_eigenpair_count_checked_before_the_matrix_is_read(self, h):
        # a graph without matmul: the count is rejected before any product
        with pytest.raises(ValidationError, match="eigenpairs"):
            MiobiState.initialize(SimpleNamespace(n=4), h)

    @pytest.mark.parametrize("n,h", [(9, 8), (30, 8)], ids=["dense", "eigsh"])
    def test_pairs_equal_scipys_on_the_oracle_csr(self, n, h):
        # MIOBI reads A through the graph's matmul; the reference, through
        # scipy's CSR matrix over the same arrays, must give the same bytes
        g = random_connected_graph(n, n + 5, seed=13)
        st = MiobiState.initialize(g, h)
        A = oracles.scipy_adjacency(g)
        if h >= n - 1:
            w, V = np.linalg.eigh(A.toarray())
        else:
            v0 = np.full(n, 1.0 / np.sqrt(n))
            w, V = scipy.sparse.linalg.eigsh(A, k=h, which="LM", v0=v0)
        order = np.argsort(-np.abs(w))[:h]
        assert st.eigenvalues.tobytes() == w[order].tobytes()
        assert st.eigenvectors.tobytes() == V[:, order].tobytes()


class TestEigenvBaseline:
    def test_star_break_picks_lowest_index_spoke(self):
        plan = eigenv_baseline(star(4), 1, Mode.BREAK)
        assert plan.pairs == [(0, 1)]  # all spokes tie; lowest pair wins

    def test_path3_make_forced(self):
        plan = eigenv_baseline(path(3), 1, Mode.MAKE)
        assert plan.pairs == [(0, 2)]
        assert plan.edges[0][2] == 1.0

    def test_no_step_deltas(self):
        plan = eigenv_baseline(star(4), 2, Mode.BREAK)
        assert plan.step_deltas is None

    def test_break_uses_product_ordering(self):
        g = random_connected_graph(15, 20, seed=15)
        from fconn.graph import eigenvector_centrality

        plan = eigenv_baseline(g, 4, Mode.BREAK)
        s = eigenvector_centrality(g).tolist()
        want = sorted(g.edge_pairs, key=lambda p: (-s[p[0]] * s[p[1]], p))[:4]
        assert plan.pairs == want

    def test_make_uses_product_ordering(self):
        g = random_connected_graph(15, 20, seed=15)
        from fconn.graph import eigenvector_centrality

        plan = eigenv_baseline(g, 4, Mode.MAKE)
        s = eigenvector_centrality(g).tolist()
        # by product; the minmax ordering would rank (6, 13) first here
        want = sorted(missing_pairs(g), key=lambda p: (-s[p[0]] * s[p[1]], p))[:4]
        assert plan.pairs == want
        assert [d for _, _, d in plan.edges] == [1.0] * 4

    def test_budget_validation(self):
        with pytest.raises(ValidationError):
            eigenv_baseline(path(3), 0, Mode.BREAK)
        with pytest.raises(ValidationError):
            eigenv_baseline(path(3), 3, Mode.BREAK)


def _each(score):
    """A step scorer for ``_greedy`` from a per-candidate ``score(work, pair, delta)``."""
    return lambda work, space, deltas: [score(work, p, d) for p, d in zip(space, deltas)]


class TestNonFiniteScores:
    """A step whose scores are all NaN has no best candidate: ConvergenceError, not a crash."""

    @pytest.mark.parametrize("strategy", [Strategy.DG_FULL, Strategy.AD_3])
    def test_all_nan_scores_raise(self, strategy):
        g = random_connected_graph(20, 15, seed=6)
        cfg = GreedyConfig(budget=3, strategy=strategy)
        space = 34 if strategy is Strategy.DG_FULL else None
        with pytest.raises(ConvergenceError, match=r"step 1 of 3 .* scores are not finite") as exc:
            _greedy(g, cfg, strategy, lambda work, space, deltas: [np.nan] * len(space))
        if space is not None:
            assert f"{space} of {space} scores" in str(exc.value)

    def test_step_and_count_are_named(self):
        g = random_connected_graph(20, 15, seed=6)
        cfg = GreedyConfig(budget=3, strategy=Strategy.DG_FULL)

        def score(work, pair, d):  # finite in step 1, NaN after, one +inf at step 2
            if work.num_edges == g.num_edges:
                return float(pair[0])
            return np.inf if pair == work.edge_pairs[0] else np.nan

        with pytest.raises(ConvergenceError, match="step 2 of 3 .*: 33 of 33 scores are not finite"):
            _greedy(g, cfg, Strategy.DG_FULL, _each(score))

    @pytest.mark.parametrize("mode", [Mode.BREAK, Mode.MAKE])
    def test_a_finite_score_beats_nan(self, mode):
        g = random_connected_graph(20, 15, seed=6)
        strategy = Strategy.DG_FULL if mode is Mode.BREAK else Strategy.AD_3
        space = None

        def score(work, pair, d):
            nonlocal space
            space = space or pair
            return 1.0 if pair == space else np.nan

        plan = _greedy(g, GreedyConfig(budget=1, strategy=strategy), strategy, _each(score))
        assert plan.pairs == [space] and plan.step_deltas == [1.0]


def _serving(share, count):
    threads = [threading.Thread(target=share.serve) for _ in range(count)]
    for t in threads:
        t.start()
    return threads


def _joined(threads):
    for t in threads:
        t.join(timeout=30)
    return not any(t.is_alive() for t in threads)


class TestScoreShare:
    @pytest.mark.parametrize("strategy", [Strategy.DG_2, Strategy.AD_2])
    def test_shared_greedy_is_the_serial_one(self, strategy):
        g = random_connected_graph(300, 600, seed=8)
        cfg = GreedyConfig(budget=3, q=12, strategy=strategy)
        with ScoreShare() as share:
            threads = _serving(share, 1)
            shared = greedy_krylov(g, cfg, Exp())
        assert _joined(threads)
        serial = greedy_krylov(g, cfg, Exp())
        assert (shared.edges, shared.step_deltas, shared.diagnostics) == (
            serial.edges,
            serial.step_deltas,
            serial.diagnostics,
        )

    def test_the_lowest_failing_index_raises(self):
        def score(k):
            if k == 3:
                time.sleep(0.05)  # so that candidate 7 fails first
            if k in (3, 7):
                raise ConvergenceError(f"candidate {k}")
            return float(k)

        with ScoreShare() as share:
            threads = _serving(share, 2)
            for _ in range(5):
                with pytest.raises(ConvergenceError, match="candidate 3"):
                    share.map(score, 10)
            assert share.map(float, 4) == [0.0, 1.0, 2.0, 3.0]
        assert _joined(threads)

    def test_many_threads_score_every_candidate_once(self):
        # more threads than cores, switching every microsecond: a lost update
        # of the shared index would score some candidate twice or never
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ScoreShare() as share:
                threads = _serving(share, 4)
                for _ in range(5):
                    calls = [[] for _ in range(400)]

                    def score(k):
                        calls[k].append(threading.get_ident())
                        return sum(range(k))

                    assert share.map(score, 400) == [sum(range(k)) for k in range(400)]
                    assert all(len(c) == 1 for c in calls)
            assert _joined(threads)
        finally:
            sys.setswitchinterval(interval)
