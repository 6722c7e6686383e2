import numpy as np
import pytest
import scipy.sparse

from fconn.errors import ConvergenceError, MemoryBudgetError, ValidationError
from fconn.graph import SparseSymGraph
from fconn.krylov import (
    BlockKrylov,
    LowRankUpdate,
    _lanczos_lockstep,
    estimate_trace_f,
    frechet_eval,
    fun_action,
    fun_update,
    multiple_frechet_eval,
    trace_fun_update,
)
from fconn.matfun import Exp, Polynomial, Resolvent, Sinh

import oracles
from conftest import barabasi_albert, missing_pairs, path, random_connected_graph, triangle


class TestLowRankUpdate:
    def test_single_edge_reproduction(self):
        X = LowRankUpdate.from_edge(6, 1, 4, -2.5)
        D = X.dense()
        want = oracles.symmetric_edge_matrix(6, 1, 4, -2.5)
        assert np.array_equal(D, want)
        assert np.linalg.norm(X.U.T @ X.U - np.eye(2)) <= 1e-12

    def test_multi_edge_and_diagonal(self):
        X = LowRankUpdate.from_edge_deltas(5, [(0, 2, 1.5), (2, 4, -0.5), (1, 1, 2.0)])
        want = (
            oracles.symmetric_edge_matrix(5, 0, 2, 1.5)
            + oracles.symmetric_edge_matrix(5, 2, 4, -0.5)
        )
        want[1, 1] = 2.0
        assert np.allclose(X.dense(), want)

    def test_zero_deltas_keep_shape(self):
        X = LowRankUpdate.from_edge_deltas(5, [(0, 2, 0.0), (1, 3, 0.0)])
        assert X.rank == 4
        assert np.allclose(X.dense(), 0.0)

    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValidationError):
            LowRankUpdate.from_edge_deltas(5, [(0, 2, 1.0), (2, 0, 1.0)])

    def test_validation(self):
        with pytest.raises(ValidationError):
            LowRankUpdate(np.ones((4, 2)), np.eye(2))  # not orthonormal
        with pytest.raises(ValidationError):
            LowRankUpdate(np.eye(4)[:, :2], np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_negated(self):
        X = LowRankUpdate.from_edge(4, 0, 1, 2.0)
        assert np.allclose(X.negated().dense(), -X.dense())


class TestBlockKrylov:
    def test_arnoldi_relation_and_orthonormality(self):
        g = random_connected_graph(40, 50, seed=0)
        A = g.adjacency
        start = LowRankUpdate.from_edge(40, 3, 7, -1.0).U
        kry = BlockKrylov(A, start, mode="arnoldi")
        for _ in range(8):
            kry.extend()
        m = kry.filled
        k_m = kry._offsets[m]
        U_m = kry.basis(m)
        U_all = kry.basis(m + 1)  # includes the residual block m+1
        anorm = np.max(np.abs(A).sum(axis=0))
        assert np.linalg.norm(U_all.T @ U_all - np.eye(U_all.shape[1])) <= 1e-10
        # A U_m = U_m H_m + U_{m+1} H_{m+1,m} E_m^T: the first k_m columns of
        # the stored projected matrix encode the relation including coupling
        resid = A @ U_m - U_all @ kry._H[: U_all.shape[1], :k_m]
        assert np.linalg.norm(resid) <= 1e-10 * anorm
        H = kry.projected(m)
        assert np.linalg.norm(H - H.T) == 0.0

    def test_prefix_extension(self):
        g = random_connected_graph(30, 40, seed=1)
        start = LowRankUpdate.from_edge(30, 0, 5, 1.0).U
        kry = BlockKrylov(g.adjacency, start, mode="arnoldi")
        kry.extend()
        kry.extend()
        b2 = kry.basis(2).copy()
        h2 = kry.projected(2).copy()
        kry.extend()
        assert np.array_equal(kry.basis(3)[:, : b2.shape[1]], b2)
        assert np.array_equal(kry.projected(3)[: h2.shape[0], : h2.shape[1]], h2)

    def test_exhaustion_on_small_space(self):
        g = path(4)
        start = LowRankUpdate.from_edge(4, 0, 1, 1.0).U
        kry = BlockKrylov(g.adjacency, start, mode="arnoldi")
        grew = True
        steps = 0
        while grew and steps < 10:
            grew = kry.extend()
            steps += 1
        assert kry.exhausted
        assert kry.total_cols <= 4

    def test_zero_start_rejected(self):
        with pytest.raises(ValidationError):
            BlockKrylov(np.eye(3), np.zeros((3, 1)))


class TestFunUpdate:
    def test_zero_core_converges_at_lag_plus_one(self):
        g = random_connected_graph(25, 30, seed=2)
        X = LowRankUpdate.from_edge_deltas(25, [(0, 3, 0.0)])
        res = fun_update(g, X, Exp(), lag=2, tol=1e-10)
        assert res.converged and res.iterations == 3
        assert np.allclose(res.core, 0.0)

    def test_linear_polynomial_exact_at_order_one(self):
        g = path(10)
        X = LowRankUpdate.from_edge(10, 2, 3, -1.0)
        res = fun_update(g, X, Polynomial([0.0, 1.0]), m_max=1)
        assert np.allclose(res.implied_matrix(), X.dense(), atol=1e-13)

    def test_cubic_polynomial_exact_from_order_four(self):
        g = random_connected_graph(30, 45, seed=3)
        A = g.adjacency.toarray()
        X = LowRankUpdate.from_edge(30, 1, 9, -1.0)
        f = Polynomial([0.0, 0.0, 0.0, 1.0])
        res = fun_update(g, X, f, tol=1e-12)
        assert res.iterations >= 4
        dense = oracles.matrix_function(f, A + X.dense()) - oracles.matrix_function(f, A)
        err = np.linalg.norm(res.implied_matrix() - dense) / np.linalg.norm(dense)
        assert err <= 1e-10

    def test_exp_edge_removal_against_dense(self):
        g = random_connected_graph(50, 70, seed=4)
        A = g.adjacency.toarray()
        i, j = g.edge_pairs[11]
        X = LowRankUpdate.from_edge(50, i, j, -1.0)
        res = fun_update(g, X, Exp(), tol=1e-10)
        dense = oracles.matrix_function(Exp(), A + X.dense()) - oracles.matrix_function(
            Exp(), A
        )
        err = np.linalg.norm(res.implied_matrix() - dense) / np.linalg.norm(dense)
        assert res.converged and err <= 1e-8

    def test_m_max_reached_flags_unconverged(self):
        g = random_connected_graph(60, 90, seed=5)
        X = LowRankUpdate.from_edge(60, 0, 1, -1.0)
        res = fun_update(g, X, Exp(), tol=1e-14, m_max=3)
        assert not res.converged and res.iterations == 3

    def test_entry_matches_implied_matrix(self):
        g = random_connected_graph(20, 25, seed=6)
        X = LowRankUpdate.from_edge(20, 2, 5, 1.0)
        res = fun_update(g, X, Exp(), tol=1e-10)
        M = res.implied_matrix()
        assert res.entry(3, 11) == pytest.approx(M[3, 11], rel=1e-12)


class TestTraceFunUpdate:
    def test_zero_update(self):
        g = random_connected_graph(20, 20, seed=7)
        X = LowRankUpdate.from_edge_deltas(20, [(1, 2, 0.0)])
        res = trace_fun_update(g, X, Exp())
        assert res.delta == 0.0 and res.converged

    def test_square_polynomial_edge_removal(self):
        # Tr (A+X)^2 - Tr A^2 = -2 for removing a unit edge
        g = random_connected_graph(15, 20, seed=8)
        A = g.adjacency.toarray()
        i, j = g.edge_pairs[0]
        X = LowRankUpdate.from_edge(15, i, j, -1.0)
        f = Polynomial([0.0, 0.0, 1.0])
        res = trace_fun_update(g, X, f, tol=1e-12)
        dense = oracles.trace_delta(f, A, X.dense())
        assert res.delta == pytest.approx(-2.0, abs=1e-12)
        assert res.delta == pytest.approx(dense, abs=1e-12)

    def test_exp_against_dense_medium_graph(self):
        g = random_connected_graph(250, 350, seed=9)
        A = g.adjacency.toarray()
        rng = np.random.default_rng(10)
        i, j = g.edge_pairs[int(rng.integers(g.num_edges))]
        X = LowRankUpdate.from_edge(250, i, j, -1.0)
        res = trace_fun_update(g, X, Exp(), tol=1e-10)
        dense = oracles.trace_delta(Exp(), A, X.dense())
        assert abs(res.delta - dense) <= 1e-8 * abs(dense)

    def test_agreement_with_fun_update_trace(self):
        tol = 1e-8
        for seed in range(4):
            g = random_connected_graph(35, 50, seed=seed, weighted=True)
            i, j = g.edge_pairs[seed]
            X = LowRankUpdate.from_edge(35, i, j, -g.weight(i, j))
            t1 = trace_fun_update(g, X, Exp(), tol=tol).delta
            t2 = fun_update(g, X, Exp(), tol=tol).trace()
            assert abs(t1 - t2) <= 10 * tol * max(1.0, abs(t1))

    def test_deletion_insertion_inverse(self):
        tol = 1e-9
        for seed in range(4):
            g = random_connected_graph(30, 40, seed=20 + seed)
            i, j = g.edge_pairs[2 * seed]
            X = LowRankUpdate.from_edge(30, i, j, -1.0)
            fwd = trace_fun_update(g, X, Exp(), tol=tol).delta
            g2 = g.with_edge_delta(i, j, -1.0)
            back = trace_fun_update(g2, X.negated(), Exp(), tol=tol).delta
            assert abs(fwd + back) <= 10 * tol * max(1.0, abs(fwd))

    def test_m_fixed_mode(self):
        g = random_connected_graph(40, 50, seed=11)
        X = LowRankUpdate.from_edge(40, 0, 2, -1.0)
        res = trace_fun_update(g, X, Exp(), m_fixed=12)
        assert res.iterations == 12 and res.converged
        ref = trace_fun_update(g, X, Exp(), tol=1e-12)
        assert res.delta == pytest.approx(ref.delta, rel=1e-6)

    def test_resolvent_and_sinh(self):
        g = random_connected_graph(30, 40, seed=12)
        A = g.adjacency.toarray()
        lam_max = np.max(np.linalg.eigvalsh(A))
        i, j = g.edge_pairs[3]
        X = LowRankUpdate.from_edge(30, i, j, -1.0)
        for f in (Sinh(), Resolvent(0.5 / lam_max)):
            res = trace_fun_update(g, X, f, tol=1e-10)
            dense = oracles.trace_delta(f, A, X.dense())
            assert res.delta == pytest.approx(dense, rel=1e-7, abs=1e-9)


class TestFrechetEval:
    def test_identity_function_order_one(self):
        g = path(12)
        res = frechet_eval(g, 3, 8, Polynomial([0.0, 1.0]), m_max=1)
        want = np.zeros((12, 12))
        want[3, 8] = 1.0
        assert np.allclose(res.implied_matrix(), want, atol=1e-13)

    def test_zero_matrix_exp(self):
        A = scipy.sparse.csr_matrix((8, 8))
        res = frechet_eval(A, 2, 5, Exp())
        want = np.zeros((8, 8))
        want[2, 5] = 1.0
        assert res.converged
        assert np.allclose(res.implied_matrix(), want, atol=1e-13)

    def test_exp_against_augmented_oracle(self):
        g = random_connected_graph(30, 45, seed=13)
        A = g.adjacency.toarray()
        E = np.zeros((30, 30))
        E[2, 9] = 1.0
        res = frechet_eval(g, 2, 9, Exp(), tol=1e-10)
        want = oracles.frechet_block(Exp(), A, E)
        err = np.linalg.norm(res.implied_matrix() - want) / np.linalg.norm(want)
        assert err <= 1e-6

    def test_diagonal_direction(self):
        g = random_connected_graph(20, 30, seed=14)
        A = g.adjacency.toarray()
        E = np.zeros((20, 20))
        E[4, 4] = 1.0
        res = frechet_eval(g, 4, 4, Exp(), tol=1e-10)
        want = oracles.frechet_block(Exp(), A, E)
        assert np.linalg.norm(res.implied_matrix() - want) <= 1e-8 * np.linalg.norm(want)


class TestMultipleFrechetEval:
    def test_batch_of_one_matches_single(self):
        g = random_connected_graph(25, 35, seed=15)
        single = frechet_eval(g, 2, 9, Exp())
        multi = multiple_frechet_eval(g, [(2, 9)], Exp())
        core = multi.cores[(2, 9)]
        assert core.shape == single.core.shape
        assert np.allclose(core, single.core, atol=1e-12)

    def test_shared_node_agrees_with_independent_calls(self):
        g = random_connected_graph(25, 35, seed=16)
        multi = multiple_frechet_eval(g, [(2, 9), (2, 14)], Exp(), tol=1e-9)
        for pair in [(2, 9), (2, 14)]:
            single = frechet_eval(g, pair[0], pair[1], Exp(), tol=1e-9)
            got = multi.implied_matrix(pair)
            want = single.implied_matrix()
            assert np.linalg.norm(got - want) <= 1e-10 * max(1.0, np.linalg.norm(want))

    def test_linear_polynomial_indicators(self):
        g = random_connected_graph(15, 20, seed=17)
        F = [(0, 3), (3, 7), (1, 2)]
        multi = multiple_frechet_eval(g, F, Polynomial([0.0, 1.0]), m_max=4)
        for (i, j) in F:
            want = np.zeros((15, 15))
            want[i, j] = 1.0
            assert np.allclose(multi.implied_matrix((i, j)), want, atol=1e-12)

    def test_memory_budget(self):
        g = random_connected_graph(50, 60, seed=18)
        with pytest.raises(MemoryBudgetError):
            multiple_frechet_eval(g, [(0, 1), (2, 3)], Exp(), max_floats=100)

    def test_empty_edge_set_rejected(self):
        g = triangle()
        with pytest.raises(ValidationError):
            multiple_frechet_eval(g, [], Exp())


class TestFunAction:
    @pytest.mark.parametrize("fname", ["exp", "sinh", "resolvent"])
    def test_against_dense(self, fname):
        g = random_connected_graph(40, 60, seed=19, weighted=True)
        A = g.adjacency.toarray()
        lam = np.max(np.abs(np.linalg.eigvalsh(A)))
        f = {"exp": Exp(), "sinh": Sinh(), "resolvent": Resolvent(0.5 / lam)}[fname]
        v = np.random.default_rng(20).standard_normal(40)
        y = fun_action(g, f, v, tol=1e-10)
        want = oracles.matrix_function(f, A) @ v
        assert np.linalg.norm(y - want) <= 1e-8 * np.linalg.norm(want)

    def test_zero_vector(self):
        g = triangle()
        assert np.array_equal(fun_action(g, Exp(), np.zeros(3)), np.zeros(3))

    def test_m_max_too_small_raises(self):
        g = random_connected_graph(60, 120, seed=24)
        v = np.random.default_rng(25).standard_normal(60)
        with pytest.raises(ConvergenceError):
            fun_action(g, Exp(), v, m_max=3)


def _mixed_components():
    """A weighted 40-node connected graph plus a 6-cycle and a 3-node path."""
    core = random_connected_graph(40, 80, seed=26, weighted=True)
    cyc = [(40 + k, 40 + (k + 1) % 6, 1.0) for k in range(6)]
    pth = [(46, 47, 0.7), (47, 48, 1.3)]
    return SparseSymGraph(49, list(core.edges) + cyc + pth)


def _mixed_block(n):
    """Columns that stop at different orders, including zero and early exhaustion."""
    rng = np.random.default_rng(27)
    V = np.zeros((n, 6))
    V[:, 0] = rng.standard_normal(n)
    V[0, 1] = 1.0  # indicator: a different convergence order
    V[40:46, 3] = 1.0  # eigenvector of the cycle: exhausted at order 1
    V[46:49, 4] = rng.standard_normal(3)  # path component: exhausted by order 3
    V[:, 5] = 1e6 * rng.standard_normal(n)
    return V  # column 2 stays zero


class TestLockstepKernel:
    @pytest.mark.parametrize("fname", ["exp", "sinh", "resolvent"])
    def test_block_against_dense(self, fname):
        g = _mixed_components()
        A = g.adjacency.toarray()
        lam = np.max(np.abs(np.linalg.eigvalsh(A)))
        f = {"exp": Exp(), "sinh": Sinh(), "resolvent": Resolvent(0.5 / lam)}[fname]
        V = _mixed_block(g.n)
        Y = _lanczos_lockstep(g, f, V, quadratic=False, tol=1e-10)
        want = oracles.matrix_function(f, A) @ V
        assert np.array_equal(Y[:, 2], np.zeros(g.n))
        for c in (0, 1, 3, 4, 5):
            assert np.linalg.norm(Y[:, c] - want[:, c]) <= 1e-8 * np.linalg.norm(want[:, c])

    def test_columns_do_not_depend_on_their_batch(self):
        g = _mixed_components()
        V = _mixed_block(g.n)
        Y = _lanczos_lockstep(g, Exp(), V, quadratic=False)
        for c in range(V.shape[1]):
            alone = fun_action(g, Exp(), V[:, c])
            assert np.linalg.norm(Y[:, c] - alone) <= 1e-11 * max(np.linalg.norm(alone), 1.0)

    def test_exhausted_columns_are_exact(self):
        g = _mixed_components()
        V = _mixed_block(g.n)
        Y = _lanczos_lockstep(g, Exp(), V[:, [3, 4]], quadratic=False, tol=1e-2)
        want = oracles.matrix_function(Exp(), g.adjacency.toarray()) @ V[:, [3, 4]]
        assert np.allclose(Y, want, rtol=1e-12, atol=1e-12)

    def test_quadratic_forms_against_dense(self):
        g = _mixed_components()
        V = _mixed_block(g.n)
        forms = _lanczos_lockstep(g, Exp(), V, quadratic=True, tol=1e-10)
        F = oracles.matrix_function(Exp(), g.adjacency.toarray())
        want = np.einsum("ij,ij->j", V, F @ V)
        assert forms[2] == 0.0
        assert np.allclose(forms, want, rtol=1e-9, atol=0.0)

    def test_against_per_vector_reference(self):
        g = random_connected_graph(300, 900, seed=28)
        V = np.random.default_rng(29).standard_normal((300, 5))
        Y = _lanczos_lockstep(g, Exp(), V, quadratic=False)
        for c in range(5):
            want = oracles.lanczos_action(g, Exp(), V[:, c])
            assert np.linalg.norm(Y[:, c] - want) <= 1e-11 * np.linalg.norm(want)


class TestEstimateTrace:
    def test_zero_matrix_exact(self):
        A = scipy.sparse.csr_matrix((9, 9))
        est = estimate_trace_f(A, Exp(), n_probes=20, seed=3)
        assert est == pytest.approx(9.0, abs=1e-9)

    def test_traceless_polynomial_exact_regime(self):
        g = random_connected_graph(12, 15, seed=21)
        est = estimate_trace_f(g, Polynomial([0.0, 1.0]), n_probes=24, seed=4)
        assert est == pytest.approx(0.0, abs=1e-9)

    def test_exp_within_one_percent(self):
        g = random_connected_graph(100, 150, seed=22)
        est = estimate_trace_f(g, Exp(), n_probes=40, seed=5)
        want = oracles.trace_function(Exp(), g.adjacency.toarray())
        assert abs(est - want) <= 0.01 * abs(want)

    def test_probe_validation(self):
        g = triangle()
        with pytest.raises(ValidationError):
            estimate_trace_f(g, Exp(), n_probes=7)
        with pytest.raises(ValidationError):
            estimate_trace_f(g, Exp(), n_probes=0)

    def test_seed_determinism(self):
        g = random_connected_graph(30, 40, seed=23)
        a = estimate_trace_f(g, Exp(), n_probes=12, seed=9)
        b = estimate_trace_f(g, Exp(), n_probes=12, seed=9)
        assert a == b

    def test_matches_per_probe_hutchpp(self):
        g = random_connected_graph(2000, 8000, seed=1)
        want = oracles.hutchpp_per_probe(g, Exp(), n_probes=40, seed=0)
        got = estimate_trace_f(g, Exp(), n_probes=40, seed=0)
        assert abs(got - want) <= 1e-10 * abs(want)

    def test_hub_graph_matches_per_probe_hutchpp(self):
        # with one orthogonalization pass per step instead of two, one probe
        # of this graph is still moving after 80 steps
        g = barabasi_albert(2000, 5, seed=[921, 1, 5])
        want = oracles.hutchpp_per_probe(g, Exp(), n_probes=40, seed=0)
        got = estimate_trace_f(g, Exp(), n_probes=40, seed=0)
        assert abs(got - want) <= 1e-10 * abs(want)

    def test_action_m_max_too_small_raises(self):
        g = random_connected_graph(200, 600, seed=30)
        with pytest.raises(ConvergenceError):
            estimate_trace_f(g, Exp(), n_probes=8, seed=1, action_m_max=4)
