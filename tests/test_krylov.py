import warnings

import numpy as np
import pytest
import scipy.linalg

import fconn.krylov
from fconn.errors import ConvergenceError, ValidationError
from fconn.graph import SparseSymGraph
from fconn.krylov import (
    _BATCH_BLOCKS,
    SUPPORT_SHARE,
    BlockKrylov,
    LowRankUpdate,
    _lagged,
    _qr_rows,
    _settled,
    _lanczos_lockstep,
    _rademacher,
    _residual_probes,
    _sketch,
    _support_product,
    estimate_trace_f,
    fun_action,
    multiple_frechet_eval,
    trace_fun_update,
)
from fconn.matfun import Exp, Polynomial, Resolvent, Sinh

import oracles
from conftest import (
    barabasi_albert,
    missing_pairs,
    path,
    random_connected_graph,
    traced_peak_mib,
    triangle,
)


class TestLowRankUpdate:
    def test_single_edge_reproduction(self):
        X = LowRankUpdate.from_edge(6, 1, 4, -2.5)
        D = X.dense()
        want = oracles.symmetric_edge_matrix(6, 1, 4, -2.5)
        assert np.array_equal(D, want)
        assert X.n == 6 and X.nodes.tolist() == [1, 4]

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
        for deltas in ([], [(0, 4, 1.0)], [(-1, 2, 1.0)]):  # no edge, out of range
            with pytest.raises(ValidationError):
                LowRankUpdate.from_edge_deltas(4, deltas)


def _qr_block(case):
    """(V, thr) of one _qr_rows contract case: its columns are the vectors, on 50 rows."""
    rng = np.random.default_rng(7)
    X = rng.standard_normal((50, 3))
    if case == "all zero":
        return np.zeros((50, 2)), 1e-12
    if case == "zero first column":
        return np.column_stack([np.zeros(50), X[:, :2]]), 1e-12
    if case == "duplicated columns":
        return X[:, [0, 1, 0, 1]], 1e-12
    if case == "dependent middle column":
        return np.column_stack([X[:, 0], 0.5 * X[:, 0] - 2.0 * X[:, 2], X[:, 2]]), 1e-12
    if case == "nearly dependent columns":  # one pass loses orthogonality here
        return np.column_stack([X[:, 0], X[:, 0] + 1e-9 * X[:, 1]]), 1e-12
    # orthogonal columns of norms 100, 1.01 thr and 0.99 thr, in both orders
    U, _ = np.linalg.qr(X)
    thr = 1e-13
    small = [1.01 * thr, 0.99 * thr]
    if case == "below then above thr":
        small.reverse()
    return U * ([100.0] + small), thr


_QR_RANKS = [
    ("all zero", 0),
    ("zero first column", 2),
    ("duplicated columns", 2),
    ("dependent middle column", 2),
    ("nearly dependent columns", 2),
    ("above then below thr", 2),
    ("below then above thr", 2),
]


class TestQrDeflate:
    """Contract of the pivoted Gram-Schmidt deflation, with scipy's pivoted QR as the oracle."""

    @pytest.mark.parametrize("case, rank", _QR_RANKS)
    def test_against_scipy_pivoted_qr(self, case, rank):
        V, thr = _qr_block(case)
        Q, C = _qr_rows(V.T.copy(), thr)
        _, R, _ = scipy.linalg.qr(V, mode="economic", pivoting=True)
        assert int(np.sum(np.abs(np.diag(R)) > thr)) == rank
        assert Q.shape == (rank, V.shape[0]) and C.shape == (rank, V.shape[1])
        assert np.linalg.norm(Q @ Q.T - np.eye(rank)) <= 1e-14
        assert np.linalg.norm(V - Q.T @ C) <= 1e-14 * np.linalg.norm(V)


class TestSupportProduct:
    """The product from the support's CSR rows equals scipy's full CSR product."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_bit_identical_to_full_product_up_to_the_gate(self, k):
        g = random_connected_graph(3000, 1500, seed=5, weighted=True)
        A = oracles.scipy_adjacency(g)
        assert A.has_sorted_indices
        rng = np.random.default_rng(k)
        gate = SUPPORT_SHARE * A.nnz
        perm = rng.permutation(g.n)
        largest = int(np.searchsorted(np.cumsum(np.diff(A.indptr)[perm]), gate, side="right"))
        assert largest > 128
        for size in [1, 2, 8, 32, 128, largest]:  # the last support's rows reach the gate
            S = np.sort(perm[:size])
            Q = np.zeros((k, g.n))
            Q[:, S] = rng.standard_normal((k, size))
            Y, reach = _support_product(g, Q, S)
            assert np.array_equal(Y, (A @ Q.T).T)
            nbrs = A.indices[np.concatenate([np.arange(A.indptr[v], A.indptr[v + 1]) for v in S])]
            assert np.array_equal(reach, np.union1d(S, nbrs))


class TestBlockKrylov:
    def test_arnoldi_relation_and_orthonormality(self):
        cases = [
            (random_connected_graph(40, 50, seed=0), [3, 7], 8, 1e-10),
            # the scale at which the two-block Lanczos recurrence loses orthogonality
            (random_connected_graph(1500, 12000, seed=3), [289, 366], 30, 1e-12),
        ]
        for g, nodes, orders, orth_tol in cases:
            A = oracles.scipy_adjacency(g)
            kry = BlockKrylov(g, nodes, mode="arnoldi")
            for _ in range(orders):
                kry.extend()
            m = kry.filled
            k_m = kry._offsets[m]
            U_m = kry.basis(m)
            U_all = kry.basis(m + 1)  # includes the residual block m+1
            anorm = np.max(np.abs(A).sum(axis=0))
            assert np.linalg.norm(U_all.T @ U_all - np.eye(U_all.shape[1])) <= orth_tol
            # A U_m = U_m H_m + U_{m+1} H_{m+1,m} E_m^T: the first k_m columns of
            # the stored projected matrix encode the relation including coupling
            resid = A @ U_m - U_all @ kry._H[: U_all.shape[1], :k_m]
            assert np.linalg.norm(resid) <= 1e-10 * anorm
            H = kry.projected(m)
            assert np.linalg.norm(H - H.T) == 0.0

    def test_prefix_extension(self):
        g = random_connected_graph(30, 40, seed=1)
        kry = BlockKrylov(g, [0, 5], mode="arnoldi")
        kry.extend()
        kry.extend()
        b2 = kry.basis(2).copy()
        h2 = kry.projected(2).copy()
        kry.extend()
        assert np.array_equal(kry.basis(3)[:, : b2.shape[1]], b2)
        assert np.array_equal(kry.projected(3)[: h2.shape[0], : h2.shape[1]], h2)

    def test_exhaustion_on_small_space(self):
        for mode in ("arnoldi", "lanczos"):
            kry = BlockKrylov(path(4), [0, 1], mode=mode)
            grew, m = True, 0
            while grew and m < 10:
                m += 1
                order, grew = kry.reach(m)
                assert order == min(m, kry.filled)
            assert not grew and m < 10
            assert kry.exhausted
            assert kry.total_cols <= 4
            # past exhaustion, reach extends no more and the order stays at filled
            filled = kry.filled
            assert kry.reach(m + 3) == (filled, False)
            assert kry.filled == filled

    def test_invalid_start_nodes_rejected(self):
        for nodes in ([], [0, 2, 0], [3], [1, -1]):  # empty, duplicate, out of range
            with pytest.raises(ValidationError):
                BlockKrylov(SparseSymGraph(3, []), nodes)

    def test_lanczos_matches_arnoldi(self):
        # the three-term recurrence keeps two blocks; up to order 10 it agrees
        # with full reorthogonalization to rounding
        g = random_connected_graph(1500, 12000, seed=3)
        nodes = [289, 366]
        full = BlockKrylov(g, nodes, mode="arnoldi")
        short = BlockKrylov(g, nodes, mode="lanczos")
        tol = 1e-12 * g.norm1
        for m in range(1, 11):
            assert full.extend() and short.extend()
            assert np.max(np.abs(short.projected(m) - full.projected(m))) <= tol
            assert np.max(np.abs(short.start_projection(m) - full.start_projection(m))) <= tol
        assert short.total_cols == full.total_cols

    def test_start_projection_is_the_rows_at_the_start_nodes(self):
        # W_m = U_m^T U for the indicator block U of the start nodes, exactly
        g = random_connected_graph(40, 60, seed=2)
        nodes = [31, 4, 17]
        U = np.eye(40)[:, nodes]
        kry = BlockKrylov(g, nodes, mode="arnoldi")
        for m in range(1, 7):
            kry.extend()
            assert np.array_equal(kry.start_projection(m), kry.basis(m).T @ U)


class TestTraceFunUpdate:
    def test_zero_update(self):
        g = random_connected_graph(20, 20, seed=7)
        X = LowRankUpdate.from_edge_deltas(20, [(1, 2, 0.0)])
        res = trace_fun_update(g, X, Exp())
        assert res.delta == 0.0 and res.converged

    def test_square_polynomial_edge_removal(self):
        # Tr (A+X)^2 - Tr A^2 = -2 for removing a unit edge
        g = random_connected_graph(15, 20, seed=8)
        A = oracles.dense_adjacency(g)
        i, j = g.edge_pairs[0]
        X = LowRankUpdate.from_edge(15, i, j, -1.0)
        f = Polynomial([0.0, 0.0, 1.0])
        res = trace_fun_update(g, X, f, tol=1e-12)
        dense = oracles.trace_delta(f, A, X.dense())
        assert res.delta == pytest.approx(-2.0, abs=1e-12)
        assert res.delta == pytest.approx(dense, abs=1e-12)

    def test_exp_against_dense_medium_graph(self):
        g = random_connected_graph(250, 350, seed=9)
        A = oracles.dense_adjacency(g)
        rng = np.random.default_rng(10)
        i, j = g.edge_pairs[int(rng.integers(g.num_edges))]
        X = LowRankUpdate.from_edge(250, i, j, -1.0)
        res = trace_fun_update(g, X, Exp(), tol=1e-10)
        dense = oracles.trace_delta(Exp(), A, X.dense())
        assert abs(res.delta - dense) <= 1e-8 * abs(dense)

    def test_deletion_insertion_inverse(self):
        tol = 1e-9
        for seed in range(4):
            g = random_connected_graph(30, 40, seed=20 + seed)
            i, j = g.edge_pairs[2 * seed]
            X = LowRankUpdate.from_edge(30, i, j, -1.0)
            fwd = trace_fun_update(g, X, Exp(), tol=tol).delta
            g2 = g.with_edge_delta(i, j, -1.0)
            back = trace_fun_update(g2, LowRankUpdate(30, X.nodes, -X.B), Exp(), tol=tol).delta
            assert abs(fwd + back) <= 10 * tol * max(1.0, abs(fwd))

    @pytest.mark.parametrize("lag", [1, 2, 3])
    def test_zero_delta_stops_at_lag_plus_one(self, lag):
        g = random_connected_graph(300, 900, seed=32)
        X = LowRankUpdate.from_edge_deltas(300, [(4, 17, 0.0)])
        res = trace_fun_update(g, X, Exp(), lag=lag)
        assert res.delta == 0.0 and res.converged and res.iterations == lag + 1

    def test_resolvent_and_sinh(self):
        g = random_connected_graph(30, 40, seed=12)
        A = oracles.dense_adjacency(g)
        lam_max = np.max(np.linalg.eigvalsh(A))
        i, j = g.edge_pairs[3]
        X = LowRankUpdate.from_edge(30, i, j, -1.0)
        for f in (Sinh(), Resolvent(0.5 / lam_max)):
            res = trace_fun_update(g, X, f, tol=1e-10)
            dense = oracles.trace_delta(f, A, X.dense())
            assert res.delta == pytest.approx(dense, rel=1e-7, abs=1e-9)


def _dense_trace_delta(g, X):
    """Tr exp(A+X) - Tr exp(A) from dense eigvalsh."""
    A = oracles.dense_adjacency(g)
    return float(
        np.sum(np.exp(np.linalg.eigvalsh(A + X.dense()))) - np.sum(np.exp(np.linalg.eigvalsh(A)))
    )


class TestRelativeStop:
    """At n >= 1000 Lanczos loses orthogonality within 30 orders; the relative
    stop must end in the plateau before that, and converged must mean accurate."""

    @pytest.fixture(scope="class")
    def wide(self):
        # an absolute stop of 1e-8 or 1e-10 runs this removal to order 76,
        # past the loss of orthogonality, and reports a 199% error as converged
        g = random_connected_graph(1500, 12000, seed=3)
        X = LowRankUpdate.from_edge(1500, 289, 366, -1.0)
        return g, X, _dense_trace_delta(g, X)

    @pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
    def test_edge_removal_against_dense(self, wide, tol):
        g, X, want = wide
        res = trace_fun_update(g, X, Exp(), tol=tol)
        assert res.converged and res.iterations <= 20
        assert abs(res.delta - want) <= 10 * tol * abs(want)

    def test_drift_flags_lost_orthogonality(self, wide):
        # at the stop the basis is still orthogonal to the start block; run
        # on to order 40 (lag 40 never fires) and the lost orthogonality
        # shows in the drift, and in Delta
        g, X, want = wide
        res = trace_fun_update(g, X, Exp(), tol=1e-10)
        assert res.converged and res.drift <= 1e-12
        res = trace_fun_update(g, X, Exp(), lag=40, m_max=40)
        assert res.iterations == 40 and res.drift > 1e-4
        assert abs(res.delta - want) > 0.1 * abs(want)

    @pytest.mark.parametrize("pair", [(2, 3), (8, 9)])
    def test_hub_edge_addition_against_dense(self, pair):
        # Delta is about 4e7, so an absolute stop of 1e-6 never fires and the
        # unconverged order-100 value is 3.6-3.7 times too large
        g = barabasi_albert(1000, 5, seed=[201, 1, 0])
        assert not g.has_edge(*pair)
        X = LowRankUpdate.from_edge(1000, *pair, 1.0)
        res = trace_fun_update(g, X, Exp())
        want = _dense_trace_delta(g, X)
        assert res.converged and res.iterations <= 20
        assert abs(res.delta - want) <= 1e-5 * abs(want)


@pytest.mark.parametrize("edge", [(999, 1000, -1.0), (500, 1500, 1.0)])
def test_trace_update_on_support_products_against_dense(edge):
    # on a path, block j is nonzero on about 2j + 2 nodes, so every product
    # of the run is a support product
    g = path(2000)
    X = LowRankUpdate.from_edge(g.n, *edge)
    kry = BlockKrylov(g, X.nodes, mode="lanczos")
    for _ in range(5):
        kry.extend()
    assert kry._support is not None  # the fifth product was still a support product
    res = trace_fun_update(g, X, Exp(), tol=1e-12)
    want = _dense_trace_delta(g, X)
    assert res.converged and res.iterations >= 5
    assert abs(res.delta - want) <= 1e-10 * abs(want)


def _frechet(M, i, j, f, **kw):
    """One-pair multiple_frechet_eval: the derivative along 1_i 1_j^T, factored."""
    return multiple_frechet_eval(M, [(i, j)], f, **kw)


class TestFrechetEval:
    def test_identity_function_order_one(self):
        g = path(12)
        res = _frechet(g, 3, 8, Polynomial([0.0, 1.0]), m_max=1)
        want = np.zeros((12, 12))
        want[3, 8] = 1.0
        assert np.allclose(res.implied_matrix((3, 8)), want, atol=1e-13)

    def test_zero_matrix_exp(self):
        res = _frechet(SparseSymGraph(8, []), 2, 5, Exp())
        want = np.zeros((8, 8))
        want[2, 5] = 1.0
        assert res.converged
        assert np.allclose(res.implied_matrix((2, 5)), want, atol=1e-13)

    def test_exp_against_augmented_oracle(self):
        g = random_connected_graph(30, 45, seed=13)
        A = oracles.dense_adjacency(g)
        E = np.zeros((30, 30))
        E[2, 9] = 1.0
        res = _frechet(g, 2, 9, Exp(), tol=1e-10)
        want = oracles.frechet_block(Exp(), A, E)
        err = np.linalg.norm(res.implied_matrix((2, 9)) - want) / np.linalg.norm(want)
        assert err <= 1e-6

    def test_diagonal_direction(self):
        g = random_connected_graph(20, 30, seed=14)
        A = oracles.dense_adjacency(g)
        E = np.zeros((20, 20))
        E[4, 4] = 1.0
        res = _frechet(g, 4, 4, Exp(), tol=1e-10)
        want = oracles.frechet_block(Exp(), A, E)
        assert np.linalg.norm(res.implied_matrix((4, 4)) - want) <= 1e-8 * np.linalg.norm(want)


class TestMultipleFrechetEval:
    def test_batch_of_one_matches_single(self):
        g = random_connected_graph(25, 35, seed=15)
        multi = multiple_frechet_eval(g, [(2, 9), (2, 14), (9, 14)], Exp())
        single = _frechet(g, 2, 9, Exp())
        core = multi.cores[(2, 9)]
        assert core.shape == single.cores[(2, 9)].shape
        assert np.allclose(core, single.cores[(2, 9)], atol=1e-12)
        E = np.zeros((25, 25))
        E[2, 9] = 1.0
        want = oracles.frechet_block(Exp(), oracles.dense_adjacency(g), E)
        err = np.linalg.norm(multi.implied_matrix((2, 9)) - want) / np.linalg.norm(want)
        assert err <= 1e-6

    def test_shared_node_agrees_with_independent_calls(self):
        g = random_connected_graph(25, 35, seed=16)
        A = oracles.dense_adjacency(g)
        multi = multiple_frechet_eval(g, [(2, 9), (2, 14)], Exp(), tol=1e-9)
        for pair in [(2, 9), (2, 14)]:
            single = _frechet(g, pair[0], pair[1], Exp(), tol=1e-9)
            got = multi.implied_matrix(pair)
            want = single.implied_matrix(pair)
            assert np.linalg.norm(got - want) <= 1e-10 * max(1.0, np.linalg.norm(want))
            E = np.zeros((25, 25))
            E[pair] = 1.0
            dense = oracles.frechet_block(Exp(), A, E)
            assert np.linalg.norm(got - dense) <= 1e-6 * np.linalg.norm(dense)

    def test_linear_polynomial_indicators(self):
        g = random_connected_graph(15, 20, seed=17)
        F = [(0, 3), (3, 7), (1, 2)]
        multi = multiple_frechet_eval(g, F, Polynomial([0.0, 1.0]), m_max=4)
        for (i, j) in F:
            want = np.zeros((15, 15))
            want[i, j] = 1.0
            assert np.allclose(multi.implied_matrix((i, j)), want, atol=1e-12)

    def test_empty_edge_set_rejected(self):
        g = triangle()
        with pytest.raises(ValidationError):
            multiple_frechet_eval(g, [], Exp())


class TestLaggedDriver:
    @staticmethod
    def _steps(values, exhausted_at=None):
        def step(m):
            return values[m - 1], m != exhausted_at

        return step

    @staticmethod
    def _absolute(a, b):
        # (change, size, floor): size 1 makes tol an absolute tolerance
        return abs(a - b), 1.0, 0.0

    def test_stops_on_lagged_tie(self):
        # |3.5 - 3.0| equals tol exactly: the test is <=, not <
        step = self._steps([5.0, 3.0, 4.0, 3.5, 9.0])
        assert _lagged(step, self._absolute, 2, 0.5, 10) == (3.5, 4, True)

    def test_exhaustion_is_converged(self):
        step = self._steps([1.0, 2.0, 4.0, 8.0], exhausted_at=3)
        assert _lagged(step, self._absolute, 1, 0.0, 10) == (4.0, 3, True)

    def test_m_max_returns_last_value_unconverged(self):
        step = self._steps([1.0, 2.0, 4.0, 8.0])
        assert _lagged(step, self._absolute, 1, 0.5, 3) == (4.0, 3, False)

    def test_every_part_must_settle(self):
        # the first part settles at order 2, the second only at order 4
        step = self._steps([(1.0, 1.0), (1.0, 5.0), (1.0, 9.0), (1.0, 9.25)])

        def moved(a, b):
            return np.abs(np.subtract(a, b)), np.ones(2), np.zeros(2)

        assert _lagged(step, moved, 1, 0.5, 10) == ((1.0, 9.25), 4, True)

    @pytest.mark.parametrize("lag,m_max", [(0, 10), (-1, 10), (2, 0)])
    def test_invalid_lag_and_m_max_rejected(self, lag, m_max):
        def step(m):
            raise AssertionError("no order may be evaluated")

        with pytest.raises(ValidationError):
            _lagged(step, self._absolute, lag, 1e-6, m_max)

    @pytest.mark.parametrize("lag,m_max", [(0, 10), (-1, 10), (2, 0)])
    def test_entry_points_reject_invalid_lag_and_m_max(self, lag, m_max):
        g = random_connected_graph(12, 10, seed=31)
        X = LowRankUpdate.from_edge(12, *g.edge_pairs[0], -1.0)
        for call in (
            lambda: trace_fun_update(g, X, Exp(), lag=lag, m_max=m_max),
            lambda: multiple_frechet_eval(g, [(0, 1)], Exp(), lag=lag, m_max=m_max),
        ):
            with pytest.raises(ValidationError):
                call()


class TestSettled:
    # (change, size, floor) at tol 0.5, and whether the change is settled
    CASES = [
        ((0.5, 1.0, 0.0), True),  # a tie with tol * size settles
        ((0.6, 1.0, 0.0), False),
        ((0.6, 0.0, 0.0), False),  # size 0: only the floor can settle it
        ((0.0, 0.0, 0.0), True),  # floor 0 and no change
        ((0.6, 0.0, 0.6), True),  # at the rounding floor
        ((np.nan, 1.0, 1.0), False),  # a NaN change never settles
        ((np.nan, 0.0, 0.0), False),
    ]

    def test_scalars_and_arrays_decide_alike(self):
        want = [settled for _, settled in self.CASES]
        scalar = [bool(_settled(*args, 0.5)) for args, _ in self.CASES]
        change, size, floor = (np.array(part) for part in zip(*(args for args, _ in self.CASES)))
        assert scalar == want
        assert _settled(change, size, floor, 0.5).tolist() == want


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


def _function(name, A):
    lam = np.max(np.abs(np.linalg.eigvalsh(A)))
    return {"exp": Exp(), "sinh": Sinh(), "resolvent": Resolvent(0.5 / lam)}[name]


class TestFunAction:
    @pytest.mark.parametrize("fname", ["exp", "sinh", "resolvent"])
    def test_against_dense(self, fname):
        g = random_connected_graph(40, 60, seed=19, weighted=True)
        A = oracles.dense_adjacency(g)
        f = _function(fname, A)
        v = np.random.default_rng(20).standard_normal(40)
        y = fun_action(g, f, v, tol=1e-10)
        want = oracles.matrix_function(f, A) @ v
        assert np.linalg.norm(y - want) <= 1e-8 * np.linalg.norm(want)

    @pytest.mark.parametrize("fname", ["exp", "sinh", "resolvent"])
    def test_mixed_columns_against_dense(self, fname):
        g = _mixed_components()
        A = oracles.dense_adjacency(g)
        f = _function(fname, A)
        V = _mixed_block(g.n)
        want = oracles.matrix_function(f, A) @ V
        for c in range(V.shape[1]):
            y = fun_action(g, f, V[:, c], tol=1e-10)
            assert np.linalg.norm(y - want[:, c]) <= 1e-8 * np.linalg.norm(want[:, c])

    def test_exhausted_starts_are_exact(self):
        g = _mixed_components()
        V = _mixed_block(g.n)
        want = oracles.matrix_function(Exp(), oracles.dense_adjacency(g)) @ V
        for c in (3, 4):
            y = fun_action(g, Exp(), V[:, c], tol=1e-2)
            assert np.allclose(y, want[:, c], rtol=1e-12, atol=1e-12)

    def test_against_per_vector_reference(self):
        g = random_connected_graph(300, 900, seed=28)
        V = np.random.default_rng(29).standard_normal((300, 5))
        for c in range(5):
            want = oracles.lanczos_action(g, Exp(), V[:, c])
            got = fun_action(g, Exp(), V[:, c])
            assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want)

    def test_zero_vector(self):
        g = triangle()
        assert np.array_equal(fun_action(g, Exp(), np.zeros(3)), np.zeros(3))

    def test_m_max_too_small_raises(self):
        g = random_connected_graph(60, 120, seed=24)
        v = np.random.default_rng(25).standard_normal(60)
        with pytest.raises(ConvergenceError):
            fun_action(g, Exp(), v, m_max=3)


class TestLockstepKernel:
    """``_lanczos_lockstep`` computes the quadratic forms v^T f(A) v of a block."""

    @pytest.mark.parametrize("fname", ["exp", "sinh", "resolvent"])
    def test_block_against_dense(self, fname):
        g = _mixed_components()
        A = oracles.dense_adjacency(g)
        f = _function(fname, A)
        V = _mixed_block(g.n)
        forms = _lanczos_lockstep(g, f, V, tol=1e-10)
        want = np.einsum("ij,ij->j", V, oracles.matrix_function(f, A) @ V)
        assert forms[2] == 0.0
        assert np.allclose(forms, want, rtol=1e-9, atol=0.0)

    def test_quadratic_forms_against_dense(self):
        # Rademacher probes, as Hutch++ draws them, at the default tolerance.
        g = random_connected_graph(200, 600, seed=31)
        V = np.random.default_rng(32).integers(0, 2, size=(200, 8)) * 2.0 - 1.0
        forms = _lanczos_lockstep(g, Exp(), V)
        F = oracles.matrix_function(Exp(), oracles.dense_adjacency(g))
        want = np.einsum("ij,ij->j", V, F @ V)
        assert np.allclose(forms, want, rtol=1e-8, atol=0.0)

    def test_columns_do_not_depend_on_their_batch(self):
        g = _mixed_components()
        V = _mixed_block(g.n)
        forms = _lanczos_lockstep(g, Exp(), V)
        for c in range(V.shape[1]):
            assert forms[c] == _lanczos_lockstep(g, Exp(), V[:, [c]])[0]

    @pytest.mark.parametrize("width", [1, 2, 5, 8])
    def test_batch_width_changes_no_digit(self, bench_tree, width):
        # five columns in batches narrower than, as wide as and wider than
        # the block, set by the workspace's size; n = 20000 exceeds einsum's
        # 8192-entry buffer, so a batch that shrinks to one row takes the
        # lone-row path
        g = bench_tree
        V = np.random.default_rng(33).standard_normal((g.n, 5))
        alone = [_lanczos_lockstep(g, Exp(), V[:, [c]])[0] for c in range(5)]
        work = np.empty(_BATCH_BLOCKS * width * g.n + g.n - 1)  # no room for one more column
        assert _lanczos_lockstep(g, Exp(), V, work=work).tolist() == alone

    def test_workspace_without_room_for_a_column_raises(self):
        g = random_connected_graph(30, 40, seed=23)
        with pytest.raises(ValueError, match="no batch"):
            _lanczos_lockstep(g, Exp(), np.ones((30, 2)), work=np.empty(_BATCH_BLOCKS * 30 - 1))

    def test_stale_workspace_changes_no_digit(self):
        # a workspace of NaNs: no step reads an entry it has not written, as
        # the zero column and the columns that stop early leave the batch and
        # the survivors' rows move up in the same blocks
        g = _mixed_components()
        V = _mixed_block(g.n)
        work = np.full(_BATCH_BLOCKS * V.shape[1] * g.n, np.nan)
        alone = [_lanczos_lockstep(g, Exp(), V[:, [c]])[0] for c in range(V.shape[1])]
        assert _lanczos_lockstep(g, Exp(), V, work=work).tolist() == alone

    def test_exhausted_columns_are_exact(self):
        g = _mixed_components()
        V = _mixed_block(g.n)[:, [3, 4]]
        forms = _lanczos_lockstep(g, Exp(), V, tol=1e-2)
        F = oracles.matrix_function(Exp(), oracles.dense_adjacency(g))
        assert np.allclose(forms, np.einsum("ij,ij->j", V, F @ V), rtol=1e-12, atol=0.0)

    def test_against_per_vector_reference(self):
        g = random_connected_graph(300, 900, seed=28)
        V = np.random.default_rng(29).standard_normal((300, 5))
        forms = _lanczos_lockstep(g, Exp(), V)
        for c in range(5):
            want = oracles.lanczos_form(g, Exp(), V[:, c])
            assert abs(forms[c] - want) <= 1e-11 * abs(want)

    def test_m_max_too_small_raises(self):
        g = random_connected_graph(200, 600, seed=30)
        V = np.random.default_rng(1).integers(0, 2, size=(200, 4)) * 2.0 - 1.0
        with pytest.raises(ConvergenceError) as err:
            _lanczos_lockstep(g, Exp(), V, m_max=4)
        assert err.value.iterations == 4 and err.value.residual > 0.0


def _signs(seed, shape, stream=0):
    """The signs ``_rademacher`` draws into a new array of ``shape``."""
    return _rademacher(seed, np.empty(shape), stream)


def _blocks(g, half):
    """The estimate's vector and kernel blocks, n * half entries each."""
    return np.empty(g.n * half), np.empty(g.n * half)


class TestEstimateTrace:
    def test_zero_matrix_exact(self):
        est = estimate_trace_f(SparseSymGraph(9, []), Exp(), n_probes=20, seed=3).value
        assert est == pytest.approx(9.0, abs=1e-9)

    def test_zero_matrix_sketch_loses_every_direction(self):
        # A Q = 0 has an all-zero Gram matrix: the sketch ends with no
        # columns, and the residual probes alone give n f(0) exactly. (With
        # n <= n_probes/2 the sketch is the identity and draws no signs.)
        est = estimate_trace_f(SparseSymGraph(30, []), Exp(), n_probes=20, seed=3)
        assert est.sketch_rank == 0 and est.value == 30.0

    @pytest.mark.parametrize("probes", [24, 40])
    def test_sketch_of_at_least_n_columns_is_the_identity(self, probes):
        # power steps drop a singular A's null space: this graph's two null
        # eigenvalues left a rank-10 sketch of its 12 nodes, and the residual
        # probes' estimate of the rest missed by up to 0.8 as the seed varied
        g = random_connected_graph(12, 6, seed=40)
        est = estimate_trace_f(g, Exp(), n_probes=probes, seed=1)
        want = oracles.trace_function(Exp(), oracles.dense_adjacency(g))
        assert est.sketch_rank == 12 and est.stderr == 0.0
        assert abs(est.value - want) <= 1e-12 * want

    @pytest.mark.parametrize("hubs", [1, 2, 5], ids=["star", "K2m", "K5m"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rank_deficient_sketch(self, hubs, seed):
        # a complete bipartite adjacency has rank 2, so the orthonormalization
        # drops all but two directions of the 20-column sketch. Q's equal
        # leaf entries round alike, so its orthogonality error sums coherently:
        # up to 1.8e-14 on these cases
        g = SparseSymGraph(300, [(i, j, 1.0) for i in range(hubs) for j in range(hubs, 300)])
        Q = _sketch(g, seed, 20, _blocks(g, 20))
        assert Q.shape == (300, 2)
        assert np.max(np.abs(Q.T @ Q - np.eye(2))) <= 5e-14
        got = estimate_trace_f(g, Exp(), n_probes=40, seed=seed)
        want = oracles.trace_function(Exp(), oracles.dense_adjacency(g))
        assert got.sketch_rank == 2
        assert abs(got.value - want) <= 1e-7 * want

    def test_full_rank_sketch_is_orthonormal(self, bench_tree):
        Q = _sketch(bench_tree, 0, 20, _blocks(bench_tree, 20))
        assert Q.shape == (20000, 20)
        assert np.max(np.abs(Q.T @ Q - np.eye(20))) <= 1e-14

    def test_traceless_polynomial_exact_regime(self):
        g = random_connected_graph(12, 15, seed=21)
        est = estimate_trace_f(g, Polynomial([0.0, 1.0]), n_probes=24, seed=4).value
        assert est == pytest.approx(0.0, abs=1e-9)

    def test_exp_within_one_percent(self):
        g = random_connected_graph(100, 150, seed=22)
        est = estimate_trace_f(g, Exp(), n_probes=40, seed=5).value
        want = oracles.trace_function(Exp(), oracles.dense_adjacency(g))
        assert abs(est - want) <= 0.01 * abs(want)

    def test_probe_validation(self):
        g = triangle()
        with pytest.raises(ValidationError):
            estimate_trace_f(g, Exp(), n_probes=7)
        with pytest.raises(ValidationError):
            estimate_trace_f(g, Exp(), n_probes=0)

    @pytest.mark.parametrize("seed", [-1, 2**64, 10**26])
    def test_seed_outside_64_bits_rejected(self, seed):
        # the signs are keyed by a 64-bit state, which would alias such seeds
        with pytest.raises(ValidationError, match="seed"):
            estimate_trace_f(triangle(), Exp(), n_probes=4, seed=seed)

    def test_largest_seed_accepted(self):
        g = random_connected_graph(30, 40, seed=23)
        assert estimate_trace_f(g, Exp(), n_probes=12, seed=2**64 - 1).stderr > 0.0

    def test_seed_determinism(self):
        g = random_connected_graph(30, 40, seed=23)
        a = estimate_trace_f(g, Exp(), n_probes=12, seed=9)
        b = estimate_trace_f(g, Exp(), n_probes=12, seed=9)
        assert a == b

    def test_matches_per_probe_hutchpp(self):
        g = random_connected_graph(2000, 8000, seed=1)
        want = oracles.hutchpp_per_probe(g, Exp(), n_probes=40, seed=0)
        got = estimate_trace_f(g, Exp(), n_probes=40, seed=0).value
        assert abs(got - want) <= 1e-10 * abs(want)

    def test_hub_graph_matches_per_probe_hutchpp(self):
        # with one orthogonalization pass per step instead of two, one probe
        # of this graph is still moving after 80 steps
        g = barabasi_albert(2000, 5, seed=[921, 1, 5])
        want = oracles.hutchpp_per_probe(g, Exp(), n_probes=40, seed=0)
        got = estimate_trace_f(g, Exp(), n_probes=40, seed=0).value
        assert abs(got - want) <= 1e-10 * abs(want)

    def test_wide_spectrum_hub_graph_against_dense(self):
        # start coordinates taken from inner products with a basis that has
        # lost orthogonality make one probe of this graph diverge
        g = barabasi_albert(2000, 5, seed=[2002, 1, 29])
        got = estimate_trace_f(g, Exp(), n_probes=40, seed=0).value
        want = oracles.trace_function(Exp(), oracles.dense_adjacency(g))
        assert abs(got - want) <= 1e-6 * abs(want)

    @pytest.mark.parametrize("probes,rtol", [(8, 0.05), (40, 1e-10)])
    def test_small_graph_with_null_eigenvalues(self, probes, rtol):
        # two null eigenvalues: start coordinates taken from inner products end
        # both probe counts in ConvergenceError; 40 probes span all 12
        # dimensions, which makes the estimate exact
        g = random_connected_graph(12, 6, seed=40)
        got = estimate_trace_f(g, Exp(), n_probes=probes, seed=0).value
        want = oracles.trace_function(Exp(), oracles.dense_adjacency(g))
        assert abs(got - want) <= rtol * abs(want)

    @staticmethod
    def _one_batch(A, f, n_probes, seed):
        """Q and residual forms from one kernel call on [Q, Z], as before the split."""
        half = n_probes // 2
        blocks = _blocks(A, half)
        Q = _sketch(A, seed, half, blocks).copy()  # the probes are written over it
        Z = _residual_probes(seed, Q, half, blocks)
        forms = _lanczos_lockstep(A, f, np.hstack([Q, Z]))
        return forms[: Q.shape[1]], forms[Q.shape[1] :]

    @pytest.mark.parametrize(
        "graph,probes,seed",
        [
            (lambda: random_connected_graph(2000, 8000, seed=1), 40, 0),
            (lambda: barabasi_albert(2000, 5, seed=[921, 1, 5]), 12, 3),
        ],
        ids=["tree-plus-chords", "barabasi-albert"],
    )
    def test_split_batches_match_one_batch(self, graph, probes, seed):
        g = graph()
        top, resid = self._one_batch(g, Exp(), probes, seed)
        got = estimate_trace_f(g, Exp(), n_probes=probes, seed=seed)
        assert got.value == sum(top.tolist()) + sum(resid.tolist()) / (probes // 2)
        assert got.stderr == float(np.std(resid, ddof=1) / np.sqrt(probes // 2))

    def test_workspace_width_changes_no_digit(self, bench_tree):
        # at n = 20000 the estimate's n x 20 kernel block holds 5-column
        # batches; batches of 1 and of all 20 columns give the same forms
        g = bench_tree
        V = _signs(0, (g.n, 20))
        forms = [
            _lanczos_lockstep(g, Exp(), V, work=np.empty(_BATCH_BLOCKS * width * g.n)).tolist()
            for width in (1, 5, 20)
        ]
        assert forms[0] == forms[1] == forms[2]

    def test_memory_bound(self, bench_tree):
        # n = 20000 and 40 probes: the vector and kernel blocks (two n x 20
        # blocks, 6.1 MiB), allocated at the start, hold every phase; a row
        # chunk's product (0.6 MiB) in the sketch's orthonormalization or the
        # probes' projection sets the peak, 6.7 MiB. Lockstep batches in
        # blocks of their own beside the sketch took the estimate to 8.3 MiB.
        bench_tree.norm1  # cached by the graph, outside the estimate
        _, peak = traced_peak_mib(lambda: estimate_trace_f(bench_tree, Exp(), n_probes=40))
        assert peak <= 7.0

    def test_estimate_within_four_standard_errors(self):
        g = barabasi_albert(1000, 3, seed=0)
        want = oracles.trace_function(Exp(), oracles.dense_adjacency(g))
        got = estimate_trace_f(g, Exp(), n_probes=40, seed=0)
        assert 0.0 < got.stderr <= 1e-2 * want
        assert abs(got.value - want) <= 4.0 * got.stderr

    def test_single_residual_probe_has_no_standard_error(self):
        g = random_connected_graph(30, 40, seed=23)
        assert estimate_trace_f(g, Exp(), n_probes=2, seed=1).stderr is None


def _splitmix64_words(state, count):
    """The first ``count`` outputs of SplitMix64 from ``state``, on Python ints mod 2^64."""
    words = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) % 2**64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        words.append(z ^ (z >> 31))
    return words


def _reference_signs(seed, shape, stream):
    """Signs of entries 0, 1, ... in C order: bit k % 64 of word k // 64, set -> +1."""
    size = int(np.prod(shape))
    words = _splitmix64_words((seed + stream * 2**63) % 2**64, -(-size // 64))
    bits = [(w >> b) & 1 for w in words for b in range(64)][:size]
    return (2.0 * np.array(bits, dtype=float) - 1.0).reshape(shape)


class TestSignStream:
    def test_first_word_of_seed_zero(self):
        # the published first output of SplitMix64 from state 0
        assert _splitmix64_words(0, 1) == [0xE220A8397B1DCDAF]
        signs = _signs(0, (64,))
        assert [int(b) for b in (signs > 0)] == [(0xE220A8397B1DCDAF >> k) & 1 for k in range(64)]

    @pytest.mark.parametrize("seed", [0, 1, 501, 2**63 - 1, 2**64 - 1])
    @pytest.mark.parametrize("shape", [(1,), (63,), (3, 7), (130, 5), (64, 2)])
    @pytest.mark.parametrize("stream", [0, 1])
    def test_matches_a_pure_python_splitmix64(self, seed, shape, stream):
        want = _reference_signs(seed, shape, stream)
        assert np.array_equal(_signs(seed, shape, stream), want)

    @pytest.mark.parametrize("rows", [1, 3, 7, 64, 2**12])
    def test_any_row_chunking_draws_the_same_signs(self, rows, monkeypatch):
        shape = (3 * 2**12 + 5, 7)
        monkeypatch.setattr(fconn.krylov, "_CHUNK_ROWS", shape[0])
        one_draw = _signs(11, shape, 1)
        monkeypatch.setattr(fconn.krylov, "_CHUNK_ROWS", rows)
        assert np.array_equal(_signs(11, shape, 1), one_draw)

    def test_signs_depend_only_on_the_c_order_position(self):
        flat = _signs(5, (2000 * 20,))
        assert np.array_equal(_signs(5, (2000, 20)), flat.reshape(2000, 20))
        assert np.array_equal(_signs(5, (20, 2000)), flat.reshape(20, 2000))
        assert np.array_equal(_signs(5, (1000, 20)), flat[:20000].reshape(1000, 20))

    def test_signs_are_balanced(self):
        signs = _signs(0, (2**20,))
        assert set(np.unique(signs).tolist()) == {-1.0, 1.0}
        assert abs(signs.mean()) <= 5.0 / np.sqrt(signs.size)

    def test_sketch_and_residual_streams_differ(self):
        sketch, resid = _signs(3, (2000, 20)), _signs(3, (2000, 20), 1)
        # independent signs agree about half the time: 20000 +- 100 of 40000
        assert abs(np.sum(sketch == resid) - 20000) <= 500
        assert not np.array_equal(_signs(3, (2000, 20)), _signs(4, (2000, 20)))

    def test_no_overflow_warning_at_the_top_of_the_counter(self):
        # the key and every counter wrap mod 2^64 in uint64 arrays, which
        # never warn; numpy warns on a uint64 scalar that overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            signs = _signs(2**64 - 1, (4096, 3), 1)
        assert np.array_equal(signs, _reference_signs(2**64 - 1, (4096, 3), 1))
