import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fconn.errors import DomainError, ValidationError
from fconn.matfun import (
    Cosh,
    Exp,
    Polynomial,
    Resolvent,
    Sinh,
    block_frechet,
    function_from_spec,
    sym_eig,
)

import oracles

ALL_FUNCTIONS = [Exp(), Sinh(), Cosh(), Resolvent(0.2), Polynomial([1.0, -0.5, 2.0, 0.25])]

finite_args = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


class TestScalarCatalog:
    def test_values_and_derivatives(self):
        x = np.linspace(-2.5, 2.5, 11)
        assert np.allclose(Exp()(x), np.exp(x))
        assert np.allclose(Sinh()(x), np.sinh(x))
        assert np.allclose(Cosh().derivative()(x), np.sinh(x))
        r = Resolvent(0.2)
        assert np.allclose(r(x), 1.0 / (1.0 - 0.2 * x))
        p = Polynomial([1.0, 0.0, 3.0])
        assert np.allclose(p(x), 1.0 + 3.0 * x**2)
        assert np.allclose(p.derivative()(x), 6.0 * x)

    def test_derivative_objects_match_finite_differences(self):
        h = 1e-6
        x = np.linspace(-2.0, 2.0, 7)
        for f in ALL_FUNCTIONS:
            fp = f.derivative()
            fd = (f(x + h) - f(x - h)) / (2 * h)
            assert np.allclose(fp(x), fd, rtol=1e-8, atol=1e-8)

    def test_second_derivatives_available(self):
        # gradient/Hessian evaluation needs f'' through f.derivative() twice
        h = 1e-5
        x = np.linspace(-1.5, 1.5, 5)
        for f in ALL_FUNCTIONS:
            fp = f.derivative()
            fpp = fp.derivative()
            fd = (fp(x + h) - fp(x - h)) / (2 * h)
            assert np.allclose(fpp(x), fd, rtol=1e-6, atol=1e-6)

    @given(finite_args, finite_args)
    @settings(max_examples=200, deadline=None)
    def test_divided_difference_symmetry(self, x, y):
        for f in ALL_FUNCTIONS:
            dxy = float(f.divided_difference(x, y))
            dyx = float(f.divided_difference(y, x))
            assert dxy == pytest.approx(dyx, rel=1e-12, abs=1e-12)

    @given(finite_args)
    @settings(max_examples=100, deadline=None)
    def test_divided_difference_coincidence(self, x):
        for f in ALL_FUNCTIONS:
            assert float(f.divided_difference(x, x)) == pytest.approx(
                float(f.derivative()(x)), rel=1e-12, abs=1e-12
            )

    def test_divided_difference_against_direct_quotient(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-2, 2, 50)
        y = rng.uniform(-2, 2, 50)
        keep = np.abs(x - y) > 0.1
        x, y = x[keep], y[keep]
        for f in ALL_FUNCTIONS:
            direct = (f(x) - f(y)) / (x - y)
            assert np.allclose(f.divided_difference(x, y), direct, rtol=1e-10)

    def test_divided_difference_near_coincidence_stable(self):
        for f in ALL_FUNCTIONS:
            for eps in (1e-8, 1e-10, 1e-13):
                got = float(f.divided_difference(1.0, 1.0 + eps))
                assert got == pytest.approx(float(f.derivative()(1.0 + eps / 2)), rel=1e-6)

    def test_resolvent_requires_valid_parameters(self):
        with pytest.raises(ValueError):
            Resolvent(-0.1)
        with pytest.raises(DomainError):
            Resolvent(0.5)(np.array([3.0]))

    def test_function_from_spec(self):
        assert isinstance(function_from_spec("exp"), Exp)
        assert isinstance(function_from_spec("sinh"), Sinh)
        r = function_from_spec("resolvent:alpha=0.05")
        assert isinstance(r, Resolvent) and r.alpha == 0.05
        p = function_from_spec("poly:1,0,2")
        assert isinstance(p, Polynomial) and p.degree == 2
        with pytest.raises(ValidationError):
            function_from_spec("gamma")
        with pytest.raises(ValidationError):
            function_from_spec("resolvent")


def fun_of_sym(f, H):
    """f(H) = Q f(w) Q^T for symmetric H = Q diag(w) Q^T, its spectrum checked first."""
    w, Q = sym_eig(H)
    f.check_spectrum(w)
    return (Q * f(w)) @ Q.T


class TestApplyFunSym:
    def test_exp_of_zero(self):
        assert np.allclose(fun_of_sym(Exp(), np.zeros((2, 2))), np.eye(2))

    def test_poly_square_of_involution(self):
        H = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(fun_of_sym(Polynomial([0, 0, 1]), H), np.eye(2))

    def test_exp_of_involution_closed_form(self):
        H = np.array([[0.0, 1.0], [1.0, 0.0]])
        got = fun_of_sym(Exp(), H)
        want = np.array([[np.cosh(1), np.sinh(1)], [np.sinh(1), np.cosh(1)]])
        assert np.allclose(got, want, rtol=1e-14)

    def test_poly_matches_horner(self):
        rng = np.random.default_rng(2)
        H = rng.standard_normal((12, 12))
        H = 0.5 * (H + H.T)
        f = Polynomial([0.3, -1.0, 0.0, 2.0, 0.5])
        got = fun_of_sym(f, H)
        want = oracles.matrix_function(f, H)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_resolvent_pole_inside_spectrum(self):
        H = np.diag([0.0, 5.0])
        with pytest.raises(DomainError):
            fun_of_sym(Resolvent(0.5), H)

    def test_all_functions_match_dense_oracle(self):
        rng = np.random.default_rng(3)
        H = rng.standard_normal((10, 10))
        H = 0.25 * (H + H.T)
        for f in ALL_FUNCTIONS:
            got = fun_of_sym(f, H)
            want = oracles.matrix_function(f, H)
            assert np.linalg.norm(got - want) <= 1e-11 * max(1, np.linalg.norm(want))


class TestSymEig:
    def test_diagonal(self):
        w, Q = sym_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(w, [1.0, 2.0, 3.0])
        assert np.allclose(np.abs(Q), np.eye(3)[:, [1, 2, 0]])

    def test_two_by_two(self):
        w, Q = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(w, [-1.0, 1.0])
        expect = 1.0 / np.sqrt(2.0)
        assert np.allclose(np.abs(Q), expect)

    def test_random_reconstruction(self):
        rng = np.random.default_rng(1)
        H = rng.standard_normal((20, 20))
        H = 0.5 * (H + H.T)
        w, Q = sym_eig(H)
        assert np.linalg.norm(H @ Q - Q * w) <= 1e-12 * np.linalg.norm(H)
        assert np.all(np.diff(w) >= 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sym_eig(np.zeros((0, 0)))


class TestBlockFrechet:
    def _random_sym(self, n, seed, scale=0.5):
        rng = np.random.default_rng(seed)
        H = rng.standard_normal((n, n))
        return scale * (H + H.T)

    def test_zero_direction(self):
        H = self._random_sym(5, 0)
        G = self._random_sym(5, 1)
        assert np.allclose(block_frechet(Exp(), H, G, np.zeros((5, 5))), 0.0)

    def test_identity_function_returns_direction(self):
        H = self._random_sym(6, 2)
        G = self._random_sym(6, 3)
        E = np.arange(36.0).reshape(6, 6)
        got = block_frechet(Polynomial([0.0, 1.0]), H, G, E)
        assert np.allclose(got, E, atol=1e-12)

    def test_exp_log2_diagonal_case(self):
        H = np.diag([0.0, np.log(2.0)])
        got = block_frechet(Exp(), H, H, np.eye(2))
        want = oracles.frechet_block(Exp(), H, np.eye(2))
        assert np.allclose(got, want, rtol=1e-12)
        assert np.allclose(np.diag(got), [1.0, 2.0])

    def test_against_augmented_oracle(self):
        for seed, f in enumerate(ALL_FUNCTIONS):
            H = self._random_sym(10, 10 + seed)
            G = self._random_sym(10, 20 + seed)
            E = np.random.default_rng(30 + seed).standard_normal((10, 10))
            got = block_frechet(f, H, G, E)
            n = 10
            aug = np.block([[H, E], [np.zeros((n, n)), G]])
            want = oracles.matrix_function(f, aug)[:n, n:]
            assert np.linalg.norm(got - want) <= 1e-10 * max(1.0, np.linalg.norm(want))

    def test_rectangular_direction(self):
        H = self._random_sym(4, 40)
        G = self._random_sym(7, 41)
        E = np.random.default_rng(42).standard_normal((4, 7))
        got = block_frechet(Exp(), H, G, E)
        aug = np.block([[H, E], [np.zeros((7, 4)), G]])
        want = oracles.matrix_function(Exp(), aug)[:4, 4:]
        assert np.allclose(got, want, atol=1e-10)

    def test_invariance_under_permutation_similarity(self):
        H = self._random_sym(8, 50)
        G = self._random_sym(8, 51)
        E = np.random.default_rng(52).standard_normal((8, 8))
        base = block_frechet(Exp(), H, G, E)
        rng = np.random.default_rng(53)
        P = np.eye(8)[rng.permutation(8)]
        R = np.eye(8)[rng.permutation(8)]
        permuted = block_frechet(Exp(), P.T @ H @ P, R.T @ G @ R, P.T @ E @ R)
        assert np.linalg.norm(P @ permuted @ R.T - base) <= 1e-10 * np.linalg.norm(base)

    def test_finite_difference_consistency(self):
        # same-matrix derivative vs central differences of the dense oracle
        H = self._random_sym(10, 60)
        E = np.random.default_rng(61).standard_normal((10, 10))
        got = block_frechet(Exp(), H, H, E)
        errs = []
        for h in (1e-3, 1e-4):
            fd = (
                oracles.matrix_function(Exp(), H + h * E)
                - oracles.matrix_function(Exp(), H - h * E)
            ) / (2 * h)
            errs.append(np.linalg.norm(fd - got) / np.linalg.norm(got))
        assert errs[0] <= 1e-4
        assert errs[1] <= 1e-6
        assert errs[1] < errs[0]

    def test_wrong_direction_shape_rejected(self):
        with pytest.raises(ValueError):
            block_frechet(Exp(), np.eye(3), np.eye(4), np.zeros((3, 3)))
