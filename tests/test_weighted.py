import numpy as np
import pytest

from fconn.matfun import Exp, Resolvent
from fconn.weighted import WeightedMode, WeightedProblem, gradient, hessian, objective

import oracles
from conftest import missing_pairs, random_connected_graph


def _case(seed, fname):
    """A weighted 30-node graph, three existing and three missing pairs, a point x."""
    g = random_connected_graph(30, 40, seed=seed, weighted=True)
    A = g.adjacency.toarray()
    lam = np.max(np.linalg.eigvalsh(A))
    f = Exp() if fname == "exp" else Resolvent(0.5 / (lam + 2.0))
    F = list(g.edge_pairs[::7][:3]) + missing_pairs(g)[::50][:3]
    prob = WeightedProblem.build(g, F, WeightedMode.REWIRE, 5.0, f)
    x = np.random.default_rng(seed).uniform(-0.3, 0.3, len(F))
    return prob, A, oracles.assemble_update(g.n, prob.F, x), x


def _central_differences(fn, x, h):
    return np.stack(
        [(fn(x + h * e) - fn(x - h * e)) / (2.0 * h) for e in np.eye(len(x))], axis=-1
    )


CASES = pytest.mark.parametrize(
    "seed,fname", [(0, "exp"), (1, "exp"), (0, "resolvent"), (1, "resolvent")]
)


@CASES
def test_objective_against_dense(seed, fname):
    prob, A, X, x = _case(seed, fname)
    want = oracles.trace_delta(prob.f, A, X)
    assert objective(prob, x) == pytest.approx(want, rel=1e-9, abs=1e-12)


@CASES
def test_gradient_against_dense_derivative(seed, fname):
    prob, A, X, x = _case(seed, fname)
    D = oracles.matrix_function(prob.f.derivative(), A + X)
    want = np.array([2.0 * D[i, j] for i, j in prob.F])
    got = gradient(prob, x)
    assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)


@CASES
def test_gradient_against_objective_differences(seed, fname):
    prob, _, _, x = _case(seed, fname)
    want = _central_differences(lambda y: objective(prob, y), x, 1e-5)
    got = gradient(prob, x)
    assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(got)


@CASES
def test_hessian_against_gradient_differences(seed, fname):
    prob, _, _, x = _case(seed, fname)
    want = _central_differences(lambda y: gradient(prob, y), x, 1e-5)
    got = hessian(prob, x)
    assert np.array_equal(got, got.T)
    assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(got)
