import itertools

import numpy as np
import pytest

from fconn.matfun import Exp, Resolvent
from fconn.weighted import (
    WeightedMode,
    WeightedProblem,
    gradient,
    hessian,
    interior_point_solve,
    objective,
)

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


def _dense_phi(prob, A, x):
    """phi(x) from the full spectra of A + X and A."""
    X = oracles.assemble_update(prob.graph.n, prob.F, x)
    f = prob.f
    return float(np.sum(f(np.linalg.eigvalsh(A + X))) - np.sum(f(np.linalg.eigvalsh(A))))


def _box_budget_vertices(lower, upper, budget):
    """A superset of the vertices of {lower <= x <= upper, sum |x| <= budget}.

    In each orthant the set is a box cut by one budget halfspace, so every
    vertex has each coordinate at 0 or at a bound, except at most one that
    takes what is left of the budget.
    """
    levels = [sorted({lo, 0.0, hi}) for lo, hi in zip(lower, upper)]
    out = []
    for x in itertools.product(*levels):
        x = np.array(x)
        used = np.sum(np.abs(x))
        if used <= budget:
            out.append(x)
        for h in range(len(x)):
            rest = budget - (used - abs(x[h]))
            for v in (rest, -rest):
                if rest >= 0 and lower[h] <= v <= upper[h]:
                    y = x.copy()
                    y[h] = v
                    out.append(y)
    return out


# phi is convex, so its maximum over the box-and-budget polytope lies at a
# vertex: ADD and TUNE must reach the best one. DOWNGRADE minimizes phi, and
# its minimum need not be a vertex. TUNE with L-BFGS is left out for time
# (about 6.5 s).
@pytest.mark.parametrize(
    "mode,seed,inner",
    [
        (WeightedMode.ADD, 40, "lbfgs"),
        (WeightedMode.ADD, 40, "hessian"),
        (WeightedMode.TUNE, 41, "hessian"),
    ],
)
def test_interior_point_reaches_the_best_vertex(mode, seed, inner):
    g = random_connected_graph(16, 24, seed=seed, weighted=True)
    F = missing_pairs(g)[:3] if mode is WeightedMode.ADD else list(g.edge_pairs[:3])
    prob = WeightedProblem.build(g, F, mode, 1.5, Exp())
    A = g.adjacency.toarray()
    best = max(_dense_phi(prob, A, v) for v in _box_budget_vertices(prob.lower, prob.upper, 1.5))
    x, report = interior_point_solve(prob, inner=inner)
    assert np.all(x >= prob.lower) and np.all(x <= prob.upper)
    assert np.sum(np.abs(x)) <= prob.budget
    got = _dense_phi(prob, A, x)
    assert got <= best * (1.0 + 1e-12)
    assert best - got <= 1e-7 * abs(best)
    assert report.objective == pytest.approx(got, rel=1e-7)
    assert objective(prob, x) == report.objective
    assert report.converged
    assert report.outer_iterations > 0 and report.inner_iterations > 0
