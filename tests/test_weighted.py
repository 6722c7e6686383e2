import itertools

import numpy as np
import pytest

from fconn.graph import Ordering, eigenvector_centrality, ranked_pairs
from fconn.krylov import _ROUNDING
from fconn.matfun import Exp, Resolvent
from fconn.weighted import (
    WeightedMode,
    WeightedProblem,
    entry_gradient_cache,
    gradient,
    hessian,
    interior_point_solve,
    objective,
    select_candidates,
)

import oracles
from conftest import missing_pairs, random_connected_graph


def _case(seed, fname):
    """A weighted 30-node graph, three existing and three missing pairs, a point x."""
    g = random_connected_graph(30, 40, seed=seed, weighted=True)
    A = oracles.dense_adjacency(g)
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
    A = oracles.dense_adjacency(g)
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


@pytest.fixture(scope="module")
def wide():
    """n = 1000, where a Lanczos basis would lose orthogonality within 30 orders."""
    g = random_connected_graph(1000, 3000, seed=0, weighted=True)
    rng = np.random.default_rng(5)
    missing = []
    while len(missing) < 3:
        i, j = sorted(int(v) for v in rng.choice(g.n, size=2, replace=False))
        if not g.has_edge(i, j) and (i, j) not in missing:
            missing.append((i, j))
    F = list(g.edge_pairs[::1000][:3]) + missing
    return g, oracles.dense_adjacency(g), F


@pytest.mark.parametrize("fname", ["exp", "resolvent"])
def test_one_model_against_dense_at_scale(wide, fname):
    g, A, F = wide
    lam = np.max(np.linalg.eigvalsh(A))
    f = Exp() if fname == "exp" else Resolvent(0.5 / (lam + 2.0))
    prob = WeightedProblem.build(g, F, WeightedMode.REWIRE, 5.0, f)
    x = np.random.default_rng(6).uniform(-0.3, 0.3, len(F))
    X = oracles.assemble_update(g.n, prob.F, x)
    model = entry_gradient_cache(prob)
    phi, grad, _ = model.evaluate(x)
    got = hessian(prob, x, model)
    assert phi == pytest.approx(oracles.trace_delta(f, A, X), rel=1e-9)
    D = oracles.matrix_function(f.derivative(), A + X)
    want = np.array([2.0 * D[i, j] for i, j in prob.F])
    assert np.linalg.norm(grad - want) <= 1e-9 * np.linalg.norm(want)
    assert np.array_equal(got, got.T)
    want = oracles.hessian(f.derivative(), A + X, prob.F)
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)
    reference = oracles.frechet_hessian(f.derivative(), A + X, prob.F)
    assert np.linalg.norm(got - reference) <= 1e-9 * np.linalg.norm(reference)
    assert model.unconverged == 0 and 2 < model.order < 40


def test_model_order_never_falls():
    prob, _, _, x = _case(0, "exp")
    model = entry_gradient_cache(prob)
    orders = []
    for t in (1.0, 0.0, 0.5, 1.0):
        model.evaluate(t * x)
        orders.append(model.order)
    assert orders == sorted(orders) and orders[0] > 0
    # 12 nodes of a 30-node graph: the space is exhausted and the model exact,
    # so a fresh model reaches the same order and the same bits
    fresh = entry_gradient_cache(prob)
    (phi, grad, _), (again, regrad, _) = fresh.evaluate(x), model.evaluate(x)
    assert fresh.order == model.order
    assert phi == again and np.array_equal(grad, regrad)


# Newton solves that ended unconverged before phi, grad phi and the Hessian
# came from one Krylov model and Newton stopped on its decrement: the
# benchmark's downgrade-w input at seed 3 (454 inner iterations), and ADD and
# REWIRE on the seed-1 graph (461 and 841). Each solve below is bounded by
# the inner iterations it reports, 1.5 times the most that each inner solver
# took on these problems when the bound was set: Newton 68 to 73, L-BFGS 346
# (ADD) and 516 (REWIRE). A count, unlike a wall-clock bound, does not depend
# on the load of the host.
INNER_BOUND = {"hessian": 110, "lbfgs": 775}


def _checked_solve(prob, inner):
    x, report = interior_point_solve(prob, inner=inner)
    assert report.inner_iterations <= INNER_BOUND[inner]
    assert np.all(x >= prob.lower - 1e-12) and np.all(x <= prob.upper + 1e-12)
    assert np.sum(np.abs(x)) <= prob.budget
    assert objective(prob, x) == report.objective
    return x, report


def test_newton_converges_on_downgrade():
    g = random_connected_graph(60, 240, seed=[3, 4, 0], weighted=True)
    F, _ = select_candidates(g, WeightedMode.DOWNGRADE, Exp(), n_P=18, n_F=6, budget=5.0)
    prob = WeightedProblem.build(g, F, WeightedMode.DOWNGRADE, 5.0, Exp())
    x, report = _checked_solve(prob, "hessian")
    assert report.converged and report.inner_iterations < 150
    assert report.unconverged == 0
    want = _dense_phi(prob, oracles.dense_adjacency(g), x)
    assert report.objective == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("mode", [WeightedMode.ADD, WeightedMode.REWIRE])
def test_newton_and_lbfgs_agree(mode):
    g = random_connected_graph(60, 240, seed=[1, 4, 0], weighted=True)
    F, _ = select_candidates(g, mode, Exp(), n_P=8, n_F=3, budget=2.0)
    prob = WeightedProblem.build(g, F, mode, 2.0, Exp())
    _, newton = _checked_solve(prob, "hessian")
    _, lbfgs = _checked_solve(prob, "lbfgs")
    assert newton.converged
    assert lbfgs.objective == pytest.approx(newton.objective, rel=1e-10)


def test_newton_stops_at_the_rounding_level_of_phi():
    # The Newton decrement test compares -g^T d with the model's rounding
    # level of phi, 100 eps (sum |f(lam)| + sum |f(mu)|) over the spectra of
    # the projected A + X and A: about 2e-9 here, where phi is about -6e3.
    # The projected spectra lack the smallest eigenvalues of the dense ones.
    g = random_connected_graph(60, 240, seed=[1, 4, 0], weighted=True)
    F, _ = select_candidates(g, WeightedMode.DOWNGRADE, Exp(), n_P=8, n_F=3, budget=2.0)
    prob = WeightedProblem.build(g, F, WeightedMode.DOWNGRADE, 2.0, Exp())
    x, report = _checked_solve(prob, "hessian")
    assert report.converged and report.inner_iterations < 150
    model = entry_gradient_cache(prob)
    model.evaluate(x)
    A = oracles.dense_adjacency(g)
    spectra = [np.linalg.eigvalsh(M) for M in (A, A + oracles.assemble_update(g.n, prob.F, x))]
    want = _ROUNDING * sum(float(np.sum(np.exp(lam))) for lam in spectra)
    assert model.phi_floor == pytest.approx(want, rel=1e-2)


@pytest.mark.parametrize("mode", list(WeightedMode))
def test_select_candidates_ranks_each_pool_by_dense_derivative(mode):
    # F is the top n_F of each centrality pool by the dense f'(A)_ij, ties
    # broken by pair; with f = exp, f' = exp too. DOWNGRADE and TUNE draw
    # existing edges by products, ADD missing pairs by minmax, REWIRE half
    # of each by minmax.
    g = random_connected_graph(40, 80, seed=[5, 4, 0], weighted=True)
    n_P, n_F = 16, 6
    fprime = oracles.matrix_function(Exp(), oracles.dense_adjacency(g))
    scores = eigenvector_centrality(g)
    existing_only = mode in (WeightedMode.DOWNGRADE, WeightedMode.TUNE)
    ordering = Ordering.PRODUCT if existing_only else Ordering.MINMAX

    def best(pool, count):
        assert len(pool) > count
        return sorted(pool, key=lambda p: (-fprime[p], p))[:count]

    if existing_only:
        want = best(ranked_pairs(g, scores, ordering, n_P, False), n_F)
    elif mode is WeightedMode.ADD:
        want = best(ranked_pairs(g, scores, ordering, n_P, True), n_F)
    else:
        existing = ranked_pairs(g, scores, ordering, n_P // 2, False)
        missing = ranked_pairs(g, scores, ordering, n_P - n_P // 2, True)
        want = best(existing, n_F // 2) + best(missing, n_F - n_F // 2)
    assert select_candidates(g, mode, Exp(), n_P=n_P, n_F=n_F, budget=1.0) == (want, [])
