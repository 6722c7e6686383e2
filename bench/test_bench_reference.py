import json
import os
import subprocess
import sys

import fconn
import numpy as np

import generators
import reference
import run
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))


def _lanczos_vs_dense(n, edges, weights, changes):
    A = generators.dense_adjacency(n, edges, weights)
    U, B = reference.change_factors(n, changes)
    got = reference.gain_lanczos(reference.sparse_adjacency(n, edges, weights), U, B)
    return got, reference.gain_dense(A, changes)


class TestGain:
    def test_removal_and_addition_match_dense(self):
        edges, _ = generators.tree_plus_chords(300, 900, seed=7)
        present = {tuple(p) for p in edges.tolist()}
        i, j = edges[10]
        missing = next((a, b) for a in range(300) for b in range(a + 1, 300) if (a, b) not in present)
        for changes in ([(i, j, -1.0)], [(missing[0], missing[1], 1.0)], [(i, j, -1.0), (*missing, 1.0)]):
            got, want = _lanczos_vs_dense(300, edges, None, changes)
            assert abs(got - want) <= 1e-9 * abs(want)

    def test_weighted_downgrade_matches_dense(self):
        edges, w = generators.tree_plus_chords(60, 240, seed=1, weighted=True)
        changes = [(int(a), int(b), -0.5 * float(x)) for (a, b), x in zip(edges[:6], w[:6])]
        got, want = _lanczos_vs_dense(60, edges, w, changes)
        assert abs(got - want) <= 1e-9 * abs(want)

    def test_false_convergence_case(self):
        # Two-block reorthogonalization reports this gain with a 199% error
        # at tight tolerances; full reorthogonalization must not.
        edges, _ = generators.tree_plus_chords(1500, 12000, seed=3)
        got, want = _lanczos_vs_dense(1500, edges, None, [(289, 366, -1.0)])
        assert abs(got - want) <= 1e-8 * abs(want)

    def test_plan_gain_dispatch(self):
        edges, _ = generators.tree_plus_chords(100, 200, seed=2)
        i, j = edges[0]
        want = reference.gain_dense(generators.dense_adjacency(100, edges), [(i, j, -1.0)])
        assert reference.plan_gain(100, edges, None, [(i, j, -1.0)]) == want


def _checker(name, n=40):
    workload = run.WORKLOADS[name]
    if workload.argv[0] == "downgrade":
        edges, w = generators.tree_plus_chords(n, 2 * n, seed=1, weighted=True)
    else:
        (edges, _), w = generators.tree_plus_chords(n, 2 * n, seed=1), None
    return run.Checker(workload, run.Input(n, edges, w), {})


class TestPlanChecks:
    def test_break_plan(self):
        c = _checker("break-tree")
        assert c.workload.budget == 1
        (a, b), (d, e) = c.inp.edges[:2].tolist()
        missing = next((i, j) for i in range(40) for j in range(i + 1, 40) if (i, j) not in c.edge_weight)
        assert c.plan_valid([(a, b, -1.0)])
        assert not c.plan_valid([(a, b, -1.0), (d, e, -1.0)])  # over the budget
        assert not c.plan_valid([(*missing, -1.0)])
        assert not c.plan_valid([(a, b, -0.5)])

    def test_make_plan(self):
        c = _checker("make-ba")
        (a, b) = c.inp.edges[0].tolist()
        missing = next((i, j) for i in range(40) for j in range(i + 1, 40) if (i, j) not in c.edge_weight)
        assert c.plan_valid([(*missing, 1.0)])
        assert not c.plan_valid([(a, b, 1.0)])

    def test_downgrade_box_and_budget(self):
        c = _checker("downgrade-w")
        pairs = c.inp.edges[:6].tolist()
        small = [(i, j, -0.5 * c.edge_weight[(i, j)]) for i, j in pairs]
        assert c.plan_valid(small)
        assert not c.plan_valid([(i, j, -1.01 * c.edge_weight[(i, j)]) for i, j in pairs[:1]])
        assert not c.plan_valid([(i, j, 0.1) for i, j in pairs[:1]])
        heavy = c.inp.edges[np.argsort(-c.inp.weights)][:6].tolist()
        over = [(i, j, -c.edge_weight[(i, j)]) for i, j in heavy]
        assert sum(-d for *_, d in over) > 5 and not c.plan_valid(over)

    def test_expected_misses_are_counted_not_failed(self):
        jobs = [run.Job(False, 1.0, 1.0, 0, checks={"exit": True, "plan": True, "numerator": False})]
        assert run.tally(run.WORKLOADS["make-ba"], jobs) == (0, 1)
        assert run.tally(run.WORKLOADS["break-tree"], jobs) == (1, 1)


def test_traced_job_reports_layers(tmp_path):
    edges, _ = generators.tree_plus_chords(30, 40, seed=0)
    graph = tmp_path / "g.txt"
    generators.write_edge_list(graph, edges)
    metrics, spans = tmp_path / "m.json", tmp_path / "s.json"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fconn.__file__)))
    cmd = [sys.executable, os.path.join(HERE, "tracing.py"), str(metrics), str(spans)]
    cmd += ["break", "--q", "5", "--budget", "2", "--input", str(graph)]
    subprocess.run(cmd, check=True, env=env, capture_output=True, timeout=120)
    m = json.loads(metrics.read_text())
    assert set(tracing.TIMES) | set(tracing.COUNTS) <= set(m)
    assert m["greedy.evaluations"] == 5 + 5
    assert m["graph.with_edge_delta.calls"] == 2
    assert m["krylov.trace_fun_update.calls"] == 10
    assert 0 < m["krylov.spmm_cols"] <= 2 * m["krylov.extend.calls"]
    assert 0 < m["greedy.scoring_share"] <= 1
    assert len(json.loads(spans.read_text())) > m["krylov.extend.calls"]


def test_run_process_reports_the_child_alone(tmp_path):
    # pytest itself is far above 100 MB, so a figure inherited from it would show
    wall, rss, code = run.run_process([sys.executable, "-c", "raise SystemExit(3)"], str(tmp_path / "a"))
    assert code == 3 and wall > 0 and 0 < rss < 100
    wall, _, code = run.run_process(
        [sys.executable, "-c", "import time; time.sleep(30)"], str(tmp_path / "b"), timeout=0.5
    )
    assert code == -9 and wall == 0.5
