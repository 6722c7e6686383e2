import csv
import json
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import fconn
import fconn.cli
import fconn.greedy
import fconn.weighted
from fconn.cli import RunSpec, main
from fconn.errors import ConvergenceError, ValidationError
from fconn.graph import Strategy, load_graph, save_graph
from fconn.greedy import GreedyConfig, greedy_krylov
from fconn.krylov import estimate_trace_f, trace_fun_update
from fconn.matfun import Exp

import oracles
from conftest import barabasi_albert, k6_and_star20, path, random_connected_graph, star


@pytest.fixture
def edge_list(tmp_path):
    path = tmp_path / "g.edges"
    save_graph(random_connected_graph(30, 45, seed=40), path)
    return str(path)


def _artifacts(base):
    with open(base + ".json", encoding="utf-8") as fh:
        summary = json.load(fh)
    with open(base + ".csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return summary, rows


@pytest.mark.parametrize("mode", ["break", "make"])
def test_greedy_run_writes_summary_and_plan(mode, edge_list, tmp_path, capsys):
    base = str(tmp_path / mode)
    argv = [mode, "--input", edge_list, "--budget", "2", "--q", "5", "--probes", "8"]
    assert main(argv + ["--output", base]) == 0
    summary, rows = _artifacts(base)
    assert json.loads(capsys.readouterr().out) == summary
    assert summary["subcommand"] == mode and summary["method"] == "krylov"
    assert "threads" not in summary["parameters"]
    assert summary["parameters"]["budget"] == 2 and summary["parameters"]["q"] == 5
    for key in ("delta_t", "numerator", "denominator", "wall_time_s"):
        assert isinstance(summary[key], float)
    assert summary["iterations"]["steps"] == 2 and summary["iterations"]["evaluations"] == 10
    assert len(summary["edges"]) == 2 and len(rows) == 2
    assert list(rows[0]) == ["i", "j", "delta", "cumulative_delta_trace"]
    sign = -1.0 if mode == "break" else 1.0
    for (i, j, d), row in zip(summary["edges"], rows):
        assert (int(row["i"]), int(row["j"]), float(row["delta"])) == (i, j, d)
        assert d * sign > 0


def test_trace_run(edge_list, tmp_path):
    base = str(tmp_path / "trace")
    assert main(["trace", "--input", edge_list, "--probes", "8", "--output", base]) == 0
    summary, rows = _artifacts(base)
    assert summary["trace_estimate"] > 30  # Tr(exp(A)) >= n
    want = estimate_trace_f(load_graph(edge_list), Exp(), n_probes=8, seed=0)
    assert (summary["trace_estimate"], summary["trace_stderr"]) == (want.value, want.stderr)
    assert summary["denominator"] is None and summary["denominator_stderr"] is None
    assert [summary["parameters"][k] for k in ("tol", "lag", "m_max")] == [None] * 3
    assert rows == []


def test_star_sketch_rank_is_reported_below_half_the_probes(tmp_path):
    # a star's adjacency has rank 2, so its sketch keeps 2 of 4 directions
    path = str(tmp_path / "star.edges")
    save_graph(star(30), path)
    base = str(tmp_path / "break")
    argv = ["break", "--input", path, "--budget", "1", "--q", "5", "--probes", "8"]
    assert main(argv + ["--output", base]) == 0
    summary, _ = _artifacts(base)
    assert summary["denominator_sketch_rank"] == 2 and summary["trace_sketch_rank"] is None


def test_bench_tree_sketch_rank_is_half_the_probes(bench_tree, tmp_path):
    path = str(tmp_path / "tree.edges")
    save_graph(bench_tree, path)
    base = str(tmp_path / "trace")
    assert main(["trace", "--input", path, "--probes", "40", "--output", base]) == 0
    summary, _ = _artifacts(base)
    assert summary["trace_sketch_rank"] == 20 and summary["denominator_sketch_rank"] is None


_GRAPHS = {
    "tree-plus-chords": lambda: random_connected_graph(30, 45, seed=40),
    "barabasi-albert": lambda: barabasi_albert(40, 3, seed=5),
}


@pytest.fixture(scope="module")
def bench_tree_path(bench_tree, tmp_path_factory):
    """The bench tree as an edge list: above ``SHARED_SCORING_MIN_NODES``."""
    path = str(tmp_path_factory.mktemp("tree") / "tree.edges")
    save_graph(bench_tree, path)
    return path


@pytest.mark.parametrize("graph", sorted(_GRAPHS) + ["bench-tree"])
@pytest.mark.parametrize("mode", ["break", "make"])
def test_overlapped_run_matches_direct_calls(mode, graph, tmp_path, monkeypatch, request):
    # On the bench tree the worker, its estimate done, scores candidates too;
    # the greedy's scores wait until it has, so that both threads score. On
    # the small graphs the worker runs the estimate alone.
    shared = graph == "bench-tree"
    if shared:
        path = request.getfixturevalue("bench_tree_path")
    else:
        path = str(tmp_path / "g.edges")
        save_graph(_GRAPHS[graph](), path)
    workers, scorers, plans = [], [], []
    helped = threading.Event()

    def estimate(*args, **kwargs):
        workers.append(threading.current_thread() is not threading.main_thread())
        return estimate_trace_f(*args, **kwargs)

    def score(*args, **kwargs):
        on_worker = threading.current_thread() is not threading.main_thread()
        scorers.append(on_worker)
        if on_worker:
            helped.set()
        elif shared:
            assert helped.wait(timeout=60)
        return trace_fun_update(*args, **kwargs)

    def greedy(*args):
        plans.append(greedy_krylov(*args))
        return plans[-1]

    monkeypatch.setattr(fconn.cli, "estimate_trace_f", estimate)
    monkeypatch.setattr(fconn.greedy, "trace_fun_update", score)
    monkeypatch.setattr(fconn.cli, "greedy_krylov", greedy)
    threads = threading.active_count()
    base = str(tmp_path / mode)
    argv = [mode, "--input", path, "--budget", "3", "--q", "6", "--probes", "10", "--seed", "3"]
    assert main(argv + ["--output", base]) == 0
    assert threading.active_count() == threads and workers == [True]
    assert any(scorers) is shared and not all(scorers)
    monkeypatch.undo()
    summary, rows = _artifacts(base)

    g = load_graph(path)
    den = estimate_trace_f(g, Exp(), n_probes=10, seed=3)
    if mode == "break":
        cfg = GreedyConfig(budget=3, q=6, strategy=Strategy.DG_2)
    else:
        cfg = GreedyConfig(budget=3, q=6, strategy=Strategy.AD_2)
    plan = greedy_krylov(g, cfg, Exp())
    (run,) = plans
    assert (run.edges, run.step_deltas, run.diagnostics) == (
        plan.edges,
        plan.step_deltas,
        plan.diagnostics,
    )
    assert summary["iterations"] == {"steps": 3, **plan.diagnostics, "scorers": 1 + shared}
    assert summary["denominator"] == den.value
    assert summary["denominator_stderr"] == den.stderr
    assert summary["numerator"] == float(np.sum(plan.step_deltas))
    assert summary["edges"] == [[i + 1, j + 1, d] for i, j, d in plan.edges]
    assert [row["cumulative_delta_trace"] for row in rows] == [
        repr(float(c)) for c in np.cumsum(plan.step_deltas)
    ]
    assert summary["delta_t"] == abs(summary["numerator"]) / abs(den.value)


def test_a_score_failing_on_the_worker_keeps_the_serial_exit_code(
    bench_tree_path, tmp_path, monkeypatch, capsys
):
    # The worker's first score raises. The greedy's scores wait for it, so
    # that the worker has taken a candidate before the greedy runs out.
    failed = threading.Event()

    def score(*args, **kwargs):
        if threading.current_thread() is threading.main_thread():
            assert failed.wait(timeout=60)
            return trace_fun_update(*args, **kwargs)
        failed.set()
        raise ConvergenceError("candidate score did not converge")

    monkeypatch.setattr(fconn.greedy, "trace_fun_update", score)
    threads = threading.active_count()
    base = str(tmp_path / "out")
    argv = ["break", "--input", bench_tree_path, "--budget", "3", "--q", "6", "--probes", "4"]
    assert main(argv + ["--output", base]) == 4  # ConvergenceError's code, as in the serial loop
    assert threading.active_count() == threads
    assert "candidate score did not converge" in capsys.readouterr().err
    assert not os.path.exists(base + ".json") and not os.path.exists(base + ".csv")


@pytest.mark.parametrize("probes", ["2", "8"])
def test_delta_t_stderr_follows_the_denominators(probes, edge_list, capsys):
    argv = ["break", "--input", edge_list, "--budget", "1", "--q", "3", "--probes", probes]
    assert main(argv) == 0
    s = json.loads(capsys.readouterr().out)
    if probes == "2":  # a single residual probe gives no standard error
        assert s["denominator_stderr"] is None and s["delta_t_stderr"] is None
    else:
        want = s["delta_t"] * s["denominator_stderr"] / abs(s["denominator"])
        assert s["delta_t_stderr"] == want > 0


def _failing_estimate(*args, **kwargs):
    # slower than an optimizer that fails at once, so that its error wins
    # only if the worker is joined before the error is chosen
    time.sleep(0.2)
    raise ConvergenceError("Lanczos action of f did not converge")


@pytest.mark.parametrize("budget", ["2", "1000"])  # 1000 > the 74 edges: the optimizer fails too
def test_denominator_error_wins(budget, edge_list, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(fconn.cli, "estimate_trace_f", _failing_estimate)
    threads = threading.active_count()
    base = str(tmp_path / "out")
    argv = ["break", "--input", edge_list, "--budget", budget, "--probes", "8"]
    assert main(argv + ["--output", base]) == 4
    assert threading.active_count() == threads
    assert "did not converge" in capsys.readouterr().err
    assert not os.path.exists(base + ".json") and not os.path.exists(base + ".csv")


def test_optimizer_error_keeps_its_exit_code(edge_list, tmp_path, capsys):
    threads = threading.active_count()
    base = str(tmp_path / "out")
    argv = ["break", "--input", edge_list, "--budget", "1000", "--probes", "8"]
    assert main(argv + ["--output", base]) == 2
    assert threading.active_count() == threads
    assert "exceeds the number of edges" in capsys.readouterr().err
    assert not os.path.exists(base + ".json")


def test_compare_denominator_error_wins(edge_list, monkeypatch):
    monkeypatch.setattr(fconn.cli, "estimate_trace_f", _failing_estimate)
    threads = threading.active_count()
    argv = ["compare", "--input", edge_list, "--budget", "1", "--mode", "break", "--q", "3"]
    assert main(argv + ["--methods", "krylov", "--probes", "8"]) == 4
    assert threading.active_count() == threads


def test_malformed_file_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.edges"
    bad.write_text("1 2\n2 x\n")
    assert main(["break", "--input", str(bad), "--budget", "1"]) == 3
    assert "bad.edges:2" in capsys.readouterr().err


@pytest.mark.parametrize("w", ["nan", "inf"])
def test_non_finite_weight_exits_2(w, tmp_path, capsys):
    bad = tmp_path / "bad.edges"
    bad.write_text(f"1 2\n2 3 {w}\n1 3\n")
    assert main(["break", "--input", str(bad), "--budget", "1"]) == 2
    assert f"bad.edges:2: non-finite weight {w}" in capsys.readouterr().err


def test_non_utf8_file_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.edges"
    bad.write_bytes(b"1 2\n\xff\xfe 3\n")
    assert main(["trace", "--input", str(bad)]) == 3
    assert "not UTF-8" in capsys.readouterr().err


def test_threads_option_is_rejected(edge_list):
    with pytest.raises(SystemExit) as exc:
        main(["break", "--input", edge_list, "--budget", "1", "--threads", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag,value", [("--lag", "0"), ("--lag", "-1"), ("--m-max", "0")])
def test_bad_krylov_controls_exit_2(flag, value, edge_list, capsys):
    argv = ["break", "--input", edge_list, "--budget", "1", "--probes", "8", flag, value]
    assert main(argv) == 2
    assert "must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("method,flag", [("miobi", "--lag"), ("eigenv", "--m-max")])
def test_bad_krylov_controls_exit_2_for_every_method(method, flag, edge_list, capsys):
    argv = ["break", "--input", edge_list, "--budget", "1", "--probes", "8", "--method", method]
    assert main(argv + [flag, "0"]) == 2
    assert "must be >= 1" in capsys.readouterr().err


BAD_NUMBERS = [
    ["add", "--budget", "nan"],
    ["add", "--budget", "inf"],
    ["downgrade", "--budget", "nan"],
    ["add", "--budget", "2", "--upper", "nan"],
    ["break", "--budget", "1", "--method", "miobi", "--eigenpairs", "0"],
    ["break", "--budget", "1", "--method", "miobi", "--eigenpairs", "-1"],
    ["break", "--budget", "1", "--tol", "-1"],
    ["break", "--budget", "1", "--tol", "nan"],
    ["break", "--budget", "1", "--function", "foo"],
    ["break", "--budget", "1", "--function", "resolvent:alpha=-1"],
    ["break", "--budget", "1", "--function", "resolvent:alpha=abc"],
    ["break", "--budget", "1", "--function", "resolvent:alpha=nan"],
    ["break", "--budget", "1", "--function", "poly:"],
    ["break", "--budget", "1", "--function", "poly:1,inf"],
    ["break", "--budget", "1", "--function", "poly:0"],
    ["break", "--budget", "1", "--seed", "-1"],
    ["trace", "--seed", "-3"],
    ["add", "--budget", "1", "--n-p", "0"],
    ["downgrade", "--budget", "1", "--n-p", "-3"],
    ["tune", "--budget", "1", "--n-f", "0"],
    ["add", "--budget", "0"],
    ["downgrade", "--budget", "-1"],
    ["break", "--budget", "0"],
    ["make", "--budget", "-2", "--method", "eigenv"],
    ["add", "--budget", "2", "--upper", "inf"],
    ["break", "--budget", "1", "--q", "0"],
    ["make", "--budget", "1", "--eigenpairs", "0"],
    ["break", "--budget", "1", "--probes", "3"],
    ["make", "--budget", "1", "--probes", "0"],
    ["trace", "--probes", "1"],
    ["downgrade", "--budget", "1", "--probes", "-2"],
    ["add", "--budget", "2", "--upper", "0"],
    ["add", "--budget", "2", "--upper", "-1"],
    ["rewire", "--budget", "2", "--upper", "0"],
    ["tune", "--budget", "2", "--upper", "-0.5"],
    ["trace", "--seed", "100000000000000000000000000"],
    ["break", "--budget", "1", "--seed", str(2**64)],
]


@pytest.mark.parametrize("argv", BAD_NUMBERS)
def test_non_finite_or_out_of_range_numbers_exit_2(argv, edge_list, capsys):
    # the argv's own options come last, so its --probes overrides the 8
    assert main(argv[:1] + ["--input", edge_list, "--probes", "8"] + argv[1:]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", BAD_NUMBERS)
def test_bad_numbers_are_rejected_before_the_input_is_read(argv, tmp_path, capsys):
    # a missing input would exit 3: the numbers must be checked first
    assert main(argv + ["--input", str(tmp_path / "missing.edges")]) == 2
    assert "error:" in capsys.readouterr().err


def test_downgrade_takes_no_upper(edge_list, capsys):
    # downgrade only lowers weights: a cap would be ignored
    with pytest.raises(SystemExit) as exc:
        main(["downgrade", "--input", edge_list, "--budget", "1", "--upper", "2"])
    assert exc.value.code == 2
    assert "--upper" in capsys.readouterr().err
    with pytest.raises(ValidationError, match="upper"):
        RunSpec("downgrade", edge_list, budget=1.0, upper=2.0)
    with pytest.raises(ValidationError, match="upper"):
        RunSpec("break", edge_list, budget=1.0, upper=2.0)


def test_seed_must_fit_64_bits(edge_list):
    # the Hutch++ signs are keyed by a 64-bit state, which would alias larger seeds
    assert RunSpec("trace", edge_list, seed=2**64 - 1).seed == 2**64 - 1
    for seed in (-1, 2**64, 10**26):
        with pytest.raises(ValidationError, match="seed"):
            RunSpec("trace", edge_list, seed=seed)


def test_tune_accepts_a_zero_upper(edge_list):
    # tune's edges exist, so their lower bounds are < 0 and a zero cap
    # still leaves every edge a range
    assert RunSpec("tune", edge_list, budget=1.0, upper=0.0).upper == 0.0


def test_unconverged_scoring_is_reported(edge_list, capsys):
    argv = ["break", "--input", edge_list, "--budget", "1", "--q", "3", "--probes", "8"]
    assert main(argv + ["--m-max", "2"]) == 0
    summary = json.loads(capsys.readouterr().out)
    it = summary["iterations"]
    assert it["evaluations"] == 3 and it["unconverged"] == 3
    assert it["order_min"] == it["order_median"] == it["order_max"] == 2
    assert any("unconverged" in w for w in summary["warnings"])


def test_lost_orthogonality_is_reported(tmp_path, capsys):
    path = tmp_path / "wide.edges"
    save_graph(random_connected_graph(1500, 12000, seed=3), path)
    argv = ["break", "--input", str(path), "--budget", "1", "--q", "1", "--probes", "8"]
    assert main(argv) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["iterations"]["drift_max"] <= 1e-12 and summary["warnings"] == []
    assert main(argv + ["--lag", "40", "--m-max", "40"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["iterations"]["drift_max"] > fconn.cli.DRIFT_WARNING
    assert any("orthogonality" in w for w in summary["warnings"])


def _complete_graph_file(tmp_path):
    path = tmp_path / "k4.edges"
    path.write_text("".join(f"{i} {j}\n" for i in range(1, 5) for j in range(i + 1, 5)))
    return str(path)


@pytest.mark.parametrize("method", ["krylov", "eigenv", "miobi"])
def test_make_on_a_complete_graph_exits_7(method, tmp_path, capsys):
    base = str(tmp_path / "out")
    argv = ["make", "--input", _complete_graph_file(tmp_path), "--budget", "1", "--probes", "8"]
    assert main(argv + ["--method", method, "--output", base]) == 7
    assert "search space is empty" in capsys.readouterr().err
    assert not os.path.exists(base + ".json") and not os.path.exists(base + ".csv")


def test_compare_make_on_a_complete_graph_exits_7(tmp_path, capsys):
    base = str(tmp_path / "out")
    argv = ["compare", "--mode", "make", "--input", _complete_graph_file(tmp_path)]
    assert main(argv + ["--budget", "1", "--probes", "8", "--output", base]) == 7
    assert "search space is empty" in capsys.readouterr().err
    assert not os.path.exists(base + ".csv")


def test_eigenv_numerator_uses_the_krylov_controls(edge_list, capsys):
    argv = ["break", "--input", edge_list, "--budget", "2", "--probes", "8", "--method", "eigenv"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["warnings"] == []
    assert main(argv + ["--m-max", "1"]) == 0
    assert any("unconverged" in w for w in json.loads(capsys.readouterr().out)["warnings"])


@pytest.mark.parametrize("subcommand", ["trace", "downgrade", "add", "tune", "rewire"])
@pytest.mark.parametrize("flag,value", [("--tol", "1e-6"), ("--lag", "2"), ("--m-max", "50")])
def test_krylov_controls_only_on_greedy_subcommands(subcommand, flag, value, edge_list):
    argv = [subcommand, "--input", edge_list, flag, value]
    if subcommand != "trace":
        argv += ["--budget", "1"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("mode", ["break", "make"])
def test_miobi_run(mode, edge_list, tmp_path):
    base = str(tmp_path / mode)
    argv = [mode, "--input", edge_list, "--budget", "2", "--method", "miobi", "--eigenpairs", "6"]
    assert main(argv + ["--probes", "8", "--output", base]) == 0
    summary, rows = _artifacts(base)
    assert summary["method"] == "miobi"
    assert summary["iterations"]["steps"] == 2 and summary["iterations"]["eigenpairs"] == 6
    assert summary["iterations"]["orthonormality_drift"] >= 0.0
    assert "scorers" not in summary["iterations"]  # only greedy_krylov may share its scoring
    # MIOBI's first-order scores are not trace changes: no cumulative column
    assert len(rows) == 2 and not any(row["cumulative_delta_trace"] for row in rows)
    sign = -1.0 if mode == "break" else 1.0
    assert all(d * sign > 0 for _, _, d in summary["edges"])


@pytest.mark.parametrize("mode", ["break", "make"])
def test_miobi_without_a_finite_score_exits_4(mode, edge_list, tmp_path, monkeypatch, capsys):
    # MIOBI's first-order eigenpairs can blow up until every score is NaN
    # (break --budget 20 on a 2000-node Barabasi-Albert graph, at step 13)
    monkeypatch.setattr(fconn.greedy.MiobiState, "score", lambda *args: float("nan"))
    base = str(tmp_path / mode)
    argv = [mode, "--input", edge_list, "--budget", "2", "--method", "miobi", "--eigenpairs", "6"]
    assert main(argv + ["--probes", "8", "--output", base]) == 4
    assert "greedy step 1 of 2 has no best candidate" in capsys.readouterr().err
    assert not os.path.exists(base + ".json") and not os.path.exists(base + ".csv")


@pytest.fixture(scope="module")
def hub_edge_list(tmp_path_factory):
    """The benchmark's make-ba graph for seed 1, input 0: 2000 nodes, 9975 edges."""
    path = tmp_path_factory.mktemp("hub") / "ba.edges"
    save_graph(barabasi_albert(2000, 5, seed=[1, 1, 0]), path)
    return str(path)


@pytest.mark.parametrize("budget,warned", [(1, False), (4, True)])
def test_miobi_divergence_is_a_summary_warning(budget, warned, hub_edge_list, tmp_path):
    # the drift ends at 0.47 after one removal and at 66.2 after four
    base = str(tmp_path / "miobi")
    argv = ["break", "--input", hub_edge_list, "--budget", str(budget), "--method", "miobi"]
    assert main(argv + ["--output", base]) == 0
    summary, _ = _artifacts(base)
    drift = summary["iterations"]["orthonormality_drift"]
    assert (drift > fconn.cli.MIOBI_DRIFT_WARNING) == warned
    assert any("MIOBI eigenvector updates diverged" in w for w in summary["warnings"]) == warned


def test_diverged_miobi_exits_4_without_numpy_warnings(hub_edge_list, tmp_path):
    # past step 12 every first-order score overflows to inf or NaN; a fresh
    # process shows what a user sees on stderr
    src = os.path.dirname(os.path.dirname(fconn.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = ["break", "--input", hub_edge_list, "--budget", "20", "--method", "miobi"]
    proc = subprocess.run(
        [sys.executable, "-m", "fconn.cli", *argv, "--output", str(tmp_path / "miobi")],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 4
    assert proc.stderr.splitlines() == [
        "error: greedy step 13 of 20 has no best candidate: 9963 of 9963 scores are not finite"
    ]


@pytest.mark.parametrize("mode", ["break", "make"])
@pytest.mark.parametrize("method", ["miobi", "eigenv", "krylov"])
def test_numerator_is_the_plans_trace_change(mode, method, edge_list, capsys):
    argv = [mode, "--input", edge_list, "--budget", "2", "--eigenpairs", "6", "--probes", "8"]
    assert main(argv + ["--method", method]) == 0
    summary = json.loads(capsys.readouterr().out)
    g = load_graph(edge_list)
    X = sum(
        oracles.symmetric_edge_matrix(g.n, i - 1, j - 1, d) for i, j, d in summary["edges"]
    )
    want = oracles.trace_delta(Exp(), oracles.dense_adjacency(g), X)
    assert summary["numerator"] == pytest.approx(want, rel=1e-8)


def test_weighted_add_run(edge_list, tmp_path):
    base = str(tmp_path / "add")
    argv = ["add", "--input", edge_list, "--budget", "1", "--n-p", "4", "--n-f", "2"]
    assert main(argv + ["--method", "lbfgs", "--probes", "8", "--output", base]) == 0
    summary, rows = _artifacts(base)
    assert summary["subcommand"] == "add" and summary["method"] == "lbfgs"
    assert set(summary["iterations"]) == {"inner", "outer", "krylov_order", "unconverged"}
    assert summary["iterations"]["inner"] > 0 and summary["iterations"]["outer"] > 0
    assert summary["iterations"]["krylov_order"] > 0 and summary["iterations"]["unconverged"] == 0
    assert summary["warnings"] == []
    # the weighted path has no Krylov controls to echo
    assert [summary["parameters"][k] for k in ("tol", "lag", "m_max")] == [None] * 3
    assert summary["edges"] and len(rows) == len(summary["edges"])
    for (i, j, d), row in zip(summary["edges"], rows):
        assert (int(row["i"]), int(row["j"]), float(row["delta"])) == (i, j, d)
        assert row["cumulative_delta_trace"] == ""
        assert d > 0


def test_unconverged_weighted_model_is_reported(edge_list, capsys, monkeypatch):
    monkeypatch.setattr(fconn.weighted, "DEFAULT_M_MAX", 1)
    argv = ["add", "--input", edge_list, "--budget", "1", "--n-p", "4", "--n-f", "2"]
    assert main(argv + ["--probes", "8"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["iterations"]["krylov_order"] == 1
    assert summary["iterations"]["unconverged"] > 0
    assert any("unconverged" in w for w in summary["warnings"])


def test_short_candidate_pool_is_a_summary_warning(tmp_path, capsys):
    # a one-edge graph holds 1 of the 100 existing edges downgrade ranks
    one = tmp_path / "one.edges"
    one.write_text("1 2\n")
    assert main(["downgrade", "--input", str(one), "--budget", "1", "--probes", "8"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["warnings"] == ["only 1 existing edges available (pool of 100)"]


@pytest.mark.parametrize(
    "graph,argv",
    [
        (path(50), ["break", "--budget", "1"]),
        (k6_and_star20(), ["downgrade", "--budget", "1", "--n-p", "30"]),
    ],
    ids=["break-path50", "downgrade-K6+K1,20"],
)
def test_default_jobs_resolve_slow_and_split_spectra(graph, argv, tmp_path, capsys):
    # the path's spectral gap is small, and the union's two components have
    # close top eigenvalues; the default jobs rank by centrality on both
    p = tmp_path / "g.edges"
    save_graph(graph, p)
    assert main(argv + ["--input", str(p)]) == 0
    assert json.loads(capsys.readouterr().out)["warnings"] == []


@pytest.mark.parametrize("subcommand", ["add", "tune", "rewire", "downgrade"])
@pytest.mark.parametrize(
    "edges,seed,warns", [(45, 40, True), (10, 41, False)], ids=["trips", "clear"]
)
def test_resolvent_pole_warning(subcommand, edges, seed, warns, tmp_path, capsys):
    # lambda_1 is 5.66 with 45 extra edges and 3.36 with 10, so alpha (lambda_1
    # + budget) is 1.066 and 0.698; a downgrade cannot raise lambda_1
    p = tmp_path / "g.edges"
    save_graph(random_connected_graph(30, edges, seed=seed), p)
    argv = [subcommand, "--input", str(p), "--budget", "1", "--function", "resolvent:alpha=0.16"]
    assert main(argv + ["--method", "hessian", "--n-p", "8", "--n-f", "3", "--probes", "8"]) == 0
    warnings = json.loads(capsys.readouterr().out)["warnings"]
    pole = [w for w in warnings if "pole" in w]
    if warns and subcommand != "downgrade":
        assert pole == [
            "resolvent pole may lie inside the feasible set: "
            "alpha*(lambda_1(A) + budget) = 1.066 >= 1, so the objective may be unbounded"
        ]
    else:
        assert pole == []


def test_compare_run(edge_list, tmp_path, capsys):
    base = str(tmp_path / "cmp")
    argv = ["compare", "--input", edge_list, "--budget", "2", "--mode", "break", "--q", "5"]
    assert main(argv + ["--probes", "8", "--eigenpairs", "6", "--output", base]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["method"] for r in rows] == ["krylov", "miobi", "eigenv"]
    for row in rows:
        assert row["iterations"] == 2 and row["delta_t"] > 0
        others = [m for m in ("krylov", "miobi", "eigenv") if m != row["method"]]
        assert all(0 <= row[f"common_{m}"] <= 2 for m in others)
    with open(base + ".csv", newline="", encoding="utf-8") as fh:
        assert [r["method"] for r in csv.DictReader(fh)] == ["krylov", "miobi", "eigenv"]


def test_compare_times_every_method_alone(edge_list, monkeypatch, capsys):
    # the denominator's interval overlaps none of the methods' timed calls
    spans = {}

    def timed(name, fn):
        def call(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[name] = (t0, time.perf_counter())

        return call

    def estimate(*args, **kwargs):
        time.sleep(0.1)  # long enough to overlap a method started beside it
        return estimate_trace_f(*args, **kwargs)

    monkeypatch.setattr(fconn.cli, "estimate_trace_f", timed("estimate", estimate))
    for name in ("greedy_krylov", "miobi", "eigenv_baseline"):
        monkeypatch.setattr(fconn.cli, name, timed(name, getattr(fconn.cli, name)))
    argv = ["compare", "--input", edge_list, "--budget", "1", "--mode", "break", "--q", "5"]
    assert main(argv + ["--probes", "8", "--eigenpairs", "6"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 3 and len(spans) == 4
    start, end = spans.pop("estimate")
    for name, (t0, t1) in spans.items():
        assert t1 <= start or t0 >= end, name


def test_compare_krylov_row_matches_the_break_run(edge_list, capsys):
    argv = ["--input", edge_list, "--budget", "2", "--q", "5", "--probes", "8", "--seed", "2"]
    assert main(["break"] + argv) == 0
    single = json.loads(capsys.readouterr().out)
    assert main(["compare", "--mode", "break", "--methods", "krylov"] + argv) == 0
    (row,) = json.loads(capsys.readouterr().out)
    assert row["delta_t"] == single["delta_t"]


@pytest.mark.parametrize(
    "argv",
    [
        ["break", "--strategy", "ad2"],
        ["make", "--strategy", "dg1", "--method", "eigenv"],
        ["compare", "--mode", "make", "--strategy", "dg2"],
    ],
)
def test_strategy_of_the_other_mode_exits_2(argv, edge_list, capsys):
    assert main(argv + ["--input", edge_list, "--budget", "1", "--probes", "8"]) == 2
    assert "is not valid for" in capsys.readouterr().err


@pytest.mark.parametrize(
    "subcommand", ["break", "make", "downgrade", "add", "tune", "rewire", "trace", "compare"]
)
def test_help_of_every_subcommand(subcommand, capsys):
    with pytest.raises(SystemExit) as exc:
        main([subcommand, "--help"])
    assert exc.value.code == 0
    assert "--input" in capsys.readouterr().out


_IMPORT_GUARD = """
import json, sys

import fconn

heavy = ("scipy.linalg", "scipy.sparse.linalg")
loaded = {"import fconn": [m for m in heavy if m in sys.modules]}
import fconn.cli

for mode in ("break", "make"):
    argv = [mode, "--input", sys.argv[1], "--budget", "2", "--q", "5", "--probes", "8"]
    assert fconn.cli.main(argv + ["--output", sys.argv[2] + mode]) == 0
    loaded[mode] = [m for m in heavy if m in sys.modules]
print(json.dumps(loaded))
"""


def _fresh_process(script, *args):
    """The last stdout line of ``script`` run by a new interpreter with this fconn, as JSON."""
    src = os.path.dirname(os.path.dirname(fconn.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_break_and_make_do_not_import_scipy_linalg(edge_list, tmp_path):
    # Importing scipy.linalg or scipy.sparse.linalg would add about 0.1 s to a
    # job's start-up, on top of the scipy package that the next test keeps
    # out; only the miobi baseline needs one (eigsh), lazily, over the graph's
    # matmul.
    loaded = _fresh_process(_IMPORT_GUARD, edge_list, str(tmp_path / "out-"))
    assert loaded == {"import fconn": [], "break": [], "make": []}


# Which of the modules named after the input and output arguments each job
# stage has loaded, MIOBI last.
_JOBS_GUARD = """
import json, sys

import fconn
import fconn.cli

watched = sys.argv[3:]
loaded = {"import fconn": [m for m in watched if m in sys.modules]}
fconn.load_graph(sys.argv[1])
loaded["load_graph"] = [m for m in watched if m in sys.modules]
common = ["--input", sys.argv[1], "--probes", "8"]
jobs = {
    "break": ["break", "--budget", "2", "--q", "5"],
    "make": ["make", "--budget", "2", "--q", "5"],
    "trace": ["trace"],
    "downgrade": ["downgrade", "--budget", "1", "--n-p", "4", "--n-f", "2", "--method", "hessian"],
    "miobi": ["make", "--budget", "2", "--method", "miobi", "--eigenpairs", "6"],
}
for name, argv in jobs.items():
    assert fconn.cli.main(argv + common + ["--output", sys.argv[2] + name]) == 0, name
    loaded[name] = [m for m in watched if m in sys.modules]
print(json.dumps(loaded))
"""


def test_jobs_do_not_import_the_scipy_package(edge_list, tmp_path):
    # scipy's package start-up is most of a job's: importing scipy.sparse took
    # 0.3 s and 22 MB. The graph calls scipy's compiled CSR kernel without it,
    # and only MIOBI's lazy import of scipy.sparse.linalg, for eigsh, loads it.
    loaded = _fresh_process(_JOBS_GUARD, edge_list, str(tmp_path / "out-"), "scipy", "scipy.sparse")
    untouched = ["import fconn", "load_graph", "break", "make", "trace", "downgrade"]
    assert loaded == dict.fromkeys(untouched, []) | {"miobi": ["scipy", "scipy.sparse"]}


def test_jobs_load_no_random_generator_or_executor(edge_list, tmp_path):
    # numpy.random, which loads secrets, hashlib and OpenSSL's _hashlib, added
    # 5.3 MB and 10-15 ms to a job, and concurrent.futures, which loads
    # logging, another 0.7 MB and 6 ms: the Hutch++ signs come from the
    # package's own stream and the estimate runs on a plain thread. MIOBI's
    # lazy scipy.sparse.linalg may load them. fconn.share, which lets the
    # denominator thread score candidates too, loads only at 10000 nodes.
    watched = ["numpy.random", "secrets", "hashlib", "_hashlib", "concurrent.futures", "logging"]
    watched += ["fconn.share"]
    loaded = _fresh_process(_JOBS_GUARD, edge_list, str(tmp_path / "out-"), *watched)
    del loaded["miobi"]
    untouched = ["import fconn", "load_graph", "break", "make", "trace", "downgrade"]
    assert loaded == dict.fromkeys(untouched, [])
