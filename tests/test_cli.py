import csv
import json

import pytest

from fconn.cli import main
from fconn.graph import save_graph

from conftest import random_connected_graph


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
    assert rows == []


def test_malformed_file_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.edges"
    bad.write_text("1 2\n2 x\n")
    assert main(["break", "--input", str(bad), "--budget", "1"]) == 3
    assert "bad.edges:2" in capsys.readouterr().err


def test_threads_option_is_rejected(edge_list):
    with pytest.raises(SystemExit) as exc:
        main(["break", "--input", edge_list, "--budget", "1", "--threads", "2"])
    assert exc.value.code == 2
