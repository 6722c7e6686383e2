"""The names that ``bench/tracing.py`` wraps and reads must exist in ``fconn``.

The tracer reaches into the package by attribute name and reads result
fields (``iterations``, ``converged``, ``diagnostics["evaluations"]``), so a
rename there would silently zero a benchmark metric. These tests run it the
way the benchmark does, on a 30-node graph.
"""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

import fconn
from fconn.graph import save_graph

from conftest import random_connected_graph

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.fixture(scope="module")
def edge_list(tmp_path_factory):
    path = tmp_path_factory.mktemp("graph") / "g.edges"
    save_graph(random_connected_graph(30, 45, seed=40), path)
    return str(path)


def _traced(tmp_path, argv):
    metrics, spans = tmp_path / "m.json", tmp_path / "s.json"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fconn.__file__)))
    cmd = [sys.executable, str(TRACING), str(metrics), str(spans)] + argv
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(metrics.read_text())


def test_traced_break(edge_list, tmp_path):
    argv = ["break", "--input", edge_list, "--budget", "2", "--q", "5", "--probes", "8"]
    m = _traced(tmp_path, argv)
    assert set(tracing.COUNTS) <= set(m)
    assert m["greedy.evaluations"] == 10
    assert m["krylov.trace_fun_update.calls"] == 10
    assert m["krylov.trace_fun_update.order_max"] >= m["krylov.trace_fun_update.order_p50"] > 0
    assert m["krylov.extend.calls"] > 0 and m["krylov.spmm_cols"] > 0


def test_traced_weighted(edge_list, tmp_path):
    argv = ["add", "--input", edge_list, "--budget", "1", "--n-p", "4", "--n-f", "2"]
    m = _traced(tmp_path, argv + ["--method", "hessian", "--probes", "8"])
    assert set(tracing.COUNTS) <= set(m)
    # the Hessian reads the solve's one Krylov model and builds no per-node spaces
    assert m["weighted.hessian.calls"] > 0
    assert m["krylov.multiple_frechet_eval.calls"] == 0
    assert m["weighted.select_candidates_s"] > 0 and m["weighted.outer_iterations"] > 0
