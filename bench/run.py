"""Benchmark of the fconn CLI: job time, set-up time, memory and accuracy.

Each run generates a workload's inputs from ``--seed`` (in a timed run, one
graph per job), then runs real CLI jobs (``python3 -m fconn.cli <argv>``, the argv a user would type) one at a
time from this single process -- a closed loop with one client -- until
``--seconds`` have passed. Every job runs BLAS on one thread (see
``BLAS_THREADS``). Every job is checked against references computed without
``fconn`` (``reference.py``), so a fast wrong answer counts as a failure.

    python3 bench/run.py --workload break-tree --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 50

With ``--trace 0`` the last line of stdout is a JSON object whose metrics are
the end-to-end ones; with ``--trace 1`` jobs alternate between plain and
traced (``tracing.py``) and the metrics are the per-layer ones. Run it from
the repository root; it reads ``src/`` and writes only under ``.bench_work/``.
See ``bench/README.md`` for why each workload exists.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

import generators
import reference
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
# One BLAS thread per job. On a 2-core shared host, two OpenBLAS threads gave
# no speed-up on break-tree (same wall time, twice the CPU time) and made the
# job wait on whichever core a neighbour had taken, which spread job_s widely.
BLAS_THREADS = 1
JOB_TIMEOUT_S = 150
SETUP_REPEATS = 5  # at least this many set-ups are timed in a run

# Accuracy the benchmark demands of reported numbers. The CLI scores with a
# Krylov tolerance of 1e-6 per candidate, so a converged numerator is far
# closer to the reference than NUMERATOR_RTOL. Hutch++ with 40 probes is a
# randomized estimate: TRACE_RTOL is set well above the errors measured on
# the workloads (at most a few percent) so that only a broken estimator fails.
NUMERATOR_RTOL = 1e-4
TRACE_RTOL = 0.1


@dataclass
class Input:
    """One generated graph plus what the checks need to know about it."""

    n: int
    edges: np.ndarray
    weights: np.ndarray = None
    exact_trace: float = None


# Input k of a run with seed s is drawn from the seed [s, workload tag, k].


def _break_tree(seed, k):
    edges, _ = generators.tree_plus_chords(20000, 4 * 20000, seed=[seed, 0, k])
    return Input(20000, edges)


def _make_ba(seed, k):
    # One dense spectrum (about 0.5 s) gives graph 0, the traced run's input,
    # an exact trace; the timed run's other graphs go without.
    edges = generators.barabasi_albert(2000, 5, seed=[seed, 1, k])
    exact = reference.trace_exp_dense(generators.dense_adjacency(2000, edges)) if k == 0 else None
    return Input(2000, edges, exact_trace=exact)


def _trace_prod(seed, k):
    a, _ = generators.tree_plus_chords(160, 2 * 160, seed=[seed, 2, k])
    b, _ = generators.tree_plus_chords(160, 2 * 160, seed=[seed, 3, k])
    exact = generators.product_trace_exp(a, 160, b, 160)
    return Input(160 * 160, generators.cartesian_product(a, 160, b, 160), exact_trace=exact)


def _downgrade_w(seed, k):
    edges, weights = generators.tree_plus_chords(60, 4 * 60, seed=[seed, 4, k], weighted=True)
    exact = reference.trace_exp_dense(generators.dense_adjacency(60, edges, weights))
    return Input(60, edges, weights, exact_trace=exact)


@dataclass(frozen=True)
class Workload:
    name: str
    make: object  # (seed, k) -> Input
    argv: tuple  # CLI arguments besides --input and --output
    expected_misses: frozenset = frozenset()  # checks the program is known to fail

    @property
    def budget(self):
        return float(self.argv[self.argv.index("--budget") + 1])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "break-tree",
            _break_tree,
            ("break", "--strategy", "dg2", "--q", "50", "--budget", "1"),
        ),
        # The greedy's reported numerator is several times the true gain:
        # hub-heavy spectra defeat the absolute Lanczos stop (a known defect).
        Workload(
            "make-ba",
            _make_ba,
            ("make", "--strategy", "ad2", "--q", "15", "--budget", "1"),
            expected_misses=frozenset({"numerator"}),
        ),
        # Not in BENCHMARK.json: left out so that the two workloads there get
        # longer runs; break-tree's denominator loads the same layers.
        Workload("trace-prod", _trace_prod, ("trace", "--probes", "40")),
        # Not in BENCHMARK.json: its job time is bimodal across seeds.
        Workload(
            "downgrade-w",
            _downgrade_w,
            ("downgrade", "--method", "hessian", "--n-p", "18", "--n-f", "6", "--budget", "5"),
        ),
    )
}


# ---------------------------------------------------------------------
# Running jobs
# ---------------------------------------------------------------------


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_process(argv, stdout_path, timeout=JOB_TIMEOUT_S):
    """Run argv to completion; return (wall_s, peak_rss_mb, exit_code).

    The process is started through ``launch.py``, which times it and reads
    its own peak resident set. A process group that outlives ``timeout`` is
    killed and reaped, and reported as code -9.
    """
    report = stdout_path + ".usage"
    launcher = [sys.executable, "-S", os.path.join(HERE, "launch.py"), report]
    with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
        proc = subprocess.Popen(
            launcher + argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT,
            start_new_session=True,
        )
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            return timeout, 0.0, -9
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    with open(report, encoding="utf-8") as fh:
        wall, rss_kb, code = fh.read().split()
    return float(wall), int(rss_kb) / 1024.0, int(code)


@dataclass
class Job:
    traced: bool
    wall_s: float
    rss_mb: float
    code: int
    summary: dict = None
    layers: dict = None
    checks: dict = None  # check name -> passed
    input: int = 0  # which of the run's inputs the job read


def run_job(workload, input_path, workdir, index, traced):
    out = os.path.join(workdir, f"job{index}")
    cli = list(workload.argv) + ["--input", input_path, "--output", out]
    if traced:
        layers_path = out + ".layers.json"
        spans_path = os.path.join(workdir, f"spans{index}.json")
        argv = [sys.executable, os.path.join(HERE, "tracing.py"), layers_path, spans_path] + cli
    else:
        argv = [sys.executable, "-m", "fconn.cli"] + cli
    wall, rss, code = run_process(argv, out + ".stdout")
    job = Job(traced, wall, rss, code)
    if code == 0:
        try:
            with open(out + ".json", encoding="utf-8") as fh:
                job.summary = json.load(fh)
            if traced:
                with open(layers_path, encoding="utf-8") as fh:
                    job.layers = json.load(fh)
                # the one phi/grad evaluation and span dump are benchmark work
                job.wall_s -= job.layers.pop("post_job_s")
        except (OSError, ValueError) as exc:
            print(f"job {index}: unreadable output: {exc}", file=sys.stderr)
            job.summary = None
    else:
        with open(out + ".stdout.err", encoding="utf-8", errors="replace") as fh:
            print(f"job {index}: exit {code}: {fh.read()[-500:]}", file=sys.stderr)
    return job


def measure_setup(input_path, workdir, index):
    """Wall time of a fresh process that imports fconn and loads the input."""
    code = "import sys, fconn; fconn.load_graph(sys.argv[1])"
    wall, _, status = run_process(
        [sys.executable, "-c", code, input_path], os.path.join(workdir, f"setup{index}")
    )
    if status != 0:
        raise RuntimeError(f"set-up process exited with {status}")
    return wall


# ---------------------------------------------------------------------
# Checks against the references
# ---------------------------------------------------------------------


class Checker:
    """Validates the outputs of jobs run on one input.

    Reference gains are computed once per plan. Accuracy values are appended
    to ``values``, which the checkers of one run share.
    """

    def __init__(self, workload, inp, values):
        self.workload = workload
        self.inp = inp
        w = np.ones(len(inp.edges)) if inp.weights is None else inp.weights
        self.edge_weight = {(i, j): float(x) for (i, j), x in zip(inp.edges.tolist(), w)}
        self._gains = {}
        self.values = values

    def changes(self, summary):
        """Plan as 0-based (i, j, delta) with i < j, as reported by the job."""
        return [(min(i, j) - 1, max(i, j) - 1, float(d)) for i, j, d in summary["edges"]]

    def gain(self, changes):
        key = tuple(changes)
        if key not in self._gains:
            inp = self.inp
            self._gains[key] = reference.plan_gain(inp.n, inp.edges, inp.weights, changes)
        return self._gains[key]

    def plan_valid(self, changes):
        kind = self.workload.argv[0]
        pairs = [(i, j) for i, j, _ in changes]
        if len(set(pairs)) != len(pairs) or any(i == j for i, j in pairs):
            return False
        if kind == "break":
            return len(changes) == self.workload.budget and all(
                (i, j) in self.edge_weight and d == -self.edge_weight[(i, j)]
                for i, j, d in changes
            )
        if kind == "make":
            return len(changes) == self.workload.budget and all(
                (i, j) not in self.edge_weight and 0 <= i and j < self.inp.n and d == 1.0
                for i, j, d in changes
            )
        # downgrade: each x within [-w, 0], total within the budget
        tol = 1e-9
        within_box = all(
            (i, j) in self.edge_weight and -self.edge_weight[(i, j)] - tol <= d <= tol
            for i, j, d in changes
        )
        spent = sum(abs(d) for _, _, d in changes)
        return within_box and spent <= self.workload.budget * (1 + tol)

    def check(self, job):
        checks = {"exit": job.code == 0 and job.summary is not None}
        if checks["exit"]:
            s = job.summary
            if self.workload.argv[0] != "trace":
                changes = self.changes(s)
                checks["plan"] = self.plan_valid(changes)
                if checks["plan"]:
                    ref = self.gain(changes)
                    err = abs(s["numerator"] - ref) / abs(ref)
                    self.values["plan_gain"].append(abs(ref))
                    self.values["numerator_rel_err"].append(err)
                    checks["numerator"] = err <= NUMERATOR_RTOL
            if self.inp.exact_trace is not None:
                est = s["trace_estimate"] if s["denominator"] is None else s["denominator"]
                err = abs(est - self.inp.exact_trace) / self.inp.exact_trace
                self.values["trace_rel_err"].append(err)
                checks["trace"] = err <= TRACE_RTOL
        job.checks = checks
        return checks

def accuracy(values, name):
    """Median of a per-job accuracy value; -1 where this workload has no reference."""
    vals = values[name]
    return float(statistics.median(vals)) if vals else -1.0


def tally(workload, jobs):
    """(failed, missed): jobs with an unexpected failed check, and with any."""
    failed = missed = 0
    for job in jobs:
        bad = {name for name, ok in job.checks.items() if not ok}
        missed += bool(bad)
        failed += bool(bad - workload.expected_misses)
    return failed, missed


# ---------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------


def closed_loop(seconds, run_one, kinds):
    """Start jobs back to back until ``seconds`` pass; run every kind at least once."""
    jobs = []
    t0 = time.perf_counter()
    for k, kind in enumerate(itertools.cycle(kinds)):
        if k >= len(kinds) and time.perf_counter() - t0 >= seconds:
            break
        jobs.append(run_one(k, kind))
    return jobs


def layer_metrics(workload, jobs, values, failed_frac):
    traced = [j for j in jobs if j.traced and j.layers is not None]
    plain = [j for j in jobs if not j.traced and j.summary is not None]
    metrics = {}
    for name in tracing.TIMES:
        metrics[name] = (statistics.median(j.layers[name] for j in traced), "s")
    for name in tracing.COUNTS:
        metrics[name] = (traced[0].layers[name], "count")
    metrics["greedy.scoring_share"] = (
        statistics.median(j.layers["greedy.scoring_share"] for j in traced),
        "ratio",
    )
    repeat = all(j.layers[c] == traced[0].layers[c] for j in traced for c in tracing.COUNTS)
    metrics["trace.counts_repeat"] = (1 if repeat else 0, "bool")
    metrics["trace.overhead"] = (
        statistics.median(j.wall_s for j in traced) / statistics.median(j.wall_s for j in plain),
        "ratio",
    )
    metrics["failed_frac"] = (failed_frac, "ratio")
    metrics["plan_gain"] = (accuracy(values, "plan_gain"), "trace_units")
    metrics["numerator_rel_err"] = (accuracy(values, "numerator_rel_err"), "ratio")
    metrics["trace_rel_err"] = (accuracy(values, "trace_rel_err"), "ratio")
    if workload.argv[0] != "downgrade":
        metrics = {k: v for k, v in metrics.items() if k not in tracing.WEIGHTED_ONLY}
    return metrics


def run_workload(workload, seed, seconds, trace):
    workdir = os.path.join(WORK, f"{workload.name}-seed{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    inputs = {}

    def input_for(k):
        if k not in inputs:
            inp = workload.make(seed, k)
            path = os.path.join(workdir, f"graph{k}.txt")
            generators.write_edge_list(path, inp.edges, inp.weights)
            inputs[k] = (inp, path)
        return inputs[k]

    try:
        # A timed run gives every job its own input, so that job_s is a median
        # over inputs, not the cost of one draw, and times one set-up after
        # each job, so that setup_s samples the whole run, as job_s does. A
        # traced run keeps input 0, so that its traced jobs can be checked to
        # repeat their counts.
        setups = []

        def run_one(index, traced):
            k = 0 if trace else index
            path = input_for(k)[1]
            job = run_job(workload, path, workdir, index, traced)
            job.input = k
            if not trace:
                setups.append(measure_setup(path, workdir, index))
            return job

        kinds = (False, True, True) if trace else (False,)
        jobs = closed_loop(seconds, run_one, kinds)
        while not trace and len(setups) < SETUP_REPEATS:
            setups.append(measure_setup(input_for(0)[1], workdir, len(setups)))
        values = {"numerator_rel_err": [], "trace_rel_err": [], "plan_gain": []}
        checkers = {k: Checker(workload, inp, values) for k, (inp, _) in inputs.items()}
        for k, job in enumerate(jobs):
            checks = checkers[job.input].check(job)
            print(
                f"{workload.name} seed {seed} job {k}{' (traced)' if job.traced else ''}: "
                f"{job.wall_s:.3f} s, {job.rss_mb:.1f} MB, exit {job.code}, "
                + ", ".join(f"{c} {'ok' if ok else 'FAILED'}" for c, ok in checks.items())
            )
        failed, missed = tally(workload, jobs)
        for name in ("plan_gain", "numerator_rel_err", "trace_rel_err"):
            print(f"{workload.name} seed {seed}: {name} = {accuracy(values, name):.6g}")
        if missed > failed:
            print(
                f"{workload.name} seed {seed}: {missed - failed} job(s) missed "
                f"{sorted(workload.expected_misses)}, a known defect"
            )
        ok_jobs = [j for j in jobs if j.summary is not None]
        if trace:
            if not any(j.traced for j in ok_jobs) or not any(not j.traced for j in ok_jobs):
                raise RuntimeError("no successful traced and plain job to compare")
            metrics = layer_metrics(workload, jobs, values, missed / len(jobs))
            first = next(k for k, j in enumerate(jobs) if j.traced)
            shutil.copy(
                os.path.join(workdir, f"spans{first}.json"),
                os.path.join(WORK, f"spans-{workload.name}-seed{seed}.json"),
            )
        else:
            if not ok_jobs:
                raise RuntimeError("every job failed")
            metrics = {
                "job_s": (statistics.median(j.wall_s for j in ok_jobs), "s"),
                "setup_s": (statistics.median(setups), "s"),
                "peak_rss_mb": (statistics.median(j.rss_mb for j in ok_jobs), "MB"),
            }
            print(
                f"{workload.name} seed {seed}: job_s is the median of {len(ok_jobs)} jobs, "
                f"setup_s of {len(setups)} set-ups"
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "fconn", "cli.py")):
        print(f"error: no fconn sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(WORKLOADS[name], args.seed, args.seconds, args.trace)
    for name, res in results.items():
        for metric, m in res["metrics"].items():
            print(f"{name:12s} {metric:45s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
