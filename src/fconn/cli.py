"""Command-line front end.

Subcommands
-----------
break / make          greedy unweighted edge removal / addition
downgrade / add /
tune / rewire         weighted interior-point optimization over a selected F
trace                 stochastic estimate of Tr(f(A))
compare               run several unweighted methods on one input side by side

Every optimizing run writes a CSV with one row per chosen edge and a JSON
summary (printed to stdout, optionally written next to the CSV). The
denominator of the relative trace variation, a Hutch++ estimate of Tr(f(A))
reported with its standard error and the rank of its sketch, runs on one
plain ``threading.Thread`` beside the optimizer, joined before the run
returns or raises (an executor's ``concurrent.futures`` would load
``logging`` and ``traceback`` into every job); the reported wall time still
covers the optimizer only. The summary's ``delta_t_stderr`` carries that
standard error over to delta_t, delta_t * stderr / |denominator|. If the
estimate fails, its error decides the exit code, even when the optimizer
failed too, and no artifact is written. compare, whose rows set the
methods' times side by side, estimates the denominator first and then times
each method alone. Exit codes: 0 success, 2 validation or usage, 3 input
parsing, 4 convergence, 5 function domain, 7 exhausted search space.

Threads of a break or make run with the krylov method: the main thread
loads the graph and runs ``greedy_krylov``; the worker thread runs the
estimate. On a graph of at least ``SHARED_SCORING_MIN_NODES`` (10000) nodes
the worker, once its estimate is done, also scores the candidates of the
greedy's current step, taking indices from the counter the main thread
takes them from (:class:`fconn.share.ScoreShare`), until the greedy
returns; the plan and its diagnostics are those of the serial loop, bit for
bit. The summary's ``iterations.scorers`` says which path ran: 2 threads
scoring or 1. Every other run, MIOBI, eigenv and the weighted solvers
included, scores in the main thread alone. A second scorer pays only where
a score runs mostly outside the GIL, in the SpMM and vector updates, which
grow with n, and not in the Python of the block steps and the small
eigensolves. Time to score a 50-candidate DG_2 pool of
tree_plus_chords(n, 4n) with one thread over the time with two, medians of
7, no estimate running (2-core host, Python 3.11, numpy 2.4, BLAS on one
thread)::

    n          2000  5000  10000  20000
    speed-up   0.52  0.90   1.09   1.49

It is 0.63 on a 2000-node Barabasi-Albert graph (m = 5, AD_2 pool). There
the greedy of a make job (47 ms) and the estimate (32 ms) take 82 ms run
together, no less than one after the other.

Every default lives in :class:`RunSpec`: the parser leaves an option that is
not given as None, and the spec fills it in and checks it. ``_METHODS`` lists
each subcommand's methods, its default first; compare runs all of them unless
``--methods`` says otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    ExhaustedSearchSpaceError,
    FconnError,
    InputFormatError,
    ValidationError,
)
from .graph import Strategy, load_graph
from .greedy import GreedyConfig, Mode, eigenv_baseline, greedy_krylov, miobi
from .krylov import (
    DEFAULT_LAG,
    DEFAULT_M_MAX,
    DEFAULT_TOL,
    _check_controls,
    _check_seed,
    estimate_trace_f,
    trace_fun_update,
)
from .matfun import function_from_spec
from .weighted import WeightedMode, WeightedProblem, interior_point_solve, select_candidates

__all__ = ["RunSpec", "TraceVariationReport", "run", "compare", "main"]

_UNWEIGHTED = {m.value for m in Mode}

_STRATEGIES = {s.value: s for s in Strategy}

# The methods of each subcommand, its default first.
_METHODS = {
    "break": ("krylov", "miobi", "eigenv"),
    "make": ("krylov", "miobi", "eigenv"),
    "downgrade": ("lbfgs", "hessian"),
    "add": ("lbfgs", "hessian"),
    "tune": ("lbfgs", "hessian"),
    "rewire": ("lbfgs", "hessian"),
    "trace": (None,),
}

_EXIT_CODES = (
    (InputFormatError, 3),
    (ConvergenceError, 4),
    (DomainError, 5),
    (ExhaustedSearchSpaceError, 7),
)


@dataclass
class RunSpec:
    """Everything needed to reproduce one run (echoed into the JSON summary)."""

    subcommand: str
    input: str
    fmt: str = "auto"
    function: str = "exp"
    budget: float = None
    q: int = 250
    strategy: str = None
    n_p: int = 100
    n_f: int = 30
    method: str = None
    upper: float = None
    tol: float = None  # tol, lag and m_max: greedy Krylov scoring (break, make) only
    lag: int = None
    m_max: int = None
    probes: int = 40
    seed: int = 0
    eigenpairs: int = 25
    output: str = None

    def __post_init__(self):
        methods = _METHODS.get(self.subcommand)
        if methods is None:
            raise ValidationError(f"unknown subcommand {self.subcommand!r}")
        if self.method is None:
            self.method = methods[0]
        if self.method not in methods:
            raise ValidationError(
                f"method {self.method!r} is not valid for {self.subcommand!r}"
            )
        if self.subcommand in _UNWEIGHTED:
            removal = self.subcommand == "break"
            if self.strategy is None:
                self.strategy = "dg2" if removal else "ad2"
            strategy = _STRATEGIES.get(self.strategy)
            if strategy is None or strategy.is_removal != removal:
                raise ValidationError(
                    f"strategy {self.strategy!r} is not valid for {self.subcommand!r}"
                )
            self.tol = DEFAULT_TOL if self.tol is None else self.tol
            self.lag = DEFAULT_LAG if self.lag is None else self.lag
            self.m_max = DEFAULT_M_MAX if self.m_max is None else self.m_max
        _check_controls(self.lag, self.tol, self.m_max)
        if self.n_p < 1 or self.n_f < 1:
            raise ValidationError(f"n_p and n_f must be >= 1, got {self.n_p} and {self.n_f}")
        _check_seed(self.seed)
        if self.budget is not None and not 0.0 < self.budget < np.inf:
            raise ValidationError(f"budget must be positive and finite, got {self.budget}")
        if self.upper is not None:
            self._check_upper()
        if self.q < 1 or self.eigenpairs < 1:
            raise ValidationError(
                f"q and eigenpairs must be >= 1, got {self.q} and {self.eigenpairs}"
            )
        if self.probes < 2 or self.probes % 2:
            raise ValidationError(f"probes must be an even number >= 2, got {self.probes}")

    def _check_upper(self):
        """The sign rules of ``WeightedProblem.build`` for the cap, before any input is read.

        Each optimized x lies in [lower, upper]. lower is 0 on a missing pair,
        and add optimizes only missing pairs and rewire always some, so their
        cap must be > 0; tune optimizes existing edges, where lower < 0, so its
        cap may be 0. downgrade only lowers weights and takes no cap.
        """
        if self.subcommand not in ("add", "tune", "rewire"):
            raise ValidationError(f"upper is not an option of {self.subcommand!r}")
        if not np.isfinite(self.upper):
            raise ValidationError(f"upper must be finite, got {self.upper}")
        if self.subcommand == "tune" and self.upper < 0:
            raise ValidationError(f"upper must be >= 0 for 'tune', got {self.upper}")
        if self.subcommand != "tune" and self.upper <= 0:
            raise ValidationError(f"upper must be > 0 for {self.subcommand!r}, got {self.upper}")


@dataclass
class TraceVariationReport:
    """Relative trace variation and run bookkeeping for one optimizer run."""

    delta_t: float = None
    delta_t_stderr: float = None
    numerator: float = None
    denominator: float = None
    denominator_stderr: float = None
    denominator_sketch_rank: int = None
    wall_time: float = None
    iterations: dict = field(default_factory=dict)
    edges: list = field(default_factory=list)  # (i, j, delta), 0-based
    cumulative: list = None
    trace_estimate: float = None
    trace_stderr: float = None
    trace_sketch_rank: int = None
    warnings: list = field(default_factory=list)

    def summary(self, spec: RunSpec) -> dict:
        payload = {
            "subcommand": spec.subcommand,
            "input": spec.input,
            "function": spec.function,
            "method": spec.method,
            "seed": spec.seed,
            "parameters": {
                "budget": spec.budget,
                "q": spec.q,
                "strategy": spec.strategy,
                "n_p": spec.n_p,
                "n_f": spec.n_f,
                "upper": spec.upper,
                "tol": spec.tol,
                "lag": spec.lag,
                "m_max": spec.m_max,
                "probes": spec.probes,
                "eigenpairs": spec.eigenpairs,
            },
            "delta_t": self.delta_t,
            "delta_t_stderr": self.delta_t_stderr,
            "numerator": self.numerator,
            "denominator": self.denominator,
            "denominator_stderr": self.denominator_stderr,
            "denominator_sketch_rank": self.denominator_sketch_rank,
            "trace_estimate": self.trace_estimate,
            "trace_stderr": self.trace_stderr,
            "trace_sketch_rank": self.trace_sketch_rank,
            "wall_time_s": self.wall_time,
            "iterations": self.iterations,
            "edges": [[i + 1, j + 1, d] for i, j, d in self.edges],
            "warnings": self.warnings,
        }
        return payload


# Largest Lanczos drift (see fconn.krylov.TraceUpdateResult) a greedy run may
# report without a warning. Converged scores on the benchmark's graphs stop
# at drifts of 2e-16 to 1.1e-12. Run past its stop, one edge removal on a
# 1500-node graph had drift 5.7e-7 at order 25 with Delta still right to
# 2e-12, 7.1e-4 at order 30 with a 6e-8 error, and 0.036 at order 40 with
# Delta doubled, so 1e-8 warns before the error shows.
DRIFT_WARNING = 1e-8

# Largest MIOBI eigenvector drift ||U^T U - I||_F (see fconn.greedy.MiobiState)
# a run may report without a warning. Past 1 the retained eigenvectors are no
# longer near orthonormal: on a 2000-node Barabasi-Albert graph, break budgets
# 1 to 4 end at drifts 0.47, 0.76, 0.98 and 66.2, and budget 20 overflows to
# NaN scores at step 13.
MIOBI_DRIFT_WARNING = 1.0


# Fewest nodes at which the denominator thread of a krylov break or make run
# scores candidates beside the greedy; the module docstring gives the
# measurements behind it.
SHARED_SCORING_MIN_NODES = 10000


def _aggregate_delta(graph, plan, f, spec):
    """Trace variation of a whole plan in one Krylov evaluation."""
    upd = plan.as_update(graph.n)
    tol = min(spec.tol, 1e-8)
    return trace_fun_update(graph, upd, f, lag=spec.lag, tol=tol, m_max=spec.m_max)


def _run_unweighted(spec: RunSpec, graph, f) -> TraceVariationReport:
    report = TraceVariationReport()
    t0 = time.perf_counter()
    if spec.method == "eigenv":
        plan = eigenv_baseline(graph, int(spec.budget), Mode(spec.subcommand))
    else:
        cfg = GreedyConfig(
            budget=int(spec.budget),
            q=spec.q,
            strategy=_STRATEGIES[spec.strategy],
            tol=spec.tol,
            lag=spec.lag,
            m_max=spec.m_max,
        )
        if spec.method == "miobi":
            plan = miobi(graph, cfg, f, h=spec.eigenpairs)
        else:
            plan = greedy_krylov(graph, cfg, f)
    if not plan.edges:
        raise ExhaustedSearchSpaceError(
            f"search space is empty: no candidate edge for {spec.subcommand}"
        )
    report.wall_time = time.perf_counter() - t0
    unconverged = plan.diagnostics.get("unconverged", 0)
    if plan.step_deltas:
        report.numerator = float(np.sum(plan.step_deltas))
        report.cumulative = list(np.cumsum(plan.step_deltas))
    else:
        res = _aggregate_delta(graph, plan, f, spec)
        report.numerator = res.delta
        unconverged = int(not res.converged)
    if unconverged:
        report.warnings.append(
            f"{unconverged} Krylov evaluation(s) reached m_max={spec.m_max} unconverged"
        )
    drift = plan.diagnostics.get("drift_max")
    if drift is not None and drift > DRIFT_WARNING:
        report.warnings.append(
            f"Lanczos basis lost orthogonality in scoring (drift {drift:.1e} > {DRIFT_WARNING:.0e})"
        )
    ortho = plan.diagnostics.get("orthonormality_drift")
    if ortho is not None and ortho > MIOBI_DRIFT_WARNING:
        report.warnings.append(
            f"MIOBI eigenvector updates diverged (orthonormality drift {ortho:.3g} "
            f"> {MIOBI_DRIFT_WARNING:g})"
        )
    report.edges = list(plan.edges)
    report.iterations = {"steps": len(plan.edges), **plan.diagnostics}
    if plan.exhausted:
        report.warnings.append("search space exhausted before the budget was spent")
    return report


def _run_weighted(spec: RunSpec, graph, f) -> TraceVariationReport:
    report = TraceVariationReport()
    t0 = time.perf_counter()
    mode = WeightedMode(spec.subcommand)
    F, report.warnings = select_candidates(
        graph, mode, f, n_P=spec.n_p, n_F=spec.n_f, budget=spec.budget
    )
    prob = WeightedProblem.build(graph, F, mode, spec.budget, f, upper=spec.upper)
    x, solve = interior_point_solve(prob, inner=spec.method)
    report.wall_time = time.perf_counter() - t0
    report.numerator = solve.objective
    report.edges = [
        (i, j, float(x[h])) for h, (i, j) in enumerate(prob.F) if abs(x[h]) > 1e-12
    ]
    report.iterations = {
        "inner": solve.inner_iterations,
        "outer": solve.outer_iterations,
        "krylov_order": solve.krylov_order,
        "unconverged": solve.unconverged,
    }
    if solve.unconverged:
        report.warnings.append(
            f"{solve.unconverged} Krylov model evaluation(s) reached order "
            f"{DEFAULT_M_MAX} unconverged"
        )
    if not solve.converged:
        report.warnings.append("interior-point solve did not fully converge")
    return report


def _beside_denominator(graph, f, spec, optimize, share=None):
    """Return ``optimize()`` and the Hutch++ estimate of Tr f(A), run at once.

    The estimate runs on one plain worker thread while ``optimize`` runs in
    this one (their large SpMM and ufunc calls release the GIL). Given a
    :class:`fconn.share.ScoreShare`, ``optimize`` runs inside ``with
    share:``, and the worker, once its estimate is done, serves the share:
    it scores candidates of each ``greedy_krylov`` step beside this thread
    until ``optimize`` returns or raises. The worker is joined before this
    returns or raises; an error of the estimate is raised in preference to
    one of ``optimize``, whose candidate errors come lowest index first.
    """
    out = {}

    def estimate():
        try:
            out["estimate"] = estimate_trace_f(graph, f, n_probes=spec.probes, seed=spec.seed)
        except BaseException as exc:  # re-raised in the calling thread
            out["error"] = exc
            return
        if share is not None:
            share.serve()

    worker = threading.Thread(target=estimate)
    worker.start()
    try:
        with share or contextlib.nullcontext():
            result = optimize()
    finally:
        worker.join()
        if "error" in out:
            raise out["error"]
    return result, out["estimate"]


def _set_denominator(report, estimate):
    report.denominator = estimate.value
    report.denominator_stderr = estimate.stderr
    report.denominator_sketch_rank = estimate.sketch_rank
    report.delta_t = abs(report.numerator) / abs(estimate.value)
    if estimate.stderr is not None:
        report.delta_t_stderr = report.delta_t * estimate.stderr / abs(estimate.value)


def run(spec: RunSpec):
    """Execute one run and write its artifacts. Returns the report."""
    f = function_from_spec(spec.function)
    graph = load_graph(spec.input, spec.fmt)

    if spec.subcommand == "trace":
        report = TraceVariationReport()
        estimate = estimate_trace_f(graph, f, n_probes=spec.probes, seed=spec.seed)
        report.trace_estimate, report.trace_stderr = estimate.value, estimate.stderr
        report.trace_sketch_rank = estimate.sketch_rank
        _write_artifacts(spec, report)
        return report

    if spec.budget is None:
        raise ValidationError(f"{spec.subcommand} requires --budget")
    optimizer = _run_unweighted if spec.subcommand in _UNWEIGHTED else _run_weighted
    share = None
    if spec.method == "krylov" and graph.n >= SHARED_SCORING_MIN_NODES:
        from .share import ScoreShare  # only here: a smaller job never loads it

        share = ScoreShare()
    report, estimate = _beside_denominator(
        graph, f, spec, lambda: optimizer(spec, graph, f), share
    )
    if spec.method == "krylov":
        report.iterations["scorers"] = 1 if share is None else 2
    _set_denominator(report, estimate)
    _write_artifacts(spec, report)
    return report


def _write_artifacts(spec: RunSpec, report: TraceVariationReport):
    payload = report.summary(spec)
    text = json.dumps(payload, sort_keys=True, indent=2)
    if spec.output:
        with open(spec.output + ".json", "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        with open(spec.output + ".csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["i", "j", "delta", "cumulative_delta_trace"])
            cum = report.cumulative or [None] * len(report.edges)
            for (i, j, d), c in zip(report.edges, cum):
                writer.writerow([i + 1, j + 1, repr(float(d)), "" if c is None else repr(float(c))])
    print(text)


def compare(specs):
    """Run several specs sharing one input/budget/function; tabulate results.

    Returns a list of row dicts with the relative trace variation, timing,
    iteration counts and the pairwise counts of commonly chosen edges. The
    shared denominator is estimated before the methods run, one after the
    other, so that no method's ``wall_time_s`` runs beside another
    computation.
    """
    if not specs:
        raise ValidationError("compare needs at least one spec")
    keys = {(s.input, s.budget, s.function, s.subcommand) for s in specs}
    if len(keys) != 1:
        raise ValidationError("compare requires specs sharing input, budget and function")
    f = function_from_spec(specs[0].function)
    graph = load_graph(specs[0].input, specs[0].fmt)
    estimate = estimate_trace_f(graph, f, n_probes=specs[0].probes, seed=specs[0].seed)
    rows = []
    for spec in specs:
        report = _run_unweighted(spec, graph, f)
        _set_denominator(report, estimate)
        rows.append(
            {
                "method": spec.method,
                "delta_t": report.delta_t,
                "wall_time_s": report.wall_time,
                "iterations": report.iterations.get("steps"),
                "edges": {(i, j) for i, j, _ in report.edges},
            }
        )
    for a, row in enumerate(rows):
        for b, other in enumerate(rows):
            if a != b:
                row[f"common_{other['method']}"] = len(row["edges"] & other["edges"])
    for row in rows:
        del row["edges"]
    return rows


def _write_compare_csv(rows, path):
    fields = list(dict.fromkeys(key for row in rows for key in row))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def _add_common(p):
    p.add_argument("--input", required=True, help="graph file")
    p.add_argument("--format", dest="fmt", choices=["auto", "edge-list", "matrix-market"])
    p.add_argument("--function", help="exp | sinh | cosh | resolvent:alpha=A | poly:c0,c1,...")
    p.add_argument("--probes", type=int, help="Hutch++ probes")
    p.add_argument("--seed", type=int)
    p.add_argument("--output", help="basename for .csv/.json artifacts")


def _add_greedy(p):
    """Search space and Krylov scoring of the greedy methods (break, make, compare)."""
    p.add_argument("--budget", type=int, required=True, help="number of edges")
    p.add_argument("--q", type=int, help="search-space size")
    p.add_argument(
        "--strategy",
        choices=sorted(_STRATEGIES),
        help="search-space strategy (default dg2 for break, ad2 for make)",
    )
    p.add_argument("--eigenpairs", type=int, help="retained pairs for miobi")
    p.add_argument("--tol", type=float, help="relative Krylov stopping tolerance")
    p.add_argument("--lag", type=int)
    p.add_argument("--m-max", type=int)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fconn",
        description="Optimize Tr(f(A)) of a graph under an edge-modification budget.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    for name in ("break", "make"):
        p = sub.add_parser(name, help=f"greedy unweighted {name}")
        _add_common(p)
        _add_greedy(p)
        p.add_argument("--method", choices=_METHODS[name])

    for name in ("downgrade", "add", "tune", "rewire"):
        p = sub.add_parser(name, help=f"weighted {name} via interior point")
        _add_common(p)
        p.add_argument("--budget", type=float, required=True, help="cumulative weight")
        p.add_argument("--n-p", type=int, help="centrality candidates")
        p.add_argument("--n-f", type=int, help="optimized edges")
        p.add_argument("--method", choices=_METHODS[name])
        if name != "downgrade":
            p.add_argument(
                "--upper",
                type=float,
                help="per-edge weight cap (default: largest existing weight)",
            )

    p = sub.add_parser("trace", help="estimate Tr(f(A))")
    _add_common(p)

    p = sub.add_parser("compare", help="compare unweighted methods on one input")
    _add_common(p)
    _add_greedy(p)
    p.add_argument("--mode", required=True, choices=["break", "make"])
    p.add_argument("--methods", help="comma-separated methods (default: all of the mode's)")
    return parser


def _spec_from_args(args) -> RunSpec:
    """The RunSpec of the parsed options; compare's runs take its ``--mode``."""
    given = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(RunSpec)}
    if args.subcommand == "compare":
        given["subcommand"] = args.mode
    return RunSpec(**{name: value for name, value in given.items() if value is not None})


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = _spec_from_args(args)
        if args.subcommand == "compare":
            methods = _METHODS[spec.subcommand]
            if args.methods is not None:
                methods = [m.strip() for m in args.methods.split(",") if m.strip()]
            rows = compare([dataclasses.replace(spec, method=m) for m in methods])
            print(json.dumps(rows, sort_keys=True, indent=2))
            if args.output:
                _write_compare_csv(rows, args.output + ".csv")
        else:
            run(spec)
    except FconnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for cls, code in _EXIT_CODES:
            if isinstance(exc, cls):
                return code
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
