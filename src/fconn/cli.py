"""Command-line front end.

Subcommands
-----------
break / make          greedy unweighted edge removal / addition
downgrade / add /
tune / rewire         weighted interior-point optimization over a selected F
trace                 stochastic estimate of Tr(f(A))
compare               run several unweighted methods on one input side by side

Every optimizing run writes a CSV with one row per chosen edge and a JSON
summary (printed to stdout, optionally written next to the CSV). Reported
wall time covers the optimizer only; the denominator estimate of the
relative trace variation is excluded. Exit codes: 0 success, 2 validation or
usage, 3 input parsing, 4 convergence, 5 function domain, 6 memory budget,
7 exhausted search space.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    ExhaustedSearchSpaceError,
    FconnError,
    InputFormatError,
    MemoryBudgetError,
    ValidationError,
)
from .graph import Strategy, load_graph
from .greedy import GreedyConfig, Mode, eigenv_baseline, greedy_krylov, miobi
from .krylov import estimate_trace_f, trace_fun_update
from .matfun import function_from_spec
from .weighted import (
    BarrierConfig,
    CandidateMode,
    WeightedMode,
    WeightedProblem,
    interior_point_solve,
    select_candidates,
)

__all__ = ["RunSpec", "TraceVariationReport", "run", "compare", "main"]

_UNWEIGHTED = {"break", "make"}
_WEIGHTED = {"downgrade", "add", "tune", "rewire"}

_STRATEGIES = {s.value: s for s in Strategy}

_EXIT_CODES = (
    (InputFormatError, 3),
    (ConvergenceError, 4),
    (DomainError, 5),
    (MemoryBudgetError, 6),
    (ExhaustedSearchSpaceError, 7),
    (ValidationError, 2),
    (FconnError, 2),
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
    tol: float = None
    lag: int = 2
    m_max: int = 100
    probes: int = 40
    seed: int = 0
    eigenpairs: int = 25
    output: str = None

    def __post_init__(self):
        if self.method is None and self.subcommand in _UNWEIGHTED:
            self.method = "krylov"
        if self.method is None and self.subcommand in _WEIGHTED:
            self.method = "lbfgs"
        if self.strategy is None and self.subcommand in _UNWEIGHTED:
            self.strategy = "dg2" if self.subcommand == "break" else "ad2"
        if self.tol is None:
            self.tol = 1e-6 if self.subcommand in _UNWEIGHTED else 1e-8
        ok = {
            "break": {"krylov", "miobi", "eigenv"},
            "make": {"krylov", "miobi", "eigenv"},
            "downgrade": {"lbfgs", "hessian"},
            "add": {"lbfgs", "hessian"},
            "tune": {"lbfgs", "hessian"},
            "rewire": {"lbfgs", "hessian"},
            "trace": {None, "krylov", "lbfgs"},
            "compare": {None},
        }.get(self.subcommand)
        if ok is None:
            raise ValidationError(f"unknown subcommand {self.subcommand!r}")
        if self.subcommand not in ("trace", "compare") and self.method not in ok:
            raise ValidationError(
                f"method {self.method!r} is not valid for {self.subcommand!r}"
            )


@dataclass
class TraceVariationReport:
    """Relative trace variation and run bookkeeping for one optimizer run."""

    delta_t: float = None
    numerator: float = None
    denominator: float = None
    wall_time: float = None
    iterations: dict = field(default_factory=dict)
    edges: list = field(default_factory=list)  # (i, j, delta), 0-based
    cumulative: list = None
    trace_estimate: float = None
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
            "numerator": self.numerator,
            "denominator": self.denominator,
            "trace_estimate": self.trace_estimate,
            "wall_time_s": self.wall_time,
            "iterations": self.iterations,
            "edges": [[i + 1, j + 1, d] for i, j, d in self.edges],
            "warnings": self.warnings,
        }
        return payload


def _aggregate_delta(graph, plan, f, tol):
    """Trace variation of a whole plan in one Krylov evaluation."""
    upd = plan.as_update(graph.n)
    return trace_fun_update(graph, upd, f, tol=tol).delta


def _run_unweighted(spec: RunSpec, graph, f) -> TraceVariationReport:
    mode = Mode.BREAK if spec.subcommand == "break" else Mode.MAKE
    report = TraceVariationReport()
    t0 = time.perf_counter()
    if spec.method == "eigenv":
        plan = eigenv_baseline(graph, int(spec.budget), mode)
    else:
        strategy = _STRATEGIES[spec.strategy]
        cfg = GreedyConfig(
            budget=int(spec.budget),
            q=spec.q,
            strategy=strategy,
            mode=mode,
            tol=spec.tol,
            lag=spec.lag,
            m_max=spec.m_max,
        )
        if spec.method == "miobi":
            plan = miobi(graph, cfg, f, h=spec.eigenpairs)
        else:
            plan = greedy_krylov(graph, cfg, f)
    report.wall_time = time.perf_counter() - t0
    if plan.step_deltas:
        report.numerator = float(np.sum(plan.step_deltas))
        report.cumulative = list(np.cumsum(plan.step_deltas))
    else:
        report.numerator = _aggregate_delta(graph, plan, f, min(spec.tol, 1e-8))
    report.edges = list(plan.edges)
    report.iterations = {"steps": len(plan.edges), **plan.diagnostics}
    if plan.exhausted:
        report.warnings.append("search space exhausted before the budget was spent")
    return report, plan


_CANDIDATE_MODES = {
    "tune": CandidateMode.TUNING,
    "rewire": CandidateMode.REWIRING,
    "add": CandidateMode.ADDITION,
    "downgrade": CandidateMode.TUNING,  # existing edges, largest gradient
}

_WEIGHTED_MODES = {
    "tune": WeightedMode.TUNE,
    "rewire": WeightedMode.REWIRE,
    "add": WeightedMode.ADD,
    "downgrade": WeightedMode.DOWNGRADE,
}


def _run_weighted(spec: RunSpec, graph, f) -> TraceVariationReport:
    report = TraceVariationReport()
    t0 = time.perf_counter()
    F = select_candidates(
        graph, _CANDIDATE_MODES[spec.subcommand], n_P=spec.n_p, n_F=spec.n_f, f=f
    )
    prob = WeightedProblem.build(
        graph, F, _WEIGHTED_MODES[spec.subcommand], spec.budget, f, upper=spec.upper
    )
    x, solve = interior_point_solve(prob, inner=spec.method, bc=BarrierConfig())
    report.wall_time = time.perf_counter() - t0
    report.numerator = solve.objective
    report.edges = [
        (i, j, float(x[h])) for h, (i, j) in enumerate(prob.F) if abs(x[h]) > 1e-12
    ]
    report.iterations = {
        "inner": solve.inner_iterations,
        "outer": solve.outer_iterations,
    }
    if not solve.converged:
        report.warnings.append("interior-point solve did not fully converge")
    return report, x


def run(spec: RunSpec):
    """Execute one run and write its artifacts. Returns the report."""
    graph = load_graph(spec.input, spec.fmt)
    f = function_from_spec(spec.function)

    if spec.subcommand == "trace":
        report = TraceVariationReport()
        report.trace_estimate = estimate_trace_f(
            graph, f, n_probes=spec.probes, seed=spec.seed
        )
        _write_artifacts(spec, report)
        return report

    if spec.budget is None:
        raise ValidationError(f"{spec.subcommand} requires --budget")
    denominator = estimate_trace_f(graph, f, n_probes=spec.probes, seed=spec.seed)

    if spec.subcommand in _UNWEIGHTED:
        report, _ = _run_unweighted(spec, graph, f)
    elif spec.subcommand in _WEIGHTED:
        report, _ = _run_weighted(spec, graph, f)
    else:
        raise ValidationError(f"unknown subcommand {spec.subcommand!r}")

    report.denominator = denominator
    report.delta_t = abs(report.numerator) / abs(denominator)
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
    iteration counts and the pairwise counts of commonly chosen edges.
    """
    if not specs:
        raise ValidationError("compare needs at least one spec")
    keys = {(s.input, s.budget, s.function, s.subcommand) for s in specs}
    if len(keys) != 1:
        raise ValidationError("compare requires specs sharing input, budget and function")
    graph = load_graph(specs[0].input, specs[0].fmt)
    f = function_from_spec(specs[0].function)
    denominator = estimate_trace_f(
        graph, f, n_probes=specs[0].probes, seed=specs[0].seed
    )
    rows = []
    plans = []
    for spec in specs:
        report, plan_or_x = _run_unweighted(spec, graph, f)
        report.denominator = denominator
        report.delta_t = abs(report.numerator) / abs(denominator)
        rows.append(
            {
                "method": spec.method,
                "delta_t": report.delta_t,
                "wall_time_s": report.wall_time,
                "iterations": report.iterations.get("steps"),
                "edges": {(i, j) for i, j, _ in report.edges},
            }
        )
        plans.append(plan_or_x)
    for a, row in enumerate(rows):
        for b, other in enumerate(rows):
            if a != b:
                row[f"common_{other['method']}"] = len(row["edges"] & other["edges"])
    for row in rows:
        del row["edges"]
    return rows


def _write_compare_csv(rows, path):
    fields = list(rows[0].keys())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def _add_common(p, weighted=False):
    p.add_argument("--input", required=True, help="graph file")
    p.add_argument(
        "--format", default="auto", choices=["auto", "edge-list", "matrix-market"]
    )
    p.add_argument(
        "--function",
        default="exp",
        help="exp | sinh | cosh | resolvent:alpha=A | poly:c0,c1,...",
    )
    p.add_argument("--tol", type=float, default=None, help="Krylov stopping tolerance")
    p.add_argument("--lag", type=int, default=2)
    p.add_argument("--m-max", type=int, default=100)
    p.add_argument("--probes", type=int, default=40, help="Hutch++ probes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None, help="basename for .csv/.json artifacts")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fconn",
        description="Optimize Tr(f(A)) of a graph under an edge-modification budget.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    for name in ("break", "make"):
        p = sub.add_parser(name, help=f"greedy unweighted {name}")
        _add_common(p)
        p.add_argument("--budget", type=int, required=True, help="number of edges")
        p.add_argument("--q", type=int, default=250, help="search-space size")
        p.add_argument(
            "--strategy",
            default=None,
            choices=sorted(_STRATEGIES),
            help="search-space strategy (default dg2 for break, ad2 for make)",
        )
        p.add_argument("--method", default="krylov", choices=["krylov", "miobi", "eigenv"])
        p.add_argument("--eigenpairs", type=int, default=25, help="retained pairs for miobi")

    for name in ("downgrade", "add", "tune", "rewire"):
        p = sub.add_parser(name, help=f"weighted {name} via interior point")
        _add_common(p, weighted=True)
        p.add_argument("--budget", type=float, required=True, help="cumulative weight")
        p.add_argument("--n-p", type=int, default=100, help="centrality candidates")
        p.add_argument("--n-f", type=int, default=30, help="optimized edges")
        p.add_argument("--method", default="lbfgs", choices=["lbfgs", "hessian"])
        p.add_argument(
            "--upper",
            type=float,
            default=None,
            help="per-edge weight cap (default: largest existing weight)",
        )

    p = sub.add_parser("trace", help="estimate Tr(f(A))")
    _add_common(p)

    p = sub.add_parser("compare", help="compare unweighted methods on one input")
    _add_common(p)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--mode", required=True, choices=["break", "make"])
    p.add_argument("--methods", default="krylov,miobi,eigenv")
    p.add_argument("--q", type=int, default=250)
    p.add_argument("--strategy", default=None, choices=sorted(_STRATEGIES))
    p.add_argument("--eigenpairs", type=int, default=25)
    return parser


def _spec_from_args(args) -> RunSpec:
    kwargs = dict(
        subcommand=args.subcommand,
        input=args.input,
        fmt=args.format,
        function=args.function,
        lag=args.lag,
        m_max=args.m_max,
        probes=args.probes,
        seed=args.seed,
        output=args.output,
    )
    if args.tol is not None:
        kwargs["tol"] = args.tol
    for name in ("budget", "q", "strategy", "method", "upper", "eigenpairs"):
        if hasattr(args, name) and getattr(args, name) is not None:
            kwargs[name] = getattr(args, name)
    if hasattr(args, "n_p"):
        kwargs["n_p"] = args.n_p
        kwargs["n_f"] = args.n_f
    return RunSpec(**kwargs)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.subcommand == "compare":
            methods = [m.strip() for m in args.methods.split(",") if m.strip()]
            specs = []
            for method in methods:
                specs.append(
                    RunSpec(
                        subcommand=args.mode,
                        input=args.input,
                        fmt=args.format,
                        function=args.function,
                        budget=args.budget,
                        q=args.q,
                        strategy=args.strategy,
                        method=method,
                        lag=args.lag,
                        m_max=args.m_max,
                        probes=args.probes,
                        seed=args.seed,
                        eigenpairs=args.eigenpairs,
                        **({"tol": args.tol} if args.tol is not None else {}),
                    )
                )
            rows = compare(specs)
            print(json.dumps(rows, sort_keys=True, indent=2))
            if args.output:
                _write_compare_csv(rows, args.output + ".csv")
        else:
            run(_spec_from_args(args))
    except FconnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for cls, code in _EXIT_CODES:
            if isinstance(exc, cls):
                return code
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
