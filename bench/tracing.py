"""Per-layer tracing of one fconn CLI job, done from outside the package.

Run as a script, this module imports ``fconn``, wraps the public functions
of its layers (``graph``, ``krylov``, ``matfun``, ``greedy``, ``weighted``)
plus ``numpy.linalg.eigvalsh``, runs ``fconn.cli.main`` on the given argv and
writes the per-layer metrics and the raw spans as JSON::

    python3 bench/tracing.py METRICS.json SPANS.json break --input g.txt ...

Spans are kept in memory while the job runs and written once it ends. Each
span is ``[id, parent_id, name, start_s, end_s]``; times are inclusive, so a
layer's figure contains the layers it calls. The source of ``fconn`` is not
changed: every module attribute that refers to a wrapped function is rebound
to the wrapper, which covers names imported with ``from .x import y``.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

# (module, attribute, span name). Methods are given as "Class.method".
TARGETS = (
    ("fconn.graph", "load_graph", "graph.load"),
    ("fconn.graph", "SparseSymGraph.with_edge_delta", "graph.with_edge_delta"),
    ("fconn.graph", "select_search_space", "graph.select_search_space"),
    ("fconn.graph", "eigenvector_centrality", "graph.eigenvector_centrality"),
    ("fconn.krylov", "trace_fun_update", "krylov.trace_fun_update"),
    ("fconn.krylov", "BlockKrylov.extend", "krylov.extend"),
    ("fconn.krylov", "estimate_trace_f", "krylov.estimate_trace_f"),
    ("fconn.krylov", "fun_action", "krylov.fun_action"),
    ("fconn.krylov", "multiple_frechet_eval", "krylov.multiple_frechet_eval"),
    ("numpy.linalg", "eigvalsh", "krylov.eigvalsh"),
    ("fconn.matfun", "sym_eig", "matfun.sym_eig"),
    ("fconn.matfun", "block_frechet", "matfun.block_frechet"),
    ("fconn.greedy", "greedy_krylov", "greedy.greedy_krylov"),
    ("fconn.weighted", "select_candidates", "weighted.select_candidates"),
    ("fconn.weighted", "entry_gradient_cache", "weighted.entry_gradient_cache"),
    ("fconn.weighted", "interior_point_solve", "weighted.interior_point_solve"),
    ("fconn.weighted", "hessian", "weighted.hessian"),
)

# Counts that are a deterministic function of the input, the argv and the
# BLAS thread count: two traced jobs of one run must agree on them exactly.
COUNTS = (
    "graph.with_edge_delta.calls",
    "graph.select_search_space.calls",
    "krylov.trace_fun_update.calls",
    "krylov.trace_fun_update.order_p50",
    "krylov.trace_fun_update.order_max",
    "krylov.trace_fun_update.unconverged",
    "krylov.extend.calls",
    "krylov.spmm_cols",
    "krylov.fun_action.calls",
    "krylov.multiple_frechet_eval.calls",
    "krylov.multiple_frechet_eval.iterations_p50",
    "matfun.sym_eig.calls",
    "matfun.block_frechet.calls",
    "greedy.evaluations",
    "weighted.inner_iterations",
    "weighted.outer_iterations",
    "weighted.hessian.calls",
)

# Metrics of the layers that only a weighted job reaches; a run reports
# them only for a weighted workload.
WEIGHTED_ONLY = frozenset(
    {
        "krylov.multiple_frechet_eval_s",
        "krylov.multiple_frechet_eval.calls",
        "krylov.multiple_frechet_eval.iterations_p50",
        "matfun.block_frechet_s",
        "matfun.block_frechet.calls",
        "weighted.select_candidates_s",
        "weighted.entry_gradient_cache_s",
        "weighted.interior_point_solve_s",
        "weighted.inner_iterations",
        "weighted.outer_iterations",
        "weighted.barrier_level_s",
        "weighted.hessian_s",
        "weighted.hessian.calls",
        "weighted.gradient_s",
    }
)

TIMES = (
    "graph.load_s",
    "graph.with_edge_delta_s",
    "graph.select_search_space_s",
    "graph.eigenvector_centrality_s",
    "krylov.trace_fun_update_s",
    "krylov.extend_s",
    "krylov.eigvalsh_s",
    "krylov.estimate_trace_f_s",
    "krylov.fun_action_s",
    "krylov.multiple_frechet_eval_s",
    "matfun.sym_eig_s",
    "matfun.block_frechet_s",
    "greedy.greedy_krylov_s",
    "weighted.select_candidates_s",
    "weighted.entry_gradient_cache_s",
    "weighted.interior_point_solve_s",
    "weighted.barrier_level_s",
    "weighted.hessian_s",
    "weighted.gradient_s",
)


class Tracer:
    """In-memory span recorder plus the per-call facts the metrics need."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.orders = []  # trace_fun_update: (iterations, converged)
        self.frechet_iterations = []
        self.evaluations = 0
        self.spmm_cols = 0
        self.solves = []  # interior_point_solve: (prob, x, report)
        self.caches = []  # entry_gradient_cache results

    def wrap(self, name, fn, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            sid = len(self.spans)
            span = [sid, self._stack[-1] if self._stack else None, name, time.perf_counter(), None]
            self.spans.append(span)
            self._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(result, args)
            return result

        return traced

    # -- hooks -----------------------------------------------------------

    def _before_extend(self, args):
        # Columns multiplied by A in this step: the width of the newest block,
        # i.e. total_cols now minus total_cols before the previous step.
        kry = args[0]
        prev = getattr(kry, "_bench_cols_before", 0)
        self.spmm_cols += kry.total_cols - prev
        kry._bench_cols_before = kry.total_cols

    def _after_trace_update(self, res, args):
        self.orders.append((res.iterations, res.converged))

    def _after_frechet(self, res, args):
        self.frechet_iterations.append(res.iterations)

    def _after_greedy(self, plan, args):
        self.evaluations += plan.diagnostics.get("evaluations", 0)

    def _after_solve(self, result, args):
        x, report = result
        self.solves.append((args[0], x, report))

    def _after_cache(self, cache, args):
        self.caches.append(cache)

    def hooks(self, name):
        return {
            "krylov.extend": (self._before_extend, None),
            "krylov.trace_fun_update": (None, self._after_trace_update),
            "krylov.multiple_frechet_eval": (None, self._after_frechet),
            "greedy.greedy_krylov": (None, self._after_greedy),
            "weighted.interior_point_solve": (None, self._after_solve),
            "weighted.entry_gradient_cache": (None, self._after_cache),
        }.get(name, (None, None))

    # -- results ---------------------------------------------------------

    def total(self, name):
        return sum(s[4] - s[3] for s in self.spans if s[2] == name)

    def calls(self, name):
        return sum(1 for s in self.spans if s[2] == name)

    def metrics(self):
        m = {}
        for name in TIMES:
            m[name] = self.total(name[: -len("_s")])
        for name in COUNTS:
            if name.endswith(".calls"):
                m[name] = self.calls(name[: -len(".calls")])
        orders = [it for it, _ in self.orders]
        m["krylov.trace_fun_update.order_p50"] = float(np.median(orders)) if orders else 0.0
        m["krylov.trace_fun_update.order_max"] = max(orders, default=0)
        m["krylov.trace_fun_update.unconverged"] = sum(1 for _, ok in self.orders if not ok)
        m["krylov.spmm_cols"] = self.spmm_cols
        its = self.frechet_iterations
        m["krylov.multiple_frechet_eval.iterations_p50"] = float(np.median(its)) if its else 0.0
        m["greedy.evaluations"] = self.evaluations
        greedy_s = m["greedy.greedy_krylov_s"]
        m["greedy.scoring_share"] = (
            self.total("krylov.trace_fun_update") / greedy_s if greedy_s > 0 else 0.0
        )
        inner = sum(r.inner_iterations for _, _, r in self.solves)
        outer = sum(r.outer_iterations for _, _, r in self.solves)
        m["weighted.inner_iterations"] = inner
        m["weighted.outer_iterations"] = outer
        solve_s = m["weighted.interior_point_solve_s"]
        m["weighted.barrier_level_s"] = solve_s / outer if outer else 0.0
        return m


def _resolve(module_name, attr):
    module = sys.modules[module_name]
    owner, _, name = attr.rpartition(".")
    holder = getattr(module, owner) if owner else module
    return holder, name


def install(tracer):
    """Rebind every reference to each target in numpy.linalg and fconn.*."""
    import fconn  # noqa: F401  (loads every submodule)

    for module_name, attr, span_name in TARGETS:
        holder, name = _resolve(module_name, attr)
        original = getattr(holder, name)
        before, after = tracer.hooks(span_name)
        traced = tracer.wrap(span_name, original, before, after)
        setattr(holder, name, traced)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "fconn" or mod_name.startswith("fconn."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)


def _time_gradient(tracer):
    """One phi/grad-phi evaluation at the returned point of the last solve."""
    if not tracer.solves:
        return 0.0
    import fconn.weighted

    prob, x, _ = tracer.solves[-1]
    cache = tracer.caches[-1] if tracer.caches else fconn.weighted.entry_gradient_cache(prob)
    t0 = time.perf_counter()
    fconn.weighted.gradient(prob, x, cache)
    return time.perf_counter() - t0


def main(argv):
    metrics_path, spans_path, job_argv = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    install(tracer)
    import fconn.cli

    code = fconn.cli.main(job_argv)
    t_after = time.perf_counter()
    metrics = tracer.metrics()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    metrics["weighted.gradient_s"] = _time_gradient(tracer)
    metrics["post_job_s"] = time.perf_counter() - t_after
    with open(metrics_path, "w", encoding="utf-8") as fh:
        json.dump(metrics, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
