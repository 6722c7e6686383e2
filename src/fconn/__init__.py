"""fconn: optimize Tr(f(A)) of a sparse undirected graph under edge budgets.

The trace of an increasing analytic function of the adjacency matrix is a
robustness score (with f = exp it is the natural connectivity, up to scaling
and a logarithm). This package finds budgeted edge modifications that move
that score the most:

* unweighted removal/addition by a greedy scheme whose candidate scoring is a
  Krylov-projected trace update (plus first-order and centrality baselines);
* weighted downgrade/addition/tuning/rewiring by a log-barrier interior-point
  method with L-BFGS or exact Krylov-Hessian inner solves; phi, its gradient
  and its Hessian come from one Arnoldi space of A at F's nodes per solve.

``multiple_frechet_eval`` and ``block_frechet`` have no pipeline caller: they
are exported as the independent reference for the weighted Hessian (one
Arnoldi space per node at A + X) and because the benchmark's tracer binds
them by name.
"""

from .errors import (
    ConvergenceError,
    DomainError,
    ExhaustedSearchSpaceError,
    FconnError,
    InputFormatError,
    ValidationError,
)
from .graph import (
    CentralityRanking,
    Ordering,
    SparseSymGraph,
    Strategy,
    eigenvector_centrality,
    load_graph,
    save_graph,
    select_search_space,
)
from .greedy import GreedyConfig, Mode, ModificationPlan, eigenv_baseline, greedy_krylov, miobi
from .krylov import (
    LowRankUpdate,
    estimate_trace_f,
    fun_action,
    multiple_frechet_eval,
    trace_fun_update,
)
from .matfun import (
    Cosh,
    Exp,
    Polynomial,
    Resolvent,
    ScalarFunction,
    Sinh,
    apply_fun_sym,
    block_frechet,
    function_from_spec,
    sym_eig,
)
from .weighted import (
    SolveReport,
    WeightedMode,
    WeightedProblem,
    entry_gradient_cache,
    gradient,
    hessian,
    interior_point_solve,
    objective,
    select_candidates,
)

__version__ = "0.1.0"
