"""The pipeline's MILP engine: HiGHS through ``scipy.optimize.milp``.

The paper ran its MIP-based algorithm on Gurobi 9.5, one off-the-shelf
commercial solver; HiGHS (open source, vendored by scipy) plays that role
here, for the flat MIP, column-generation pricing and master rounding
alike.  :func:`solve_milp` takes a :class:`~repro.solvers.lp.LinearModel`
(minimization form) and returns a
:class:`~repro.solvers.branch_and_bound.MILPResult`.

:class:`~repro.solvers.branch_and_bound.BranchAndBoundSolver` returns the
same result type from a search of our own; it is not a pipeline path but
the independent oracle the tests check HiGHS's answers against.

Pricing runs without HiGHS's feasibility-jump heuristic
(``feasibility_jump=False``).  A pricing MILP (one machine, ~20 columns,
~25 rows) closes at its root node in about 20 LP iterations, yet HiGHS
runs the heuristic before the search starts.  On the reference week's 160
pricing calls a call took 5.7 ms with it and 2.1 ms without (median of 3
traced runs, 2-CPU container, Python 3.11, scipy 1.17).  The flat MIP and
master rounding keep it: they are large enough to need a search, and
their placements are pinned byte for byte.
"""

from __future__ import annotations

import time
import warnings

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.exceptions import SolverError
from repro.solvers.branch_and_bound import IncumbentRecord, MILPResult
from repro.solvers.lp import LinearModel

#: Relative optimality gap the flat MIP and master rounding accept as
#: optimal.  Pricing solves to a gap of 0: Algorithm 1's ``GenPattern`` is
#: exact, and without the feasibility jump a 1e-4 gap lets a pricing call
#: stop at a pattern 1.4e-6 short of the optimum, which moves M3's
#: placement.
GAP_TOLERANCE = 1e-4

#: The HiGHS option behind ``solve_milp(feasibility_jump=False)``.  scipy
#: does not know it and says so once per call: a ``RuntimeWarning`` ("passed
#: to HiGHS verbatim"), or an ``OptimizeWarning`` from a HiGHS that predates
#: the option, which then ignores it.  The filter is process-wide rather
#: than a ``catch_warnings`` around ``milp``, which is not thread-safe and
#: shards solve on pool threads.
_FEASIBILITY_JUMP = "mip_heuristic_run_feasibility_jump"
warnings.filterwarnings("ignore", message=rf".*'{_FEASIBILITY_JUMP}'.*")


def solve_milp(
    model: LinearModel,
    time_limit: float | None = None,
    gap_tolerance: float = 1e-6,
    feasibility_jump: bool = True,
) -> MILPResult:
    """Minimize a mixed-integer linear model with HiGHS.

    Args:
        model: The model, in minimization form with integrality flags.
        time_limit: Wall-clock budget in seconds; None means unlimited.
        gap_tolerance: Relative optimality gap accepted as optimal.
        feasibility_jump: False skips HiGHS's feasibility-jump heuristic
            before the search (pricing only; see the module docstring).

    Returns:
        The best solution found, in minimization scale.

    Raises:
        SolverError: For an unbounded model.
    """
    constraints = []
    if model.a_ub is not None and model.b_ub is not None and model.a_ub.shape[0] > 0:
        constraints.append(LinearConstraint(model.a_ub, -np.inf, model.b_ub))
    if model.a_eq is not None and model.b_eq is not None and model.a_eq.shape[0] > 0:
        constraints.append(LinearConstraint(model.a_eq, model.b_eq, model.b_eq))

    options: dict[str, float | bool] = {"mip_rel_gap": gap_tolerance}
    if not feasibility_jump:
        options[_FEASIBILITY_JUMP] = False
    if time_limit is not None:
        options["time_limit"] = float(time_limit)

    started = time.monotonic()
    result = milp(
        c=model.c,
        constraints=constraints or None,
        integrality=model.integrality.astype(int),
        bounds=Bounds(model.lb, model.ub),
        options=options,
    )
    elapsed = time.monotonic() - started

    # scipy milp status codes: 0 optimal, 1 iteration/time limit, 2 infeasible,
    # 3 unbounded, 4 other.
    if result.status == 2:
        return MILPResult(status="infeasible", x=None, objective=np.inf, bound=np.inf)
    if result.status == 3:
        raise SolverError("MILP is unbounded")
    nodes = int(getattr(result, "mip_node_count", None) or 0)
    if result.x is None:
        return MILPResult(
            status="no_incumbent",
            x=None,
            objective=np.inf,
            bound=float(result.mip_dual_bound) if result.mip_dual_bound is not None else -np.inf,
            nodes_explored=nodes,
        )

    x = np.asarray(result.x, dtype=float)
    x[model.integrality] = np.rint(x[model.integrality])
    objective = float(model.c @ x)
    bound = (
        float(result.mip_dual_bound)
        if getattr(result, "mip_dual_bound", None) is not None
        else objective
    )
    status = "optimal" if result.status == 0 else "feasible"
    return MILPResult(
        status=status,
        x=x,
        objective=objective,
        bound=bound,
        nodes_explored=nodes,
        # HiGHS reports only its final incumbent, found by the time it
        # returned.
        incumbents=[IncumbentRecord(elapsed, objective)],
    )
