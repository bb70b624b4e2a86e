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
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.exceptions import SolverError
from repro.solvers.branch_and_bound import IncumbentRecord, MILPResult
from repro.solvers.lp import LinearModel

#: Relative optimality gap the RASA algorithms (flat MIP, pricing, master
#: rounding) accept as optimal.
GAP_TOLERANCE = 1e-4


def solve_milp(
    model: LinearModel,
    time_limit: float | None = None,
    gap_tolerance: float = 1e-6,
) -> MILPResult:
    """Minimize a mixed-integer linear model with HiGHS.

    Args:
        model: The model, in minimization form with integrality flags.
        time_limit: Wall-clock budget in seconds; None means unlimited.
        gap_tolerance: Relative optimality gap accepted as optimal.

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
