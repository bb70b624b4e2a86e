"""Backend abstraction over MILP engines.

The paper ran its MIP-based algorithm on Gurobi 9.5 (an off-the-shelf
commercial solver).  This repository substitutes two interchangeable
backends behind one function:

* ``"highs"`` — ``scipy.optimize.milp`` (the open-source HiGHS solver),
  playing the role of the off-the-shelf engine.
* ``"bnb"`` — our own :class:`~repro.solvers.branch_and_bound.BranchAndBoundSolver`,
  a pure-Python substrate that only needs an LP oracle and exposes the
  incumbent-over-time trajectory.

Both accept the same :class:`~repro.solvers.lp.LinearModel` (minimization
form) and return a :class:`~repro.solvers.branch_and_bound.MILPResult`.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.exceptions import SolverError
from repro.solvers.branch_and_bound import (
    BranchAndBoundSolver,
    IncumbentRecord,
    MILPResult,
)
from repro.solvers.lp import LinearModel

#: Recognized backend identifiers.
BACKENDS = ("highs", "bnb")

#: Relative optimality gap the RASA algorithms (flat MIP, pricing, master
#: rounding) accept as optimal.
GAP_TOLERANCE = 1e-4


def solve_milp(
    model: LinearModel,
    time_limit: float | None = None,
    backend: str = "highs",
    gap_tolerance: float = 1e-6,
    warm_start: np.ndarray | None = None,
) -> MILPResult:
    """Minimize a mixed-integer linear model with the chosen backend.

    Args:
        model: The model, in minimization form with integrality flags.
        time_limit: Wall-clock budget in seconds; None means unlimited.
        backend: ``"highs"`` or ``"bnb"``.
        gap_tolerance: Relative optimality gap accepted as optimal.
        warm_start: Optional integral feasible point (``"bnb"`` only; HiGHS
            ignores it).

    Returns:
        The best solution found, in minimization scale.

    Raises:
        SolverError: For unknown backends or unexpected solver failures.
    """
    if backend == "bnb":
        solver = BranchAndBoundSolver(gap_tolerance=gap_tolerance)
        return solver.solve(model, time_limit=time_limit, warm_start=warm_start)
    if backend != "highs":
        raise SolverError(f"unknown MILP backend {backend!r}; expected one of {BACKENDS}")
    return _solve_highs(model, time_limit=time_limit, gap_tolerance=gap_tolerance)


def _solve_highs(
    model: LinearModel,
    time_limit: float | None,
    gap_tolerance: float,
) -> MILPResult:
    """Run ``scipy.optimize.milp`` and adapt its result."""
    constraints = []
    if model.a_ub is not None and model.b_ub is not None and model.a_ub.shape[0] > 0:
        constraints.append(LinearConstraint(model.a_ub, -np.inf, model.b_ub))
    if model.a_eq is not None and model.b_eq is not None and model.a_eq.shape[0] > 0:
        constraints.append(LinearConstraint(model.a_eq, model.b_eq, model.b_eq))

    options: dict[str, float | bool] = {"mip_rel_gap": gap_tolerance}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)

    result = milp(
        c=model.c,
        constraints=constraints or None,
        integrality=model.integrality.astype(int),
        bounds=Bounds(model.lb, model.ub),
        options=options,
    )

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
        incumbents=[IncumbentRecord(0.0, objective)],
    )
