"""Linear-programming substrate shared by all solver-based algorithms.

Defines a solver-agnostic model container (:class:`LinearModel`) in the
conventional *minimization* form used by ``scipy.optimize.linprog``::

    min  c @ x
    s.t. A_ub @ x <= b_ub
         A_eq @ x == b_eq
         lb <= x <= ub

RASA objectives are maximizations; callers negate the objective and the
reported value (helpers are provided).  The same container, plus an
integrality mask, feeds HiGHS through :mod:`repro.solvers.milp_backend`
and the reference branch-and-bound solver in
:mod:`repro.solvers.branch_and_bound`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.exceptions import SolverError

#: linprog status codes we treat as "no solution exists".
_INFEASIBLE_STATUS = 2
_UNBOUNDED_STATUS = 3


@dataclass
class LinearModel:
    """A (mixed-integer) linear model in scipy minimization form.

    Attributes:
        c: Objective coefficients (minimize ``c @ x``).
        a_ub: Inequality matrix (``a_ub @ x <= b_ub``); may be None.
        b_ub: Inequality right-hand sides.
        a_eq: Equality matrix (``a_eq @ x == b_eq``); may be None.
        b_eq: Equality right-hand sides.
        lb: Per-variable lower bounds.
        ub: Per-variable upper bounds (``np.inf`` for unbounded).
        integrality: Boolean mask — True where the variable is integral.
    """

    c: np.ndarray
    a_ub: sparse.csr_matrix | None = None
    b_ub: np.ndarray | None = None
    a_eq: sparse.csr_matrix | None = None
    b_eq: np.ndarray | None = None
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None
    integrality: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.c = np.asarray(self.c, dtype=float)
        n = self.c.size
        if self.lb is None:
            self.lb = np.zeros(n)
        else:
            self.lb = np.asarray(self.lb, dtype=float)
        if self.ub is None:
            self.ub = np.full(n, np.inf)
        else:
            self.ub = np.asarray(self.ub, dtype=float)
        if self.integrality is None:
            self.integrality = np.zeros(n, dtype=bool)
        else:
            self.integrality = np.asarray(self.integrality, dtype=bool)
        for name, arr in (("lb", self.lb), ("ub", self.ub), ("integrality", self.integrality)):
            if arr.shape != (n,):
                raise SolverError(f"{name} has shape {arr.shape}, expected ({n},)")

    @property
    def num_variables(self) -> int:
        """Number of decision variables."""
        return self.c.size

    @property
    def num_integer_variables(self) -> int:
        """Number of variables flagged integral."""
        return int(self.integrality.sum())

    def bounds_list(self) -> list[tuple[float, float]]:
        """Bounds in the list-of-pairs form linprog accepts."""
        return list(zip(self.lb.tolist(), self.ub.tolist()))


@dataclass
class LPResult:
    """Result of an LP relaxation solve.

    Attributes:
        status: One of ``"optimal"``, ``"infeasible"``, ``"unbounded"``.
        x: Optimal variable values (minimization form); None unless optimal.
        objective: Optimal ``c @ x``; ``inf`` when infeasible.
        duals_eq: Dual multipliers of equality rows (marginals), if available.
        duals_ub: Dual multipliers of inequality rows, if available.
    """

    status: str
    x: np.ndarray | None
    objective: float
    duals_eq: np.ndarray | None = None
    duals_ub: np.ndarray | None = None

    @property
    def is_optimal(self) -> bool:
        """True when an optimal solution was found."""
        return self.status == "optimal"


def solve_lp(model: LinearModel, bounds_override: list[tuple[float, float]] | None = None) -> LPResult:
    """Solve the LP relaxation of ``model`` with HiGHS.

    Args:
        model: The model; integrality flags are ignored here.
        bounds_override: Optional per-variable bounds replacing the model's
            own (used by branch-and-bound when branching).

    Returns:
        An :class:`LPResult`; duals are populated when HiGHS reports them.

    Raises:
        SolverError: On unexpected solver failure (numerical breakdown etc.).
    """
    bounds = bounds_override if bounds_override is not None else model.bounds_list()
    result = linprog(
        c=model.c,
        A_ub=model.a_ub,
        b_ub=model.b_ub,
        A_eq=model.a_eq,
        b_eq=model.b_eq,
        bounds=bounds,
        method="highs",
    )
    if result.status == _INFEASIBLE_STATUS:
        return LPResult(status="infeasible", x=None, objective=np.inf)
    if result.status == _UNBOUNDED_STATUS:
        return LPResult(status="unbounded", x=None, objective=-np.inf)
    if not result.success:
        raise SolverError(f"linprog failed: status={result.status} message={result.message}")

    duals_eq = None
    duals_ub = None
    marginals = getattr(result, "eqlin", None)
    if marginals is not None and hasattr(marginals, "marginals"):
        duals_eq = np.asarray(marginals.marginals, dtype=float)
    ineq = getattr(result, "ineqlin", None)
    if ineq is not None and hasattr(ineq, "marginals"):
        duals_ub = np.asarray(ineq.marginals, dtype=float)

    return LPResult(
        status="optimal",
        x=np.asarray(result.x, dtype=float),
        objective=float(result.fun),
        duals_eq=duals_eq,
        duals_ub=duals_ub,
    )
