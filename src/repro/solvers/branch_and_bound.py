"""From-scratch branch-and-bound MILP solver over HiGHS LP relaxations.

This is the "we build the substrate ourselves" half of the solver pool: a
best-first branch-and-bound that only needs an LP oracle.  It records its
incumbent improvements (``MILPResult.incumbents``, which its own tests
read) and supports warm-start incumbents and anytime interruption via a
wall-clock budget.

The paper used Gurobi; :mod:`repro.solvers.milp_backend` offers scipy's
HiGHS MILP as the off-the-shelf equivalent, while this module removes even
that dependency for environments with only an LP solver.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import SolverError
from repro.obs import get_metrics, get_tracer
from repro.solvers.lp import LinearModel, solve_lp

#: Tolerance under which a fractional value is accepted as integral.
INTEGRALITY_TOLERANCE = 1e-6

#: Default relative optimality gap at which the search stops.
DEFAULT_GAP = 1e-6


@dataclass
class IncumbentRecord:
    """One improvement of the best-known solution during the search."""

    elapsed_seconds: float
    objective: float  # minimization scale


@dataclass
class MILPResult:
    """Outcome of a MILP solve (minimization form).

    Attributes:
        status: ``"optimal"``, ``"feasible"`` (stopped early with an
            incumbent), ``"infeasible"``, or ``"no_incumbent"`` (time ran out
            before any integral solution was found).
        x: Best integral solution, or None.
        objective: Its objective value (minimization scale), ``inf`` if none.
        bound: Best proven lower bound on the optimum.
        nodes_explored: Branch-and-bound nodes processed.
        incumbents: Incumbent improvements over time, oldest first; only
            :class:`BranchAndBoundSolver` records them (HiGHS reports its
            final solution alone).
    """

    status: str
    x: np.ndarray | None
    objective: float
    bound: float
    nodes_explored: int = 0
    incumbents: list[IncumbentRecord] = field(default_factory=list)

    @property
    def has_solution(self) -> bool:
        """True when an integral solution is available."""
        return self.x is not None

    @property
    def gap(self) -> float:
        """Relative optimality gap between incumbent and bound."""
        if self.x is None or not np.isfinite(self.bound):
            return np.inf
        denom = max(abs(self.objective), 1e-12)
        return abs(self.objective - self.bound) / denom


@dataclass(order=True)
class _Node:
    """A subproblem in the search tree, ordered by its LP bound."""

    bound: float
    tiebreak: int
    lower: np.ndarray = field(compare=False)
    upper: np.ndarray = field(compare=False)


class BranchAndBoundSolver:
    """Best-first branch and bound for mixed-integer linear programs.

    Args:
        gap_tolerance: Relative gap at which the search declares optimality.
        node_limit: Safety cap on explored nodes (0 disables the cap).
        rounding_dive: Try rounding each node's fractional relaxation into a
            feasible incumbent (cheap anytime behaviour: early incumbents
            tighten pruning).
    """

    def __init__(
        self,
        gap_tolerance: float = DEFAULT_GAP,
        node_limit: int = 0,
        rounding_dive: bool = True,
    ) -> None:
        self.gap_tolerance = gap_tolerance
        self.node_limit = node_limit
        self.rounding_dive = rounding_dive

    def solve(
        self,
        model: LinearModel,
        time_limit: float | None = None,
        warm_start: np.ndarray | None = None,
    ) -> MILPResult:
        """Minimize ``model`` to integral optimality or until time runs out.

        Args:
            model: The MILP (minimization form, integrality mask set).
            time_limit: Wall-clock budget in seconds; None means unlimited.
            warm_start: Optional integral feasible point used as the initial
                incumbent (checked for integrality of flagged variables only;
                the caller is responsible for constraint feasibility).

        Returns:
            A :class:`MILPResult` with the best solution found.
        """
        start = time.monotonic()
        tracer = get_tracer()
        int_mask = model.integrality
        counter = itertools.count()

        best_x: np.ndarray | None = None
        best_obj = np.inf
        incumbents: list[IncumbentRecord] = []

        def record_incumbent(objective: float) -> None:
            record = IncumbentRecord(time.monotonic() - start, objective)
            incumbents.append(record)
            tracer.event(
                "bnb.incumbent",
                elapsed=record.elapsed_seconds,
                objective=objective,
            )

        if warm_start is not None:
            warm = np.asarray(warm_start, dtype=float)
            if warm.shape == (model.num_variables,) and self._is_integral(warm, int_mask):
                best_x = warm.copy()
                best_obj = float(model.c @ warm)
                record_incumbent(best_obj)

        root = solve_lp(model)
        if root.status == "infeasible":
            return MILPResult(status="infeasible", x=None, objective=np.inf, bound=np.inf)
        if root.status == "unbounded":
            raise SolverError("MILP relaxation is unbounded")
        assert root.x is not None

        heap: list[_Node] = []
        heapq.heappush(
            heap,
            _Node(root.objective, next(counter), model.lb.copy(), model.ub.copy()),
        )
        nodes = 0
        global_bound = root.objective

        while heap:
            if time_limit is not None and time.monotonic() - start > time_limit:
                break
            if self.node_limit and nodes >= self.node_limit:
                break
            node = heapq.heappop(heap)
            global_bound = node.bound
            if node.bound >= best_obj - abs(best_obj) * self.gap_tolerance - 1e-12:
                # Every remaining node is at least as bad: proven optimal.
                global_bound = best_obj
                break

            relax = solve_lp(model, bounds_override=list(zip(node.lower, node.upper)))
            nodes += 1
            if not relax.is_optimal or relax.x is None:
                continue
            if relax.objective >= best_obj - 1e-12:
                continue

            if self.rounding_dive and best_x is None:
                candidate = self._try_rounding(model, relax.x, int_mask)
                if candidate is not None:
                    obj = float(model.c @ candidate)
                    if obj < best_obj - 1e-12:
                        best_obj = obj
                        best_x = candidate
                        record_incumbent(obj)

            frac_index = self._most_fractional(relax.x, int_mask)
            if frac_index is None:
                # Integral solution: new incumbent.
                candidate = self._round_integral(relax.x, int_mask)
                obj = float(model.c @ candidate)
                if obj < best_obj - 1e-12:
                    best_obj = obj
                    best_x = candidate
                    record_incumbent(obj)
                continue

            value = relax.x[frac_index]
            floor_val = np.floor(value)
            # Down branch: x <= floor(value).
            down_upper = node.upper.copy()
            down_upper[frac_index] = floor_val
            if down_upper[frac_index] >= node.lower[frac_index]:
                heapq.heappush(
                    heap,
                    _Node(relax.objective, next(counter), node.lower.copy(), down_upper),
                )
            # Up branch: x >= floor(value) + 1.
            up_lower = node.lower.copy()
            up_lower[frac_index] = floor_val + 1
            if up_lower[frac_index] <= node.upper[frac_index]:
                heapq.heappush(
                    heap,
                    _Node(relax.objective, next(counter), up_lower, node.upper.copy()),
                )

        if heap:
            global_bound = min(global_bound, heap[0].bound)
        else:
            global_bound = best_obj if best_x is not None else global_bound

        get_metrics().counter("solver.bnb.nodes").inc(nodes)
        if best_x is None:
            status = "infeasible" if not heap and nodes > 0 else "no_incumbent"
            return MILPResult(
                status=status,
                x=None,
                objective=np.inf,
                bound=global_bound,
                nodes_explored=nodes,
                incumbents=incumbents,
            )

        denom = max(abs(best_obj), 1e-12)
        gap = abs(best_obj - global_bound) / denom
        status = "optimal" if gap <= self.gap_tolerance + 1e-12 else "feasible"
        return MILPResult(
            status=status,
            x=best_x,
            objective=best_obj,
            bound=global_bound,
            nodes_explored=nodes,
            incumbents=incumbents,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _is_integral(x: np.ndarray, int_mask: np.ndarray) -> bool:
        if not int_mask.any():
            return True
        vals = x[int_mask]
        return bool(np.all(np.abs(vals - np.rint(vals)) <= INTEGRALITY_TOLERANCE))

    @staticmethod
    def _most_fractional(x: np.ndarray, int_mask: np.ndarray) -> int | None:
        """Index of the integer variable farthest from integrality, or None."""
        if not int_mask.any():
            return None
        fractional = np.abs(x - np.rint(x))
        fractional[~int_mask] = 0.0
        idx = int(np.argmax(fractional))
        if fractional[idx] <= INTEGRALITY_TOLERANCE:
            return None
        return idx

    @staticmethod
    def _round_integral(x: np.ndarray, int_mask: np.ndarray) -> np.ndarray:
        out = x.copy()
        out[int_mask] = np.rint(out[int_mask])
        return out

    @staticmethod
    def _try_rounding(
        model: LinearModel, x: np.ndarray, int_mask: np.ndarray
    ) -> np.ndarray | None:
        """Round the fractional point down on integers and verify feasibility.

        Rounding *down* keeps ``<=`` rows with non-negative coefficients
        feasible (the common structure of packing models); equality rows and
        general rows are checked explicitly and reject the candidate when
        violated.  Returns the candidate or None.
        """
        candidate = x.copy()
        candidate[int_mask] = np.floor(candidate[int_mask] + INTEGRALITY_TOLERANCE)
        candidate = np.clip(candidate, model.lb, model.ub)
        if model.a_ub is not None and model.b_ub is not None:
            if (model.a_ub @ candidate > model.b_ub + 1e-7).any():
                return None
        if model.a_eq is not None and model.b_eq is not None:
            if (np.abs(model.a_eq @ candidate - model.b_eq) > 1e-7).any():
                return None
        return candidate
