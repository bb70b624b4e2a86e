"""Solutions to RASA instances: assignment matrices and their evaluation.

An :class:`Assignment` wraps the integer decision matrix ``x`` (paper
Section II-C) where ``x[s, m]`` is the number of service ``s`` containers on
machine ``m``.  The module implements the paper's objective — overall gained
affinity (Definition 1) — and feasibility checking against every constraint
family (Eq. 3–9).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.problem import RASAProblem
from repro.exceptions import ProblemValidationError

#: Numeric slack for floating-point resource comparisons.
RESOURCE_TOLERANCE = 1e-9


@dataclass
class FeasibilityReport:
    """Outcome of checking an assignment against a problem's constraints.

    Attributes:
        sla_violations: Services whose placed container count differs from
            the demand ``d_s`` (Eq. 3).
        resource_violations: ``(machine, resource, used, capacity)`` tuples
            for machines whose capacity is exceeded (Eq. 4).
        anti_affinity_violations: ``(machine, rule_index, count, limit)``
            tuples (Eq. 5).
        schedulable_violations: ``(service, machine)`` pairs that host
            containers despite ``b[s, m] = 0`` (Eq. 6).
    """

    sla_violations: list[tuple[str, int, int]] = field(default_factory=list)
    resource_violations: list[tuple[str, str, float, float]] = field(default_factory=list)
    anti_affinity_violations: list[tuple[str, int, int, int]] = field(default_factory=list)
    schedulable_violations: list[tuple[str, str]] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        """True if no constraint family is violated."""
        return not (
            self.sla_violations
            or self.resource_violations
            or self.anti_affinity_violations
            or self.schedulable_violations
        )

    def summary(self) -> str:
        """Human-readable one-line summary."""
        if self.feasible:
            return "feasible"
        return (
            f"infeasible: sla={len(self.sla_violations)} "
            f"resource={len(self.resource_violations)} "
            f"anti_affinity={len(self.anti_affinity_violations)} "
            f"schedulable={len(self.schedulable_violations)}"
        )


class Assignment:
    """An integer container-to-machine placement for a :class:`RASAProblem`.

    Args:
        problem: The instance this assignment belongs to.
        x: Integer matrix of shape ``(N, M)``; ``x[s, m]`` counts service
            ``s`` containers on machine ``m``.  Copied and frozen.
    """

    def __init__(self, problem: RASAProblem, x: np.ndarray) -> None:
        x = np.asarray(x)
        expected = (problem.num_services, problem.num_machines)
        if x.shape != expected:
            raise ProblemValidationError(f"assignment shape {x.shape} != {expected}")
        if not np.issubdtype(x.dtype, np.integer):
            rounded = np.rint(x)
            if not np.allclose(x, rounded, atol=1e-6):
                raise ProblemValidationError("assignment matrix must be integral")
            x = rounded
        x = x.astype(np.int64, copy=True)
        if (x < 0).any():
            raise ProblemValidationError("assignment matrix has negative entries")
        x.setflags(write=False)
        self.problem = problem
        self.x = x

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def _validated(cls, problem: RASAProblem, x: np.ndarray) -> "Assignment":
        """Wrap ``x`` without copying or checking it.

        For matrices built from already-validated ones (an ``int64``,
        non-negative ``(N, M)`` array the caller owns and no longer
        writes): ``x`` is frozen in place and becomes the assignment's.
        """
        x.setflags(write=False)
        assignment = cls.__new__(cls)
        assignment.problem = problem
        assignment.x = x
        return assignment

    @classmethod
    def empty(cls, problem: RASAProblem) -> "Assignment":
        """All-zero assignment (nothing placed)."""
        return cls(problem, np.zeros((problem.num_services, problem.num_machines), dtype=np.int64))

    @classmethod
    def from_current(cls, problem: RASAProblem) -> "Assignment":
        """Wrap the problem's recorded current placement.

        Raises:
            ProblemValidationError: If the problem has no current assignment.
        """
        if problem.current_assignment is None:
            raise ProblemValidationError("problem has no current assignment")
        return cls(problem, problem.current_assignment)

    # ------------------------------------------------------------------
    # Objective
    # ------------------------------------------------------------------
    def gained_affinity(self, normalized: bool = False) -> float:
        """Overall gained affinity (paper Definition 1).

        For every affinity edge ``(s, s')`` and machine ``m``::

            a = w(s, s') * min(x[s, m] / d_s, x[s', m] / d_s')

        Args:
            normalized: If True, divide by the graph's total affinity so the
                result lies in ``[0, 1]`` (matching the paper's figures).

        Returns:
            The summed gained affinity; 0.0 for an empty affinity graph.
        """
        problem = self.problem
        total = 0.0
        demands = problem.demands.astype(float)
        for s, t, w in problem.edges:
            ratios = np.minimum(self.x[s] / demands[s], self.x[t] / demands[t])
            total += w * float(ratios.sum())
        if normalized:
            graph_total = problem.affinity.total_affinity
            if graph_total == 0:
                return 0.0
            return total / graph_total
        return total

    def gained_affinity_of_pair(self, u: str, v: str) -> float:
        """Gained affinity of one service pair, summed over all machines."""
        problem = self.problem
        w = problem.affinity.weight(u, v)
        if w == 0.0:
            return 0.0
        s = problem.service_index(u)
        t = problem.service_index(v)
        ds = float(problem.demands[s])
        dt = float(problem.demands[t])
        ratios = np.minimum(self.x[s] / ds, self.x[t] / dt)
        return w * float(ratios.sum())

    def localization_ratio(self, u: str, v: str) -> float:
        """Fraction of traffic between ``u`` and ``v`` that is machine-local.

        This is gained affinity of the pair divided by its weight: the
        quantity plotted in the paper's production figures.
        """
        w = self.problem.affinity.weight(u, v)
        if w == 0.0:
            return 0.0
        return self.gained_affinity_of_pair(u, v) / w

    # ------------------------------------------------------------------
    # Feasibility
    # ------------------------------------------------------------------
    def check_feasibility(self, check_sla: bool = True) -> FeasibilityReport:
        """Validate the assignment against every constraint family.

        Args:
            check_sla: If False, skip the exact-demand check (Eq. 3) — useful
                for partial placements mid-migration.
        """
        problem = self.problem
        report = FeasibilityReport()

        if check_sla:
            placed = self.x.sum(axis=1)
            for i, svc in enumerate(problem.services):
                if placed[i] != svc.demand:
                    report.sla_violations.append((svc.name, int(placed[i]), svc.demand))

        usage = self.x.T.astype(float) @ problem.requests_matrix  # (M, R)
        capacity = problem.capacities_matrix
        over = usage > capacity + RESOURCE_TOLERANCE
        for m, r in zip(*np.nonzero(over)):
            report.resource_violations.append(
                (
                    problem.machines[m].name,
                    problem.resource_types[r],
                    float(usage[m, r]),
                    float(capacity[m, r]),
                )
            )

        for rule_index, rule in enumerate(problem.anti_affinity):
            idx = [problem.service_index(s) for s in rule.services]
            counts = self.x[idx].sum(axis=0)
            for m in np.nonzero(counts > rule.limit)[0]:
                report.anti_affinity_violations.append(
                    (problem.machines[m].name, rule_index, int(counts[m]), rule.limit)
                )

        bad = (self.x > 0) & ~problem.schedulable
        for s, m in zip(*np.nonzero(bad)):
            report.schedulable_violations.append(
                (problem.services[s].name, problem.machines[m].name)
            )

        return report

    @property
    def is_feasible(self) -> bool:
        """Shorthand for ``check_feasibility().feasible``."""
        return self.check_feasibility().feasible

    # ------------------------------------------------------------------
    # Utilities
    # ------------------------------------------------------------------
    def machine_usage(self) -> np.ndarray:
        """Resource usage per machine, shape ``(M, len(resource_types))``."""
        return self.x.T.astype(float) @ self.problem.requests_matrix

    def machine_utilization(self) -> np.ndarray:
        """Usage / capacity per machine and resource; NaN where capacity is 0."""
        capacity = self.problem.capacities_matrix
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(capacity > 0, self.machine_usage() / capacity, np.nan)

    def moved_containers(self, other: "Assignment") -> int:
        """Containers that must move to transform ``other`` into ``self``.

        Counted as the positive part of the per-cell difference — each unit
        of increase on some machine corresponds to one created (moved)
        container.
        """
        diff = self.x.astype(np.int64) - other.x.astype(np.int64)
        return int(np.clip(diff, 0, None).sum())

    def merge_subassignment(
        self,
        sub: "Assignment",
        service_names: list[str],
        machine_names: list[str],
    ) -> "Assignment":
        """Overlay a subproblem solution onto this assignment.

        Rows for the subproblem services are *replaced* (not added) in the
        columns of the subproblem machines.

        Returns:
            A new :class:`Assignment` on the same problem.
        """
        problem = self.problem
        x = self.x.copy()
        svc_idx = [problem.service_index(s) for s in service_names]
        mach_idx = [problem.machine_index(m) for m in machine_names]
        x[np.ix_(svc_idx, mach_idx)] = sub.x
        # Both operands are validated assignments, so the overlay is one.
        return Assignment._validated(problem, x)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Assignment):
            return NotImplemented
        return self.problem is other.problem and np.array_equal(self.x, other.x)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Assignment(placed={int(self.x.sum())}, "
            f"gained={self.gained_affinity(normalized=True):.4f})"
        )
