"""Migration path computation (paper Algorithm 2).

Transforms the current container mapping into a target mapping through
alternating delete and create command sets while

* keeping at least ``sla_floor`` (default 75 %) of every service's
  containers alive at all times, and
* staying feasible (Eq. 4–6: capacity, anti-affinity, schedulability) at
  every step boundary.

The builder states no feasibility rule of its own: every mid-path placement
lives in a :class:`~repro.solvers.greedy.PackingState` and a create is
admitted only where the packer's ``feasible_machines`` says the machine may
take one more container.  The executor checks the result independently,
with the verifier (``Assignment.check_feasibility``).

Container choice is driven by each service's *offline ratio* — the fraction
of its containers deleted but not yet recreated: deletions pick the service
with the lowest offline ratio (spreading SLA pressure), creations pick the
highest (repaying the most indebted service first).
"""

from __future__ import annotations

import numpy as np

from repro.core.config import LoopSpec
from repro.core.problem import RASAProblem
from repro.core.solution import Assignment
from repro.exceptions import MigrationError
from repro.migration.plan import Command, CommandAction, MigrationPlan, alive_floor
from repro.obs import get_metrics, get_tracer
from repro.solvers.greedy import PackingState

#: Safety cap on path iterations (each iteration emits >= 1 command when
#: progress is possible, so this bounds plans at ~2 * containers steps).
MAX_ITERATIONS = 100_000


class MigrationPathBuilder:
    """Computes executable migration paths between two assignments.

    Args:
        sla_floor: Minimum alive fraction per service during migration.
    """

    def __init__(self, sla_floor: float = LoopSpec.sla_floor) -> None:
        if not 0.0 <= sla_floor <= 1.0:
            raise MigrationError(f"sla_floor must be in [0, 1], got {sla_floor}")
        self.sla_floor = sla_floor

    def build(
        self,
        problem: RASAProblem,
        original: Assignment,
        target: Assignment,
    ) -> MigrationPlan:
        """Compute the command sets transforming ``original`` into ``target``.

        Returns:
            A :class:`MigrationPlan`; ``plan.complete`` is False when the
            path stalls (some containers cannot move without violating the
            SLA floor or Eq. 4–6) — the residual diff is then left to the
            cluster's default scheduler, matching the paper's tolerance.
        """
        tracer = get_tracer()
        metrics = get_metrics()
        metrics.gauge("migration.sla_floor").set(self.sla_floor)
        books = PackingState(problem, original.x)
        goal = target.x
        demands = problem.demands
        floor = alive_floor(self.sla_floor, demands)
        alive = books.x.sum(axis=1)
        offline = np.maximum(demands - alive, 0)

        plan = MigrationPlan(sla_floor=self.sla_floor)
        moved = 0

        with tracer.span("migration.build", sla_floor=self.sla_floor) as build_span:
            for batch in range(MAX_ITERATIONS):
                surplus = books.x - goal  # >0: delete here, <0: create here
                if not (surplus > 0).any() and not (surplus < 0).any():
                    break

                with tracer.span("migration.batch", index=batch) as batch_span:
                    deletes = self._select_deletes(
                        surplus, alive, floor, demands, offline
                    )
                    for service, machine in deletes:
                        books.remove(service, machine)
                        alive[service] -= 1
                        offline[service] += 1
                    if deletes:
                        plan.steps.append(
                            [
                                Command(CommandAction.DELETE, problem.services[s].name,
                                        problem.machines[m].name)
                                for s, m in deletes
                            ]
                        )

                    surplus = books.x - goal
                    creates = self._select_creates(
                        books, surplus, demands, alive, offline
                    )
                    for service, machine in creates:
                        books.place(service, machine)
                        alive[service] += 1
                        offline[service] = max(0, offline[service] - 1)
                    if creates:
                        plan.steps.append(
                            [
                                Command(CommandAction.CREATE, problem.services[s].name,
                                        problem.machines[m].name)
                                for s, m in creates
                            ]
                        )
                        moved += len(creates)
                    batch_span.set_tag("deletes", len(deletes))
                    batch_span.set_tag("creates", len(creates))

                if not deletes and not creates:
                    plan.complete = False
                    break
            else:  # pragma: no cover - MAX_ITERATIONS is far beyond real plans
                raise MigrationError("migration path exceeded the iteration cap")

            plan.moved_containers = moved
            if plan.complete and not np.array_equal(books.x, goal):
                plan.complete = False
            build_span.set_tag("moved_containers", moved)
            build_span.set_tag("steps", len(plan.steps))
            build_span.set_tag("complete", plan.complete)
        metrics.counter("migration.moved_containers").inc(moved)
        metrics.histogram("migration.plan.steps").observe(len(plan.steps))
        return plan

    # ------------------------------------------------------------------
    def _select_deletes(
        self,
        surplus: np.ndarray,
        alive: np.ndarray,
        floor: np.ndarray,
        demands: np.ndarray,
        offline: np.ndarray,
    ) -> list[tuple[int, int]]:
        """One deletion per machine: the migratable service with the lowest
        offline ratio whose deletion keeps it above the alive floor."""
        chosen: list[tuple[int, int]] = []
        num_machines = surplus.shape[1]
        # Track within-batch deletions so one batch cannot take a service
        # below its floor via parallel deletes on different machines.
        pending = alive.copy()
        for m in range(num_machines):
            candidates = np.nonzero(surplus[:, m] > 0)[0]
            best_service = -1
            best_ratio = np.inf
            for s in candidates:
                if pending[s] - 1 < floor[s]:
                    continue
                ratio = offline[s] / demands[s]
                if ratio < best_ratio:
                    best_service, best_ratio = int(s), ratio
            if best_service >= 0:
                chosen.append((best_service, m))
                pending[best_service] -= 1
        return chosen

    def _select_creates(
        self,
        books: PackingState,
        surplus: np.ndarray,
        demands: np.ndarray,
        alive: np.ndarray,
        offline: np.ndarray,
    ) -> list[tuple[int, int]]:
        """One creation per machine: among services scheduled here in the
        target, missing locally, still short of their demand, and which the
        machine may take (the packer's Eq. 4–6 rule), pick the highest
        offline ratio."""
        chosen: list[tuple[int, int]] = []
        num_machines = surplus.shape[1]
        pending_alive = alive.copy()
        for m in range(num_machines):
            candidates = np.nonzero(surplus[:, m] < 0)[0]
            best_service = -1
            best_ratio = -np.inf
            for s in candidates:
                if pending_alive[s] >= demands[s]:
                    continue
                if not books.feasible_machines(s, m):
                    continue
                ratio = offline[s] / demands[s]
                if ratio > best_ratio:
                    best_service, best_ratio = int(s), ratio
            if best_service >= 0:
                chosen.append((best_service, m))
                pending_alive[best_service] += 1
        return chosen


def naive_plan(
    problem: RASAProblem,
    original: Assignment,
    target: Assignment,
) -> MigrationPlan:
    """Delete-everything-then-create-everything strawman.

    Used by tests and the migration ablation bench to show why Algorithm 2
    is needed: this plan reaches the target in two giant steps but drives
    services' alive fractions to zero mid-way, violating any SLA floor.
    """
    plan = MigrationPlan(sla_floor=0.0)
    deletes: list[Command] = []
    creates: list[Command] = []
    diff = original.x - target.x
    for s, m in zip(*np.nonzero(diff > 0)):
        for _ in range(int(diff[s, m])):
            deletes.append(
                Command(CommandAction.DELETE, problem.services[s].name,
                        problem.machines[m].name)
            )
    for s, m in zip(*np.nonzero(diff < 0)):
        for _ in range(int(-diff[s, m])):
            creates.append(
                Command(CommandAction.CREATE, problem.services[s].name,
                        problem.machines[m].name)
            )
    if deletes:
        plan.steps.append(deletes)
    if creates:
        plan.steps.append(creates)
    plan.moved_containers = len(creates)
    return plan
