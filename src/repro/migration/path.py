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

import math

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
        demands = problem.demands.tolist()
        floor = alive_floor(self.sla_floor, problem.demands).tolist()
        alive = books.x.sum(axis=1).tolist()
        offline = [max(d - a, 0) for d, a in zip(demands, alive)]

        # Only the cells where ``books.x`` and ``goal`` differ are walked:
        # containers to delete (``excess``) and to create (``deficit``).
        # Each command closes one unit of one cell's gap, so a cell never
        # moves from one side to the other.
        excess = _gaps_by_machine(books.x, goal)
        deficit = _gaps_by_machine(goal, books.x)

        plan = MigrationPlan(sla_floor=self.sla_floor)
        moved = 0
        with tracer.span("migration.build", sla_floor=self.sla_floor) as build_span:
            for batch in range(MAX_ITERATIONS):
                if not excess and not deficit:
                    break

                with tracer.span("migration.batch", index=batch) as batch_span:
                    deletes = _select_deletes(excess, alive, floor, demands, offline)
                    for service, machine in deletes:
                        books.remove(service, machine)
                        _close_one(excess, service, machine)
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

                    creates = _select_creates(books, deficit, demands, alive, offline)
                    for service, machine in creates:
                        books.place(service, machine)
                        _close_one(deficit, service, machine)
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


def _gaps_by_machine(have: np.ndarray, want: np.ndarray) -> dict[int, dict[int, int]]:
    """Where ``have`` exceeds ``want``: ``{machine: {service: by how much}}``."""
    gap = have - want
    services, machines = np.nonzero(gap > 0)
    gaps: dict[int, dict[int, int]] = {}
    for s, m, count in zip(
        services.tolist(), machines.tolist(), gap[services, machines].tolist()
    ):
        gaps.setdefault(m, {})[s] = count
    return gaps


def _close_one(gaps: dict[int, dict[int, int]], service: int, machine: int) -> None:
    """One command closed one unit of a cell's gap; forget the cell at zero."""
    column = gaps[machine]
    column[service] -= 1
    if not column[service]:
        del column[service]
        if not column:
            del gaps[machine]


def _select_deletes(
    excess: dict[int, dict[int, int]],
    alive: list[int],
    floor: list[int],
    demands: list[int],
    offline: list[int],
) -> list[tuple[int, int]]:
    """One deletion per machine: the migratable service with the lowest
    offline ratio whose deletion keeps it above the alive floor.

    Machines ascending, services ascending within each; a strict ``<``
    keeps the first of equal ratios.
    """
    chosen: list[tuple[int, int]] = []
    # Track within-batch deletions so one batch cannot take a service
    # below its floor via parallel deletes on different machines.
    pending = list(alive)
    for m in sorted(excess):
        best_service = -1
        best_ratio = math.inf
        for s in sorted(excess[m]):
            if pending[s] - 1 < floor[s]:
                continue
            ratio = offline[s] / demands[s]
            if ratio < best_ratio:
                best_service, best_ratio = s, ratio
        if best_service >= 0:
            chosen.append((best_service, m))
            pending[best_service] -= 1
    return chosen


def _select_creates(
    books: PackingState,
    deficit: dict[int, dict[int, int]],
    demands: list[int],
    alive: list[int],
    offline: list[int],
) -> list[tuple[int, int]]:
    """One creation per machine: among services scheduled here in the
    target, missing locally, still short of their demand, and which the
    machine may take (the packer's Eq. 4–6 rule), pick the highest
    offline ratio.

    Machines ascending, services ascending within each; a strict ``>``
    keeps the first of equal ratios.  The packer is asked only about a
    service that would win, which picks the same one.
    """
    chosen: list[tuple[int, int]] = []
    pending_alive = list(alive)
    for m in sorted(deficit):
        best_service = -1
        best_ratio = -math.inf
        for s in sorted(deficit[m]):
            if pending_alive[s] >= demands[s]:
                continue
            ratio = offline[s] / demands[s]
            if ratio > best_ratio and books.feasible_machines(s, m):
                best_service, best_ratio = s, ratio
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
