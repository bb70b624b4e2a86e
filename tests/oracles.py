"""Dense reference implementations the sparse production code must match.

Each function here is the straightforward full-matrix statement of a
quantity that ``src`` computes over nonzero cells only.  They are kept as
test oracles, not called by the system: the property tests assert that the
production result is *equal* (``==``, not approximately) to the oracle's.

* :func:`dense_gained_affinity` — paper Definition 1 as one row expression
  per affinity edge, summed by numpy over every machine.
* :func:`dense_migration_plan` — Algorithm 2 with a per-batch dense
  ``books.x - goal`` scan, one ``np.nonzero`` per machine column.
* :func:`enumerated_pricing` — the column generation pricing problem
  (``GenPattern``) solved by trying every count vector, from the problem's
  arrays alone (no ``repro.solvers`` code).
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.core.problem import RASAProblem
from repro.core.solution import Assignment
from repro.migration.plan import Command, CommandAction, MigrationPlan, alive_floor
from repro.solvers.greedy import PackingState


def dense_edge_sums(assignment: Assignment) -> list[float]:
    """Per affinity edge, its ratios summed by numpy over every machine."""
    x = assignment.x
    demands = assignment.problem.demands.astype(float)
    return [
        float(np.minimum(x[s] / demands[s], x[t] / demands[t]).sum())
        for s, t, _w in assignment.problem.edges
    ]


def dense_gained_affinity(assignment: Assignment, normalized: bool = False) -> float:
    """Gained affinity with each edge's ratios summed over all machines."""
    problem = assignment.problem
    total = 0.0
    for (_s, _t, w), ratio_sum in zip(problem.edges, dense_edge_sums(assignment)):
        total += w * ratio_sum
    if normalized:
        graph_total = problem.affinity.total_affinity
        if graph_total == 0:
            return 0.0
        return total / graph_total
    return total


def dense_migration_plan(
    problem: RASAProblem,
    original: Assignment,
    target: Assignment,
    sla_floor: float,
    max_iterations: int = 100_000,
) -> MigrationPlan:
    """Algorithm 2, rescanning the whole surplus matrix per machine and batch."""
    books = PackingState(problem, original.x)
    goal = target.x
    demands = problem.demands
    floor = alive_floor(sla_floor, demands)
    alive = books.x.sum(axis=1)
    offline = np.maximum(demands - alive, 0)
    plan = MigrationPlan(sla_floor=sla_floor)
    moved = 0
    for _ in range(max_iterations):
        surplus = books.x - goal
        if not surplus.any():
            break
        deletes = []
        pending = alive.copy()
        for m in range(surplus.shape[1]):
            best_service, best_ratio = -1, np.inf
            for s in np.nonzero(surplus[:, m] > 0)[0]:
                if pending[s] - 1 < floor[s]:
                    continue
                ratio = offline[s] / demands[s]
                if ratio < best_ratio:
                    best_service, best_ratio = int(s), ratio
            if best_service >= 0:
                deletes.append((best_service, m))
                pending[best_service] -= 1
        for s, m in deletes:
            books.remove(s, m)
            alive[s] -= 1
            offline[s] += 1
        if deletes:
            plan.steps.append([
                Command(CommandAction.DELETE, problem.services[s].name,
                        problem.machines[m].name)
                for s, m in deletes
            ])

        surplus = books.x - goal
        creates = []
        pending_alive = alive.copy()
        for m in range(surplus.shape[1]):
            best_service, best_ratio = -1, -np.inf
            for s in np.nonzero(surplus[:, m] < 0)[0]:
                if pending_alive[s] >= demands[s]:
                    continue
                if not books.feasible_machines(s, m):
                    continue
                ratio = offline[s] / demands[s]
                if ratio > best_ratio:
                    best_service, best_ratio = int(s), ratio
            if best_service >= 0:
                creates.append((best_service, m))
                pending_alive[best_service] += 1
        for s, m in creates:
            books.place(s, m)
            alive[s] += 1
            offline[s] = max(0, offline[s] - 1)
        if creates:
            plan.steps.append([
                Command(CommandAction.CREATE, problem.services[s].name,
                        problem.machines[m].name)
                for s, m in creates
            ])
            moved += len(creates)
        if not deletes and not creates:
            plan.complete = False
            break
    plan.moved_containers = moved
    if plan.complete and not np.array_equal(books.x, goal):
        plan.complete = False
    return plan


def enumerated_pricing(
    problem: RASAProblem,
    capacity: tuple[float, ...],
    schedulable: tuple[bool, ...],
    duals: np.ndarray,
) -> tuple[float, np.ndarray]:
    """The best reduced cost ``value(p) - duals @ p`` over one machine's
    patterns, and a pattern reaching it.

    Tries every count vector with ``p_s <= min(d_s, fit_s)`` (0 where the
    machine bars ``s``) and keeps those within ``capacity`` and every
    anti-affinity limit.  ``value`` is Definition 1 on one machine:
    ``sum_e w_e * min(p_s / d_s, p_t / d_t)``.  The empty pattern is always
    feasible, so the maximum is at least 0.
    """
    demands = problem.demands.astype(float)
    requests = problem.requests_matrix
    capacity = np.asarray(capacity, dtype=float)
    safe = np.where(requests > 0, requests, 1.0)
    fit = np.floor(np.where(requests > 0, capacity / safe, np.inf).min(axis=1) + 1e-9)
    bound = np.where(np.asarray(schedulable, dtype=bool), np.minimum(demands, fit), 0.0)
    grid = np.array(
        list(itertools.product(*(range(int(b) + 1) for b in bound))), dtype=np.int64
    )
    keep = (grid @ requests <= capacity + 1e-9).all(axis=1)
    for rule in problem.anti_affinity:
        members = [problem.service_index(name) for name in rule.services]
        keep &= grid[:, members].sum(axis=1) <= rule.limit
    grid = grid[keep]
    value = np.zeros(len(grid))
    for s, t, w in problem.edges:
        value += w * np.minimum(grid[:, s] / demands[s], grid[:, t] / demands[t])
    reduced = value - grid @ np.asarray(duals, dtype=float)
    best = int(np.argmax(reduced))
    return float(reduced[best]), grid[best]
