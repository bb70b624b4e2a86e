"""APPLSCI19 baseline (extension of Hu, de Laat & Zhao, Applied Sciences 2019).

Offline heuristic based on min-weight graph partitioning plus heuristic
packing: grow service groups along heavy affinity edges until a group's
resource demand fills one (average-size) machine, then pack groups onto
machines.  The original algorithm assumes a single machine size; following
the paper's evaluation notes, the packing degrades on heterogeneous machine
specs — leftover containers fall back to first-fit.
"""

from __future__ import annotations

import numpy as np

from repro.core.problem import RASAProblem
from repro.core.solution import Assignment
from repro.solvers.base import SolveResult, Stopwatch
from repro.solvers.greedy import PackingState, neighbor_table, service_order


class ApplSci19Algorithm:
    """Min-weight-partition + packing offline heuristic.

    Args:
        group_fill: Fraction of the reference machine capacity a group may
            demand before it is closed (head-room for packing feasibility).
    """

    name = "applsci19"

    def __init__(self, group_fill: float = 0.9) -> None:
        self.group_fill = group_fill

    def solve(self, problem: RASAProblem, time_limit: float | None = None) -> SolveResult:
        """Grow affinity groups sized for one machine, then pack them."""
        watch = Stopwatch(time_limit)
        groups = self._grow_groups(problem)
        x = self._pack_groups(problem, groups)
        assignment = Assignment(problem, x)
        return SolveResult(
            assignment=assignment,
            algorithm=self.name,
            status="heuristic",
            runtime_seconds=watch.elapsed,
            objective=assignment.gained_affinity(),
        )

    # ------------------------------------------------------------------
    def _grow_groups(self, problem: RASAProblem) -> list[list[int]]:
        """Greedy min-cut grouping: seed with the highest-affinity service,
        absorb the neighbor with the heaviest edge into the group until the
        group's *full* demand no longer fits the reference machine."""
        # The original algorithm's single machine size: the mean capacity.
        reference = problem.capacities_matrix.mean(axis=0) * self.group_fill
        neighbors = neighbor_table(problem)
        demands = problem.demands
        requests = problem.requests_matrix

        unassigned = set(range(problem.num_services))
        groups: list[list[int]] = []
        for seed in service_order(problem):
            if seed not in unassigned:
                continue
            group = [seed]
            unassigned.discard(seed)
            load = requests[seed] * demands[seed]
            while True:
                best, best_weight = -1, 0.0
                for member in group:
                    for t, w in neighbors[member]:
                        if t in unassigned and w > best_weight:
                            candidate_load = load + requests[t] * demands[t]
                            if (candidate_load <= reference).all():
                                best, best_weight = t, w
                if best < 0:
                    break
                group.append(best)
                unassigned.discard(best)
                load = load + requests[best] * demands[best]
            groups.append(group)
        return groups

    def _pack_groups(self, problem: RASAProblem, groups: list[list[int]]) -> np.ndarray:
        """First-fit-decreasing packing of groups onto machines.

        Each group tries to land wholly on one machine (so its internal
        affinity is fully gained); groups or containers that do not fit are
        retried container-by-container first-fit — the failure mode on
        multi-spec clusters the paper calls out.
        """
        state = PackingState(problem)
        order = sorted(
            range(len(groups)),
            key=lambda g: -float(
                (problem.requests_matrix[groups[g]]
                 * problem.demands[groups[g], None]).sum()
            ),
        )
        leftovers: list[int] = []
        for g in order:
            group = groups[g]
            machine = self._find_machine_for_group(problem, state, group)
            if machine is None:
                leftovers.extend(group)
                continue
            for s in group:
                for _ in range(int(problem.demands[s])):
                    if state.feasible_machines(s, machine):
                        state.place(s, machine)
                    else:
                        leftovers.append(s)
                        break
        # Container-level first-fit for everything that missed its group.
        for s in leftovers:
            missing = int(problem.demands[s] - state.x[s].sum())
            for _ in range(max(0, missing)):
                mask = state.feasible_machines(s)
                if not mask.any():
                    break
                state.place(s, int(np.argmax(mask)))
        return state.x

    def _find_machine_for_group(
        self,
        problem: RASAProblem,
        state: PackingState,
        group: list[int],
    ) -> int | None:
        """First machine whose free resources fit the whole group's demand
        and that is schedulable for every member."""
        demand = (
            problem.requests_matrix[group] * problem.demands[group, None]
        ).sum(axis=0)
        for m in range(problem.num_machines):
            if not all(problem.schedulable[s, m] for s in group):
                continue
            if (state.free[m] >= demand - 1e-9).all():
                return m
        return None
