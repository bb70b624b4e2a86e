"""Variable-aggregated MIP over machine groups.

The paper's formulation indexes gained affinity by machine *groups*
(``a_{s,s',g}`` in Eq. 2), and its related work (RAS, Newell et al. SOSP'21)
applies variable aggregation to meet SLOs at region scale.  This module
implements that technique for RASA: one integer variable per
``(service, machine group)`` instead of per ``(service, machine)``.

The model is the flat one — :func:`repro.solvers.mip.build_rasa_model` with
``group_machines(problem)`` as its bins: a group of ``k`` machines has
``k x`` its capacity and ``k x`` each anti-affinity limit on Eq. 4–5 (the
group-level relaxation; per-machine rules are re-checked at deaggregation).

Why this is sound: ``min`` is positively homogeneous, so splitting the
group-level counts evenly across a group's ``k`` identical machines
realizes *exactly* the aggregated objective in the fractional sense —

    sum_m w * min(x_sg/k / d_s, x_tg/k / d_t)  =  w * min(x_sg/d_s, x_tg/d_t)

— and only integer rounding of the per-machine split loses value.  The
aggregated model has ``(N + |E|) * G`` variables instead of
``(N + |E|) * M``; with tens of machines per spec this is a 10–50x model
reduction, which is the whole point at cluster scale.

The deaggregation step splits each group's counts across member machines
with largest-remainder quotas, checks feasibility per machine, and the
caller's usual repair pass picks up anything dropped.

Every flat solution sums to an aggregated one, so the aggregated *model's*
optimum is at least the flat optimum, and the realized placement at most.
There is no lower bracket on the realized placement: demand-1 services
cannot be split evenly and the greedy floor does not bound the loss.
Demands ``[2, 1, 1, 2]`` of one cpu each on three 3-cpu machines with edges
``s0–s1: 5, s1–s2: 1, s2–s3: 5`` give flat 10.0, aggregated model 11.0,
realized 3.5 — 0.35 (pinned in ``tests/test_properties_solvers.py``).
"""

from __future__ import annotations

import numpy as np

from repro.core.problem import RASAProblem
from repro.core.solution import Assignment
from repro.solvers.base import SolveResult, Stopwatch
from repro.solvers.greedy import GreedyAlgorithm, PackingState, repair_unplaced
from repro.solvers.milp_backend import GAP_TOLERANCE, solve_milp
from repro.solvers.mip import ModelLayout, build_rasa_model
from repro.solvers.patterns import MachineGroup, group_machines


class AggregatedMIPAlgorithm:
    """MIP over machine groups: near-exact at a fraction of the model size.

    Args:
        backend: MILP backend identifier (``"highs"`` or ``"bnb"``).
    """

    name = "agg-mip"

    def __init__(self, backend: str = "highs") -> None:
        self.backend = backend

    def solve(self, problem: RASAProblem, time_limit: float | None = None) -> SolveResult:
        """Solve the group-aggregated model and deaggregate to machines."""
        watch = Stopwatch(time_limit)
        groups = group_machines(problem)
        model, layout = build_rasa_model(problem, groups)

        if layout.num_variables == 0:
            # Nothing is schedulable anywhere: return the empty placement.
            assignment, status = Assignment.empty(problem), "no_variables"
        else:
            milp_result = solve_milp(
                model, time_limit=time_limit, backend=self.backend, gap_tolerance=GAP_TOLERANCE
            )
            assignment, status = None, milp_result.status
            if milp_result.x is not None:
                x = deaggregate(problem, groups, layout, milp_result.x)
                assignment = Assignment(problem, repair_unplaced(problem, x))
            greedy = GreedyAlgorithm().solve(problem)
            if assignment is None or greedy.objective > assignment.gained_affinity():
                assignment, status = greedy.assignment, f"{status}+greedy"

        return SolveResult(
            assignment=assignment,
            algorithm=self.name,
            status=status,
            runtime_seconds=watch.elapsed,
            objective=assignment.gained_affinity(),
        )


def deaggregate(
    problem: RASAProblem,
    groups: list[MachineGroup],
    layout: ModelLayout,
    solution: np.ndarray,
) -> np.ndarray:
    """Split group-level counts onto member machines.

    Uses largest-remainder quotas per service within each group, placed via
    :class:`PackingState` so per-machine resources, anti-affinity, and
    schedulability are enforced exactly; anything that does not fit is left
    for the caller's repair pass.
    """
    state = PackingState(problem)
    for g, group in enumerate(groups):
        counts = np.zeros(problem.num_services, dtype=np.int64)
        for s in range(problem.num_services):
            idx = layout.x_index.get((s, g))
            if idx is not None:
                counts[s] = int(round(solution[idx]))
        if counts.sum() == 0:
            continue
        k = group.count
        # Quotas: floor share everywhere, remainders to the first machines.
        base = counts // k
        remainder = counts % k
        for slot, machine in enumerate(group.machine_indices):
            for s in np.nonzero(counts)[0]:
                quota = int(base[s]) + (1 if slot < int(remainder[s]) else 0)
                for _ in range(quota):
                    if not state.feasible_machines(int(s))[machine]:
                        break
                    state.place(int(s), int(machine))
    return state.x
