"""POP baseline (Narayanan et al., SOSP 2021).

POP solves *granular* resource-allocation problems by uniformly random
partitioning into equal subproblems, solving each with an off-the-shelf
solver, and unioning the results.  RASA is not granular (services interact
through affinity edges), so random partitioning severs most of the affinity
mass — which is exactly the failure mode the paper's Fig. 9/10 demonstrate.

Implemented as the composition of the uniform-random partitioner with the
exact MIP solver per shard, reusing the same merge/bookkeeping machinery as
RASA so the comparison isolates the partitioning policy.
"""

from __future__ import annotations

from repro.core.config import RASAConfig
from repro.core.problem import RASAProblem
from repro.core.rasa import RASAScheduler
from repro.partitioning.random_partition import RandomPartitioner
from repro.selection.selector import FixedSelector
from repro.solvers.base import SolveResult


class POPAlgorithm:
    """Random equal partitioning + per-shard MIP (anytime, like RASA).

    Args:
        max_subproblem_services: Shard size of the random partition.
        seed: Partitioning seed.
    """

    name = "pop"

    def __init__(
        self,
        max_subproblem_services: int = 48,
        seed: int = 0,
    ) -> None:
        self.max_subproblem_services = max_subproblem_services
        self.seed = seed

    def solve(self, problem: RASAProblem, time_limit: float | None = None) -> SolveResult:
        """Partition randomly, solve each shard with MIP, merge."""
        scheduler = RASAScheduler(
            config=RASAConfig(seed=self.seed),
            partitioner=RandomPartitioner(
                max_subproblem_services=self.max_subproblem_services,
                seed=self.seed,
            ),
            selector=FixedSelector("mip"),
        )
        result = scheduler.schedule(problem, time_limit=time_limit)
        return SolveResult(
            assignment=result.assignment,
            algorithm=self.name,
            status="feasible",
            runtime_seconds=result.runtime_seconds,
            objective=result.assignment.gained_affinity(),
        )
