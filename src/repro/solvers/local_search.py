"""Local-search polish for RASA placements.

The paper's future work calls for more high-quality-high-efficiency
solver-based algorithms; this module provides the classical complement to
the solver pool: a hill climber over single-container relocations that
strictly improve gained affinity while preserving feasibility.  It is
cheap, anytime, and runs as an optional post-pass of the RASA pipeline
(``RASAConfig.local_search_seconds``).
"""

from __future__ import annotations

import numpy as np

from repro.core.problem import RASAProblem
from repro.core.solution import Assignment
from repro.solvers.base import Stopwatch
from repro.solvers.greedy import PackingState, neighbor_table


#: Full passes over the candidate containers per call.
MAX_ROUNDS = 3

#: How many services (by total affinity, descending) are movable — the
#: skew means the head services carry nearly all improvable affinity.
CANDIDATE_SERVICES = 64


class LocalSearchImprover:
    """Strict-improvement hill climbing over single-container moves."""

    name = "local-search"

    def improve(
        self,
        problem: RASAProblem,
        assignment: Assignment,
        time_limit: float | None = None,
    ) -> Assignment:
        """Return an assignment with gained affinity >= the input's.

        Only relocations that keep every constraint satisfied are applied;
        the result is feasible whenever the input is.
        """
        watch = Stopwatch(time_limit)
        state = PackingState(problem, assignment.x)
        neighbors = neighbor_table(problem)

        movable = [
            s
            for s, _total in sorted(
                (
                    (s, problem.affinity.total_affinity_of(problem.services[s].name))
                    for s in range(problem.num_services)
                ),
                key=lambda item: -item[1],
            )
            if neighbors[s]
        ][:CANDIDATE_SERVICES]

        improved = True
        rounds = 0
        while improved and rounds < MAX_ROUNDS and not watch.expired:
            improved = False
            rounds += 1
            for s in movable:
                if watch.expired:
                    break
                if self._improve_service(problem, state, neighbors, s):
                    improved = True
        return Assignment(problem, state.x)

    # ------------------------------------------------------------------
    def _improve_service(
        self,
        problem: RASAProblem,
        state: PackingState,
        neighbors: list[list[tuple[int, float]]],
        s: int,
    ) -> bool:
        """Try to move one container of ``s`` to a strictly better machine."""
        hosts = np.nonzero(state.x[s] > 0)[0]
        if hosts.size == 0:
            return False
        moved = False
        for source in hosts:
            # Removing from `source` changes the delta landscape; compute
            # the loss of removal plus the gain of the best re-insertion.
            state.remove(s, int(source))
            delta = state.affinity_delta(s, neighbors[s])
            mask = state.feasible_machines(s)
            delta[~mask] = -np.inf
            best = int(np.argmax(delta))
            if delta[best] > delta[int(source)] + 1e-12 and best != int(source):
                state.place(s, best)
                moved = True
            else:
                state.place(s, int(source))  # undo
        return moved
