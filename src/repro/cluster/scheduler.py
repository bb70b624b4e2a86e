"""Kubernetes-style default scheduler: the filter & score loop.

The production ORIGINAL placement combines first-fit with K8s filter/score;
the cluster also relies on the default scheduler to pick up containers the
RASA pipeline failed to deploy and to re-place rolled-back containers.  This
module implements that two-phase loop:

* **filter** — drop machines violating schedulability, resources, or
  anti-affinity for the container at hand, or carrying a churn tag;
* **score** — rank surviving machines with pluggable scoring functions
  (spread / binpack / affinity), mirroring K8s scheduler plugins.

Both phases read the cluster's books (``state.books``, a
:class:`~repro.solvers.greedy.PackingState`): the feasibility rule and the
marginal gained-affinity delta are the packer's own, and the scorers read
its live rows and free capacity without copying the placement matrix.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.cluster.state import ClusterState
from repro.exceptions import ClusterStateError

#: A scoring function: (state, service_index, feasible_machine_mask) -> scores.
ScoreFunction = Callable[[ClusterState, int, np.ndarray], np.ndarray]


def spread_score(state: ClusterState, service: int, mask: np.ndarray) -> np.ndarray:
    """Prefer machines hosting fewer containers of this service (HA spread)."""
    return -state.books.x[service].astype(float)


def binpack_score(state: ClusterState, service: int, mask: np.ndarray) -> np.ndarray:
    """Prefer fuller machines (consolidation / cost saving)."""
    capacity = state.problem.capacities_matrix
    with np.errstate(divide="ignore", invalid="ignore"):
        fullness = np.where(
            capacity > 0, 1.0 - state.books.free / capacity, 0.0
        ).mean(axis=1)
    return fullness


def least_allocated_score(state: ClusterState, service: int, mask: np.ndarray) -> np.ndarray:
    """Prefer emptier machines (K8s LeastAllocated default)."""
    return -binpack_score(state, service, mask)


def affinity_score(state: ClusterState, service: int, mask: np.ndarray) -> np.ndarray:
    """Prefer machines already hosting affinity neighbors (the K8s+ scoring).

    Scores each machine by the marginal gained affinity of adding one
    container of the service there — the same delta the greedy packer uses.
    """
    problem = state.problem
    name = problem.services[service].name
    neighbors = [
        (problem.service_index(other), weight)
        for other, weight in problem.affinity.neighbors(name).items()
    ]
    return state.books.affinity_delta(service, neighbors)


class DefaultScheduler:
    """Online filter & score scheduler.

    Args:
        scorers: Scoring functions with weights; scores are min-max
            normalized per function and combined linearly, like K8s plugin
            weights.  Defaults to the stock spread + least-allocated mix.
    """

    def __init__(
        self,
        scorers: Sequence[tuple[ScoreFunction, float]] | None = None,
    ) -> None:
        self.scorers: list[tuple[ScoreFunction, float]] = list(
            scorers
            if scorers is not None
            else [(spread_score, 1.0), (least_allocated_score, 1.0)]
        )

    # ------------------------------------------------------------------
    def filter(self, state: ClusterState, service: int) -> np.ndarray:
        """Feasibility mask over machines for one more container of
        ``service`` (schedulability, resources, anti-affinity, churn tags)."""
        mask = state.books.feasible_machines(service)
        for m, machine in enumerate(state.problem.machines):
            if not state.is_schedulable_machine(machine.name):
                mask[m] = False
        return mask

    def score(self, state: ClusterState, service: int, mask: np.ndarray) -> np.ndarray:
        """Weighted, normalized combination of all scoring functions."""
        total = np.zeros(state.problem.num_machines)
        for scorer, weight in self.scorers:
            raw = scorer(state, service, mask)
            span = raw.max() - raw.min()
            normalized = (raw - raw.min()) / span if span > 0 else np.zeros_like(raw)
            total += weight * normalized
        return total

    def place_one(self, state: ClusterState, service_name: str) -> str | None:
        """Filter + score + bind one container; returns the machine name or
        None when no machine is feasible."""
        service = state.problem.service_index(service_name)
        mask = self.filter(state, service)
        if not mask.any():
            return None
        scores = self.score(state, service, mask)
        scores[~mask] = -np.inf
        machine = state.problem.machines[int(np.argmax(scores))].name
        state.create_container(service_name, machine)
        return machine

    def place_missing(self, state: ClusterState) -> int:
        """Place every container short of its service's demand.

        Returns:
            The number of containers successfully placed.
        """
        placed = 0
        problem = state.problem
        for s, svc in enumerate(problem.services):
            missing = int(problem.demands[s] - state.books.x[s].sum())
            for _ in range(max(0, missing)):
                try:
                    machine = self.place_one(state, svc.name)
                except ClusterStateError:
                    machine = None
                if machine is None:
                    break
                placed += 1
        return placed
