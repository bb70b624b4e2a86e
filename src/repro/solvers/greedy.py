"""Affinity-aware greedy packer.

Not a paper baseline by itself, but a workhorse used in three places:

* initial columns / warm starts for the column generation algorithm,
* repair step after LP rounding (placing containers the rounding dropped),
* a fast feasible fallback when a solver-based method produces no incumbent.

The packer walks services in decreasing total-affinity order and places each
container on the feasible machine with the largest marginal gained-affinity
delta, breaking ties toward fuller machines (best-fit) to keep bins tight.
"""

from __future__ import annotations

import numpy as np

from repro.core.problem import RASAProblem
from repro.core.solution import Assignment
from repro.solvers.base import SolveResult, Stopwatch

#: Weight of the best-fit tiebreak relative to the affinity delta; small so
#: affinity dominates.
BIN_PACKING_WEIGHT = 1e-6


class PackingState:
    """Mutable machine-load bookkeeping shared by greedy placement loops.

    Tracks free resources, anti-affinity head-room, and the running
    assignment matrix, and answers feasibility/score queries vectorized over
    machines.
    """

    def __init__(self, problem: RASAProblem, x: np.ndarray | None = None) -> None:
        self.problem = problem
        n, m = problem.num_services, problem.num_machines
        self.x = np.zeros((n, m), dtype=np.int64) if x is None else x.astype(np.int64).copy()
        used = self.x.T.astype(float) @ problem.requests_matrix
        self.free = problem.capacities_matrix - used  # (M, R)
        self.rule_members = [
            np.array([problem.service_index(s) for s in rule.services], dtype=int)
            for rule in problem.anti_affinity
        ]
        self.rule_limits = np.array(
            [rule.limit for rule in problem.anti_affinity], dtype=np.int64
        )
        self.rule_counts = np.array(
            [self.x[members].sum(axis=0) for members in self.rule_members], dtype=np.int64
        ).reshape(len(self.rule_members), m)
        self._service_rules: list[list[int]] = [[] for _ in range(n)]
        for k, members in enumerate(self.rule_members):
            for s in members:
                self._service_rules[s].append(k)

    def feasible_machines(
        self, service: int, machines: int | slice | np.ndarray = slice(None)
    ) -> np.ndarray:
        """Boolean mask of machines that can accept one more container.

        Args:
            machines: Restrict the question to these machines — an index
                array returns the sub-mask, a single int a scalar bool; the
                default asks about every machine.
        """
        problem = self.problem
        request = problem.requests_matrix[service]
        mask = problem.schedulable[service, machines] & np.all(
            self.free[machines] >= request - 1e-9, axis=-1
        )
        for k in self._service_rules[service]:
            mask &= self.rule_counts[k, machines] < self.rule_limits[k]
        return mask

    def place(self, service: int, machine: int) -> None:
        """Record one container of ``service`` on ``machine``."""
        self.x[service, machine] += 1
        self.free[machine] -= self.problem.requests_matrix[service]
        for k in self._service_rules[service]:
            self.rule_counts[k, machine] += 1

    def remove(self, service: int, machine: int) -> None:
        """Remove one container of ``service`` from ``machine``."""
        self.x[service, machine] -= 1
        self.free[machine] += self.problem.requests_matrix[service]
        for k in self._service_rules[service]:
            self.rule_counts[k, machine] -= 1

    def affinity_delta(self, service: int, neighbors: list[tuple[int, float]]) -> np.ndarray:
        """Marginal gained affinity of adding one ``service`` container, per machine.

        Args:
            service: Service index.
            neighbors: Precomputed ``(neighbor_index, weight)`` pairs.

        Returns:
            Vector over machines of objective improvement.
        """
        problem = self.problem
        demands = problem.demands.astype(float)
        ds = demands[service]
        current = self.x[service].astype(float)
        delta = np.zeros(problem.num_machines)
        for t, w in neighbors:
            dt = demands[t]
            other = self.x[t].astype(float) / dt
            before = np.minimum(current / ds, other)
            after = np.minimum((current + 1.0) / ds, other)
            delta += w * (after - before)
        return delta


def neighbor_table(problem: RASAProblem) -> list[list[tuple[int, float]]]:
    """Adjacency list over service *indices* with affinity weights."""
    table: list[list[tuple[int, float]]] = [[] for _ in range(problem.num_services)]
    for s, t, w in problem.edges:
        table[s].append((t, w))
        table[t].append((s, w))
    return table


def service_order(problem: RASAProblem) -> list[int]:
    """Service indices in decreasing total-affinity order (skew-first)."""
    totals = [
        (problem.affinity.total_affinity_of(svc.name), svc.name, i)
        for i, svc in enumerate(problem.services)
    ]
    totals.sort(key=lambda item: (-item[0], item[1]))
    return [i for _total, _name, i in totals]


def proportional_cluster_seed(problem: RASAProblem, state: PackingState) -> None:
    """Phase-1 seeding: spread each affinity cluster proportionally.

    The gained-affinity objective ``w * min(x_s/d_s, x_s'/d_s')`` is
    maximized when the services of a communicating cluster are co-placed in
    demand-proportional slices: putting ``d_s / k`` containers of every
    member on each of ``k`` machines localizes 100 % of the cluster's
    traffic.  This seeds exactly that structure — the cutting-stock optimum
    shape — machine capacity permitting; the caller's delta-based fill
    phase handles whatever does not fit.
    """
    components = problem.affinity.connected_components()
    ranked = sorted(
        components,
        key=lambda c: -problem.affinity.induced_subgraph(c).total_affinity,
    )
    for component in ranked:
        members = sorted(problem.service_index(s) for s in component)
        demand_vec = problem.demands[members]
        load = (problem.requests_matrix[members] * demand_vec[:, None]).sum(axis=0)

        # Machines usable by every member (pools are app-aligned, so this
        # is rarely empty); fall back to any machine usable by someone.
        usable = problem.schedulable[members].all(axis=0)
        if not usable.any():
            usable = problem.schedulable[members].any(axis=0)
        if not usable.any():
            continue
        free = state.free[usable]
        per_machine = np.median(
            np.where(free > 0, free, np.nan), axis=0
        )
        per_machine = np.nan_to_num(per_machine, nan=0.0)
        with np.errstate(divide="ignore"):
            ratio = np.where(per_machine > 0, load / (per_machine * 0.95), np.inf)
        finite = ratio[np.isfinite(ratio)]
        if finite.size == 0:
            continue
        k = int(np.ceil(finite.max()))
        k = max(1, min(k, int(usable.sum())))

        # Pick the k usable machines with the most free capacity.
        usable_idx = np.nonzero(usable)[0]
        order = usable_idx[np.argsort(-state.free[usable_idx].sum(axis=1))][:k]
        # Demand-proportional quotas with remainders spread round-robin.
        for slot, m in enumerate(order):
            for s, d in zip(members, demand_vec):
                quota = int(d // k) + (1 if slot < int(d % k) else 0)
                for _ in range(quota):
                    if state.x[s].sum() >= problem.demands[s]:
                        break
                    if not state.feasible_machines(s, m):
                        break
                    state.place(s, int(m))


def group_growth_seed(problem: RASAProblem, state: PackingState) -> None:
    """Phase-1 seeding: grow machine-sized affinity groups and pack each
    wholly onto one machine.

    Groups are grown greedily along the heaviest affinity edge while the
    group's full demand fits the largest machine; each group then lands
    best-fit on a single machine, localizing all of its internal traffic.
    Complements :func:`proportional_cluster_seed`, which wins when clusters
    are larger than machines.
    """
    neighbors = neighbor_table(problem)
    demands = problem.demands
    requests = problem.requests_matrix
    reference = problem.capacities_matrix.max(axis=0) * 0.95

    unassigned = set(range(problem.num_services))
    groups: list[tuple[list[int], np.ndarray]] = []
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
                        if (load + requests[t] * demands[t] <= reference).all():
                            best, best_weight = t, w
            if best < 0:
                break
            group.append(best)
            unassigned.discard(best)
            load = load + requests[best] * demands[best]
        groups.append((group, load))

    groups.sort(key=lambda item: -float(item[1].sum()))
    for group, load in groups:
        fits = (state.free >= load - 1e-9).all(axis=1)
        for s in group:
            fits &= problem.schedulable[s]
        if not fits.any():
            continue
        # Best fit: the feasible machine with the least leftover capacity.
        leftover = (state.free - load).sum(axis=1)
        leftover[~fits] = np.inf
        machine = int(np.argmin(leftover))
        for s in group:
            for _ in range(int(demands[s])):
                if not state.feasible_machines(s, machine):
                    break
                state.place(s, machine)


class GreedyAlgorithm:
    """Affinity-aware packing portfolio.

    Runs up to three placement strategies — plain delta-fill, demand-
    proportional cluster seeding, and machine-sized group packing — and
    returns the placement with the highest gained affinity.  Used as the
    warm start for column generation, the floor for timed-out MIP solves,
    and the repair pass for partial placements.

    Args:
        strategies: Subset of ``("fill", "proportional", "group")`` to try
            (ablation point; default all three).
    """

    name = "greedy"

    def __init__(
        self, strategies: tuple[str, ...] = ("fill", "proportional", "group")
    ) -> None:
        unknown = set(strategies) - {"fill", "proportional", "group"}
        if unknown:
            raise ValueError(f"unknown greedy strategies: {sorted(unknown)}")
        self.strategies = strategies

    def solve(self, problem: RASAProblem, time_limit: float | None = None) -> SolveResult:
        """Pack every container; leaves containers unplaced only when no
        machine is feasible (matching the paper's failed-deployment
        tolerance)."""
        watch = Stopwatch(time_limit)
        best_x: np.ndarray | None = None
        best_objective = -np.inf
        for strategy in self.strategies:
            state = PackingState(problem)
            if strategy == "proportional":
                proportional_cluster_seed(problem, state)
            elif strategy == "group":
                group_growth_seed(problem, state)
            self._fill(problem, state, watch)
            objective = Assignment(problem, state.x).gained_affinity()
            if objective > best_objective:
                best_objective = objective
                best_x = state.x
            if watch.expired:
                break

        assert best_x is not None
        assignment = Assignment(problem, best_x)
        return SolveResult(
            assignment=assignment,
            algorithm=self.name,
            status="heuristic",
            runtime_seconds=watch.elapsed,
            objective=assignment.gained_affinity(),
        )

    def _fill(self, problem: RASAProblem, state: PackingState, watch: Stopwatch) -> None:
        """Delta-guided best-fit fill of all still-missing containers."""
        neighbors = neighbor_table(problem)
        capacity_scale = np.where(
            problem.capacities_matrix.max(axis=0) > 0,
            problem.capacities_matrix.max(axis=0),
            1.0,
        )
        for s in service_order(problem):
            missing = int(problem.demands[s] - state.x[s].sum())
            for _ in range(max(0, missing)):
                if watch.expired:
                    break
                mask = state.feasible_machines(s)
                if not mask.any():
                    break
                delta = state.affinity_delta(s, neighbors[s])
                # Best-fit tiebreak: prefer machines with less free capacity.
                fullness = 1.0 - (state.free / capacity_scale).mean(axis=1)
                score = delta + BIN_PACKING_WEIGHT * fullness
                score[~mask] = -np.inf
                state.place(s, int(np.argmax(score)))


def repair_unplaced(problem: RASAProblem, x: np.ndarray) -> np.ndarray:
    """Place any containers missing from ``x`` greedily (affinity-aware).

    Used to repair rounded LP solutions: keeps the existing placement and
    adds containers until each service reaches its demand or no machine is
    feasible.

    Returns:
        A new assignment matrix (the input is not modified).
    """
    state = PackingState(problem, x)
    neighbors = neighbor_table(problem)
    for s in service_order(problem):
        missing = int(problem.demands[s] - state.x[s].sum())
        for _ in range(max(0, missing)):
            mask = state.feasible_machines(s)
            if not mask.any():
                break
            delta = state.affinity_delta(s, neighbors[s])
            delta[~mask] = -np.inf
            state.place(s, int(np.argmax(delta)))
    return state.x
