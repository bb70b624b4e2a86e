"""Patterns and pricing for the column generation algorithm.

A *pattern* is a feasible placement of service containers on one machine
(paper Section IV-C2): a vector ``p`` of per-service counts satisfying the
machine's resource, anti-affinity, and schedulability constraints.  Machines
with identical capacity vectors and schedulable columns are interchangeable,
so patterns are generated per *machine group*.

The pricing subproblem searches, for one group, the feasible pattern with
the most positive reduced cost given the master LP's dual prices.  Two
implementations are provided: an exact small MILP — the Eq. 2–9 model of
:func:`repro.solvers.mip.build_rasa_model` for one machine of the group,
with the duals as container costs — and a greedy fallback (used both for
speed and as an ablation point).

Exact pricing is called many times on tiny models (the reference week's
cycles make 160 calls on 18-column, 24-row models), so the fixed cost of
a call sets its time.  Two things keep it small.  The MILP runs without
HiGHS's feasibility-jump heuristic, which cost more than the 1-node
search itself: a call went 5.7 → 2.1 ms (2-CPU container, scipy 1.17).
The heuristic stays on for the flat MIP and master rounding, whose
searches it can shorten.  And a column generation solve builds each
group's model once (:func:`pricing_model`) and hands it to every
:func:`price_pattern_mip` call, since between calls only the duals
change: 2.1 → 1.8 ms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.problem import RASAProblem
from repro.solvers.lp import LinearModel
from repro.solvers.milp_backend import solve_milp
from repro.solvers.mip import build_rasa_model, container_fit


@dataclass(frozen=True)
class MachineGroup:
    """A set of interchangeable machines inside one RASA instance.

    Attributes:
        key: Hashable identity (capacities + schedulable column).
        machine_indices: Indices of member machines, in problem order.
        capacity: Shared capacity vector over the problem's resource types.
        schedulable: Shared boolean column over services.
    """

    key: tuple
    machine_indices: tuple[int, ...]
    capacity: tuple[float, ...]
    schedulable: tuple[bool, ...]

    @property
    def count(self) -> int:
        """Number of machines in the group."""
        return len(self.machine_indices)


def group_machines(problem: RASAProblem) -> list[MachineGroup]:
    """Partition machines into interchangeability groups.

    Two machines belong to the same group iff they have identical capacity
    vectors and identical schedulable columns — then any pattern feasible on
    one is feasible on the other.
    """
    buckets: dict[tuple, list[int]] = {}
    for m in range(problem.num_machines):
        capacity = tuple(float(v) for v in problem.capacities_matrix[m])
        sched = tuple(bool(v) for v in problem.schedulable[:, m])
        buckets.setdefault((capacity, sched), []).append(m)
    groups = []
    for (capacity, sched), members in sorted(buckets.items(), key=lambda kv: kv[1][0]):
        groups.append(
            MachineGroup(
                key=(capacity, sched),
                machine_indices=tuple(members),
                capacity=capacity,
                schedulable=sched,
            )
        )
    return groups


class Pattern:
    """A feasible single-machine placement with its cached affinity value."""

    __slots__ = ("counts", "value")

    def __init__(self, counts: np.ndarray, value: float) -> None:
        self.counts = counts.astype(np.int64)
        self.counts.setflags(write=False)
        self.value = float(value)

    def key(self) -> bytes:
        """Hashable identity used for de-duplication."""
        return self.counts.tobytes()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        placed = int(self.counts.sum())
        return f"Pattern(containers={placed}, value={self.value:.4g})"


def pattern_value(problem: RASAProblem, counts: np.ndarray) -> float:
    """Gained affinity contributed by one machine holding ``counts``.

    Per Definition 1 restricted to a single machine:
    ``sum_e w_e * min(p_s / d_s, p_s' / d_s')``.
    """
    demands = problem.demands.astype(float)
    total = 0.0
    for s, t, w in problem.edges:
        total += w * min(counts[s] / demands[s], counts[t] / demands[t])
    return total


def pattern_is_feasible(problem: RASAProblem, group: MachineGroup, counts: np.ndarray) -> bool:
    """Check a count vector against the group's machine constraints."""
    if (counts < 0).any():
        return False
    sched = np.asarray(group.schedulable, dtype=bool)
    if (counts[~sched] > 0).any():
        return False
    usage = counts.astype(float) @ problem.requests_matrix
    if (usage > np.asarray(group.capacity) + 1e-9).any():
        return False
    for rule in problem.anti_affinity:
        idx = [problem.service_index(s) for s in rule.services]
        if counts[idx].sum() > rule.limit:
            return False
    return True


def empty_pattern(problem: RASAProblem) -> Pattern:
    """The always-feasible pattern placing nothing."""
    return Pattern(np.zeros(problem.num_services, dtype=np.int64), 0.0)


def patterns_from_assignment(
    problem: RASAProblem,
    x: np.ndarray,
    groups: list[MachineGroup],
) -> dict[int, list[Pattern]]:
    """Harvest the per-machine columns of an assignment as initial patterns.

    Args:
        problem: The instance.
        x: Assignment matrix, shape ``(N, M)``.
        groups: Machine groups of the instance.

    Returns:
        Mapping from group index to de-duplicated patterns observed on that
        group's machines (always including the empty pattern).
    """
    harvested: dict[int, list[Pattern]] = {}
    for g, group in enumerate(groups):
        seen: dict[bytes, Pattern] = {}
        empty = empty_pattern(problem)
        seen[empty.key()] = empty
        for m in group.machine_indices:
            counts = x[:, m].astype(np.int64)
            if counts.sum() == 0:
                continue
            if not pattern_is_feasible(problem, group, counts):
                continue
            pattern = Pattern(counts, pattern_value(problem, counts))
            seen.setdefault(pattern.key(), pattern)
        harvested[g] = list(seen.values())
    return harvested


# ----------------------------------------------------------------------
# Pricing
# ----------------------------------------------------------------------
def pricing_model(problem: RASAProblem, group: MachineGroup) -> LinearModel:
    """Exact pricing's model for one machine group, before any duals.

    It is :func:`~repro.solvers.mip.build_rasa_model` over one bin — a
    single machine of the group — without the demand rows; pricing's own
    part is the per-service bound (0 where the group bars the service, else
    what demand and :func:`~repro.solvers.mip.container_fit` allow) and the
    duals as ``x`` costs, which each :func:`price_pattern_mip` call writes.
    Only those costs change between calls, so one model serves every call
    for the group: the bytes HiGHS gets are those of a fresh build with the
    same duals.
    """
    n = problem.num_services
    # One all-schedulable machine of the group: a column per service, with
    # schedulability living in the bounds below.
    machine = replace(
        group, machine_indices=group.machine_indices[:1], schedulable=(True,) * n
    )
    model, layout = build_rasa_model(problem, [machine], sla=False)
    fit = container_fit(problem, layout.capacities)[:, 0]
    model.ub[:n] = np.where(group.schedulable, np.minimum(model.ub[:n], fit), 0.0)
    return model


def price_pattern_mip(
    problem: RASAProblem,
    group: MachineGroup,
    model: LinearModel,
    duals: np.ndarray,
    time_limit: float | None = None,
) -> Pattern | None:
    """Exact pricing: maximize ``value(p) - duals @ p`` over feasible patterns.

    Writes ``duals`` into ``model``'s ``x`` costs and solves it exactly
    (gap 0) without HiGHS's feasibility jump, which costs more than the
    search on models this small (see :mod:`repro.solvers.milp_backend`).

    Args:
        problem: The instance.
        group: Machine group to price for.
        model: :func:`pricing_model` of ``problem`` and ``group``.
        duals: Coverage dual prices ``pi_s`` (length N).
        time_limit: Budget for the pricing MILP; None solves it to
            optimality.

    Returns:
        The best pattern found, or None if the solve produced nothing.
    """
    n = problem.num_services
    model.c[:n] = duals
    result = solve_milp(model, time_limit=time_limit, gap_tolerance=0.0, feasibility_jump=False)
    if result.x is None:
        return None
    counts = np.clip(np.rint(result.x[:n]).astype(np.int64), 0, None)
    if not pattern_is_feasible(problem, group, counts):
        return None
    return Pattern(counts, pattern_value(problem, counts))


def price_pattern_greedy(
    problem: RASAProblem,
    group: MachineGroup,
    duals: np.ndarray,
) -> Pattern | None:
    """Greedy pricing fallback: grow the pattern one container at a time.

    Repeatedly adds the container whose marginal ``value - dual`` is largest
    until no addition is strictly positive or the machine is full.  Much
    faster than the MILP, at some pricing-quality cost (ablated in
    ``benchmarks/bench_cg_pricing.py``).
    """
    n = problem.num_services
    demands = problem.demands.astype(float)
    counts = np.zeros(n, dtype=np.int64)
    free = np.asarray(group.capacity, dtype=float).copy()
    sched = np.asarray(group.schedulable, dtype=bool)
    neighbors: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for s, t, w in problem.edges:
        neighbors[s].append((t, w))
        neighbors[t].append((s, w))
    rule_idx = [
        (np.array([problem.service_index(s) for s in rule.services], dtype=int), rule.limit)
        for rule in problem.anti_affinity
    ]

    def marginal(s: int) -> float:
        gain = 0.0
        for t, w in neighbors[s]:
            before = min(counts[s] / demands[s], counts[t] / demands[t])
            after = min((counts[s] + 1) / demands[s], counts[t] / demands[t])
            gain += w * (after - before)
        return gain - float(duals[s])

    def addable(s: int) -> bool:
        if not sched[s] or counts[s] >= problem.demands[s]:
            return False
        if (problem.requests_matrix[s] > free + 1e-9).any():
            return False
        for members, limit in rule_idx:
            if s in members and counts[members].sum() >= limit:
                return False
        return True

    def bootstrap_pair() -> bool:
        """Seed the empty pattern with the best whole affinity pair.

        A lone container gains nothing (``min`` needs both endpoints), so
        the growth loop cannot start from zero; seed with the edge whose
        joint placement has the best value net of duals.
        """
        nonlocal free
        best: tuple[int, int] | None = None
        best_net = 1e-12
        for s, t, w in problem.edges:
            if not (addable(s) and addable(t)):
                continue
            if (
                problem.requests_matrix[s] + problem.requests_matrix[t]
                > free + 1e-9
            ).any():
                continue
            value = w * min(1.0 / demands[s], 1.0 / demands[t])
            net = value - float(duals[s]) - float(duals[t])
            if net > best_net:
                best, best_net = (s, t), net
        if best is None:
            return False
        for s in best:
            counts[s] += 1
            free -= problem.requests_matrix[s]
        return True

    if not bootstrap_pair():
        return None

    while True:
        best_s, best_gain = -1, 1e-12
        for s in range(n):
            if not addable(s):
                continue
            gain = marginal(s)
            if gain > best_gain:
                best_s, best_gain = s, gain
        if best_s < 0:
            break
        counts[best_s] += 1
        free -= problem.requests_matrix[best_s]

    if counts.sum() == 0:
        return None
    return Pattern(counts, pattern_value(problem, counts))
