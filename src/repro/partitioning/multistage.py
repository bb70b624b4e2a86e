"""Multi-stage service partitioning pipeline (paper Section IV-B).

Wires the four stages together and performs the subproblem *construction*
step (IV-B5): trivial services keep their current placement (or are
first-fit placed when no current assignment exists), machine capacities are
reduced by trivial usage, and the remaining machines are divided among the
crucial service sets proportionally to their resource demands.

The machine-construction helpers are shared with the baseline partitioners
(RANDOM, KaHIP-like, NO-PARTITION) so Figure 6 compares partitioning
*strategies* under identical bookkeeping.
"""

from __future__ import annotations

import numpy as np

from repro.core.problem import Machine, RASAProblem
from repro.obs import get_metrics, get_tracer
from repro.partitioning.base import PartitionResult, Subproblem
from repro.partitioning.stages import (
    balanced_partition,
    pack_components,
    split_compatibility,
    split_master,
    split_non_affinity,
)
from repro.solvers.base import Stopwatch
from repro.solvers.greedy import PackingState

#: Cap on sampled partitions per balanced split (the paper samples ``|E|``
#: times; capping keeps the <10 % overhead budget).
PARTITION_SAMPLES = 32


def _affinity_components(graph, block: list[str]) -> list[list[str]]:
    """Affinity components of a block; edge-free services become singletons."""
    in_block = set(block)
    components = [sorted(c & in_block) for c in graph.connected_components()]
    components = [c for c in components if c]
    covered = set().union(*components) if components else set()
    components.extend([[s] for s in block if s not in covered])
    return components


def place_trivial(problem: RASAProblem, trivial_services: list[str]) -> np.ndarray:
    """Placement matrix for trivial services only.

    Uses the cluster's recorded current assignment when available (the paper
    leaves trivial containers where they are); otherwise first-fit places
    them, standing in for the default scheduler.

    Returns:
        ``(N, M)`` matrix whose non-trivial rows are zero.
    """
    n, m = problem.num_services, problem.num_machines
    x = np.zeros((n, m), dtype=np.int64)
    trivial_idx = [problem.service_index(s) for s in trivial_services]
    if problem.current_assignment is not None:
        for s in trivial_idx:
            x[s] = problem.current_assignment[s]
        return x

    state = PackingState(problem)
    for s in trivial_idx:
        for _ in range(int(problem.demands[s])):
            mask = state.feasible_machines(s)
            if not mask.any():
                break
            state.place(s, int(np.argmax(mask)))
    for s in trivial_idx:
        x[s] = state.x[s]
    return x


def residual_machines(problem: RASAProblem, trivial_assignment: np.ndarray) -> list[Machine]:
    """New machine list with capacities reduced by trivial-service usage.

    Implements the paper's machine construction: for machine ``m`` hosting a
    trivial container of service ``s``, the new machine has capacity
    ``R_m - R_s`` (accumulated over all trivial containers).  Capacities are
    clipped at zero to guard against stale current assignments that
    over-subscribe a machine.
    """
    usage = trivial_assignment.T.astype(float) @ problem.requests_matrix
    residual = np.clip(problem.capacities_matrix - usage, 0.0, None)
    machines = []
    for m, machine in enumerate(problem.machines):
        capacity = {r: float(residual[m, i]) for i, r in enumerate(problem.resource_types)}
        machines.append(Machine(name=machine.name, capacity=capacity, spec=machine.spec))
    return machines


def allocate_machines(
    problem: RASAProblem,
    crucial_sets: list[list[str]],
    machines: list[Machine],
) -> list[list[str]]:
    """Divide machines among crucial sets, spec-wise and demand-proportional.

    For each machine specification, the number of machines granted to each
    crucial set is proportional to that set's total requested resources
    relative to all crucial sets (paper IV-B5), using the largest-remainder
    method so counts are integral and exhaustive.  Machines unusable by a
    set (no schedulable service) are avoided when possible.

    Returns:
        Machine-name lists parallel to ``crucial_sets`` (disjoint).
    """
    if not crucial_sets:
        return []
    weights = np.array(
        [max(problem.total_request(names).sum(), 1e-12) for names in crucial_sets]
    )
    shares = weights / weights.sum()

    # Usability: a machine helps a set only if it is schedulable for at
    # least one of the set's services (compatibility pools make this
    # non-trivial).
    usable: list[set[str]] = []
    for names in crucial_sets:
        idx = [problem.service_index(s) for s in names]
        mask = problem.schedulable[idx].any(axis=0)
        usable.append({problem.machines[m].name for m in np.nonzero(mask)[0]})

    by_spec: dict[str, list[Machine]] = {}
    for machine in machines:
        by_spec.setdefault(machine.spec, []).append(machine)

    allotted: list[list[str]] = [[] for _ in crucial_sets]
    for spec in sorted(by_spec):
        members = sorted(by_spec[spec], key=lambda mm: mm.name)
        counts = _largest_remainder(shares, len(members))
        free = {mm.name for mm in members}
        # Most-constrained sets (fewest usable machines of this spec) pick
        # first so pool-restricted shards are not starved of their machines.
        order = sorted(
            range(len(crucial_sets)),
            key=lambda k: len(usable[k] & free),
        )
        for k in order:
            want = counts[k]
            preferred = sorted(usable[k] & free)
            chosen = preferred[:want]
            if len(chosen) < want:
                rest = sorted(free - set(chosen))
                chosen.extend(rest[: want - len(chosen)])
            allotted[k].extend(chosen)
            free -= set(chosen)
    return allotted


def _largest_remainder(shares: np.ndarray, total: int) -> list[int]:
    """Apportion ``total`` integer slots proportionally to ``shares``."""
    raw = shares * total
    counts = np.floor(raw).astype(int)
    remainder = total - counts.sum()
    order = np.argsort(-(raw - counts))
    for i in range(remainder):
        counts[order[i % len(order)]] += 1
    return counts.tolist()


def build_subproblems(
    problem: RASAProblem,
    crucial_sets: list[list[str]],
    trivial_assignment: np.ndarray,
    allocation: list[list[str]],
) -> list[Subproblem]:
    """Construct self-contained subproblems with residual machine capacities."""
    machines = residual_machines(problem, trivial_assignment)
    machine_by_name = {mm.name: mm for mm in machines}

    subproblems = []
    for names, machine_names in zip(crucial_sets, allocation):
        if not names or not machine_names:
            continue
        sub_machines = [machine_by_name[name] for name in machine_names]
        base = problem.subproblem(names, machine_names)
        sub = RASAProblem(
            services=base.services,
            machines=sub_machines,
            affinity=base.affinity,
            anti_affinity=base.anti_affinity,
            schedulable=base.schedulable,
            resource_types=problem.resource_types,
            current_assignment=base.current_assignment,
        )
        subproblems.append(
            Subproblem(
                problem=sub,
                service_names=list(names),
                machine_names=list(machine_names),
                total_affinity=sub.affinity.total_affinity,
            )
        )
    return subproblems


def finish_partition(
    problem: RASAProblem,
    crucial_sets: list[list[str]],
    trivial_services: list[str],
    watch: Stopwatch,
    stages: dict[str, float] | None = None,
) -> PartitionResult:
    """Shared tail of every partitioner: trivial placement + construction.

    Crucial sets that receive no machines (more shards than machines)
    degrade to trivial services handled by the default scheduler rather
    than silently disappearing from the bookkeeping.
    """
    allocation = allocate_machines(
        problem, crucial_sets, list(problem.machines)
    )
    kept_sets: list[list[str]] = []
    kept_allocation: list[list[str]] = []
    trivial_services = list(trivial_services)
    for names, machine_names in zip(crucial_sets, allocation):
        if names and machine_names:
            kept_sets.append(names)
            kept_allocation.append(machine_names)
        else:
            trivial_services.extend(names)
    trivial_assignment = place_trivial(problem, trivial_services)
    subproblems = build_subproblems(
        problem, kept_sets, trivial_assignment, kept_allocation
    )
    retained = 0.0
    total = problem.affinity.total_affinity
    if total > 0:
        kept = sum(sp.total_affinity for sp in subproblems)
        retained = kept / total
    metrics = get_metrics()
    metrics.gauge("partition.shards").set(len(subproblems))
    metrics.gauge("partition.affinity_retained").set(retained)
    metrics.gauge("partition.trivial_services").set(len(trivial_services))
    shard_sizes = metrics.histogram("partition.shard.services")
    for sp in subproblems:
        shard_sizes.observe(sp.num_services)
    return PartitionResult(
        subproblems=subproblems,
        trivial_services=list(trivial_services),
        trivial_assignment=trivial_assignment,
        affinity_retained=retained,
        elapsed_seconds=watch.elapsed,
        stages=stages or {},
    )


class MultiStagePartitioner:
    """The paper's four-stage partitioner (MULTI-STAGE-PARTITION).

    Args:
        master_ratio: Override for the master ratio ``alpha``; defaults to
            the paper's ``45 * ln^0.66(N) / N``.
        max_subproblem_services: Crucial sets larger than this are split by
            loss-minimization balanced partitioning.
        seed: RNG seed for the balanced-partition sampling.
    """

    name = "multi-stage"

    def __init__(
        self,
        master_ratio: float | None = None,
        max_subproblem_services: int = 48,
        seed: int = 0,
    ) -> None:
        self.master_ratio = master_ratio
        self.max_subproblem_services = max_subproblem_services
        self.seed = seed

    def partition(self, problem: RASAProblem) -> PartitionResult:
        """Run stages 1–4 and construct subproblems."""
        tracer = get_tracer()
        watch = Stopwatch()
        stages: dict[str, float] = {}
        rng = np.random.default_rng(self.seed)

        with tracer.span("partition.stage.non_affinity") as span:
            affinity_set, non_affinity_set = split_non_affinity(problem)
            span.set_tag("affinity_services", len(affinity_set))
            span.set_tag("non_affinity_services", len(non_affinity_set))
        stages["non_affinity"] = watch.elapsed

        with tracer.span("partition.stage.master") as span:
            masters, non_masters = split_master(
                problem, affinity_set, self.master_ratio
            )
            span.set_tag("masters", len(masters))
        stages["master"] = watch.elapsed

        with tracer.span("partition.stage.compatibility") as span:
            blocks = split_compatibility(problem, masters)
            span.set_tag("blocks", len(blocks))
        stages["compatibility"] = watch.elapsed

        with tracer.span("partition.stage.balanced") as span:
            crucial_sets: list[list[str]] = []
            for block in blocks:
                if len(block) <= self.max_subproblem_services:
                    crucial_sets.append(block)
                    continue
                # Loss-minimization happens at affinity-component granularity:
                # whole components are packed together (zero loss); only
                # oversized components pay the BFS-sampled balanced cut.
                graph = problem.affinity.induced_subgraph(block)
                components = _affinity_components(graph, block)
                pieces: list[list[str]] = []
                for component in components:
                    if len(component) <= self.max_subproblem_services:
                        pieces.append(component)
                        continue
                    num_parts = int(
                        np.ceil(len(component) / self.max_subproblem_services)
                    )
                    pieces.extend(
                        balanced_partition(
                            graph,
                            component,
                            num_parts,
                            rng,
                            max_samples=PARTITION_SAMPLES,
                        )
                    )
                crucial_sets.extend(
                    pack_components(pieces, self.max_subproblem_services)
                )
            span.set_tag("crucial_sets", len(crucial_sets))
        stages["balanced"] = watch.elapsed

        trivial = non_affinity_set + non_masters
        with tracer.span("partition.stage.construct"):
            return finish_partition(problem, crucial_sets, trivial, watch, stages)


class NoPartitioner:
    """NO-PARTITION baseline: the whole instance is one subproblem."""

    name = "no-partition"

    def partition(self, problem: RASAProblem) -> PartitionResult:
        """Return a single subproblem containing every service and machine."""
        watch = Stopwatch()
        crucial = [[s.name for s in problem.services]]
        return finish_partition(problem, crucial, [], watch)
