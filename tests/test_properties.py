"""Property-based tests (hypothesis) on core invariants.

Strategies generate small random RASA instances and placements; properties
assert the paper's structural invariants: objective bounds, partition
correctness, migration safety, and solver agreement.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AffinityGraph,
    AntiAffinityRule,
    Assignment,
    Machine,
    RASAProblem,
    Service,
)
from repro.core.config import RASAConfig
from repro.core.rasa import RASAScheduler
from repro.core.solution import _edge_ratio_sums
from repro.migration import MigrationExecutor, MigrationPathBuilder
from repro.partitioning import MultiStagePartitioner, balanced_partition
from repro.solvers import BranchAndBoundSolver, GreedyAlgorithm, LinearModel, solve_milp
from repro.solvers.greedy import PackingState, repair_unplaced

from oracles import dense_edge_sums, dense_gained_affinity, dense_migration_plan

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def problems(
    draw, max_services: int = 6, max_machines: int = 4, min_machines: int = 2,
    max_demand: int = 4,
) -> RASAProblem:
    """Small random RASA instances with enough capacity to be feasible."""
    num_services = draw(st.integers(2, max_services))
    num_machines = draw(st.integers(min_machines, max_machines))
    services = []
    for i in range(num_services):
        demand = draw(st.integers(1, max_demand))
        cpu = draw(st.sampled_from([1.0, 2.0]))
        services.append(Service(f"s{i}", demand, {"cpu": cpu}))
    total_cpu = sum(s.demand * s.requests["cpu"] for s in services)
    per_machine = max(4.0, 1.5 * total_cpu / num_machines)
    machines = [Machine(f"m{i}", {"cpu": per_machine}) for i in range(num_machines)]

    edges = {}
    possible = [(i, j) for i in range(num_services) for j in range(i + 1, num_services)]
    count = draw(st.integers(0, min(5, len(possible))))
    chosen = draw(
        st.lists(st.sampled_from(possible), min_size=count, max_size=count, unique=True)
    ) if possible and count else []
    for i, j in chosen:
        edges[(f"s{i}", f"s{j}")] = draw(
            st.floats(0.1, 10.0, allow_nan=False, allow_infinity=False)
        )
    return RASAProblem(services, machines, affinity=edges)


@st.composite
def constrained_problems(
    draw, max_services: int = 6, max_machines: int = 4, min_machines: int = 2,
    max_demand: int = 4,
) -> RASAProblem:
    """:func:`problems` plus 0–2 anti-affinity rules and a few unschedulable
    cells (every service keeps at least one machine)."""
    base = draw(problems(max_services, max_machines, min_machines, max_demand))
    names = base.service_names()
    rules = [
        AntiAffinityRule(
            services=frozenset(
                draw(st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True))
            ),
            limit=draw(st.integers(1, 3)),
        )
        for _ in range(draw(st.integers(0, 2)))
    ]
    schedulable = np.ones((base.num_services, base.num_machines), dtype=bool)
    cells = st.tuples(
        st.integers(0, base.num_services - 1), st.integers(0, base.num_machines - 1)
    )
    for s, m in draw(st.lists(cells, max_size=3)):
        schedulable[s, m] = False
        if not schedulable[s].any():
            schedulable[s, m] = True
    return RASAProblem(
        base.services,
        base.machines,
        affinity=base.affinity,
        anti_affinity=rules,
        schedulable=schedulable,
    )


@st.composite
def placements(draw, problem: RASAProblem) -> np.ndarray:
    """A random SLA-complete placement ignoring capacity (for objective
    bounds, which hold regardless of feasibility)."""
    x = np.zeros((problem.num_services, problem.num_machines), dtype=np.int64)
    for s in range(problem.num_services):
        for _ in range(int(problem.demands[s])):
            m = draw(st.integers(0, problem.num_machines - 1))
            x[s, m] += 1
    return x


@st.composite
def feasible_placements(
    draw, problem: RASAProblem, start: np.ndarray | None = None, services=None
) -> np.ndarray:
    """A random placement feasible by construction: every container lands on
    a drawn machine among those that may still take it (it stays unplaced
    when none may) — spread-out starts and goals greedy never produces.

    ``start`` is a feasible partial placement kept as is, and ``services``
    (default: all) the services whose containers are drawn on top of it.
    """
    state = PackingState(problem, start)
    for s in range(problem.num_services) if services is None else services:
        for _ in range(int(problem.demands[s])):
            hosts = np.nonzero(state.feasible_machines(s))[0].tolist()
            if not hosts:
                break
            state.place(s, draw(st.sampled_from(hosts)))
    return state.x


# ----------------------------------------------------------------------
# Objective properties
# ----------------------------------------------------------------------
@given(data=st.data())
def test_gained_affinity_bounded_by_total(data):
    problem = data.draw(problems())
    x = data.draw(placements(problem))
    assignment = Assignment(problem, x)
    gained = assignment.gained_affinity()
    assert -1e-9 <= gained <= problem.affinity.total_affinity + 1e-9
    normalized = assignment.gained_affinity(normalized=True)
    if problem.affinity.total_affinity > 0:
        assert -1e-9 <= normalized <= 1.0 + 1e-9


@given(data=st.data())
def test_all_on_one_machine_maximizes_affinity(data):
    problem = data.draw(problems())
    x = np.zeros((problem.num_services, problem.num_machines), dtype=np.int64)
    x[:, 0] = problem.demands
    assignment = Assignment(problem, x)
    if problem.affinity.total_affinity > 0:
        assert assignment.gained_affinity(normalized=True) == pytest.approx(1.0)


@given(data=st.data())
def test_gained_affinity_pairwise_decomposition(data):
    problem = data.draw(problems())
    x = data.draw(placements(problem))
    assignment = Assignment(problem, x)
    total = sum(
        assignment.gained_affinity_of_pair(u, v) for u, v in problem.affinity.edges()
    )
    assert total == pytest.approx(assignment.gained_affinity(), abs=1e-9)


# ----------------------------------------------------------------------
# Greedy / repair properties
# ----------------------------------------------------------------------
@given(data=st.data())
def test_greedy_output_is_feasible(data):
    problem = data.draw(problems())
    result = GreedyAlgorithm().solve(problem)
    report = result.assignment.check_feasibility(check_sla=False)
    assert report.feasible
    # Generous capacity in the strategy: everything should be placed.
    assert result.assignment.x.sum() == problem.num_containers


@given(data=st.data())
def test_repair_preserves_existing_placements(data):
    problem = data.draw(problems())
    partial = np.zeros((problem.num_services, problem.num_machines), dtype=np.int64)
    partial[0, 0] = min(int(problem.demands[0]), 1)
    repaired = repair_unplaced(problem, partial)
    assert (repaired >= partial).all()
    assert repaired.sum() >= partial.sum()


# ----------------------------------------------------------------------
# The current placement enters a solve only through the trivial rows
# ----------------------------------------------------------------------
def _placed(problem: RASAProblem, x: np.ndarray) -> RASAProblem:
    return RASAProblem(
        problem.services, problem.machines, affinity=problem.affinity,
        anti_affinity=problem.anti_affinity, schedulable=problem.schedulable,
        current_assignment=x,
    )


def _schedule_bytes(result) -> tuple:
    """Everything a schedule result holds but its timings."""
    return (
        result.assignment.x.tobytes(),
        result.gained_affinity,
        result.partition.trivial_services,
        result.partition.trivial_assignment.tobytes(),
        [
            (
                report.subproblem.service_names,
                report.subproblem.machine_names,
                report.selected_algorithm,
                report.result.status,
                report.result.objective,
                report.result.bound,
                report.result.assignment.x.tobytes(),
            )
            for report in result.reports
        ],
    )


@given(data=st.data())
def test_schedule_reads_only_the_trivial_rows_of_the_current_placement(data):
    """Moving crucial containers leaves an unbudgeted solve's bytes alone.

    The cron gate's memo rests on this: a solve with no time limit is a
    function of the problem without its current placement plus the current
    rows of the services the partition leaves trivial.  The second
    scheduler's master ratio makes non-masters trivial and splits shards.
    """
    problem = data.draw(constrained_problems())
    for scheduler in (
        RASAScheduler(),
        RASAScheduler(RASAConfig(master_ratio=0.5, max_subproblem_services=2)),
    ):
        first = _placed(problem, data.draw(feasible_placements(problem)))
        trivial = [
            first.service_index(name)
            for name in scheduler.partitioner.partition(first).trivial_services
        ]
        kept = np.zeros_like(first.current_assignment)
        kept[trivial] = first.current_assignment[trivial]
        crucial = [s for s in range(problem.num_services) if s not in trivial]
        second = _placed(
            problem, data.draw(feasible_placements(problem, kept, crucial))
        )
        assert _schedule_bytes(scheduler.schedule(second)) == _schedule_bytes(
            scheduler.schedule(first)
        )


def test_repair_of_a_shard_overflow_ignores_the_current_placement():
    """The same relation where the drawn instances never reach: a's shard
    gets three machines but a needs four (one per machine), so repair
    places the fourth on m3 or m4 — and must not ask where a runs now."""
    services = [
        Service("a", 4, {"cpu": 1.0}), Service("b", 1, {"cpu": 1.0}),
        Service("c", 2, {"cpu": 1.0}), Service("d", 2, {"cpu": 1.0}),
    ]
    problem = RASAProblem(
        services,
        [Machine(f"m{i}", {"cpu": 8.0}) for i in range(5)],
        affinity={("a", "b"): 1.0, ("c", "d"): 1.0},
        anti_affinity=[AntiAffinityRule(services=frozenset({"a"}), limit=1)],
    )
    scheduler = RASAScheduler(RASAConfig(max_subproblem_services=2))
    rest = [[1, 0, 0, 0, 0], [0, 0, 0, 2, 0], [0, 0, 0, 0, 2]]
    first, *others = [
        scheduler.schedule(_placed(problem, np.array([a_row, *rest])))
        for a_row in ([1, 1, 1, 1, 0], [1, 1, 1, 0, 1], [0, 1, 1, 1, 1])
    ]
    assert first.assignment.x[0].sum() == 4  # repair placed the overflow
    for other in others:
        assert _schedule_bytes(other) == _schedule_bytes(first)


# ----------------------------------------------------------------------
# Partitioning properties
# ----------------------------------------------------------------------
@given(data=st.data())
def test_multistage_partition_covers_all_services(data):
    problem = data.draw(problems())
    result = MultiStagePartitioner(max_subproblem_services=3).partition(problem)
    covered = set(result.trivial_services)
    for sub in result.subproblems:
        for name in sub.service_names:
            assert name not in covered  # disjoint
            covered.add(name)
    assert covered == set(problem.service_names())


@given(
    num_services=st.integers(4, 12),
    num_parts=st.integers(2, 3),
    seed=st.integers(0, 100),
)
def test_balanced_partition_is_a_partition(num_services, num_parts, seed):
    rng = np.random.default_rng(seed)
    names = [f"s{i}" for i in range(num_services)]
    edges = {
        (names[i], names[i + 1]): float(i + 1) for i in range(num_services - 1)
    }
    graph = AffinityGraph(edges)
    parts = balanced_partition(graph, names, num_parts, rng, max_samples=8)
    flat = [s for p in parts for s in p]
    assert sorted(flat) == sorted(names)
    assert len(flat) == len(set(flat))


# ----------------------------------------------------------------------
# Migration properties
# ----------------------------------------------------------------------
@settings(max_examples=60)  # the Eq. 4–6 screen drops about a third of the targets
@given(data=st.data())
def test_migration_invariants_hold_for_random_targets(data):
    problem = data.draw(constrained_problems())
    if data.draw(st.booleans()):
        original = GreedyAlgorithm().solve(problem).assignment
    else:
        original = Assignment(problem, data.draw(feasible_placements(problem)))
    if not original.is_feasible:
        return  # the rules leave a service short: nothing to migrate from
    target_x = data.draw(st.one_of(placements(problem), feasible_placements(problem)))
    target = Assignment(problem, target_x)
    if not target.check_feasibility(check_sla=False).feasible:
        return  # Eq. 4–6-infeasible target: out of scope for the builder
    plan = MigrationPathBuilder(sla_floor=0.75).build(problem, original, target)
    trace = MigrationExecutor(strict=True).execute(problem, original, plan)
    assert trace.peak_overcommit <= 1e-9
    if plan.complete:
        assert np.array_equal(trace.final.x, target.x)


# ----------------------------------------------------------------------
# Sparse production code against the dense oracles (tests/oracles.py)
# ----------------------------------------------------------------------
@st.composite
def spread_placements(draw, problem: RASAProblem) -> np.ndarray:
    """Counts of 1–3 on a drawn share of the cells, demands ignored:
    edges whose services share three or more machines are common."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (problem.num_services, problem.num_machines)
    density = draw(st.sampled_from([0.3, 0.6, 0.9]))
    return rng.integers(1, 4, size=shape) * (rng.random(shape) < density)


@settings(max_examples=200)  # about 1 ms each; wide rows sharing 3+ machines are rare
@given(data=st.data())
def test_sparse_gained_affinity_equals_the_dense_oracle(data):
    # Numpy sums a row of fewer than nine machines left to right, so
    # wider rows are where a different order of the terms would show, and
    # demands like 6 or 7 give ratios that round.
    low, high = data.draw(st.sampled_from([(2, 6), (9, 16)]))
    problem = data.draw(constrained_problems(
        max_services=6, max_machines=high, min_machines=low, max_demand=9
    ))
    x = data.draw(st.one_of(
        placements(problem), feasible_placements(problem), spread_placements(problem)
    ))
    assignment = Assignment(problem, x)
    # Per edge first: a last-bit slip in one edge can vanish in the total.
    assert _edge_ratio_sums(x, problem).tolist() == dense_edge_sums(assignment)
    assert assignment.gained_affinity() == dense_gained_affinity(assignment)
    assert assignment.gained_affinity(normalized=True) == dense_gained_affinity(
        assignment, normalized=True
    )


def test_sparse_gained_affinity_keeps_numpy_order_on_three_shared_machines():
    """Three terms on machines 0, 2 and 3 of ten, which numpy's pairwise
    sum adds as ``r0 + (r2 + r3)``: left to right gives another float, so
    the edge must be summed as the full row."""
    services = [Service("a", 4, {"cpu": 1.0}), Service("b", 6, {"cpu": 1.0})]
    machines = [Machine(f"m{i}", {"cpu": 100.0}) for i in range(10)]
    problem = RASAProblem(services, machines, affinity={("a", "b"): 1.0})
    x = np.zeros((2, 10), dtype=np.int64)
    x[0, [0, 2, 3]] = [1, 1, 2]
    x[1, [0, 2, 3]] = [1, 2, 2]
    r0, r2, r3 = 1 / 6, 1 / 4, 1 / 3
    assert (r0 + r2) + r3 != r0 + (r2 + r3)
    assignment = Assignment(problem, x)
    assert assignment.gained_affinity() == dense_gained_affinity(assignment)
    assert assignment.gained_affinity() == r0 + (r2 + r3)


@settings(max_examples=60)
@given(data=st.data())
def test_sparse_path_builder_emits_the_dense_oracles_plan(data):
    """Same commands in the same steps, same ``complete`` flag, for any
    start and goal: feasible or not, reachable or stalled."""
    problem = data.draw(constrained_problems(max_services=7, max_machines=5))
    original = Assignment(problem, data.draw(
        st.one_of(feasible_placements(problem), placements(problem))
    ))
    target = Assignment(problem, data.draw(
        st.one_of(feasible_placements(problem), placements(problem))
    ))
    sla_floor = data.draw(st.sampled_from([0.0, 0.5, 0.75, 1.0]))
    plan = MigrationPathBuilder(sla_floor=sla_floor).build(problem, original, target)
    oracle = dense_migration_plan(problem, original, target, sla_floor)
    assert plan.steps == oracle.steps
    assert plan.complete == oracle.complete
    assert plan.moved_containers == oracle.moved_containers


# ----------------------------------------------------------------------
# Solver agreement
# ----------------------------------------------------------------------
@given(data=st.data())
def test_bnb_agrees_with_highs_on_random_models(data):
    rng_seed = data.draw(st.integers(0, 10_000))
    rng = np.random.default_rng(rng_seed)
    n = int(rng.integers(2, 6))
    from scipy import sparse

    values = rng.integers(1, 15, size=n).astype(float)
    weights = rng.integers(1, 8, size=n).astype(float)
    model = LinearModel(
        c=-values,
        a_ub=sparse.csr_matrix(weights.reshape(1, n)),
        b_ub=np.array([float(weights.sum()) * 0.6]),
        ub=np.ones(n),
        integrality=np.ones(n, dtype=bool),
    )
    ours = BranchAndBoundSolver().solve(model)
    reference = solve_milp(model)
    assert ours.objective == pytest.approx(reference.objective, abs=1e-6)
