"""Failure-injection and degenerate-input tests.

The paper's system tolerates imperfect conditions — failed deployments,
stale snapshots, time-outs — and this suite verifies the library degrades
the same way instead of crashing or silently corrupting state.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    Assignment,
    Machine,
    RASAProblem,
    RASAScheduler,
    Service,
)
from repro.migration import (
    Command,
    CommandAction,
    MigrationExecutor,
    MigrationPlan,
    MigrationPathBuilder,
)
from repro.solvers import (
    BranchAndBoundSolver,
    ColumnGenerationAlgorithm,
    GreedyAlgorithm,
    LinearModel,
    MIPAlgorithm,
)


# ----------------------------------------------------------------------
# Capacity-starved clusters: partial placement, no crash
# ----------------------------------------------------------------------
@pytest.fixture
def starved_problem() -> RASAProblem:
    """Demands exceed total capacity: only some containers can ever run."""
    services = [
        Service("a", 6, {"cpu": 4.0}),
        Service("b", 6, {"cpu": 4.0}),
    ]
    machines = [Machine("m0", {"cpu": 16.0})]  # fits only 4 of 12 containers
    return RASAProblem(services, machines, affinity={("a", "b"): 1.0})


def test_greedy_tolerates_capacity_starvation(starved_problem):
    result = GreedyAlgorithm().solve(starved_problem)
    assert result.assignment.x.sum() == 4  # machine is full
    report = result.assignment.check_feasibility(check_sla=False)
    assert report.feasible


def test_cg_tolerates_capacity_starvation(starved_problem):
    result = ColumnGenerationAlgorithm().solve(starved_problem, time_limit=10)
    report = result.assignment.check_feasibility(check_sla=False)
    assert report.feasible
    assert result.assignment.x.sum() <= 4


def test_rasa_tolerates_capacity_starvation(starved_problem):
    result = RASAScheduler().schedule(starved_problem, time_limit=10)
    report = result.assignment.check_feasibility(check_sla=False)
    assert report.feasible


# ----------------------------------------------------------------------
# Zero-affinity and trivial-only clusters
# ----------------------------------------------------------------------
def test_rasa_on_affinity_free_cluster():
    services = [Service(f"s{i}", 2, {"cpu": 1.0}) for i in range(5)]
    machines = [Machine(f"m{i}", {"cpu": 8.0}) for i in range(2)]
    problem = RASAProblem(services, machines)
    result = RASAScheduler().schedule(problem, time_limit=5)
    assert result.gained_affinity == 0.0
    assert result.partition.subproblems == []
    # Every container is still placed (trivial services keep/get placements).
    assert result.assignment.x.sum() == problem.num_containers


def test_mip_on_affinity_free_cluster():
    services = [Service("a", 2, {"cpu": 1.0})]
    machines = [Machine("m", {"cpu": 8.0})]
    problem = RASAProblem(services, machines)
    result = MIPAlgorithm().solve(problem, time_limit=5)
    # No objective mass, but SLA rows still place the containers.
    assert result.assignment.x.sum() == 2


# ----------------------------------------------------------------------
# Time-outs
# ----------------------------------------------------------------------
def test_mip_timeout_falls_back_to_greedy(medium_cluster):
    result = MIPAlgorithm().solve(medium_cluster.problem, time_limit=0.05)
    # Whatever the backend managed, the result is at least greedy quality.
    greedy = GreedyAlgorithm().solve(medium_cluster.problem)
    assert result.objective >= greedy.objective - 1e-9


def test_bnb_zero_budget_reports_no_incumbent():
    from scipy import sparse

    rng = np.random.default_rng(0)
    n = 14
    values = rng.integers(1, 30, size=n).astype(float)
    weights = rng.integers(1, 10, size=n).astype(float)
    model = LinearModel(
        c=-values,
        a_ub=sparse.csr_matrix(weights.reshape(1, n)),
        b_ub=np.array([weights.sum() * 0.4]),
        ub=np.ones(n),
        integrality=np.ones(n, dtype=bool),
    )
    result = BranchAndBoundSolver().solve(model, time_limit=0.0)
    assert result.status in ("no_incumbent", "feasible", "optimal")
    if result.status == "no_incumbent":
        assert result.x is None


def test_rasa_tiny_budget_still_returns_feasible(medium_cluster):
    result = RASAScheduler().schedule(medium_cluster.problem, time_limit=1.0)
    report = result.assignment.check_feasibility(check_sla=False)
    assert report.feasible


# ----------------------------------------------------------------------
# Stale migration plans and non-strict execution
# ----------------------------------------------------------------------
def test_executor_non_strict_records_instead_of_raising(tiny_problem):
    original = Assignment(
        tiny_problem, np.array([[4, 0, 0], [0, 4, 0], [0, 0, 2]])
    )
    # A plan that immediately empties service a (SLA violation).
    plan = MigrationPlan(
        steps=[[Command(CommandAction.DELETE, "a", "m0") for _ in range(1)]
               * 1],
        sla_floor=0.9,
    )
    plan.steps = [[Command(CommandAction.DELETE, "a", "m0")] * 4]
    trace = MigrationExecutor(strict=False).execute(tiny_problem, original, plan)
    assert trace.min_alive_fraction == pytest.approx(0.0)


def test_cronjob_survives_stale_plan(small_cluster):
    """Commands that no longer apply are skipped; the default scheduler
    repairs the residual."""
    from repro.cluster import ClusterState, CronJobController, DataCollector
    from repro.core.config import LoopSpec

    state = ClusterState(small_cluster.problem)
    controller = CronJobController(
        state=state,
        collector=DataCollector(small_cluster.qps),
        spec=LoopSpec(time_limit=5.0),
    )
    problem = small_cluster.problem
    original = Assignment(problem, state.placement)
    target = RASAScheduler().schedule(problem, time_limit=5).assignment
    plan = MigrationPathBuilder().build(problem, original, target)
    # Make the plan stale: perturb the live state before applying it.
    scheduler_problem = state.problem
    first_service = scheduler_problem.services[0].name
    hosts = np.nonzero(state.placement[0])[0]
    if hosts.size:
        state.delete_container(
            first_service, scheduler_problem.machines[int(hosts[0])].name
        )
    controller._apply(plan)  # must not raise
    controller.default_scheduler.place_missing(state)
    report = state.assignment().check_feasibility(check_sla=False)
    assert report.feasible


# ----------------------------------------------------------------------
# Builder refuses impossible targets gracefully
# ----------------------------------------------------------------------
def test_migration_stalls_marked_incomplete():
    """A target needing more capacity mid-flight than available under the
    SLA floor yields an incomplete (not crashing) plan."""
    services = [Service("a", 2, {"cpu": 8.0}), Service("b", 2, {"cpu": 8.0})]
    machines = [Machine("m0", {"cpu": 16.0}), Machine("m1", {"cpu": 16.0})]
    problem = RASAProblem(services, machines)
    original = Assignment(problem, np.array([[2, 0], [0, 2]]))
    target = Assignment(problem, np.array([[0, 2], [2, 0]]))
    # SLA floor 1.0: nothing may ever go offline, so the swap cannot start.
    plan = MigrationPathBuilder(sla_floor=1.0).build(problem, original, target)
    assert not plan.complete
    trace = MigrationExecutor(strict=True).execute(problem, original, plan)
    assert trace.peak_overcommit <= 1e-9
