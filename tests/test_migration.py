"""Unit tests for the migration path algorithm (paper Algorithm 2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    AntiAffinityRule,
    Assignment,
    Machine,
    RASAProblem,
    RetryPolicy,
    Service,
)
from repro.exceptions import MigrationError
from repro.migration import (
    Command,
    CommandAction,
    MigrationExecutor,
    MigrationPathBuilder,
    MigrationPlan,
    naive_plan,
)


def _problem_pair():
    """Two machines, one service that must move across: the simplest swap."""
    services = [Service("a", 4, {"cpu": 2.0})]
    machines = [Machine("m0", {"cpu": 8.0}), Machine("m1", {"cpu": 8.0})]
    problem = RASAProblem(services, machines)
    original = Assignment(problem, np.array([[4, 0]]))
    target = Assignment(problem, np.array([[0, 4]]))
    return problem, original, target


def test_plan_reaches_target():
    problem, original, target = _problem_pair()
    plan = MigrationPathBuilder().build(problem, original, target)
    assert plan.complete
    trace = MigrationExecutor().execute(problem, original, plan)
    assert np.array_equal(trace.final.x, target.x)


def test_plan_respects_sla_floor():
    problem, original, target = _problem_pair()
    plan = MigrationPathBuilder(sla_floor=0.75).build(problem, original, target)
    trace = MigrationExecutor().execute(problem, original, plan)
    # floor(0.75 * 4) = 3 alive at all times.
    assert trace.min_alive_fraction >= 3 / 4 - 1e-9


def test_plan_respects_resources_when_target_machine_full():
    # m1 initially hosts a blocker that must leave before 'a' can arrive.
    services = [Service("a", 2, {"cpu": 4.0}), Service("blocker", 2, {"cpu": 4.0})]
    machines = [Machine("m0", {"cpu": 8.0}), Machine("m1", {"cpu": 8.0})]
    problem = RASAProblem(services, machines)
    original = Assignment(problem, np.array([[2, 0], [0, 2]]))
    target = Assignment(problem, np.array([[0, 2], [2, 0]]))
    plan = MigrationPathBuilder(sla_floor=0.5).build(problem, original, target)
    assert plan.complete
    trace = MigrationExecutor().execute(problem, original, plan)
    assert trace.peak_overcommit <= 1e-9
    assert np.array_equal(trace.final.x, target.x)


def test_identity_migration_is_empty():
    problem, original, _ = _problem_pair()
    plan = MigrationPathBuilder().build(problem, original, original)
    assert plan.num_steps == 0
    assert plan.moved_containers == 0
    assert plan.complete


def test_naive_plan_violates_sla(tiny_problem):
    from repro.solvers import GreedyAlgorithm

    original = Assignment(
        tiny_problem,
        np.array([[4, 0, 0], [0, 4, 0], [0, 0, 2]]),
    )
    target = GreedyAlgorithm().solve(tiny_problem).assignment
    if np.array_equal(original.x, target.x):  # pragma: no cover - degenerate
        pytest.skip("greedy landed on the original placement")
    plan = naive_plan(tiny_problem, original, target)
    plan.sla_floor = 0.75
    with pytest.raises(MigrationError):
        MigrationExecutor().execute(tiny_problem, original, plan)


def test_offline_ratio_ordering_prefers_low_ratio_deletions():
    # Two services both need to move; deletes must alternate rather than
    # exhaust one service first.
    services = [Service("a", 4, {"cpu": 1.0}), Service("b", 4, {"cpu": 1.0})]
    machines = [Machine("m0", {"cpu": 8.0}), Machine("m1", {"cpu": 8.0})]
    problem = RASAProblem(services, machines)
    original = Assignment(problem, np.array([[4, 0], [4, 0]]))
    target = Assignment(problem, np.array([[0, 4], [0, 4]]))
    plan = MigrationPathBuilder(sla_floor=0.5).build(problem, original, target)
    trace = MigrationExecutor().execute(problem, original, plan)
    assert trace.min_alive_fraction >= 0.5 - 1e-9
    assert np.array_equal(trace.final.x, target.x)


def test_single_container_service_can_move():
    services = [Service("singleton", 1, {"cpu": 1.0})]
    machines = [Machine("m0", {"cpu": 8.0}), Machine("m1", {"cpu": 8.0})]
    problem = RASAProblem(services, machines)
    original = Assignment(problem, np.array([[1, 0]]))
    target = Assignment(problem, np.array([[0, 1]]))
    plan = MigrationPathBuilder(sla_floor=0.75).build(problem, original, target)
    assert plan.complete
    trace = MigrationExecutor().execute(problem, original, plan)
    assert np.array_equal(trace.final.x, target.x)


def test_plan_summary_and_command_str():
    plan = MigrationPlan(
        steps=[[Command(CommandAction.DELETE, "a", "m0")],
               [Command(CommandAction.CREATE, "a", "m1")]]
    )
    assert "1 deletes" in plan.summary()
    assert "1 creates" in plan.summary()
    assert str(plan.steps[0][0]) == "(delete, a, m0)"
    assert plan.num_commands == 2


def test_executor_rejects_delete_of_absent_container():
    problem, original, _target = _problem_pair()
    bogus = MigrationPlan(steps=[[Command(CommandAction.DELETE, "a", "m1")]])
    with pytest.raises(MigrationError):
        MigrationExecutor().execute(problem, original, bogus)


def _rule_pair():
    """Services A (d=4) and B (d=2) share a rule of at most 2 per machine;
    B's target machine m3 still hosts two A containers when the path starts
    — the second entry of the adversarial-shape corpus."""
    services = [Service("A", 4, {"cpu": 1.0}), Service("B", 2, {"cpu": 1.0})]
    machines = [Machine(f"m{i}", {"cpu": 8.0}) for i in range(1, 6)]
    rule = AntiAffinityRule(services=frozenset({"A", "B"}), limit=2)
    problem = RASAProblem(services, machines, anti_affinity=[rule])
    original = Assignment(problem, np.array([[2, 0, 2, 0, 0], [0, 2, 0, 0, 0]]))
    target = Assignment(problem, np.array([[0, 0, 0, 2, 2], [0, 0, 2, 0, 0]]))
    return problem, original, target


def _capacity_only_plan() -> MigrationPlan:
    """The path a capacity-only builder finds for :func:`_rule_pair`: it
    creates B on m3 before A has left, putting 3 then 4 rule members there."""
    def step(action, *cells):
        return [Command(action, service, machine) for service, machine in cells]

    delete, create = CommandAction.DELETE, CommandAction.CREATE
    return MigrationPlan(
        steps=[
            step(delete, ("A", "m1"), ("B", "m2")),
            step(create, ("B", "m3"), ("A", "m4")),
            step(delete, ("A", "m1"), ("B", "m2")),
            step(create, ("B", "m3"), ("A", "m4")),
            step(delete, ("A", "m3")),
            step(create, ("A", "m5")),
            step(delete, ("A", "m3")),
            step(create, ("A", "m5")),
        ],
        moved_containers=6,
    )


def _replay(problem, start, steps):
    """Placement after each command set, by plain arithmetic."""
    x = start.x.copy()
    for step in steps:
        for command in step:
            s = problem.service_index(command.service)
            m = problem.machine_index(command.machine)
            x[s, m] += -1 if command.action is CommandAction.DELETE else 1
        yield x.copy()


class _FailFrom:
    """Injector stand-in: commands succeed until the ``n``-th, then fail."""

    def __init__(self, n: int) -> None:
        self.left = n

    def command_fault(self):
        self.left -= 1
        return None if self.left >= 0 else "failure"

    def jitter(self) -> float:
        return 0.0


def test_plan_is_feasible_at_every_boundary_under_anti_affinity():
    from repro.cluster import ClusterState, CronJobController, DataCollector

    problem, original, target = _rule_pair()
    plan = MigrationPathBuilder().build(problem, original, target)
    assert plan.complete
    for x in _replay(problem, original, plan.steps):
        verdict = Assignment(problem, x).check_feasibility(check_sla=False)
        assert verdict.feasible, verdict.summary()
    trace = MigrationExecutor(strict=True).execute(problem, original, plan)
    assert trace.outcome == "completed"
    assert np.array_equal(trace.final.x, target.x)
    # The live loop applies the same plan without rejecting a create.
    state = ClusterState(problem, original.x)
    controller = CronJobController(state=state, collector=DataCollector({}))
    outcome = controller._apply(plan)
    assert outcome.skipped == 0
    assert np.array_equal(state.placement, target.x)


def test_executor_rejects_anti_affinity_violation_mid_path():
    problem, original, _target = _rule_pair()
    plan = _capacity_only_plan()
    with pytest.raises(MigrationError, match=r"step 1: .*anti_affinity=1"):
        MigrationExecutor(strict=True).execute(problem, original, plan)
    # Non-strict records instead of raising; when the tenth command then
    # fails for good, the rollback point is the last *feasible* boundary —
    # after step 0, not the capacity-clean boundary after step 4.
    boundaries = list(_replay(problem, original, plan.steps))
    feasible = [
        Assignment(problem, x).check_feasibility(check_sla=False).feasible
        for x in boundaries
    ]
    assert feasible == [True, False, False, False, False, False, True, True]
    trace = MigrationExecutor(strict=False, retry=RetryPolicy(max_attempts=1)).execute(
        problem, original, plan, injector=_FailFrom(9)
    )
    assert trace.outcome == "partial"
    assert trace.steps_executed == 1
    assert np.array_equal(trace.final.x, boundaries[0])
    assert trace.peak_overcommit == 0.0


def test_executor_rejects_create_on_unschedulable_cell():
    services = [Service("a", 2, {"cpu": 1.0})]
    machines = [Machine("m0", {"cpu": 8.0}), Machine("m1", {"cpu": 8.0})]
    problem = RASAProblem(
        services, machines, schedulable=np.array([[True, False]])
    )
    original = Assignment(problem, np.array([[2, 0]]))
    plan = MigrationPlan(
        steps=[[Command(CommandAction.DELETE, "a", "m0")],
               [Command(CommandAction.CREATE, "a", "m1")]],
        sla_floor=0.5,
    )
    with pytest.raises(MigrationError, match=r"step 1: .*schedulable=1"):
        MigrationExecutor(strict=True).execute(problem, original, plan)
    trace = MigrationExecutor(strict=False).execute(problem, original, plan)
    assert trace.outcome == "completed" and trace.peak_overcommit == 0.0
    # The builder never emits that create: the path stalls instead.
    target = Assignment(problem, np.array([[1, 1]]))
    built = MigrationPathBuilder(sla_floor=0.5).build(problem, original, target)
    assert not built.complete
    assert not built.commands_by_action(CommandAction.CREATE)


def test_builder_validates_sla_floor():
    with pytest.raises(MigrationError):
        MigrationPathBuilder(sla_floor=1.5)


def test_migration_on_generated_cluster(small_cluster):
    from repro.core.rasa import RASAScheduler

    problem = small_cluster.problem
    original = Assignment(problem, problem.current_assignment)
    result = RASAScheduler().schedule(problem, time_limit=6)
    plan = MigrationPathBuilder().build(problem, original, result.assignment)
    trace = MigrationExecutor().execute(problem, original, plan)
    assert trace.peak_overcommit <= 1e-9
    if plan.complete:
        assert np.array_equal(trace.final.x, result.assignment.x)
    assert plan.moved_containers == result.assignment.moved_containers(original)
