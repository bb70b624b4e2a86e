"""Fault-injection layer: plans, injector determinism, chaos invariants.

Covers the acceptance criteria of the fault-tolerant control plane:

* same seed + same :class:`FaultPlan` ⇒ identical :class:`CycleReport`
  sequence (including under ``workers > 1``),
* under a seeded plan with per-command failure rate ≤ 20 %, ``run(n)``
  completes all cycles without raising, every cycle respects the SLA
  floor, and degraded cycles record which ladder rung fired,
* fault injection disabled ⇒ bit-identical results to a run without the
  fault layer (differential tests at executor and control-loop level).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cluster import ClusterState, CronJobController, DataCollector
from repro.cluster.cronjob import CycleReport
from repro.core import Assignment, RASAConfig, RASAScheduler
from repro.core.config import LoopSpec, RetryPolicy
from repro.exceptions import ProblemValidationError
from repro.faults import (
    FaultInjector,
    FaultPlan,
    attempt_with_retry,
    coerce_injector,
)
from repro.migration.executor import (
    OUTCOME_COMPLETED,
    OUTCOME_PARTIAL,
    OUTCOME_ROLLED_BACK,
    ExecutionTrace,
    MigrationExecutor,
)
from repro.migration.path import MigrationPathBuilder
from repro.migration.plan import CommandAction


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _run_loop(cluster, plan: FaultPlan | None, cycles: int = 3, **spec):
    """A fresh control loop over the shared cluster fixture.

    No overall time limit (the spec's default): solver results are
    bit-deterministic only when every solve finishes within its budget,
    and these tests compare whole runs against each other.
    """
    controller = CronJobController(
        state=ClusterState(cluster.problem),
        collector=DataCollector(cluster.qps),
        spec=LoopSpec(faults=plan, **spec),
    )
    return controller, controller.run(cycles)


@pytest.fixture(scope="module")
def migration_setup(small_cluster):
    """A solved migration plan over the shared small cluster."""
    problem = small_cluster.problem
    start = Assignment(problem, problem.current_assignment)
    result = RASAScheduler().schedule(problem, time_limit=None)
    plan = MigrationPathBuilder(sla_floor=0.75).build(
        problem, start, result.assignment
    )
    assert plan.steps, "fixture plan must actually move containers"
    return problem, start, plan


# ----------------------------------------------------------------------
# FaultPlan: validation and serialization
# ----------------------------------------------------------------------
def test_fault_plan_rejects_out_of_range_rates():
    with pytest.raises(ProblemValidationError):
        FaultPlan(command_failure_rate=1.5)
    with pytest.raises(ProblemValidationError):
        FaultPlan(stale_snapshot_rate=-0.1)
    with pytest.raises(ProblemValidationError):
        FaultPlan(command_failure_rate=0.7, command_timeout_rate=0.7)
    with pytest.raises(ProblemValidationError):
        FaultPlan(machine_flap_cycles=0)


def test_fault_plan_enabled_flags():
    assert not FaultPlan().enabled
    assert not FaultPlan().injects_commands
    assert FaultPlan(stale_snapshot_rate=0.1).enabled
    assert FaultPlan(command_timeout_rate=0.1).injects_commands


def test_fault_plan_round_trip(tmp_path):
    plan = FaultPlan(
        seed=7,
        command_failure_rate=0.2,
        command_timeout_rate=0.05,
        machine_failure_rate=0.1,
        machine_flap_cycles=2,
        kill_containers=True,
        stale_snapshot_rate=0.3,
        snapshot_drop_fraction=0.25,
    )
    assert FaultPlan.from_dict(plan.to_dict()) == plan
    path = tmp_path / "plan.json"
    plan.save(path)
    assert FaultPlan.load(path) == plan
    # The artifact is plain JSON, editable by hand.
    assert json.loads(path.read_text())["seed"] == 7


def test_fault_plan_rejects_unknown_keys():
    with pytest.raises(ProblemValidationError, match="unknown"):
        FaultPlan.from_dict({"command_failure_rte": 0.2})


def test_coerce_injector_accepts_all_forms():
    assert coerce_injector(None) is None
    injector = FaultInjector(FaultPlan(seed=3))
    assert coerce_injector(injector) is injector
    assert coerce_injector(FaultPlan(seed=3)).plan.seed == 3
    assert coerce_injector({"seed": 3}).plan.seed == 3
    with pytest.raises(TypeError):
        coerce_injector("chaos")


# ----------------------------------------------------------------------
# Injector: determinism and the zero-draw contract
# ----------------------------------------------------------------------
def test_injector_streams_are_reproducible():
    plan = FaultPlan(seed=11, command_failure_rate=0.4, command_timeout_rate=0.2)
    a, b = FaultInjector(plan), FaultInjector(plan)
    assert [a.command_fault() for _ in range(50)] == [
        b.command_fault() for _ in range(50)
    ]


def test_begin_cycle_rekeys_independently_of_history():
    """A cycle's faults depend only on (seed, cycle), not on prior draws."""
    plan = FaultPlan(seed=5, command_failure_rate=0.5)
    a, b = FaultInjector(plan), FaultInjector(plan)
    for _ in range(17):  # consume an arbitrary amount on one injector only
        a.command_fault()
    a.begin_cycle(3)
    b.begin_cycle(3)
    assert [a.command_fault() for _ in range(20)] == [
        b.command_fault() for _ in range(20)
    ]
    # Different cycles get different streams.
    a.begin_cycle(3)
    b.begin_cycle(4)
    assert [a.command_fault() for _ in range(20)] != [
        b.command_fault() for _ in range(20)
    ]


def test_zero_rate_plan_makes_no_draws():
    """The all-zero plan is a no-op that does not touch the RNG — the
    keystone of the bit-identical differential guarantee."""
    injector = FaultInjector(FaultPlan())
    before = injector._rng.bit_generator.state
    assert injector.command_fault() is None
    assert injector.machine_failures(["m0", "m1"]) == []
    assert injector.snapshot_fault() is None
    assert injector.dropped_edges([("a", "b")]) == set()
    assert injector._rng.bit_generator.state == before


def test_attempt_with_retry_no_injector_is_free():
    assert attempt_with_retry(None, RetryPolicy()) == (0, 0.0, True)


def test_attempt_with_retry_exhausts_budget():
    injector = FaultInjector(FaultPlan(seed=0, command_failure_rate=1.0))
    retry = RetryPolicy(max_attempts=4, base_delay=0.1, backoff_factor=2.0)
    slept: list[float] = []
    retries, delay, ok = attempt_with_retry(injector, retry, sleep=slept.append)
    assert not ok
    assert retries == 3  # max_attempts - 1 backoffs before giving up
    assert delay == pytest.approx(sum(slept))
    # Exponential: each backoff at least the undithered previous one.
    assert slept[1] > slept[0] and slept[2] > slept[1]


def test_retry_policy_delay_caps_and_jitters():
    policy = RetryPolicy(base_delay=1.0, backoff_factor=10.0, max_delay=5.0)
    assert policy.delay(0, 0.0) == pytest.approx(1.0)
    assert policy.delay(3, 0.0) == pytest.approx(5.0)  # capped
    assert policy.delay(0, 1.0) == pytest.approx(1.0 * (1 + policy.jitter))


# ----------------------------------------------------------------------
# Executor: differential parity and abort-and-compensate
# ----------------------------------------------------------------------
def test_executor_zero_rate_bit_identical(migration_setup):
    problem, start, plan = migration_setup
    baseline = MigrationExecutor().execute(problem, start, plan)
    zeroed = MigrationExecutor().execute(
        problem, start, plan, injector=FaultInjector(FaultPlan())
    )
    assert baseline.outcome == zeroed.outcome == OUTCOME_COMPLETED
    assert baseline.to_dict() == zeroed.to_dict()
    assert np.array_equal(baseline.final.x, zeroed.final.x)


def test_executor_abort_rolls_back_to_safe_boundary(migration_setup):
    problem, start, plan = migration_setup
    injector = FaultInjector(FaultPlan(seed=1, command_failure_rate=0.9))
    trace = MigrationExecutor(
        retry=RetryPolicy(max_attempts=2)
    ).execute(problem, start, plan, injector=injector)
    assert trace.outcome in (OUTCOME_PARTIAL, OUTCOME_ROLLED_BACK)
    assert trace.failed_commands >= 1
    assert trace.steps_executed < len(plan.steps)
    # The final placement is exactly the replay of the surviving steps —
    # the half-applied step was compensated away.
    x = start.x.copy()
    for step in plan.steps[: trace.steps_executed]:
        for command in step:
            s = problem.service_index(command.service)
            m = problem.machine_index(command.machine)
            x[s, m] += -1 if command.action is CommandAction.DELETE else 1
    assert np.array_equal(trace.final.x, x)
    # The boundary it stopped at honors the SLA floor and capacity.
    alive = trace.final.x.sum(axis=1)
    floor = np.floor(plan.sla_floor * problem.demands)
    assert (alive >= floor).all()
    report = trace.final.check_feasibility(check_sla=False)
    assert not report.resource_violations


def test_executor_retries_accrue_backoff(migration_setup):
    problem, start, plan = migration_setup
    injector = FaultInjector(FaultPlan(seed=2, command_failure_rate=0.3))
    trace = MigrationExecutor().execute(problem, start, plan, injector=injector)
    assert trace.command_retries > 0
    assert trace.retry_delay_seconds > 0.0


def test_execution_trace_round_trip(migration_setup):
    problem, start, plan = migration_setup
    trace = MigrationExecutor().execute(problem, start, plan)
    payload = json.loads(json.dumps(trace.to_dict()))
    restored = ExecutionTrace.from_dict(payload, problem)
    assert restored.outcome == trace.outcome
    assert restored.steps_executed == trace.steps_executed
    assert restored.min_alive_fraction == trace.min_alive_fraction
    assert restored.alive_fractions == trace.alive_fractions
    assert np.array_equal(restored.final.x, trace.final.x)


# ----------------------------------------------------------------------
# Control loop: determinism, chaos invariant, differential parity
# ----------------------------------------------------------------------
CHAOS_PLAN = FaultPlan(
    seed=11,
    command_failure_rate=0.2,
    machine_failure_rate=0.05,
    stale_snapshot_rate=0.2,
    snapshot_drop_fraction=0.1,
)


def test_same_seed_same_plan_identical_reports(small_cluster):
    _, first = _run_loop(small_cluster, CHAOS_PLAN)
    _, second = _run_loop(small_cluster, CHAOS_PLAN)
    assert first == second


@pytest.mark.slow
def test_determinism_holds_under_workers(small_cluster, monkeypatch):
    """Fault draws are drawn on the loop's thread; the threaded solve phase
    merges deterministically, so solving shards at once changes nothing."""
    monkeypatch.setattr("repro.core.rasa.available_cpus", lambda: 1)
    _, serial = _run_loop(small_cluster, CHAOS_PLAN, cycles=2)
    monkeypatch.setattr("repro.core.rasa.available_cpus", lambda: 2)
    _, parallel = _run_loop(
        small_cluster,
        CHAOS_PLAN,
        cycles=2,
        config=RASAConfig(workers=2),
    )
    assert serial == parallel


def test_chaos_invariant_at_twenty_percent(small_cluster):
    """The headline guarantee: ≤ 20 % command failures never break a run."""
    plan = FaultPlan(seed=5, command_failure_rate=0.2)
    controller, reports = _run_loop(small_cluster, plan, cycles=5)
    assert len(reports) == 5
    degraded = {"retried", "degraded_greedy", "skipped"}
    for report in reports:
        assert report.sla_ok, f"cycle {report.cycle} violated the SLA floor"
        if report.action in degraded:
            assert report.rungs, "degraded cycle must record its ladder rung"
        else:
            assert report.action in ("executed", "dry_run", "rolled_back")
    # The cluster ends SLA-complete with capacity respected.
    feasibility = controller.state.assignment().check_feasibility()
    assert not feasibility.resource_violations
    assert not feasibility.sla_violations
    # 20 % per-attempt failures against a 3-attempt budget must be mostly
    # absorbed by retries rather than degradation.
    assert sum(r.command_retries for r in reports) > 0


def test_zero_rate_plan_matches_no_faults(small_cluster):
    """Differential: injection disabled ⇒ bit-identical control loop."""
    _, without = _run_loop(small_cluster, None)
    _, zeroed = _run_loop(small_cluster, FaultPlan())
    assert without == zeroed


def test_machine_flaps_cordon_consistently(small_cluster):
    plan = FaultPlan(seed=9, machine_failure_rate=0.3, machine_flap_cycles=2)
    controller, reports = _run_loop(small_cluster, plan, cycles=1)
    flapped = reports[0].machine_failures
    assert flapped, "seed 9 at 30 % must flap at least one of 10 machines"
    for name in flapped:
        until = controller.state.unschedulable_until[name]
        assert until == pytest.approx(2 * controller.interval_seconds)
    # Containers survive a cordon-style flap (kill_containers=False).
    assert reports[0].sla_ok


def test_cycle_report_round_trip(small_cluster):
    _, reports = _run_loop(small_cluster, CHAOS_PLAN, cycles=2)
    for report in reports:
        payload = json.loads(json.dumps(report.to_dict()))
        assert CycleReport.from_dict(payload) == report


# ----------------------------------------------------------------------
# Collector faults
# ----------------------------------------------------------------------
def test_collector_stale_replays_previous_snapshot(small_cluster):
    state = ClusterState(small_cluster.problem)
    collector = DataCollector(small_cluster.qps)
    injector = FaultInjector(FaultPlan(stale_snapshot_rate=1.0))
    first = collector.collect(state, injector=injector)
    second = collector.collect(state, injector=injector)
    assert second is first  # served verbatim from the cache


def test_collector_partial_snapshot_drops_edges(small_cluster):
    state = ClusterState(small_cluster.problem)
    collector = DataCollector(small_cluster.qps)
    injector = FaultInjector(FaultPlan(seed=4, snapshot_drop_fraction=0.5))
    problem = collector.collect(state, injector=injector)
    total = len(small_cluster.qps)
    kept = len(dict(problem.affinity.items()))
    assert kept == total - int(round(0.5 * total))


def test_collector_without_injector_unchanged(small_cluster):
    state = ClusterState(small_cluster.problem)
    collector = DataCollector(small_cluster.qps)
    problem = collector.collect(state)
    assert len(dict(problem.affinity.items())) == len(small_cluster.qps)
    assert np.array_equal(problem.current_assignment, state.placement)
