"""Integration tests for the CronJob control loop (paper Section III)."""

from __future__ import annotations

import importlib.util
import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from repro import api
from repro.cluster import ClusterState, CronJobController, DataCollector, cronjob
from repro.cluster.cronjob import IMPROVEMENT_GATE, CycleReport, build_controller
from repro.cluster.replay import EventTrace, TrafficShift
from repro.core import Machine, RASAProblem, RASAScheduler, Service
from repro.core.config import CYCLE_SECONDS, LoopSpec
from repro.faults import FaultPlan, coerce_injector
from repro.obs import MetricsRegistry, Tracer, use_metrics, use_tracer
from repro.service.tenant import Tenant, TenantSpec
from repro.workloads.trace_io import problem_to_dict

_DATA_DIR = Path(__file__).resolve().parent / "data"


def _data_module(name: str):
    spec = importlib.util.spec_from_file_location(name, _DATA_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


make_reference_week_digests = _data_module("make_reference_week_digests")
make_service_tenant_reports = _data_module("make_service_tenant_reports")


def _controller(cluster, **spec) -> CronJobController:
    return CronJobController(
        state=ClusterState(cluster.problem),
        collector=DataCollector(cluster.qps),
        spec=LoopSpec(time_limit=6.0, **spec),
    )


def test_first_cycle_executes_and_improves(small_cluster):
    controller = _controller(small_cluster)
    report = controller.run_once()
    assert report.action == "executed"
    assert report.gained_after > report.gained_before
    assert report.moved_containers > 0
    # Cluster remains SLA-complete after the cycle.
    assignment = controller.state.assignment()
    feasibility = assignment.check_feasibility()
    assert feasibility.feasible, feasibility.summary()


def test_second_cycle_dry_runs(small_cluster):
    controller = _controller(small_cluster)
    first = controller.run_once()
    controller.state.advance(1800.0)
    second = controller.run_once()
    # After a full optimization, the half-hourly re-run should not find a
    # > 3 % improvement and therefore dry-runs (paper churn control).
    assert first.action == "executed"
    assert second.action == "dry_run"
    assert second.moved_containers == 0


def test_steady_state_churn_is_low(small_cluster):
    controller = _controller(small_cluster)
    reports = controller.run(4)
    executed = [r for r in reports if r.action == "executed"]
    assert len(executed) <= 2  # only the initial optimization (plus maybe one)
    # Paper: < 5 % of containers moved per steady-state execution; the
    # *first* full optimization is exempt (it fixes a pessimal layout).
    for report in reports[1:]:
        if report.action == "executed":
            moved_fraction = report.moved_containers / small_cluster.problem.num_containers
            assert moved_fraction < 0.25


def test_rollback_on_extreme_imbalance(small_cluster):
    # An absurdly low threshold forces the rollback branch.
    controller = _controller(small_cluster, rollback_imbalance=1e-9)
    before = controller.state.placement
    report = controller.run_once()
    assert report.action == "rolled_back"
    # Rollback restores the SLA via the default scheduler.
    placed = controller.state.placement.sum()
    assert placed >= 0.97 * small_cluster.problem.num_containers
    # Some machines are tagged unschedulable for three days.
    assert controller.state.unschedulable_until
    horizon = max(controller.state.unschedulable_until.values())
    assert horizon == pytest.approx(controller.state.clock + 3 * 24 * 3600.0)


def test_history_accumulates(small_cluster):
    controller = _controller(small_cluster)
    controller.run(3)
    assert len(controller.history) == 3
    assert [r.cycle for r in controller.history] == [0, 1, 2]


# ----------------------------------------------------------------------
# Deciding the cycle before solving it
# ----------------------------------------------------------------------
def _pairs_world(w_ab: float, w_cd: float, *, colocated: bool) -> RASAProblem:
    """Pairs a–b and c–d, one container each; a and b always share m0.

    ``colocated`` puts d beside c on m0 too (every edge gained), otherwise
    on m1; either way m0 fits all four containers, so the optimum is 1.0.
    """
    services = [Service(name, 1, {"cpu": 1.0}) for name in "abcd"]
    machines = [Machine(f"m{i}", {"cpu": 4.0}) for i in range(2)]
    current = np.array([[1, 0], [1, 0], [1, 0], [1, 0] if colocated else [0, 1]])
    return RASAProblem(
        services, machines, affinity={("a", "b"): w_ab, ("c", "d"): w_cd},
        current_assignment=current,
    )


def _stuck_world(*, settled: bool = True) -> RASAProblem:
    """Gained affinity 0.9 at best: a and b never fit one machine.

    ``settled`` starts at that optimum; otherwise d starts apart from c,
    at gained affinity 0, so the first cycle executes.  m2 is empty and
    changes nothing when it is schedulable.
    """
    services = [
        Service("a", 1, {"cpu": 2.0}), Service("b", 1, {"cpu": 2.0}),
        Service("c", 1, {"cpu": 0.5}), Service("d", 1, {"cpu": 0.5}),
    ]
    machines = [Machine(f"m{i}", {"cpu": 3.0}) for i in range(3)]
    current = np.array(
        [[1, 0, 0], [0, 1, 0], [1, 0, 0], [1, 0, 0] if settled else [0, 1, 0]]
    )
    return RASAProblem(
        services, machines, affinity={("a", "b"): 1.0, ("c", "d"): 9.0},
        current_assignment=current,
    )


def _loop(
    problem: RASAProblem, *, jitter: float = 0.0, faults=None, **spec
) -> CronJobController:
    return CronJobController(
        state=ClusterState(problem),
        collector=DataCollector(
            dict(problem.affinity.items()), traffic_jitter_sigma=jitter
        ),
        spec=LoopSpec(**spec),
        faults=faults,
    )


@pytest.fixture
def solves(monkeypatch) -> list:
    """Every ``RASAScheduler.schedule`` call made while the test runs."""
    calls = []
    original = RASAScheduler.schedule

    def counted(self, problem, time_limit=None):
        calls.append(problem)
        return original(self, problem, time_limit=time_limit)

    monkeypatch.setattr(RASAScheduler, "schedule", counted)
    return calls


def _gate_decisions(tracer: Tracer) -> list[str]:
    decisions = []

    def walk(span):
        decisions.extend(
            tags["decision"] for _ts, name, tags in span.events if name == "cron.gate"
        )
        for child in span.children:
            walk(child)

    for root in tracer.finished_roots():
        walk(root)
    return decisions


def test_world_at_full_affinity_never_solves(solves):
    controller = _loop(_pairs_world(1.0, 3.0, colocated=True))
    registry = MetricsRegistry()
    with use_tracer(Tracer()) as tracer, use_metrics(registry):
        reports = controller.run(3)
    assert solves == []
    imbalance = controller.state.utilization_imbalance()
    assert reports == [
        CycleReport(cycle, "dry_run", 1.0, 1.0, imbalance_after=imbalance)
        for cycle in range(3)
    ]
    assert _gate_decisions(tracer) == ["bound"] * 3
    assert registry.snapshot()["counters"]["cron.gate.bound"] == 3


def test_bound_is_tight_at_the_gate(solves):
    gate = 1.0 / (1.0 + IMPROVEMENT_GATE)
    below = _loop(_pairs_world(gate - 1e-6, 1.0 - gate + 1e-6, colocated=False))
    report = below.run_once()
    assert len(solves) == 1
    assert report.action == "executed" and report.gained_after == 1.0

    # Just above the gate the bound decides, and a solve agrees with it.
    problem = _pairs_world(gate + 1e-6, 1.0 - gate - 1e-6, colocated=False)
    report = _loop(problem).run_once()
    assert len(solves) == 1
    assert report.action == "dry_run"
    gained_new = RASAScheduler().schedule(problem).gained_affinity
    assert gained_new == 1.0
    assert gained_new - report.gained_before <= IMPROVEMENT_GATE * report.gained_before


def test_unchanged_world_solves_once(solves):
    registry = MetricsRegistry()
    with use_tracer(Tracer()) as tracer, use_metrics(registry):
        reports = _loop(_stuck_world()).run(3)
    assert len(solves) == 1
    assert [r.action for r in reports] == ["dry_run"] * 3
    assert {r.gained_before for r in reports} == {0.9}
    assert _gate_decisions(tracer) == ["solved", "memo", "memo"]
    assert [r.gate for r in reports] == ["solved", "memo", "memo"]
    assert registry.snapshot()["counters"]["cron.gate.memo"] == 2


def test_cycle_after_an_execution_makes_no_solve(solves):
    registry = MetricsRegistry()
    with use_tracer(Tracer()) as tracer, use_metrics(registry):
        reports = _loop(_stuck_world(settled=False)).run(3)
    assert len(solves) == 1
    assert [r.action for r in reports] == ["executed", "dry_run", "dry_run"]
    assert [r.gained_after for r in reports] == [0.9] * 3
    assert _gate_decisions(tracer) == ["solved", "memo", "memo"]
    assert registry.snapshot()["counters"]["cron.gate.memo"] == 2


def test_memo_decides_what_a_solve_decides(solves, monkeypatch):
    memoized = _loop(_stuck_world(settled=False)).run(3)
    assert len(solves) == 1
    monkeypatch.setattr(cronjob._Memo, "matches", lambda *_args: False)
    solved = _loop(_stuck_world(settled=False)).run(3)
    assert len(solves) == 1 + 3
    assert [r.to_dict() for r in memoized] == [r.to_dict() for r in solved]


def test_cut_short_execution_is_re_executed_without_a_solve(solves):
    tenant = make_service_tenant_reports.build_tenant("chaos")
    reports = tenant.run_cycles(3)
    assert len(solves) == 1
    assert reports[0].action == "retried" and reports[0].failed_commands
    assert [r.gate for r in reports] == ["memo"] * 3
    assert tenant.summary()["last_gate"] == "memo"
    completed = [
        e["detail"]["gate"] for e in tenant.events_since(0)["events"]
        if e["kind"] == "cycle.completed"
    ]
    assert completed == ["memo"] * 3


def test_budgeted_solves_keep_no_digest(solves):
    _loop(_stuck_world(), time_limit=30.0).run(2)
    assert len(solves) == 2


def test_pricing_stopped_by_its_wall_clock_keeps_no_memo(solves, monkeypatch):
    from repro.solvers import column_generation

    tenant = make_service_tenant_reports.build_tenant("clean")
    problem = tenant.controller.state.problem
    monkeypatch.setattr(column_generation, "PRICING_TIME_LIMIT", 1e-9)
    registry = MetricsRegistry()
    with use_metrics(registry):
        _loop(problem).run(2)
    assert len(solves) == 2
    assert registry.snapshot()["counters"]["solver.cg.pricing_time_limited"] > 0


def test_traffic_shift_forces_a_resolve(solves):
    trace = EventTrace(
        base=_stuck_world(),
        events=[TrafficShift(at_seconds=3600.0, u="c", v="d", factor=2.0)],
    )
    reports = api.replay_trace(trace, cycles=4, time_limit=None)
    assert [len(r.events) for r in reports] == [0, 0, 1, 0]
    assert len(solves) == 2


def test_pushed_snapshot_forces_a_resolve(solves):
    tenant = Tenant(
        TenantSpec(name="steady", problem=problem_to_dict(_stuck_world()), time_limit=None)
    )
    tenant.run_cycles(2)
    assert len(solves) == 1
    tenant.push_snapshot([["a", "b", 1.0], ["c", "d", 9.5]])
    tenant.run_cycles(2)
    assert len(solves) == 2


def test_expired_unschedulable_tag_forces_a_resolve(solves):
    controller = _loop(_stuck_world())
    controller.state.mark_unschedulable("m2", until=2700.0)
    controller.run(3)  # clocks 0 and 1800 tagged, 3600 not
    assert len(solves) == 2
    assert solves[0].schedulable[:, 2].sum() == 0
    assert solves[1].schedulable.all()


def test_stale_snapshot_reuses_the_decision(solves):
    # Jitter makes every fresh snapshot new; a stale one is the last one.
    _loop(_stuck_world(), jitter=0.05).run(3)
    assert len(solves) == 3
    stale = coerce_injector(FaultPlan(stale_snapshot_rate=1.0))
    reports = _loop(_stuck_world(), jitter=0.05, faults=stale).run(3)
    assert len(solves) == 4
    assert [r.action for r in reports] == ["dry_run"] * 3


# ----------------------------------------------------------------------
# The controller reads its LoopSpec
# ----------------------------------------------------------------------
def test_bare_controller_runs_the_default_spec():
    problem = _pairs_world(1.0, 1.0, colocated=False)
    qps = dict(problem.affinity.items())
    bare = CronJobController(state=ClusterState(problem), collector=DataCollector(qps))
    assert bare.spec == LoopSpec()
    init = {f.name for f in fields(CronJobController) if f.init}
    assert init & {f.name for f in fields(LoopSpec)} == {"faults"}
    assert DataCollector(qps).traffic_jitter_sigma == LoopSpec.traffic_jitter_sigma
    reports = bare.run(2)
    assert [r.action for r in reports] == ["executed", "dry_run"]
    assert reports == build_controller(LoopSpec(), problem).run(2)


def test_cycle_period_resolves_from_spec_then_trace_then_paper():
    trace = EventTrace(base=_stuck_world(), interval_seconds=600.0)
    assert _loop(_stuck_world()).interval_seconds == CYCLE_SECONDS
    assert build_controller(LoopSpec(), trace.cursor()).interval_seconds == 600.0
    spec = LoopSpec(interval_seconds=60.0)
    assert build_controller(spec, trace.cursor()).interval_seconds == 60.0


def test_reference_week_reports_match_the_solve_every_cycle_parent():
    """The 24-cycle reference week replays to the bytes 39b0b74 wrote.

    ``reference_week_digests.json`` was written by
    ``make_reference_week_digests.py`` at 39b0b74, which solved every cycle
    before gating it; equal digests mean no solver-free decision changed a
    report — clean or under chaos.
    """
    pinned = json.loads((_DATA_DIR / "reference_week_digests.json").read_text())
    assert make_reference_week_digests.compute_digests() == pinned


def test_service_tenant_reports_match_the_solve_after_execution_parent():
    """Two 12-service tenants replay to the report bytes f5f6317 wrote.

    ``service_tenant_reports.json`` was written by
    ``make_service_tenant_reports.py`` at f5f6317, which re-solved the
    cycle after every execution and every retried attempt; equal reports
    mean the memo changed none — clean, or with executions cut short.
    """
    pinned = json.loads((_DATA_DIR / "service_tenant_reports.json").read_text())
    assert make_service_tenant_reports.compute_reports() == pinned
