"""Versioned wire schemas: every payload crossing the service boundary
is ``schema_version``-tagged, round-trips losslessly, and rejects future
versions instead of misreading them."""

from __future__ import annotations

import pytest

from repro import api
from repro.cluster.cronjob import CycleReport
from repro.exceptions import ProblemValidationError
from repro.faults import FaultPlan
from repro.migration.executor import ExecutionTrace
from repro.schemas import (
    SCHEMA_KEY,
    SCHEMA_VERSION,
    check_schema,
    strip_schema,
    tag_schema,
)
from repro.service.tenant import TenantSpec
from repro.workloads.trace_io import problem_to_dict


# ----------------------------------------------------------------------
# The tagging primitives
# ----------------------------------------------------------------------
def test_tag_schema_adds_version_without_mutating_input():
    payload = {"a": 1}
    tagged = tag_schema(payload)
    assert tagged[SCHEMA_KEY] == SCHEMA_VERSION
    assert tagged["a"] == 1
    assert SCHEMA_KEY not in payload


def test_check_schema_tolerates_missing_tag_as_v1():
    # Payloads written before the tag existed keep loading.
    check_schema({"a": 1}, "Thing")


def test_check_schema_rejects_future_and_malformed_versions():
    with pytest.raises(ProblemValidationError):
        check_schema({SCHEMA_KEY: SCHEMA_VERSION + 1}, "Thing")
    with pytest.raises(ProblemValidationError):
        check_schema({SCHEMA_KEY: "one"}, "Thing")


def test_strip_schema_removes_only_the_tag():
    assert strip_schema({SCHEMA_KEY: 1, "a": 2}) == {"a": 2}


# ----------------------------------------------------------------------
# Round-trips: one per wire type, all on the shared version key
# ----------------------------------------------------------------------
def test_cycle_report_round_trip_is_tagged():
    report = CycleReport(
        cycle=3, action="executed", gained_before=0.4, gained_after=0.5,
        moved_containers=7, rungs=["retry"], machine_failures=["node-1"],
    )
    payload = report.to_dict()
    assert payload[SCHEMA_KEY] == SCHEMA_VERSION
    assert CycleReport.from_dict(payload).to_dict() == payload
    with pytest.raises(ProblemValidationError):
        CycleReport.from_dict({**payload, SCHEMA_KEY: SCHEMA_VERSION + 1})


def test_cycle_report_wire_has_no_process_local_fields():
    """Trace id, wall time, gate decision and metrics stay off the wire; a
    payload from an older writer that still carries a ``metrics`` snapshot
    loads, minus it."""
    report = CycleReport(
        cycle=0, action="dry_run", gained_before=0.4, gained_after=0.4,
        trace_id="ab" * 16, duration_seconds=1.5, gate="memo",
    )
    payload = report.to_dict()
    assert not {"metrics", "trace_id", "duration_seconds", "gate"} & set(payload)
    legacy = {**payload, "metrics": {"counters": {"rasa.subproblems.solved": 9}}}
    assert CycleReport.from_dict(legacy) == report
    assert CycleReport.from_dict(legacy).to_dict() == payload


def test_fault_plan_round_trip_is_tagged():
    plan = FaultPlan(seed=9, command_failure_rate=0.2,
                     machine_failure_rate=0.1, machine_flap_cycles=2)
    payload = plan.to_dict()
    assert payload[SCHEMA_KEY] == SCHEMA_VERSION
    assert FaultPlan.from_dict(payload) == plan
    # The tag must not trip the unknown-key strictness...
    assert FaultPlan.from_dict(dict(payload)) == plan
    # ...which still catches real typos.
    with pytest.raises(ProblemValidationError):
        FaultPlan.from_dict({**payload, "comand_failure_rate": 0.2})


def test_migration_plan_round_trip_is_tagged(small_cluster):
    problem = small_cluster.problem
    from repro.core import Assignment

    start = Assignment(problem, problem.current_assignment)
    target = api.optimize(problem, time_limit=None).assignment
    plan = api.plan_migration(problem, start, target)
    payload = plan.to_dict()
    assert payload[SCHEMA_KEY] == SCHEMA_VERSION
    from repro.migration import MigrationPlan

    assert MigrationPlan.from_dict(payload).to_dict() == payload
    with pytest.raises(ProblemValidationError):
        MigrationPlan.from_dict({**payload, SCHEMA_KEY: SCHEMA_VERSION + 1})


def test_execution_trace_round_trip_is_tagged(small_cluster):
    problem = small_cluster.problem
    from repro.core import Assignment

    start = Assignment(problem, problem.current_assignment)
    target = api.optimize(problem, time_limit=None).assignment
    plan = api.plan_migration(problem, start, target)
    trace = api.execute_plan(problem, start, plan)
    payload = trace.to_dict()
    assert payload[SCHEMA_KEY] == SCHEMA_VERSION
    assert ExecutionTrace.from_dict(payload, problem).to_dict() == payload
    with pytest.raises(ProblemValidationError):
        ExecutionTrace.from_dict(
            {**payload, SCHEMA_KEY: SCHEMA_VERSION + 1}, problem
        )


def test_tenant_spec_round_trip_is_tagged(small_cluster):
    spec = TenantSpec(
        name="alpha",
        problem=problem_to_dict(small_cluster.problem),
        faults={"seed": 1, "command_failure_rate": 0.1},
        schedule_seconds=2.5,
        seed=4,
    )
    payload = spec.to_dict()
    assert payload[SCHEMA_KEY] == SCHEMA_VERSION
    assert TenantSpec.from_dict(payload) == spec
    with pytest.raises(ProblemValidationError):
        TenantSpec.from_dict({**payload, "sceduler": 1})
    with pytest.raises(ProblemValidationError):
        TenantSpec.from_dict({**payload, SCHEMA_KEY: SCHEMA_VERSION + 1})


def test_loop_spec_round_trip_and_strictness():
    from repro.core.config import DegradationPolicy, LoopSpec, RASAConfig

    spec = LoopSpec(
        config=RASAConfig(max_subproblem_services=12),
        faults=FaultPlan(seed=1, command_failure_rate=0.1),
        degradation=DegradationPolicy.parse("retry:2,greedy"),
        retry={"max_attempts": 2},
        time_limit=2.5,
        rollback_imbalance=0.4,
        seed=4,
        checkpoint_every=3,
    )
    assert LoopSpec.from_dict(spec.to_dict()) == spec
    assert LoopSpec.from_dict({}) == LoopSpec()
    # Typed objects are stored as the plain data they round-trip through.
    assert spec.typed("config") == RASAConfig(max_subproblem_services=12)
    assert spec.typed("faults") == FaultPlan(seed=1, command_failure_rate=0.1)
    assert spec.typed("retry").max_attempts == 2
    for bad, field in [
        ({"time_limt": 1.0}, "time_limt"),
        ({"time_limit": "fast"}, "time_limit"),
        ({"sla_floor": 7}, "sla_floor"),
        ({"seed": True}, "seed"),
        ({"checkpoint_every": 0}, "checkpoint_every"),
        ({"config": {"wrkers": 2}}, "config"),
        ({"degradation": {"cycle_retries": "x"}}, "degradation"),
        ({"retry": {"max_attemps": 2}}, "retry"),
        ({"faults": {"command_failure_rate": "x"}}, "faults"),
    ]:
        with pytest.raises(ProblemValidationError, match=field):
            LoopSpec.from_dict(bad)


def test_loop_spec_loads_retired_config_keys():
    """A parent checkpoint's 14-key ``config`` loads; a retired key is
    accepted only at the value the pipeline now hard-wires (the thread-pool
    keys at any value), and refused by name otherwise."""
    import json
    from pathlib import Path

    from repro.core.config import LoopSpec, RASAConfig

    snapshot = Path(__file__).parent / "data/checkpoint_parent/cron/snapshot.json"
    parent = json.loads(snapshot.read_text())["run"]["config"]
    assert len(parent) == 14
    assert LoopSpec(config=parent).typed("config") == RASAConfig()
    assert LoopSpec(config={"parallel": True}).typed("config") == RASAConfig()
    assert LoopSpec(config={"workers": 4}).typed("config") == RASAConfig()
    assert LoopSpec(config={"workers": "x"}).typed("config") == RASAConfig()
    for bad, field in [
        ({"backend": "bnb"}, "LoopSpec.config.backend"),
        ({"repair_unplaced": False}, "LoopSpec.config.repair_unplaced"),
        ({**parent, "profile_top": 4}, "LoopSpec.config.profile_top"),
    ]:
        with pytest.raises(ProblemValidationError, match=field):
            LoopSpec(config=bad)


def test_retired_config_values_are_the_hard_wired_ones():
    """Each retired key's accepted value is the constant the code uses."""
    from repro.core.config import _ANY, _RETIRED_CONFIG
    from repro.core.rasa import MIN_SUBPROBLEM_BUDGET
    from repro.obs.profile import DEFAULT_TOP
    from repro.partitioning.multistage import PARTITION_SAMPLES

    ignored = {"parallel", "workers", "worker_timeout_factor", "worker_timeout_margin"}
    assert {key for key, value in _RETIRED_CONFIG.items() if value is _ANY} == ignored
    assert {
        key: value for key, value in _RETIRED_CONFIG.items() if key not in ignored
    } == {
        "backend": "highs",
        "partition_samples": PARTITION_SAMPLES,
        "min_subproblem_budget": MIN_SUBPROBLEM_BUDGET,
        "repair_unplaced": True,
        "profile_top": DEFAULT_TOP,
    }


def test_event_trace_round_trip(small_cluster):
    from repro.cluster.replay import EventTrace, TrafficShift

    u, v = next(iter(small_cluster.qps))
    trace = EventTrace(
        base=small_cluster.problem,
        events=[
            TrafficShift(at_seconds=1800.0, u=u, v=v, factor=2.0),
            TrafficShift(at_seconds=900.0, u=u, v=v, factor=0.5),
        ],
        name="rt", seed=3, interval_seconds=900.0, description="round trip",
    )
    payload = trace.to_dict()
    restored = EventTrace.from_dict(payload)
    assert restored.to_dict() == payload
    assert restored.events == trace.events
    assert (restored.name, restored.seed, restored.interval_seconds) == (
        "rt", 3, 900.0
    )
    with pytest.raises(ProblemValidationError, match="base"):
        EventTrace.from_dict({"events": []})
    with pytest.raises(ProblemValidationError, match="unknown replay event"):
        EventTrace.from_dict({**payload, "events": [{"kind": "nope"}]})


def test_tenant_spec_needs_exactly_one_source(small_cluster):
    payload = problem_to_dict(small_cluster.problem)
    with pytest.raises(ProblemValidationError):
        TenantSpec(name="x")
    with pytest.raises(ProblemValidationError):
        TenantSpec(name="x", problem=payload, trace={"base": payload})
    with pytest.raises(ProblemValidationError):
        TenantSpec(name="../etc", problem=payload)


# ----------------------------------------------------------------------
# RASAResult.summary_dict
# ----------------------------------------------------------------------
def test_rasa_result_summary_dict(small_cluster):
    result = api.optimize(small_cluster.problem, time_limit=None)
    summary = result.summary_dict()
    assert summary[SCHEMA_KEY] == SCHEMA_VERSION
    assert summary["gained_affinity"] == pytest.approx(result.gained_affinity)
    assert summary["num_services"] == small_cluster.problem.num_services
    assert summary["num_machines"] == small_cluster.problem.num_machines
    assert summary["num_subproblems"] == len(result.reports)
    assert len(summary["subproblems"]) == len(result.reports)
    for entry in summary["subproblems"]:
        assert set(entry) == {"services", "algorithm", "status", "objective"}
    assert all(len(point) == 2 for point in summary["trajectory"])
    # The summary is plain data: it must survive JSON.
    import json

    assert json.loads(json.dumps(summary)) == summary
