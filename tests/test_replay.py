"""Tests for the trace-replay plane: events, the replay world, cursors,
and the bit-determinism contract of closed-loop replays.

Determinism tests compare :class:`CycleReport` payloads with the metrics
snapshot stripped (same convention as tests/test_faults.py): the global
metrics registry is a process-wide view, everything else must be
bit-identical for the same trace + seed, for any worker count.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import assert_feasible

from repro import api
from repro.cluster.cronjob import CycleReport
from repro.cluster.replay import (
    EVENT_TYPES,
    EventTrace,
    MachineAdd,
    MachineDrain,
    ReplayWorld,
    ServiceDeploy,
    ServiceScale,
    ServiceTeardown,
    SpotReclaim,
    TrafficShift,
    event_from_dict,
    synthesize_trace,
)
from repro.core import RASAConfig
from repro.exceptions import ClusterStateError, ProblemValidationError
from repro.workloads import ClusterSpec


@pytest.fixture(scope="module")
def small_trace() -> EventTrace:
    """A fast, churn-dense trace over a small generated cluster."""
    spec = ClusterSpec(
        name="replay-test",
        num_services=8,
        num_containers=32,
        num_machines=4,
        affinity_beta=2.0,
        seed=3,
    )
    return synthesize_trace(
        spec,
        name="replay-test",
        seed=3,
        duration_seconds=6 * 1800.0,
        burst_every=2,
    )


# ----------------------------------------------------------------------
# Event records
# ----------------------------------------------------------------------
EVENT_EXAMPLES = [
    ServiceDeploy(10.0, "newsvc", 3, {"cpu": 1.0, "memory": 2.0}, 1.5,
                  (("a", 12.0), ("b", 3.5))),
    ServiceTeardown(20.0, "oldsvc"),
    ServiceScale(30.0, "websvc", 7),
    TrafficShift(40.0, "u", "v", 1.8),
    MachineAdd(50.0, "nodeX", {"cpu": 32.0, "memory": 128.0}, "big"),
    MachineDrain(60.0, "nodeY"),
    SpotReclaim(70.0, "nodeZ"),
]


@pytest.mark.parametrize("event", EVENT_EXAMPLES, ids=lambda e: e.kind)
def test_event_round_trip(event):
    payload = event.to_dict()
    assert payload["kind"] == event.kind
    assert event_from_dict(payload) == event


def test_event_registry_covers_every_kind():
    assert sorted(EVENT_TYPES) == sorted(e.kind for e in EVENT_EXAMPLES)


def test_event_from_dict_rejects_unknown_kind():
    with pytest.raises(ProblemValidationError, match="unknown replay event"):
        event_from_dict({"kind": "meteor_strike", "at_seconds": 0.0})


def test_event_from_dict_rejects_non_dict():
    with pytest.raises(ProblemValidationError, match="must be an object"):
        event_from_dict(["service_scale"])


_DEPLOY = {"kind": "service_deploy", "at_seconds": 0.0, "service": "d",
           "demand": 2, "requests": {"cpu": 1.0}}
_SHIFT = {"kind": "traffic_shift", "at_seconds": 0.0, "u": "a", "v": "b",
          "factor": 2.0}
_ADD = {"kind": "machine_add", "at_seconds": 0.0, "machine": "mX",
        "capacity": {"cpu": 8.0}}


@pytest.mark.parametrize(
    "payload, field",
    [
        ({"kind": "service_scale", "at_seconds": 0.0}, "service"),
        ({"kind": "service_scale", "at_seconds": 0.0, "service": "a"},
         "new_demand"),
        ({"kind": "service_scale", "at_seconds": 0.0, "service": "a",
          "new_demand": 0}, "new_demand"),
        ({"kind": "service_scale", "at_seconds": 0.0, "service": "a",
          "new_demand": float("inf")}, "new_demand"),
        ({**_SHIFT, "at_seconds": float("inf")}, "at_seconds"),
        ({**_SHIFT, "at_seconds": "noon"}, "at_seconds"),
        ({**_SHIFT, "factor": float("nan")}, "factor"),
        ({**_SHIFT, "factor": float("inf")}, "factor"),
        ({**_SHIFT, "factor": 0.0}, "factor"),
        ({**_SHIFT, "factor": -1.5}, "factor"),
        ({**_DEPLOY, "demand": 0}, "demand"),
        ({**_DEPLOY, "demand": float("nan")}, "demand"),
        ({**_DEPLOY, "requests": {"cpu": float("nan")}}, "requests"),
        ({**_DEPLOY, "requests": [1.0]}, "requests"),
        ({**_DEPLOY, "priority": float("-inf")}, "priority"),
        ({**_DEPLOY, "edges": [["a", float("nan")]]}, "edges"),
        ({**_DEPLOY, "edges": [["a"]]}, "edges"),
        ({**_ADD, "capacity": {"cpu": float("inf")}}, "capacity"),
    ],
)
def test_event_from_dict_rejects_malformed_payload(payload, field):
    kind = payload["kind"]
    with pytest.raises(
        ProblemValidationError, match=f"malformed '{kind}' event payload: {field} "
    ):
        event_from_dict(payload)


# ----------------------------------------------------------------------
# ReplayWorld semantics
# ----------------------------------------------------------------------
def test_world_heals_partial_base(small_cluster):
    """A base assignment short of demand is topped up before cycle 0."""
    world = ReplayWorld(small_cluster.problem)
    placed = world.state.placement.sum(axis=1)
    assert (placed == world.state.problem.demands).all()


def test_world_state_identity_survives_structural_churn(tiny_problem):
    world = ReplayWorld(tiny_problem)
    state = world.state
    world.apply(MachineAdd(0.0, "extra", {"cpu": 16.0, "memory": 32.0}))
    world.apply(ServiceDeploy(0.0, "d", 2, {"cpu": 1.0, "memory": 1.0},
                              edges=(("a", 5.0),)))
    world.apply(SpotReclaim(0.0, "extra"))
    assert world.state is state  # rebind keeps the object identity
    assert "d" in state.problem.service_names()
    assert "extra" not in state.problem.machine_names()
    assert_feasible(state.assignment(), allow_partial=True)


def test_deploy_adds_service_and_traffic(tiny_problem):
    world = ReplayWorld(tiny_problem)
    description = world.apply(
        ServiceDeploy(0.0, "d", 2, {"cpu": 1.0, "memory": 1.0},
                      edges=(("a", 7.0),))
    )
    assert description.startswith("deployed d")
    problem = world.state.problem
    assert "d" in problem.service_names()
    assert world.qps[("a", "d")] == 7.0
    assert problem.affinity.weight("a", "d") == pytest.approx(7.0)
    s = problem.service_index("d")
    assert world.state.placement[s].sum() == 2


def test_deploy_rejects_duplicates_and_bad_edges(tiny_problem):
    world = ReplayWorld(tiny_problem)
    with pytest.raises(ClusterStateError, match="already exists"):
        world.apply(ServiceDeploy(0.0, "a", 1, {"cpu": 1.0}))
    with pytest.raises(ClusterStateError, match="unknown peer"):
        world.apply(ServiceDeploy(0.0, "d", 1, {"cpu": 1.0},
                                  edges=(("ghost", 1.0),)))
    with pytest.raises(ClusterStateError, match="edges must be positive"):
        world.apply(ServiceDeploy(0.0, "d", 1, {"cpu": 1.0},
                                  edges=(("a", 0.0),)))
    # Numbers on events built in code meet the same checks as the codec's.
    for bad in (
        ServiceDeploy(0.0, "d", 0, {"cpu": 1.0}),
        ServiceDeploy(0.0, "d", 1, {"cpu": float("nan")}),
        ServiceDeploy(0.0, "d", 1, {"cpu": 1.0}, priority=float("inf")),
        ServiceDeploy(0.0, "d", 1, {"cpu": 1.0}, edges=(("a", float("nan")),)),
    ):
        with pytest.raises(ClusterStateError, match="service_deploy event"):
            world.apply(bad)
    assert "d" not in world.state.problem.service_names()


def test_teardown_removes_service_everywhere(tiny_problem):
    world = ReplayWorld(tiny_problem)
    world.apply(ServiceTeardown(0.0, "b"))
    problem = world.state.problem
    assert "b" not in problem.service_names()
    assert all("b" not in pair for pair in world.qps)
    assert all("b" not in rule.services for rule in problem.anti_affinity)
    with pytest.raises(ClusterStateError, match="unknown service"):
        world.apply(ServiceTeardown(0.0, "b"))


def test_teardown_keeps_at_least_one_service(tiny_problem):
    world = ReplayWorld(tiny_problem)
    world.apply(ServiceTeardown(0.0, "a"))
    world.apply(ServiceTeardown(0.0, "b"))
    with pytest.raises(ClusterStateError, match="last service"):
        world.apply(ServiceTeardown(0.0, "c"))


def test_scale_up_and_down(tiny_problem):
    world = ReplayWorld(tiny_problem)
    state = world.state

    world.apply(ServiceScale(0.0, "c", 4))
    s = state.problem.service_index("c")
    assert state.problem.demands[s] == 4
    assert state.placement[s].sum() == 4

    world.apply(ServiceScale(0.0, "c", 1))
    s = state.problem.service_index("c")
    assert state.problem.demands[s] == 1
    assert state.placement[s].sum() == 1
    assert_feasible(state.assignment())


def test_scale_down_removes_least_affine_first(small_cluster):
    world = ReplayWorld(small_cluster.problem)
    state = world.state
    demand_of = {svc.name: svc.demand for svc in state.problem.services}
    service = next(
        name
        for name, _ in state.problem.affinity.services_by_total_affinity()
        if demand_of[name] >= 3
    )
    s = state.problem.service_index(service)
    demand = demand_of[service]
    before = state.assignment().gained_affinity()
    world.apply(ServiceScale(0.0, service, demand - 1))
    assert state.placement[s].sum() == demand - 1
    # The victim is the replica contributing least: dropping it cannot
    # raise raw gained affinity.
    assert state.assignment().gained_affinity() <= before + 1e-9


def test_scale_rejects_bad_targets(tiny_problem):
    world = ReplayWorld(tiny_problem)
    with pytest.raises(ClusterStateError, match="unknown service"):
        world.apply(ServiceScale(0.0, "ghost", 2))
    with pytest.raises(ClusterStateError, match="must be positive"):
        world.apply(ServiceScale(0.0, "a", 0))


def test_traffic_shift_rescales_live_pair(tiny_problem):
    world = ReplayWorld(tiny_problem)
    before = world.qps[("a", "b")]
    world.apply(TrafficShift(0.0, "b", "a", 2.0))  # order-insensitive
    assert world.qps[("a", "b")] == pytest.approx(2.0 * before)
    assert world.state.problem.affinity.weight("a", "b") == pytest.approx(
        2.0 * before
    )
    with pytest.raises(ClusterStateError, match="no traffic recorded"):
        world.apply(TrafficShift(0.0, "a", "ghost", 2.0))
    with pytest.raises(ClusterStateError, match="must be positive"):
        world.apply(TrafficShift(0.0, "a", "b", 0.0))
    for factor in (float("nan"), float("inf")):
        with pytest.raises(ClusterStateError, match="factor must be positive"):
            world.apply(TrafficShift(0.0, "a", "b", factor))
    with pytest.raises(ClusterStateError, match="at_seconds must be finite"):
        world.apply(TrafficShift(float("nan"), "a", "b", 2.0))
    assert world.qps[("a", "b")] == pytest.approx(2.0 * before)


def test_rebuild_preserves_placement_and_clock(small_cluster):
    world = ReplayWorld(small_cluster.problem)
    world.state.advance(123.0)
    placement = world.state.placement.copy()
    u, v = max(world.qps, key=world.qps.get)
    world.apply(TrafficShift(0.0, u, v, 2.5))  # rebuilds, moves nothing
    assert np.array_equal(world.state.placement, placement)
    assert world.state.clock == pytest.approx(123.0)


def test_drain_evicts_and_replaces(tiny_problem):
    world = ReplayWorld(tiny_problem)
    state = world.state
    m = state.problem.machine_index("m0")
    world.apply(MachineDrain(0.0, "m0"))
    problem = state.problem
    assert "m0" in problem.machine_names()  # drained, not removed
    m = problem.machine_index("m0")
    assert state.placement[:, m].sum() == 0
    assert problem.capacities_matrix[m].sum() == 0.0
    # All demand fits on the two surviving machines.
    assert (state.placement.sum(axis=1) == problem.demands).all()
    with pytest.raises(ClusterStateError, match="already drained"):
        world.apply(MachineDrain(0.0, "m0"))


def test_reclaim_removes_machine(tiny_problem):
    world = ReplayWorld(tiny_problem)
    world.apply(SpotReclaim(0.0, "m2"))
    problem = world.state.problem
    assert "m2" not in problem.machine_names()
    assert (world.state.placement.sum(axis=1) == problem.demands).all()
    with pytest.raises(ClusterStateError, match="unknown machine"):
        world.apply(SpotReclaim(0.0, "m2"))


def test_reclaim_keeps_at_least_one_machine(tiny_problem):
    world = ReplayWorld(tiny_problem)
    world.apply(SpotReclaim(0.0, "m2"))
    world.apply(SpotReclaim(0.0, "m1"))
    with pytest.raises(ClusterStateError, match="last machine"):
        world.apply(SpotReclaim(0.0, "m0"))


def test_machine_add_rejects_duplicates(tiny_problem):
    world = ReplayWorld(tiny_problem)
    with pytest.raises(ClusterStateError, match="already exists"):
        world.apply(MachineAdd(0.0, "m0", {"cpu": 1.0, "memory": 1.0}))
    with pytest.raises(ClusterStateError, match="capacity must be finite"):
        world.apply(MachineAdd(0.0, "m9", {"cpu": float("nan"), "memory": 1.0}))
    assert "m9" not in world.state.problem.machine_names()


def test_schedulability_bans_survive_rebuilds(constrained_problem):
    """db is banned from m0; the ban must hold across structural churn."""
    world = ReplayWorld(constrained_problem)
    world.apply(MachineAdd(0.0, "m3", {"cpu": 16.0, "memory": 32.0}))
    world.apply(ServiceScale(0.0, "batch", 4))
    problem = world.state.problem
    i = problem.service_index("db")
    j = problem.machine_index("m0")
    assert not problem.schedulable[i, j]
    assert problem.schedulable[i, problem.machine_index("m3")]
    assert_feasible(world.state.assignment(), allow_partial=True)


# ----------------------------------------------------------------------
# EventTrace + cursor
# ----------------------------------------------------------------------
def test_trace_sorts_events_by_time(tiny_problem):
    late = ServiceScale(3600.0, "a", 5)
    early = TrafficShift(60.0, "a", "b", 1.1)
    trace = EventTrace(base=tiny_problem, events=[late, early])
    assert trace.events == [early, late]
    assert trace.duration_seconds == 3600.0
    assert trace.num_cycles(1800.0) == 3  # cycles at t=0, 1800, 3600


def test_empty_trace_counts_one_cycle(tiny_problem):
    trace = EventTrace(base=tiny_problem)
    assert trace.duration_seconds == 0.0
    assert trace.num_cycles() == 1


def test_cursor_applies_due_events_in_order(tiny_problem):
    trace = EventTrace(
        base=tiny_problem,
        events=[
            TrafficShift(100.0, "a", "b", 2.0),
            ServiceScale(200.0, "c", 3),
            ServiceScale(5000.0, "c", 1),
        ],
    )
    cursor = trace.cursor()
    assert cursor.pending == 3 and not cursor.exhausted

    assert cursor.advance_to(50.0) == []
    applied = cursor.advance_to(1800.0)
    assert len(applied) == 2
    assert applied[0].startswith("traffic")
    assert applied[1].startswith("scaled c")
    assert cursor.position == 2

    assert cursor.advance_to(1800.0) == []  # no rewind, no re-application
    assert len(cursor.advance_to(6000.0)) == 1
    assert cursor.exhausted


def test_cursor_does_not_step_over_a_failed_event(tiny_problem):
    trace = EventTrace(
        base=tiny_problem,
        events=[TrafficShift(10.0, "a", "b", 2.0), ServiceScale(20.0, "ghost", 2)],
    )
    for move in (lambda c: c.advance_to(1800.0), lambda c: c.seek(2)):
        cursor = trace.cursor()
        for _ in range(2):  # same failure on retry, as on a checkpoint resume
            with pytest.raises(ClusterStateError, match="unknown service"):
                move(cursor)
            assert cursor.position == 1


def test_events_only_cursor_walk_moves_no_containers(small_cluster):
    """Without the control loop a cursor only applies its events."""
    u, v = max(small_cluster.qps, key=small_cluster.qps.get)
    trace = EventTrace(
        base=small_cluster.problem, events=[TrafficShift(1800.0, u, v, 1.0)]
    )
    cursor = trace.cursor()
    placement = cursor.state.placement.copy()
    series = []
    for _ in range(3):
        cursor.advance_to(cursor.state.clock)
        series.append(cursor.state.assignment().gained_affinity(normalized=True))
        cursor.state.advance(trace.interval_seconds)
    assert cursor.exhausted
    assert np.array_equal(cursor.state.placement, placement)
    assert series[1:] == pytest.approx(series[:1] * 2)


def test_cursor_exposes_live_world(tiny_problem):
    trace = EventTrace(base=tiny_problem, events=[TrafficShift(10.0, "a", "b", 3.0)])
    cursor = trace.cursor()
    before = cursor.qps[("a", "b")]
    cursor.advance_to(10.0)
    assert cursor.qps[("a", "b")] == pytest.approx(3.0 * before)
    assert cursor.state is cursor.world.state


# ----------------------------------------------------------------------
# Synthesis
# ----------------------------------------------------------------------
def test_synthesize_is_seed_deterministic(small_trace):
    spec = ClusterSpec(
        name="replay-test",
        num_services=8,
        num_containers=32,
        num_machines=4,
        affinity_beta=2.0,
        seed=3,
    )
    again = synthesize_trace(
        spec, name="replay-test", seed=3,
        duration_seconds=6 * 1800.0, burst_every=2,
    )
    assert [e.to_dict() for e in again.events] == [
        e.to_dict() for e in small_trace.events
    ]
    assert np.array_equal(
        again.base.current_assignment, small_trace.base.current_assignment
    )


def test_synthesized_base_is_fully_placed(small_trace):
    base = small_trace.base
    assert base.current_assignment is not None
    assert (base.current_assignment.sum(axis=1) == base.demands).all()
    assert_feasible(
        EventTrace(base=base).cursor().state.assignment()
    )


def test_synthesized_trace_replays_structurally(small_trace):
    """Every event in the synthesized stream applies cleanly in order."""
    cursor = small_trace.cursor()
    applied = cursor.advance_to(small_trace.duration_seconds)
    assert cursor.exhausted
    assert len(applied) == len(small_trace.events)
    assert_feasible(cursor.state.assignment(), allow_partial=True)


# ----------------------------------------------------------------------
# Closed-loop determinism (the contract run_soak.py leans on)
# ----------------------------------------------------------------------
def test_replay_trace_is_bit_deterministic(small_trace):
    kwargs = dict(cycles=4, time_limit=None, seed=11)
    first = api.replay_trace(small_trace, **kwargs)
    second = api.replay_trace(small_trace, **kwargs)
    assert len(first) == 4
    assert first == second


def test_replay_reports_carry_event_descriptions(small_trace):
    reports = api.replay_trace(small_trace, cycles=4, time_limit=None)
    applied = [e for r in reports for e in r.events]
    due = [e for e in small_trace.events if e.at_seconds <= 3 * 1800.0]
    assert len(applied) == len(due)
    payload = reports[-1].to_dict()
    assert payload["events"] == reports[-1].events
    assert CycleReport.from_dict(payload).events == reports[-1].events


def test_every_chaos_replay_report_round_trips(small_trace):
    """``to_dict``/``from_dict`` derive from the dataclass fields: every
    report of a chaos replay (rungs, retries, flaps, events set) comes
    back equal, and the payload is the fields in order minus the
    process-local ``trace_id``, ``duration_seconds`` and ``gate``."""
    import dataclasses
    import json

    chaos = {"seed": 11, "command_failure_rate": 0.3,
             "machine_failure_rate": 0.2, "stale_snapshot_rate": 0.2}
    reports = api.replay_trace(
        small_trace, time_limit=None, faults=chaos, traffic_jitter_sigma=0.05
    )
    assert any(r.rungs for r in reports) and any(r.events for r in reports)
    assert any(r.machine_failures for r in reports)
    local = {"trace_id", "duration_seconds", "gate"}
    wire = [f.name for f in dataclasses.fields(CycleReport) if f.name not in local]
    for report in reports:
        payload = report.to_dict()
        assert list(payload) == ["schema_version", *wire] and len(wire) == 16
        assert CycleReport.from_dict(json.loads(json.dumps(payload))) == report


def test_replay_recovers_from_scale_and_traffic_churn(small_cluster):
    problem = small_cluster.problem
    busiest = problem.affinity.services_by_total_affinity()[0][0]
    demand = problem.services[problem.service_index(busiest)].demand
    u, v = max(small_cluster.qps, key=small_cluster.qps.get)
    trace = EventTrace(
        base=problem,
        events=[
            ServiceScale(1800.0 * 2, busiest, demand + 4),
            TrafficShift(1800.0 * 3, u, v, 2.0),
        ],
    )
    reports = api.replay_trace(trace, cycles=5, time_limit=5)
    assert len(reports) == 5
    assert reports[0].action == "executed"
    # The loop keeps gained affinity high through churn.
    assert reports[-1].gained_after > 0.6
    # Events are recorded on the cycle whose clock they fall due at.
    assert [len(r.events) for r in reports] == [0, 0, 1, 1, 0]
    assert reports[2].events[0].startswith(f"scaled {busiest}")
    assert reports[3].events[0].startswith("traffic")


def test_zero_rate_fault_plan_does_not_perturb_replay(small_trace):
    without = api.replay_trace(small_trace, cycles=4, time_limit=None, seed=5)
    zeroed = api.replay_trace(
        small_trace, cycles=4, time_limit=None, seed=5, faults={"seed": 99}
    )
    assert without == zeroed


@pytest.mark.slow
def test_replay_deterministic_across_worker_counts(small_trace, monkeypatch):
    """Unbudgeted cycles solved one shard at a time and on four threads
    replay to the same reports."""
    monkeypatch.setattr("repro.core.rasa.available_cpus", lambda: 1)
    serial = api.replay_trace(
        small_trace, cycles=4, time_limit=None, seed=5,
        config=RASAConfig(max_subproblem_services=4),
    )
    monkeypatch.setattr("repro.core.rasa.available_cpus", lambda: 4)
    parallel = api.replay_trace(
        small_trace, cycles=4, time_limit=None, seed=5,
        config=RASAConfig(max_subproblem_services=4),
    )
    assert serial == parallel
