"""Unit tests for the cluster simulator: state, scheduler, collector, network."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import assert_books_match_verifier

from repro.cluster import (
    ClusterState,
    DataCollector,
    DefaultScheduler,
    NetworkParameters,
    NetworkSimulator,
    affinity_score,
    normalize_series,
    relative_improvement,
)
from repro.core import Assignment
from repro.exceptions import ClusterStateError


# ----------------------------------------------------------------------
# ClusterState
# ----------------------------------------------------------------------
def test_state_initializes_from_current_assignment(small_cluster):
    state = ClusterState(small_cluster.problem)
    assert np.array_equal(state.placement, small_cluster.problem.current_assignment)


def test_state_create_and_delete(tiny_problem):
    state = ClusterState(tiny_problem, placement=np.zeros((3, 3), dtype=np.int64))
    state.create_container("a", "m0")
    assert state.placement[0, 0] == 1
    state.delete_container("a", "m0")
    assert state.placement[0, 0] == 0


def test_state_delete_absent_raises(tiny_problem):
    state = ClusterState(tiny_problem, placement=np.zeros((3, 3), dtype=np.int64))
    with pytest.raises(ClusterStateError):
        state.delete_container("a", "m0")


def test_state_create_respects_capacity():
    from repro.core import Machine, RASAProblem, Service

    problem = RASAProblem(
        [Service("a", 4, {"cpu": 4.0})], [Machine("m", {"cpu": 8.0})]
    )
    state = ClusterState(problem, placement=np.zeros((1, 1), dtype=np.int64))
    state.create_container("a", "m")
    state.create_container("a", "m")
    with pytest.raises(ClusterStateError):
        state.create_container("a", "m")


def test_state_create_respects_schedulability(constrained_problem):
    state = ClusterState(
        constrained_problem, placement=np.zeros((3, 3), dtype=np.int64)
    )
    with pytest.raises(ClusterStateError):
        state.create_container("db", "m0")


def test_state_create_respects_anti_affinity(constrained_problem):
    state = ClusterState(
        constrained_problem, placement=np.zeros((3, 3), dtype=np.int64)
    )
    state.create_container("web", "m0")
    state.create_container("web", "m0")
    with pytest.raises(ClusterStateError):
        state.create_container("web", "m0")


def test_state_clock_and_unschedulable_tags(tiny_problem):
    state = ClusterState(tiny_problem)
    state.mark_unschedulable("m0", until=100.0)
    assert not state.is_schedulable_machine("m0")
    state.advance(150.0)
    assert state.is_schedulable_machine("m0")
    with pytest.raises(ClusterStateError):
        state.advance(-1.0)


def test_state_utilization_and_imbalance(tiny_problem):
    x = np.array([[4, 0, 0], [4, 0, 0], [2, 0, 0]], dtype=np.int64)
    state = ClusterState(tiny_problem, placement=x)
    assert state.utilization_imbalance() > 0
    balanced = ClusterState(tiny_problem, placement=np.zeros((3, 3), dtype=np.int64))
    assert balanced.utilization_imbalance() == 0.0


def test_state_restore(tiny_problem):
    state = ClusterState(tiny_problem, placement=np.zeros((3, 3), dtype=np.int64))
    snapshot = state.placement
    state.create_container("a", "m0")
    state.restore(snapshot)
    assert state.placement.sum() == 0
    assert_books_match_verifier(state)
    state.create_container("a", "m0")  # the rebuilt books keep counting
    assert_books_match_verifier(state)
    with pytest.raises(ClusterStateError):
        state.restore(np.zeros((2, 2), dtype=np.int64))


def test_named_placement_roundtrip(small_cluster):
    state = ClusterState(small_cluster.problem)
    captured = state.named_placement()
    assert captured  # the generated cluster ships a current assignment
    other = ClusterState(
        small_cluster.problem,
        placement=np.zeros_like(state.placement),
    )
    other.restore_named(captured)
    assert (other.placement == state.placement).all()
    assert other.named_placement() == captured
    assert_books_match_verifier(other)


def test_named_placement_omits_zero_counts(tiny_problem):
    state = ClusterState(tiny_problem, placement=np.zeros((3, 3), dtype=np.int64))
    state.create_container("a", "m0")
    assert state.named_placement() == {"a": {"m0": 1}}


def test_restore_named_rejects_torn_down_service(tiny_problem):
    state = ClusterState(tiny_problem, placement=np.zeros((3, 3), dtype=np.int64))
    with pytest.raises(ClusterStateError, match="torn down"):
        state.restore_named({"ghost": {"m0": 1}})


def test_restore_named_rejects_reclaimed_machine(tiny_problem):
    state = ClusterState(tiny_problem, placement=np.zeros((3, 3), dtype=np.int64))
    with pytest.raises(ClusterStateError, match="reclaimed"):
        state.restore_named({"a": {"m-gone": 1}})


def test_restore_named_never_partially_mutates(small_cluster):
    state = ClusterState(small_cluster.problem)
    before = state.placement
    capture = state.named_placement()
    capture["ghost"] = {"m-gone": 1}  # divergent entry sorts after real ones
    with pytest.raises(ClusterStateError):
        state.restore_named(capture)
    assert (state.placement == before).all()


def test_restore_named_zeroes_services_missing_from_capture(tiny_problem):
    # A service deployed between checkpoint and resume is absent from the
    # capture: it restores to zero containers (the default scheduler
    # re-places it) instead of raising.
    state = ClusterState(tiny_problem)
    state.restore_named({"a": {"m0": 4}})
    assert state.named_placement() == {"a": {"m0": 4}}


def test_restore_named_handles_drained_machine(tiny_problem):
    # A machine still in the cluster but absent from every capture row
    # (drained before the checkpoint) simply restores empty.
    state = ClusterState(tiny_problem)
    state.restore_named({"a": {"m1": 4}, "b": {"m1": 4}})
    placement = state.placement
    machines = [m.name for m in tiny_problem.machines]
    assert placement[:, machines.index("m0")].sum() == 0
    assert placement[:, machines.index("m2")].sum() == 0


# ----------------------------------------------------------------------
# DefaultScheduler
# ----------------------------------------------------------------------
def test_scheduler_filter_excludes_tagged_machines(tiny_problem):
    state = ClusterState(tiny_problem, placement=np.zeros((3, 3), dtype=np.int64))
    state.mark_unschedulable("m0", until=1e9)
    scheduler = DefaultScheduler()
    mask = scheduler.filter(state, 0)
    assert not mask[0]
    assert mask[1] and mask[2]


def test_scheduler_place_one_and_missing(tiny_problem):
    state = ClusterState(tiny_problem, placement=np.zeros((3, 3), dtype=np.int64))
    scheduler = DefaultScheduler()
    machine = scheduler.place_one(state, "a")
    assert machine in tiny_problem.machine_names()
    placed = scheduler.place_missing(state)
    assert placed == tiny_problem.num_containers - 1
    assert Assignment(tiny_problem, state.placement).check_feasibility().feasible


def test_affinity_score_prefers_collocated_machine(tiny_problem):
    x = np.zeros((3, 3), dtype=np.int64)
    x[1, 2] = 4  # all of b on m2
    state = ClusterState(tiny_problem, placement=x)
    scores = affinity_score(state, tiny_problem.service_index("a"), np.ones(3, bool))
    assert scores[2] > scores[0]
    assert scores[2] > scores[1]


def test_affinity_score_zero_for_isolated_service(tiny_problem):
    state = ClusterState(tiny_problem, placement=np.zeros((3, 3), dtype=np.int64))
    # Service c has only the edge to b; a service with no edges scores 0.
    from repro.core import Machine, RASAProblem, Service

    problem = RASAProblem(
        [Service("lonely", 1, {"cpu": 1.0})], [Machine("m", {"cpu": 8.0})]
    )
    lonely_state = ClusterState(problem, placement=np.zeros((1, 1), dtype=np.int64))
    assert affinity_score(lonely_state, 0, np.ones(1, bool)).tolist() == [0.0]


# ----------------------------------------------------------------------
# DataCollector
# ----------------------------------------------------------------------
def test_collector_snapshot_carries_placement_and_traffic(small_cluster):
    state = ClusterState(small_cluster.problem)
    collector = DataCollector(small_cluster.qps, traffic_jitter_sigma=0.0)
    problem = collector.collect(state)
    assert np.array_equal(problem.current_assignment, state.placement)
    for pair, volume in small_cluster.qps.items():
        assert problem.affinity.weight(*pair) == pytest.approx(volume)


def test_collector_jitter_changes_weights(small_cluster):
    state = ClusterState(small_cluster.problem)
    collector = DataCollector(small_cluster.qps, traffic_jitter_sigma=0.2, seed=1)
    problem = collector.collect(state)
    diffs = [
        abs(problem.affinity.weight(*pair) - volume)
        for pair, volume in small_cluster.qps.items()
    ]
    assert max(diffs) > 0


def test_collector_masks_tagged_machines(small_cluster):
    state = ClusterState(small_cluster.problem)
    name = small_cluster.problem.machines[0].name
    state.mark_unschedulable(name, until=1e9)
    collector = DataCollector(small_cluster.qps)
    problem = collector.collect(state)
    assert not problem.schedulable[:, 0].any()


# ----------------------------------------------------------------------
# NetworkSimulator
# ----------------------------------------------------------------------
def test_full_localization_is_faster_and_cleaner(tiny_problem):
    simulator = NetworkSimulator(seed=0)
    local = simulator.pair_series(
        ("a", "b"), 1.0, 100.0, 64, np.random.default_rng(0)
    )
    remote = simulator.pair_series(
        ("a", "b"), 0.0, 100.0, 64, np.random.default_rng(0)
    )
    assert local.mean_latency() < remote.mean_latency()
    assert local.mean_error_rate() < remote.mean_error_rate()


def test_full_localization_matches_ipc_constants():
    params = NetworkParameters()
    simulator = NetworkSimulator(params, seed=0)
    series = simulator.pair_series(("a", "b"), 1.0, 10.0, 16, np.random.default_rng(0))
    assert np.allclose(series.latency_ms, params.ipc_latency_ms)


def test_report_weighted_aggregate(tiny_problem):
    x = np.array([[4, 0, 0], [4, 0, 0], [0, 0, 2]], dtype=np.int64)
    assignment = Assignment(tiny_problem, x)
    qps = {("a", "b"): 100.0, ("b", "c"): 10.0}
    simulator = NetworkSimulator(seed=0)
    with_report = simulator.report("with", assignment, qps, num_windows=32)
    upper = simulator.report("upper", assignment, qps, num_windows=32, only_collocated=True)
    assert len(with_report.pairs) == 2
    assert with_report.weighted_latency_ms.shape == (32,)
    # The only-collocated upper bound dominates.
    assert upper.weighted_latency_ms.mean() <= with_report.weighted_latency_ms.mean()


def test_normalize_series_joint_peak():
    a, b = normalize_series(np.array([1.0, 2.0]), np.array([4.0]))
    assert b.max() == pytest.approx(1.0)
    assert a.max() == pytest.approx(0.5)


def test_relative_improvement_edges():
    assert relative_improvement(10.0, 5.0) == pytest.approx(0.5)
    assert relative_improvement(0.0, 5.0) == 0.0
