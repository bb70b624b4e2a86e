"""Unit tests for the greedy packing portfolio and its building blocks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Assignment, Machine, RASAProblem, Service
from repro.solvers import GreedyAlgorithm, repair_unplaced
from repro.solvers.greedy import (
    PackingState,
    group_growth_seed,
    neighbor_table,
    proportional_cluster_seed,
    service_order,
)


def test_packing_state_tracks_free_resources(tiny_problem):
    state = PackingState(tiny_problem)
    cpu = tiny_problem.resource_types.index("cpu")
    before = state.free[0, cpu]
    state.place(0, 0)
    assert state.free[0, cpu] == pytest.approx(before - 2.0)
    state.remove(0, 0)
    assert state.free[0, cpu] == pytest.approx(before)


def test_packing_state_feasibility_respects_resources():
    problem = RASAProblem(
        [Service("a", 4, {"cpu": 4.0})], [Machine("m", {"cpu": 8.0})]
    )
    state = PackingState(problem)
    assert state.feasible_machines(0).tolist() == [True]
    state.place(0, 0)
    state.place(0, 0)
    assert state.feasible_machines(0).tolist() == [False]


def test_packing_state_respects_anti_affinity(constrained_problem):
    state = PackingState(constrained_problem)
    web = constrained_problem.service_index("web")
    state.place(web, 0)
    state.place(web, 0)
    assert not state.feasible_machines(web)[0]  # limit 2 reached on m0
    assert state.feasible_machines(web)[1]


def test_packing_state_respects_schedulability(constrained_problem):
    state = PackingState(constrained_problem)
    db = constrained_problem.service_index("db")
    assert not state.feasible_machines(db)[0]  # db barred from m0


def test_feasible_machines_subset_matches_full_mask(constrained_problem):
    state = PackingState(constrained_problem)
    web = constrained_problem.service_index("web")
    state.place(web, 0)
    state.place(web, 0)  # rule limit reached on m0
    for s in range(constrained_problem.num_services):
        full = state.feasible_machines(s)
        for m in range(constrained_problem.num_machines):
            assert state.feasible_machines(s, m) == full[m]
        picked = np.array([2, 0])
        assert state.feasible_machines(s, picked).tolist() == full[picked].tolist()
    # Asking must not write through to the problem's schedulability matrix.
    assert constrained_problem.schedulable[web, 0]


def test_affinity_delta_matches_objective_change(tiny_problem):
    state = PackingState(tiny_problem)
    neighbors = neighbor_table(tiny_problem)
    a = tiny_problem.service_index("a")
    b = tiny_problem.service_index("b")
    state.place(b, 0)
    before = Assignment(tiny_problem, state.x).gained_affinity()
    delta = state.affinity_delta(a, neighbors[a])
    state.place(a, 0)
    after = Assignment(tiny_problem, state.x).gained_affinity()
    assert delta[0] == pytest.approx(after - before)


def test_service_order_is_affinity_descending(tiny_problem):
    order = service_order(tiny_problem)
    totals = [
        tiny_problem.affinity.total_affinity_of(tiny_problem.services[i].name)
        for i in order
    ]
    assert totals == sorted(totals, reverse=True)


def test_greedy_places_all_containers(tiny_problem):
    result = GreedyAlgorithm().solve(tiny_problem)
    assert result.assignment.x.sum() == tiny_problem.num_containers
    assert result.assignment.check_feasibility().feasible


def test_greedy_prefers_collocation(tiny_problem):
    result = GreedyAlgorithm().solve(tiny_problem)
    # The heavy (a, b) edge should be fully or mostly localized.
    assert result.assignment.localization_ratio("a", "b") >= 0.75


def test_greedy_portfolio_at_least_as_good_as_each_strategy(small_cluster):
    problem = small_cluster.problem
    portfolio = GreedyAlgorithm().solve(problem).objective
    for strategy in ("fill", "proportional", "group"):
        single = GreedyAlgorithm(strategies=(strategy,)).solve(problem).objective
        assert portfolio >= single - 1e-9


def test_greedy_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        GreedyAlgorithm(strategies=("magic",))


def test_proportional_seed_localizes_balanced_pair():
    # Two services with equal demands larger than one machine: proportional
    # slices across machines localize 100 % of the traffic.
    services = [
        Service("a", 8, {"cpu": 4.0}),
        Service("b", 8, {"cpu": 4.0}),
    ]
    machines = [Machine(f"m{i}", {"cpu": 16.0}) for i in range(4)]
    problem = RASAProblem(services, machines, affinity={("a", "b"): 1.0})
    state = PackingState(problem)
    proportional_cluster_seed(problem, state)
    assignment = Assignment(problem, state.x)
    assert assignment.localization_ratio("a", "b") == pytest.approx(1.0)


def test_group_growth_seed_packs_group_on_one_machine():
    services = [
        Service("a", 2, {"cpu": 2.0}),
        Service("b", 2, {"cpu": 2.0}),
    ]
    machines = [Machine(f"m{i}", {"cpu": 16.0}) for i in range(2)]
    problem = RASAProblem(services, machines, affinity={("a", "b"): 5.0})
    state = PackingState(problem)
    group_growth_seed(problem, state)
    # Both services fit one machine entirely.
    used = np.nonzero(state.x.sum(axis=0))[0]
    assert len(used) == 1
    assert state.x[:, used[0]].tolist() == [2, 2]


def test_repair_unplaced_completes_partial_assignment(tiny_problem):
    partial = np.zeros((3, 3), dtype=np.int64)
    partial[0, 0] = 2  # half of service a
    repaired = repair_unplaced(tiny_problem, partial)
    assert repaired.sum() == tiny_problem.num_containers
    # Existing placements are preserved.
    assert repaired[0, 0] >= 2


def test_repair_unplaced_is_noop_on_complete_assignment(tiny_problem):
    full = GreedyAlgorithm().solve(tiny_problem).assignment.x
    assert np.array_equal(repair_unplaced(tiny_problem, full), full)
