"""Unit tests for the local-search improvement pass."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Assignment, Machine, RASAConfig, RASAProblem, RASAScheduler, Service
from repro.solvers import GreedyAlgorithm, LocalSearchImprover


def test_local_search_never_degrades(small_cluster):
    problem = small_cluster.problem
    seed = GreedyAlgorithm(strategies=("fill",)).solve(problem)
    improved = LocalSearchImprover().improve(problem, seed.assignment, time_limit=5)
    assert improved.gained_affinity() >= seed.objective - 1e-9


def test_local_search_preserves_feasibility(small_cluster):
    problem = small_cluster.problem
    seed = GreedyAlgorithm().solve(problem)
    improved = LocalSearchImprover().improve(problem, seed.assignment, time_limit=5)
    report = improved.check_feasibility(check_sla=False)
    assert report.feasible, report.summary()
    # Containers are moved, never created or destroyed.
    assert improved.x.sum() == seed.assignment.x.sum()


def test_local_search_fixes_obviously_bad_placement():
    # a and b have affinity but start on different machines; one move fixes it.
    services = [Service("a", 2, {"cpu": 1.0}), Service("b", 2, {"cpu": 1.0})]
    machines = [Machine("m0", {"cpu": 8.0}), Machine("m1", {"cpu": 8.0})]
    problem = RASAProblem(services, machines, affinity={("a", "b"): 1.0})
    bad = Assignment(problem, np.array([[2, 0], [0, 2]]))
    assert bad.gained_affinity() == 0.0
    improved = LocalSearchImprover().improve(problem, bad)
    assert improved.gained_affinity() == pytest.approx(1.0)


def test_local_search_noop_on_optimum():
    # A capacity-feasible full-affinity optimum: nothing to improve.
    services = [Service("a", 2, {"cpu": 1.0}), Service("b", 2, {"cpu": 1.0})]
    machines = [Machine("m0", {"cpu": 8.0}), Machine("m1", {"cpu": 8.0})]
    problem = RASAProblem(services, machines, affinity={("a", "b"): 1.0})
    optimal = Assignment(problem, np.array([[2, 0], [2, 0]]))
    assert optimal.gained_affinity() == pytest.approx(1.0)
    improved = LocalSearchImprover().improve(problem, optimal)
    assert improved.gained_affinity() == pytest.approx(1.0)


def test_local_search_algorithm_wrapper(small_cluster):
    """The greedy portfolio's placement, polished, never falls below it."""
    problem = small_cluster.problem
    greedy = GreedyAlgorithm().solve(problem, time_limit=8)
    polished = LocalSearchImprover().improve(problem, greedy.assignment, time_limit=8)
    assert polished.gained_affinity() >= greedy.objective - 1e-9


def test_rasa_with_local_search_polish(small_cluster):
    base = RASAScheduler().schedule(small_cluster.problem, time_limit=6)
    polished = RASAScheduler(
        config=RASAConfig(local_search_seconds=2.0)
    ).schedule(small_cluster.problem, time_limit=6)
    assert polished.gained_affinity >= base.gained_affinity - 0.02
    report = polished.assignment.check_feasibility()
    assert report.feasible, report.summary()
