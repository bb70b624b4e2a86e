"""Integration tests: paper baselines and the full RASA pipeline."""

from __future__ import annotations

import pytest

from repro.baselines import (
    ApplSci19Algorithm,
    K8sPlusAlgorithm,
    OriginalAlgorithm,
    POPAlgorithm,
)
from repro.core import Assignment, RASAScheduler
from repro.partitioning import NoPartitioner
from repro.selection import FixedSelector

ALL_BASELINES = [
    OriginalAlgorithm,
    K8sPlusAlgorithm,
    ApplSci19Algorithm,
    POPAlgorithm,
]


@pytest.mark.parametrize("algorithm_cls", ALL_BASELINES)
def test_baselines_produce_valid_placements(small_cluster, algorithm_cls):
    problem = small_cluster.problem
    result = algorithm_cls().solve(problem, time_limit=8)
    report = result.assignment.check_feasibility(check_sla=False)
    assert report.feasible, f"{algorithm_cls.__name__}: {report.summary()}"
    assert 0.0 <= result.objective <= problem.affinity.total_affinity + 1e-6
    # SLA: near-complete placement (failed deployments are tolerated but rare).
    placed = result.assignment.x.sum()
    assert placed >= 0.95 * problem.num_containers


def test_k8s_plus_beats_original(small_cluster):
    problem = small_cluster.problem
    original = OriginalAlgorithm().solve(problem)
    k8s = K8sPlusAlgorithm().solve(problem)
    assert k8s.objective > original.objective


def test_rasa_beats_every_baseline(medium_cluster):
    problem = medium_cluster.problem
    rasa = RASAScheduler().schedule(problem, time_limit=10)
    for algorithm_cls in ALL_BASELINES:
        baseline = algorithm_cls().solve(problem, time_limit=10)
        normalized = baseline.objective / problem.affinity.total_affinity
        assert rasa.gained_affinity >= normalized - 1e-9, algorithm_cls.__name__


def test_rasa_result_feasible_and_improving(small_cluster):
    problem = small_cluster.problem
    original = Assignment(problem, problem.current_assignment)
    result = RASAScheduler().schedule(problem, time_limit=8)
    report = result.assignment.check_feasibility()
    assert report.feasible, report.summary()
    assert result.gained_affinity > original.gained_affinity(normalized=True)
    assert 0.0 <= result.gained_affinity <= 1.0


def test_rasa_reports_selected_algorithms(small_cluster):
    result = RASAScheduler().schedule(small_cluster.problem, time_limit=8)
    assert result.reports
    for report in result.reports:
        assert report.selected_algorithm in ("cg", "mip")
        assert report.result.runtime_seconds >= 0.0


def test_rasa_respects_time_limit_loosely(medium_cluster):
    import time

    start = time.monotonic()
    RASAScheduler().schedule(medium_cluster.problem, time_limit=5)
    elapsed = time.monotonic() - start
    # Solver granularity means slight overshoot; 4x is a regression guard.
    assert elapsed < 20.0


def test_rasa_with_fixed_mip_selector(small_cluster):
    scheduler = RASAScheduler(selector=FixedSelector("mip"))
    result = scheduler.schedule(small_cluster.problem, time_limit=8)
    assert all(r.selected_algorithm == "mip" for r in result.reports)


def test_rasa_no_partition_on_tiny(tiny_problem):
    scheduler = RASAScheduler(partitioner=NoPartitioner())
    result = scheduler.schedule(tiny_problem, time_limit=20)
    assert result.gained_affinity == pytest.approx(1.0)


def test_applsci19_groups_fit_reference_machine(small_cluster):
    problem = small_cluster.problem
    algo = ApplSci19Algorithm()
    groups = algo._grow_groups(problem)
    flat = sorted(s for g in groups for s in g)
    assert flat == list(range(problem.num_services))
    reference = problem.capacities_matrix.mean(axis=0) * algo.group_fill
    for group in groups:
        load = (
            problem.requests_matrix[group] * problem.demands[group, None]
        ).sum(axis=0)
        if len(group) > 1:
            assert (load <= reference + 1e-9).all()
