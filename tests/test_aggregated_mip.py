"""Unit tests for the variable-aggregated MIP algorithm."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Machine, RASAProblem, Service
from repro.solvers import MIPAlgorithm
from repro.solvers.aggregated_mip import AggregatedMIPAlgorithm, deaggregate
from repro.solvers.mip import ModelLayout, build_rasa_model
from repro.solvers.patterns import group_machines


def test_aggregated_layout_skips_unschedulable(constrained_problem):
    groups = group_machines(constrained_problem)
    layout = ModelLayout(constrained_problem, groups)
    db = constrained_problem.service_index("db")
    # db is barred from m0's group.
    barred_groups = [
        g for g, group in enumerate(groups) if not group.schedulable[db]
    ]
    assert barred_groups
    for g in barred_groups:
        assert (db, g) not in layout.x_index


def test_aggregated_model_is_smaller_than_flat(medium_cluster):
    problem = medium_cluster.problem
    groups = group_machines(problem)
    flat_model, _ = build_rasa_model(problem)
    agg_model, _ = build_rasa_model(problem, groups)
    assert agg_model.num_variables < flat_model.num_variables
    # The reduction factor is roughly machines-per-group.
    assert agg_model.num_variables * 2 < flat_model.num_variables


def test_aggregated_matches_flat_on_tiny(tiny_problem):
    flat = MIPAlgorithm().solve(tiny_problem, time_limit=30)
    agg = AggregatedMIPAlgorithm().solve(tiny_problem, time_limit=30)
    # Homogeneous machines: aggregation is lossless up to rounding, and the
    # tiny instance rounds exactly.
    assert agg.objective == pytest.approx(flat.objective, rel=1e-6)
    assert agg.assignment.check_feasibility().feasible


def test_aggregated_respects_constraints(constrained_problem):
    result = AggregatedMIPAlgorithm().solve(constrained_problem, time_limit=30)
    report = result.assignment.check_feasibility()
    assert report.feasible, report.summary()


def test_aggregated_is_much_faster_on_cluster(medium_cluster):
    problem = medium_cluster.problem
    agg = AggregatedMIPAlgorithm().solve(problem, time_limit=20)
    assert agg.runtime_seconds < 10.0
    assert agg.assignment.check_feasibility(check_sla=False).feasible
    # Quality within striking distance of the greedy-floored flat MIP run
    # at the same budget (exact value depends on HiGHS time slicing).
    total = problem.affinity.total_affinity
    assert agg.objective / total > 0.4


def test_deaggregation_even_split_exact():
    # Two identical machines, one pair needing both: quotas 2+2 / 2+2.
    services = [Service("a", 4, {"cpu": 2.0}), Service("b", 4, {"cpu": 2.0})]
    machines = [Machine(f"m{i}", {"cpu": 8.0}) for i in range(2)]
    problem = RASAProblem(services, machines, affinity={("a", "b"): 1.0})
    groups = group_machines(problem)
    assert len(groups) == 1 and groups[0].count == 2
    _model, layout = build_rasa_model(problem, groups)
    solution = np.zeros(layout.num_variables)
    solution[layout.x_index[(0, 0)]] = 4
    solution[layout.x_index[(1, 0)]] = 4
    x = deaggregate(problem, groups, layout, solution)
    assert x.tolist() == [[2, 2], [2, 2]]


def test_aggregated_handles_no_schedulable():
    problem = RASAProblem(
        [Service("a", 2, {"cpu": 1.0})],
        [Machine("m", {"cpu": 8.0})],
        schedulable=np.zeros((1, 1), dtype=bool),
    )
    result = AggregatedMIPAlgorithm().solve(problem, time_limit=5)
    assert result.status == "no_variables"
    assert result.assignment.x.sum() == 0
