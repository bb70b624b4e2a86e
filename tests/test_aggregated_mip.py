"""Unit tests for the group-aggregated Eq. 2–9 model (``build_rasa_model`` over
``group_machines``)."""

from __future__ import annotations

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
