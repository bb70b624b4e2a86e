"""Unit tests for algorithm selection: labeling and selector policies."""

from __future__ import annotations

import pytest

from repro.partitioning import MultiStagePartitioner
from repro.selection import (
    FixedSelector,
    GCNSelector,
    HeuristicSelector,
    MLPSelector,
    label_subproblem,
    sample_subproblems,
    selection_accuracy,
)
from repro.ml import build_feature_graph


@pytest.fixture(scope="module")
def labeled(small_cluster_module):
    subs = sample_subproblems([small_cluster_module], per_cluster=6, seed=0)
    examples = [label_subproblem(s, time_limit=1.0) for s in subs]
    return subs, examples


@pytest.fixture(scope="module")
def small_cluster_module():
    from repro.workloads import ClusterSpec, generate_cluster

    return generate_cluster(
        ClusterSpec(
            name="sel-test",
            num_services=50,
            num_containers=220,
            num_machines=12,
            affinity_beta=2.0,
            seed=11,
        )
    )


def test_fixed_selector_returns_its_label(small_cluster):
    result = MultiStagePartitioner().partition(small_cluster.problem)
    sub = result.subproblems[0]
    assert FixedSelector("cg").select(sub) == "cg"
    assert FixedSelector("mip").select(sub) == "mip"


def test_fixed_selector_validates_label():
    with pytest.raises(ValueError):
        FixedSelector("simulated-annealing")


def test_heuristic_selector_returns_valid_label(small_cluster):
    result = MultiStagePartitioner().partition(small_cluster.problem)
    for sub in result.subproblems:
        assert HeuristicSelector().select(sub) in ("cg", "mip")


def test_labeling_race_produces_consistent_example(labeled):
    subs, examples = labeled
    for sub, example in zip(subs, examples):
        assert example.label in ("cg", "mip")
        # The label matches the better objective (ties go to CG).
        if example.label == "mip":
            assert example.mip_objective > example.cg_objective
        else:
            assert example.cg_objective >= example.mip_objective - 1e-9
        assert example.graph.num_services == sub.num_services


def test_sample_subproblems_deterministic(small_cluster):
    a = sample_subproblems([small_cluster], per_cluster=4, seed=3)
    b = sample_subproblems([small_cluster], per_cluster=4, seed=3)
    assert [s.service_names for s in a] == [s.service_names for s in b]


def test_trained_selectors_beat_coin_flip(labeled):
    subs, examples = labeled
    gcn = GCNSelector.train(examples, epochs=120, seed=0)
    mlp = MLPSelector.train(examples, epochs=150, seed=0)
    majority = max(
        ("cg", "mip"),
        key=lambda l: sum(e.label == l for e in examples),
    )
    majority_acc = sum(e.label == majority for e in examples) / len(examples)
    assert selection_accuracy(gcn, examples, subs) >= majority_acc - 1e-9
    assert selection_accuracy(mlp, examples, subs) >= 0.5


def test_selection_accuracy_empty_is_zero():
    assert selection_accuracy(HeuristicSelector(), [], []) == 0.0


def test_selectors_share_labels_with_classifier(labeled):
    subs, examples = labeled
    gcn = GCNSelector.train(examples, epochs=50, seed=1)
    for sub in subs[:3]:
        label = gcn.select(sub)
        assert label in ("cg", "mip")
        assert label == gcn.model.predict(build_feature_graph(sub))
