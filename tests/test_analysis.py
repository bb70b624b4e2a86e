"""Unit tests for the analytics module."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    affinity_cdf,
    churn_between,
    pair_localization_table,
    placement_metrics,
)
from repro.core import Assignment


def test_placement_metrics_on_perfect_collocation(tiny_problem):
    x = np.array([[4, 0, 0], [4, 0, 0], [2, 0, 0]])
    metrics = placement_metrics(Assignment(tiny_problem, x))
    assert metrics.gained_affinity == pytest.approx(1.0)
    assert metrics.localized_pairs == 2
    assert metrics.remote_pairs == 0
    assert metrics.unplaced_containers == 0


def test_placement_metrics_counts_partial_and_remote(tiny_problem):
    # (a,b): min(2/4,2/4) on two machines -> fully localized;
    # (b,c): no shared machine -> remote.
    x = np.array([[2, 2, 0], [2, 2, 0], [0, 0, 2]])
    metrics = placement_metrics(Assignment(tiny_problem, x))
    assert metrics.localized_pairs == 1
    assert metrics.remote_pairs == 1
    # Put half of c next to b on m1: (b,c) becomes partially localized.
    y = np.array([[2, 2, 0], [2, 2, 0], [0, 1, 1]])
    metrics = placement_metrics(Assignment(tiny_problem, y))
    assert metrics.partially_localized_pairs == 1


def test_placement_metrics_unplaced(tiny_problem):
    metrics = placement_metrics(Assignment.empty(tiny_problem))
    assert metrics.unplaced_containers == tiny_problem.num_containers
    assert metrics.gained_affinity == 0.0


def test_pair_localization_table_sorted(tiny_problem):
    x = np.array([[4, 0, 0], [4, 0, 0], [0, 0, 2]])
    rows = pair_localization_table(Assignment(tiny_problem, x))
    weights = [w for _u, _v, w, _r in rows]
    assert weights == sorted(weights, reverse=True)
    top = pair_localization_table(Assignment(tiny_problem, x), top=1)
    assert len(top) == 1
    assert top[0][3] == pytest.approx(1.0)


def test_churn_between(tiny_problem):
    a = Assignment(tiny_problem, np.array([[4, 0, 0], [0, 4, 0], [0, 0, 2]]))
    b = Assignment(tiny_problem, np.array([[0, 4, 0], [0, 4, 0], [0, 0, 2]]))
    assert churn_between(a, b) == pytest.approx(4 / 10)
    assert churn_between(a, a) == 0.0


def test_affinity_cdf_monotone(small_cluster):
    cdf = affinity_cdf(small_cluster.problem)
    assert cdf.size > 0
    assert (np.diff(cdf) >= -1e-12).all()
    assert cdf[-1] == pytest.approx(1.0)
    # Skew: the top 20 % of services carry well over half the affinity mass.
    top = max(1, int(cdf.size * 0.2))
    assert cdf[top - 1] > 0.5
