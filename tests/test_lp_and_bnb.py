"""Unit tests for the LP substrate and the branch-and-bound MILP solver."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro.exceptions import SolverError
from repro.solvers import BranchAndBoundSolver, LinearModel, solve_lp, solve_milp


def _knapsack_model(values, weights, capacity, binary=True):
    """max values @ x s.t. weights @ x <= capacity, x binary/integer."""
    n = len(values)
    return LinearModel(
        c=-np.asarray(values, dtype=float),
        a_ub=sparse.csr_matrix(np.asarray(weights, dtype=float).reshape(1, n)),
        b_ub=np.array([float(capacity)]),
        lb=np.zeros(n),
        ub=np.ones(n) if binary else np.full(n, np.inf),
        integrality=np.ones(n, dtype=bool),
    )


def test_linear_model_validates_bounds_shape():
    with pytest.raises(SolverError):
        LinearModel(c=np.zeros(3), lb=np.zeros(2))


def test_solve_lp_simple_optimum():
    # min -x - y s.t. x + y <= 1, x, y >= 0  ->  objective -1.
    model = LinearModel(
        c=np.array([-1.0, -1.0]),
        a_ub=sparse.csr_matrix(np.array([[1.0, 1.0]])),
        b_ub=np.array([1.0]),
    )
    result = solve_lp(model)
    assert result.is_optimal
    assert result.objective == pytest.approx(-1.0)
    assert result.duals_ub is not None


def test_solve_lp_detects_infeasible():
    # x <= -1 with x >= 0.
    model = LinearModel(
        c=np.array([1.0]),
        a_ub=sparse.csr_matrix(np.array([[1.0]])),
        b_ub=np.array([-1.0]),
    )
    assert solve_lp(model).status == "infeasible"


def test_solve_lp_detects_unbounded():
    model = LinearModel(c=np.array([-1.0]))  # min -x, x unbounded above
    assert solve_lp(model).status == "unbounded"


def test_bnb_solves_knapsack_to_optimality():
    # Classic knapsack: values (10, 13, 8), weights (5, 6, 4), cap 10.
    # Optimum: items 1 and 3 -> value 21 (13+8, weight 10).
    model = _knapsack_model([10, 13, 8], [5, 6, 4], 10)
    result = BranchAndBoundSolver().solve(model)
    assert result.status == "optimal"
    assert -result.objective == pytest.approx(21.0)
    assert result.x is not None
    assert result.x.round().tolist() == [0, 1, 1]


def test_bnb_matches_highs_on_random_milps():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(3, 7))
        values = rng.integers(1, 20, size=n).astype(float)
        weights = rng.integers(1, 10, size=n).astype(float)
        capacity = float(weights.sum() * 0.5)
        model = _knapsack_model(values, weights, capacity)
        ours = BranchAndBoundSolver().solve(model)
        highs = solve_milp(model)
        assert ours.status == "optimal"
        assert ours.objective == pytest.approx(highs.objective, abs=1e-6)


def test_bnb_reports_infeasible():
    # x >= 2 (via lb) but x <= 1 constraint.
    model = LinearModel(
        c=np.array([1.0]),
        a_ub=sparse.csr_matrix(np.array([[1.0]])),
        b_ub=np.array([1.0]),
        lb=np.array([2.0]),
        ub=np.array([5.0]),
        integrality=np.array([True]),
    )
    result = BranchAndBoundSolver().solve(model)
    assert result.status == "infeasible"
    assert not result.has_solution


def test_bnb_raises_on_unbounded():
    model = LinearModel(c=np.array([-1.0]), integrality=np.array([True]))
    with pytest.raises(SolverError):
        BranchAndBoundSolver().solve(model)


def test_bnb_warm_start_recorded_as_incumbent():
    model = _knapsack_model([10, 13, 8], [5, 6, 4], 10)
    warm = np.array([1.0, 0.0, 1.0])  # value 18, feasible
    result = BranchAndBoundSolver().solve(model, warm_start=warm)
    assert result.incumbents[0].objective == pytest.approx(-18.0)
    assert -result.objective == pytest.approx(21.0)  # still finds the optimum


def test_bnb_respects_node_limit():
    rng = np.random.default_rng(0)
    n = 12
    model = _knapsack_model(
        rng.integers(1, 30, size=n), rng.integers(1, 10, size=n), 20
    )
    limited = BranchAndBoundSolver(node_limit=1)
    result = limited.solve(model)
    assert result.nodes_explored <= 1


def test_bnb_pure_lp_returns_relaxation():
    model = LinearModel(
        c=np.array([-1.0]),
        a_ub=sparse.csr_matrix(np.array([[1.0]])),
        b_ub=np.array([1.5]),
    )
    result = BranchAndBoundSolver().solve(model)
    assert result.status == "optimal"
    assert result.objective == pytest.approx(-1.5)


def test_bnb_gap_property():
    model = _knapsack_model([10, 13, 8], [5, 6, 4], 10)
    result = BranchAndBoundSolver().solve(model)
    assert result.gap <= 1e-6


def test_highs_backend_solves_knapsack():
    model = _knapsack_model([10, 13, 8], [5, 6, 4], 10)
    result = solve_milp(model)
    assert result.status == "optimal"
    assert -result.objective == pytest.approx(21.0)


def test_highs_backend_reports_infeasible():
    model = LinearModel(
        c=np.array([1.0]),
        a_ub=sparse.csr_matrix(np.array([[1.0]])),
        b_ub=np.array([-1.0]),
        integrality=np.array([True]),
    )
    assert solve_milp(model).status == "infeasible"


def test_highs_backend_equality_constraints():
    # min x + y s.t. x + y == 2, integers in [0, 5]: objective 2.
    model = LinearModel(
        c=np.array([1.0, 1.0]),
        a_eq=sparse.csr_matrix(np.array([[1.0, 1.0]])),
        b_eq=np.array([2.0]),
        ub=np.array([5.0, 5.0]),
        integrality=np.array([True, True]),
    )
    result = solve_milp(model)
    assert result.objective == pytest.approx(2.0)
