"""Property-based tests on the solver pool's cross-cutting invariants."""

from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from oracles import enumerated_pricing
from test_migration import _rule_pair
from test_properties import constrained_problems

from repro.core import Machine, RASAProblem, Service
from repro.solvers import ColumnGenerationAlgorithm, MIPAlgorithm
from repro.solvers.milp_backend import solve_milp
from repro.solvers.mip import build_rasa_model, container_fit
from repro.solvers.patterns import (
    MachineGroup,
    group_machines,
    pattern_is_feasible,
    price_pattern_greedy,
    price_pattern_mip,
    pricing_model,
)

@st.composite
def homogeneous_problems(draw) -> RASAProblem:
    """Small instances with identical machines (aggregation is lossless
    up to rounding there, which these properties exploit)."""
    num_services = draw(st.integers(2, 5))
    num_machines = draw(st.integers(2, 3))
    services = []
    for i in range(num_services):
        demand = draw(st.integers(1, 3))
        services.append(Service(f"s{i}", demand, {"cpu": 1.0}))
    total = sum(s.demand for s in services)
    per_machine = max(3.0, 1.5 * total / num_machines)
    machines = [Machine(f"m{i}", {"cpu": per_machine}) for i in range(num_machines)]
    edges = {}
    for i in range(num_services - 1):
        if draw(st.booleans()):
            edges[(f"s{i}", f"s{i+1}")] = draw(
                st.floats(0.5, 5.0, allow_nan=False, allow_infinity=False)
            )
    if not edges:
        edges[("s0", "s1")] = 1.0
    return RASAProblem(services, machines, affinity=edges)


def quota_split_loss_problem() -> RASAProblem:
    """Demand-1 services a machine group co-places but no machine can.

    Flat optimum 10.0, aggregated-model optimum 11.0: the group model is a
    valid relaxation whose value no per-machine placement realizes.
    """
    demands = [2, 1, 1, 2]
    services = [Service(f"s{i}", d, {"cpu": 1.0}) for i, d in enumerate(demands)]
    machines = [Machine(f"m{i}", {"cpu": 3.0}) for i in range(3)]
    edges = {("s0", "s1"): 5.0, ("s1", "s2"): 1.0, ("s2", "s3"): 5.0}
    return RASAProblem(services, machines, affinity=edges)


@given(problem=homogeneous_problems())
@example(problem=quota_split_loss_problem())
def test_aggregated_bracketed_by_flat_optimum(problem):
    flat = MIPAlgorithm().solve(problem, time_limit=20)
    # The aggregated model is the same builder over machine groups, a
    # relaxation of the flat model: every flat solution sums to an
    # aggregated one, so its optimum is at least the flat optimum.
    model, _layout = build_rasa_model(problem, group_machines(problem))
    assert -solve_milp(model).objective >= flat.objective - 1e-6


def test_aggregated_quota_split_loss_example():
    problem = quota_split_loss_problem()
    flat = MIPAlgorithm().solve(problem, time_limit=20)
    model, _layout = build_rasa_model(problem, group_machines(problem))
    assert flat.objective == pytest.approx(10.0)
    assert -solve_milp(model).objective == pytest.approx(11.0)


@given(data=st.data())
def test_cg_between_greedy_and_total(data):
    problem = data.draw(homogeneous_problems())
    cg = ColumnGenerationAlgorithm().solve(problem, time_limit=20)
    assert -1e-9 <= cg.objective <= problem.affinity.total_affinity + 1e-9
    assert cg.assignment.check_feasibility(check_sla=False).feasible


@given(data=st.data())
def test_pricing_always_returns_feasible_patterns(data):
    problem = data.draw(homogeneous_problems())
    duals = np.array(
        [
            data.draw(st.floats(0.0, 2.0, allow_nan=False, allow_infinity=False))
            for _ in range(problem.num_services)
        ]
    )
    for group in group_machines(problem):
        model = pricing_model(problem, group)
        exact = price_pattern_mip(problem, group, model, duals, time_limit=5)
        if exact is not None:
            assert pattern_is_feasible(problem, group, exact.counts)
            assert exact.value >= -1e-9
        greedy = price_pattern_greedy(problem, group, duals)
        if greedy is not None:
            assert pattern_is_feasible(problem, group, greedy.counts)


@given(data=st.data())
def test_exact_pricing_dominates_greedy_pricing(data):
    """The MILP pricer's reduced cost is >= the greedy pricer's."""
    problem = data.draw(homogeneous_problems())
    duals = np.zeros(problem.num_services)
    for group in group_machines(problem):
        model = pricing_model(problem, group)
        exact = price_pattern_mip(problem, group, model, duals, time_limit=5)
        greedy = price_pattern_greedy(problem, group, duals)
        if exact is None or greedy is None:
            continue
        exact_net = exact.value - float(duals @ exact.counts)
        greedy_net = greedy.value - float(duals @ greedy.counts)
        assert exact_net >= greedy_net - 1e-6


@st.composite
def priced_problems(draw) -> tuple[RASAProblem, np.ndarray]:
    """A constrained instance of at most 5 services and a dual price per
    service (0 for about a quarter of them)."""
    problem = draw(constrained_problems(max_services=5, max_machines=3))
    price = st.one_of(
        st.just(0.0), st.floats(0.0, 3.0, allow_nan=False, allow_infinity=False)
    )
    return problem, np.array([draw(price) for _ in range(problem.num_services)])


def tied_pricing_problem() -> tuple[RASAProblem, np.ndarray]:
    """Two disjoint pairs of equal value on machines that hold one pair:
    two patterns tie for the best reduced cost."""
    services = [Service(f"s{i}", 1, {"cpu": 1.0}) for i in range(4)]
    machines = [Machine(f"m{i}", {"cpu": 2.0}) for i in range(2)]
    edges = {("s0", "s1"): 1.0, ("s2", "s3"): 1.0}
    return RASAProblem(services, machines, affinity=edges), np.full(4, 0.25)


@given(instance=priced_problems())
@example(instance=tied_pricing_problem())
def test_exact_pricing_reaches_the_enumerated_maximum(instance):
    """``price_pattern_mip``'s reduced cost is the best any pattern of the
    group's machine reaches, as :func:`oracles.enumerated_pricing` finds
    by trying every count vector (HiGHS's absolute gap is 1e-6)."""
    problem, duals = instance
    for group in group_machines(problem):
        pattern = price_pattern_mip(problem, group, pricing_model(problem, group), duals)
        assert pattern is not None
        best, _counts = enumerated_pricing(
            problem, group.capacity, group.schedulable, duals
        )
        reduced = pattern.value - float(duals @ pattern.counts)
        assert abs(reduced - best) <= 1e-6


# ----------------------------------------------------------------------
# The model's column bounds against enumeration
# ----------------------------------------------------------------------
def machine_fills(problem: RASAProblem, m: int) -> np.ndarray:
    """Every count vector machine ``m`` alone can hold, one per row."""
    machine = MachineGroup(
        key=m,
        machine_indices=(m,),
        capacity=tuple(problem.capacities_matrix[m]),
        schedulable=tuple(problem.schedulable[:, m]),
    )
    vectors = itertools.product(*(range(int(d) + 1) for d in problem.demands))
    return np.array(
        [v for v in vectors if pattern_is_feasible(problem, machine, np.array(v))]
    )


@given(problem=constrained_problems(max_services=4, max_machines=3))
@example(problem=quota_split_loss_problem())
@example(problem=_rule_pair()[0])
def test_column_bounds_are_exact_per_machine_maxima(problem):
    """``min(d_s, fit)`` is the most containers of ``s`` any feasible fill
    of the machine holds and ``ub[a]`` the most ``w·min(x_s/d_s, x_t/d_t)``
    any does: no fill exceeds a bound, and some fill reaches it."""
    model, layout = build_rasa_model(problem)
    demands = problem.demands.astype(float)
    fit = container_fit(problem, layout.capacities)
    fills = [machine_fills(problem, m) for m in range(problem.num_machines)]
    for (s, m), idx in layout.x_index.items():
        assert fills[m][:, s].max() == min(demands[s], fit[s, m])
        assert fills[m][:, s].max() <= model.ub[idx]
    for (e, m), idx in layout.a_index.items():
        s, t, w = layout.edges[e]
        pair = w * np.minimum(fills[m][:, s] / demands[s], fills[m][:, t] / demands[t])
        assert pair.max() <= model.ub[idx] + 1e-12 * w
        assert pair.max() == pytest.approx(model.ub[idx], rel=1e-12, abs=1e-12)


@given(problem=constrained_problems(max_services=4, max_machines=3))
@example(problem=quota_split_loss_problem())
@example(problem=_rule_pair()[0])
def test_tightened_bounds_keep_the_optimum(problem):
    """HiGHS reaches the same optimum with the bounds reset to ``(d_s, w_e)``."""
    model, layout = build_rasa_model(problem)
    loose = model.ub.copy()
    for (s, _m), idx in layout.x_index.items():
        loose[idx] = float(problem.demands[s])
    for (e, _m), idx in layout.a_index.items():
        loose[idx] = layout.edges[e][2]
    tight = solve_milp(model)
    plain = solve_milp(replace(model, ub=loose))
    assert tight.status == plain.status
    if plain.has_solution:
        assert tight.objective == pytest.approx(plain.objective, rel=2e-6, abs=1e-9)
