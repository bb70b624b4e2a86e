"""Unit tests for patterns, pricing, and the column generation algorithm."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import AntiAffinityRule, Machine, RASAProblem, Service
from repro.solvers import ColumnGenerationAlgorithm, GreedyAlgorithm, MIPAlgorithm
from repro.solvers.patterns import (
    Pattern,
    empty_pattern,
    group_machines,
    pattern_is_feasible,
    pattern_value,
    patterns_from_assignment,
    price_pattern_greedy,
    price_pattern_mip,
)


def test_group_machines_by_capacity_and_schedulability(constrained_problem):
    groups = group_machines(constrained_problem)
    # m0 differs from m1 by schedulability (db barred), m2 by capacity.
    assert len(groups) == 3
    assert sorted(g.count for g in groups) == [1, 1, 1]


def test_group_machines_merges_identical(tiny_problem):
    groups = group_machines(tiny_problem)
    assert len(groups) == 1
    assert groups[0].count == 3


def test_pattern_value_matches_single_machine_gained_affinity(tiny_problem):
    counts = np.array([2, 2, 0])
    value = pattern_value(tiny_problem, counts)
    # Edge (a, b): 10 * min(2/4, 2/4) = 5; edge (b, c): 0.
    assert value == pytest.approx(5.0)


def test_pattern_feasibility_checks(constrained_problem):
    groups = group_machines(constrained_problem)
    small_with_db = next(
        g for g in groups if g.capacity[0] == 8.0 and all(g.schedulable)
    )
    ok = np.array([2, 1, 0])
    assert pattern_is_feasible(constrained_problem, small_with_db, ok)
    too_many_web = np.array([3, 0, 0])  # violates the spread limit of 2
    assert not pattern_is_feasible(constrained_problem, small_with_db, too_many_web)
    negative = np.array([-1, 0, 0])
    assert not pattern_is_feasible(constrained_problem, small_with_db, negative)


def test_empty_pattern_is_feasible_everywhere(constrained_problem):
    empty = empty_pattern(constrained_problem)
    for group in group_machines(constrained_problem):
        assert pattern_is_feasible(constrained_problem, group, empty.counts)


def test_patterns_from_assignment_harvests_and_dedupes(tiny_problem):
    greedy = GreedyAlgorithm().solve(tiny_problem)
    groups = group_machines(tiny_problem)
    harvested = patterns_from_assignment(tiny_problem, greedy.assignment.x, groups)
    patterns = harvested[0]
    keys = {p.key() for p in patterns}
    assert len(keys) == len(patterns)  # deduplicated
    assert any(p.counts.sum() == 0 for p in patterns)  # empty pattern present


def test_mip_pricing_ignores_duals_zero(tiny_problem):
    groups = group_machines(tiny_problem)
    duals = np.zeros(tiny_problem.num_services)
    pattern = price_pattern_mip(tiny_problem, groups[0], duals, time_limit=10)
    assert pattern is not None
    # With zero duals the pricer maximizes raw pattern value: collocating
    # all of a and b (value 10 + partial c edge) fits one machine.
    assert pattern.value >= 10.0


def test_mip_pricing_keeps_barred_service_at_zero(constrained_problem):
    db = constrained_problem.service_index("db")
    duals = np.zeros(constrained_problem.num_services)
    barred = [g for g in group_machines(constrained_problem) if not g.schedulable[db]]
    assert barred
    for group in barred:
        pattern = price_pattern_mip(constrained_problem, group, duals, time_limit=10)
        assert pattern is not None and pattern.counts.sum() > 0
        assert pattern.counts[db] == 0


def test_greedy_pricing_returns_feasible_pattern(tiny_problem):
    groups = group_machines(tiny_problem)
    duals = np.zeros(tiny_problem.num_services)
    pattern = price_pattern_greedy(tiny_problem, groups[0], duals)
    assert pattern is not None
    assert pattern_is_feasible(tiny_problem, groups[0], pattern.counts)


def test_greedy_pricing_high_duals_returns_none(tiny_problem):
    groups = group_machines(tiny_problem)
    duals = np.full(tiny_problem.num_services, 1e9)
    assert price_pattern_greedy(tiny_problem, groups[0], duals) is None


def test_cg_reaches_mip_optimum_on_tiny(tiny_problem):
    mip = MIPAlgorithm().solve(tiny_problem, time_limit=30)
    cg = ColumnGenerationAlgorithm().solve(tiny_problem, time_limit=30)
    assert cg.objective == pytest.approx(mip.objective, rel=1e-6)
    assert cg.assignment.check_feasibility().feasible


def test_cg_greedy_pricing_is_valid_but_possibly_weaker(tiny_problem):
    cg = ColumnGenerationAlgorithm(pricing="greedy").solve(tiny_problem, time_limit=30)
    assert cg.assignment.check_feasibility(check_sla=False).feasible
    assert 0.0 <= cg.objective <= tiny_problem.affinity.total_affinity + 1e-9


def test_cg_rejects_unknown_pricing():
    with pytest.raises(ValueError):
        ColumnGenerationAlgorithm(pricing="quantum")


def test_cg_never_worse_than_greedy_seed(small_cluster):
    problem = small_cluster.problem
    greedy = GreedyAlgorithm().solve(problem)
    cg = ColumnGenerationAlgorithm().solve(problem, time_limit=8)
    assert cg.objective >= greedy.objective - 1e-9


def _pricing_problem():
    from repro.workloads.generator import ClusterSpec, generate_cluster

    return generate_cluster(ClusterSpec(
        name="test-pricing", num_services=16, num_containers=64,
        num_machines=4, seed=5,
    )).problem


def test_pricing_milp_gets_what_is_left_of_the_cg_budget(monkeypatch):
    """Every pricing MILP is solved exactly (gap 0) without HiGHS's
    feasibility jump; unbudgeted CG prices with no wall clock; budgeted CG
    never gives a pricing MILP more time than its own budget has left."""
    import time

    from repro.solvers import patterns
    from repro.solvers.column_generation import ROUNDING_FRACTION

    problem = _pricing_problem()
    calls = []  # (time_limit, entered, returned)
    real = patterns.solve_milp

    def spy(model, time_limit=None, **kwargs):
        assert kwargs == {"gap_tolerance": 0.0, "feasibility_jump": False}
        entered = time.monotonic()
        result = real(model, time_limit=time_limit, **kwargs)
        calls.append((time_limit, entered, time.monotonic()))
        return result

    monkeypatch.setattr(patterns, "solve_milp", spy)
    ColumnGenerationAlgorithm().solve(problem)
    assert calls and all(limit is None for limit, _, _ in calls)

    calls.clear()
    time_limit = 1.0
    ColumnGenerationAlgorithm().solve(problem, time_limit=time_limit)
    cg_budget = time_limit * (1.0 - ROUNDING_FRACTION)
    assert len(calls) > 1
    first_entered = calls[0][1]
    # CG's clock started before the first pricing call, and each limit was
    # computed after the previous call returned.
    returned = first_entered
    for limit, entered, done in calls:
        assert 0.0 < limit <= cg_budget - (returned - first_entered)
        returned = done


def test_cg_builds_each_groups_pricing_model_once(monkeypatch):
    """One CG solve builds one pricing model per group and re-prices it with
    each round's duals; every model HiGHS gets is byte-identical to a fresh
    one-shot build with the same duals."""
    from test_mip_algorithm import make_model_digests

    from repro.solvers import column_generation, patterns
    from repro.solvers.branch_and_bound import MILPResult

    def digest(model):
        return (
            make_model_digests.model_digest(model),
            make_model_digests.model_digest(model, arrays=("ub",), matrices=()),
        )

    problem = _pricing_problem()
    groups = group_machines(problem)
    builds = []
    real_build = patterns.build_rasa_model

    def counting_build(*args, **kwargs):
        builds.append(args)
        return real_build(*args, **kwargs)

    priced = []  # (group, duals, digests of the model HiGHS got)
    real_price = column_generation.price_pattern_mip
    real_solve = patterns.solve_milp

    def price(problem, group, duals, time_limit=None):
        priced.append((group, duals.copy(), None))
        return real_price(problem, group, duals, time_limit)

    def solve(model, **kwargs):
        group, duals, _ = priced[-1]
        priced[-1] = (group, duals, digest(model))
        return real_solve(model, **kwargs)

    monkeypatch.setattr(patterns, "build_rasa_model", counting_build)
    monkeypatch.setattr(column_generation, "price_pattern_mip", price)
    monkeypatch.setattr(patterns, "solve_milp", solve)
    ColumnGenerationAlgorithm().solve(problem)
    solve_builds = len(builds)

    fresh = []
    monkeypatch.setattr(
        patterns, "solve_milp",
        lambda model, **_: fresh.append(digest(model)) or MILPResult(
            "no_incumbent", None, float("inf"), bound=float("-inf")
        ),
    )
    for group, duals, seen in priced:
        patterns.price_pattern_mip(problem, group, duals)
        assert fresh[-1] == seen
    assert len(priced) > 2 * len(groups)  # several rounds re-priced
    assert solve_builds == len({group.key for group, _, _ in priced}) == len(groups)
    assert len(builds) == solve_builds + len(priced)  # one-shot outside a solve


_WARNING_FREE_CG = """
from repro.solvers import ColumnGenerationAlgorithm
from repro.workloads.generator import ClusterSpec, generate_cluster

problem = generate_cluster(ClusterSpec(
    name="warnings", num_services=16, num_containers=64, num_machines=4, seed=5,
)).problem
ColumnGenerationAlgorithm().solve(problem)
"""


def test_cg_solve_is_warning_free_under_w_error():
    """Pricing's HiGHS option draws a scipy warning per call; the filter
    ``milp_backend`` installs at import keeps a CG solve clean even where
    every warning is an error."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, "-W", "error", "-c", _WARNING_FREE_CG],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""


def test_cg_on_anti_affinity_spread():
    """CG must spread a service across machines when anti-affinity forces it."""
    services = [
        Service("a", 4, {"cpu": 1.0}),
        Service("b", 4, {"cpu": 1.0}),
    ]
    machines = [Machine(f"m{i}", {"cpu": 16.0}) for i in range(2)]
    problem = RASAProblem(
        services,
        machines,
        affinity={("a", "b"): 1.0},
        anti_affinity=[AntiAffinityRule(services=frozenset({"a"}), limit=2)],
    )
    result = ColumnGenerationAlgorithm().solve(problem, time_limit=20)
    report = result.assignment.check_feasibility()
    assert report.feasible, report.summary()
    # Perfect proportional split (2+2 / 2+2) still localizes everything.
    assert result.objective == pytest.approx(1.0, abs=1e-6)
