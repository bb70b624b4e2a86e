"""Unit tests for the MIP-based RASA algorithm (model building + solving)."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import Assignment, Machine, RASAProblem, Service
from repro.obs import MetricsRegistry, use_metrics
from repro.solvers import BranchAndBoundSolver, MIPAlgorithm, build_rasa_model
from repro.solvers.milp_backend import GAP_TOLERANCE
from repro.solvers.mip import ModelLayout

_DATA_DIR = Path(__file__).resolve().parent / "data"

_spec = importlib.util.spec_from_file_location(
    "make_model_digests", _DATA_DIR / "make_model_digests.py"
)
make_model_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_model_digests)


@pytest.fixture(scope="module")
def digests():
    """Both digest halves of the current builder, computed once."""
    return make_model_digests.compute_digests()


def test_layout_skips_unschedulable_cells(constrained_problem):
    layout = ModelLayout(constrained_problem)
    # db (index 1) cannot run on m0 (index 0).
    assert (1, 0) not in layout.x_index
    assert (0, 0) in layout.x_index
    # Edge variables exist only where both endpoints are schedulable.
    web_db_edges = [
        (e, m) for (e, m) in layout.a_index if layout.edges[e][:2] in ((0, 1), (1, 0))
    ]
    assert all(m != 0 for _e, m in web_db_edges)


def test_model_dimensions(tiny_problem):
    model, layout = build_rasa_model(tiny_problem)
    assert model.num_variables == layout.num_x + layout.num_a
    assert model.num_integer_variables == layout.num_x
    # Objective covers exactly the a-variables.
    assert (model.c != 0).sum() == layout.num_a


def test_models_match_three_builder_parent_byte_for_byte(digests):
    """Every column, row and coefficient is the one bdf4fd7 emitted.

    The ``structure`` half of ``model_digests.json`` (every array but
    ``ub``) was written by ``make_model_digests.py`` running on 23d536c,
    whose models were still byte-for-byte those of bdf4fd7, the tree with
    one builder per model.  Only the column bounds may move since.
    """
    pinned = json.loads((_DATA_DIR / "model_digests.json").read_text())
    assert any(len(entry["pricing"]) > 1 for entry in pinned["structure"].values())
    assert digests["structure"] == pinned["structure"]


def test_model_bounds_match_pinned_digests(digests):
    """The column bounds are the ones the pinned builder derived.

    The ``ub`` half of ``model_digests.json`` moves only with a deliberate
    change to ``container_fit`` / ``best_pair_fill``, which rewrites it.
    """
    pinned = json.loads((_DATA_DIR / "model_digests.json").read_text())
    assert digests["ub"] == pinned["ub"]


def test_mip_finds_full_affinity_optimum(tiny_problem):
    result = MIPAlgorithm().solve(tiny_problem, time_limit=30)
    assert result.status in ("optimal", "optimal+greedy")
    assert result.assignment.gained_affinity(normalized=True) == pytest.approx(1.0)
    assert result.assignment.check_feasibility().feasible


def test_mip_respects_all_constraints(constrained_problem):
    result = MIPAlgorithm().solve(constrained_problem, time_limit=30)
    report = result.assignment.check_feasibility()
    assert report.feasible, report.summary()
    # Affinity between web and db is bounded by the spread rule: at most
    # 2 of 6 web containers can sit with each db container.
    assert result.objective > 0


@pytest.mark.parametrize("solver", ["highs", "bnb"])
@pytest.mark.parametrize("fixture", ["tiny_problem", "constrained_problem"])
def test_mip_bound_covers_objective_within_gap(fixture, solver, request):
    """An unbudgeted optimal solve reports a dual bound at or above its
    objective, no further than the gap it was solved to.

    ``highs`` is ``MIPAlgorithm``; ``bnb`` is the reference branch and
    bound on the same Eq. 2–9 model.
    """
    problem = request.getfixturevalue(fixture)
    with use_metrics(MetricsRegistry()) as registry:
        mip = MIPAlgorithm().solve(problem)
    assert mip.status in ("optimal", "optimal+greedy")
    assert registry.snapshot()["histograms"]["solver.mip.gap"]["count"] == 1
    objective, bound = mip.objective, mip.bound
    if solver == "bnb":
        objective, bound = _oracle_solve(problem)
    assert bound >= objective
    assert bound - objective <= GAP_TOLERANCE * objective + 1e-6


def _oracle_solve(problem):
    """Gained affinity and its bound from the reference branch and bound."""
    oracle = BranchAndBoundSolver().solve(build_rasa_model(problem)[0])
    assert oracle.status == "optimal"
    # Minimization scale: negate back into gained affinity.
    return -oracle.objective, -oracle.bound


def test_mip_bnb_backend_agrees_with_highs(tiny_problem, constrained_problem):
    """The reference branch and bound is the independent oracle: on the
    same Eq. 2–9 model it reaches the optimum ``MIPAlgorithm`` (HiGHS)
    reports, within :data:`GAP_TOLERANCE`, and its bound covers it."""
    for problem in (tiny_problem, constrained_problem):
        highs = MIPAlgorithm().solve(problem, time_limit=30)
        objective, bound = _oracle_solve(problem)
        assert objective == pytest.approx(highs.objective, rel=GAP_TOLERANCE)
        assert bound >= objective


def test_mip_handles_no_schedulable_machines():
    problem = RASAProblem(
        [Service("a", 2, {"cpu": 1.0})],
        [Machine("m", {"cpu": 8.0})],
        schedulable=np.zeros((1, 1), dtype=bool),
    )
    result = MIPAlgorithm().solve(problem, time_limit=5)
    assert result.status == "no_variables"
    assert result.assignment.x.sum() == 0
    assert result.bound == 0.0


def test_mip_greedy_floor_never_worse_than_greedy(small_cluster):
    from repro.solvers import GreedyAlgorithm

    problem = small_cluster.problem
    greedy = GreedyAlgorithm().solve(problem)
    mip = MIPAlgorithm().solve(problem, time_limit=3)
    assert mip.objective >= greedy.objective - 1e-9


def test_mip_trajectory_point_is_no_earlier_than_its_solve(tiny_problem, monkeypatch):
    """HiGHS's one incumbent is stamped when the solve returns it, on the
    algorithm's clock and in the ``mip.incumbent`` event alike."""
    import time

    from repro.obs import Tracer, use_tracer
    from repro.solvers import milp_backend

    delay = 0.05
    real = milp_backend.milp

    def slow_milp(*args, **kwargs):
        time.sleep(delay)
        return real(*args, **kwargs)

    monkeypatch.setattr(milp_backend, "milp", slow_milp)
    with use_tracer(Tracer()) as tracer:
        result = MIPAlgorithm().solve(tiny_problem)
    [(elapsed, objective)] = result.trajectory
    assert delay <= elapsed <= result.runtime_seconds
    assert objective == pytest.approx(result.objective)
    [event] = [s for s in tracer.finished_roots() if s.name == "mip.incumbent"]
    assert event.tags["elapsed"] == elapsed


def test_mip_trajectory_is_monotone(tiny_problem):
    """The oracle's incumbent history on the model only ever improves."""
    result = BranchAndBoundSolver().solve(build_rasa_model(tiny_problem)[0])
    objectives = [-record.objective for record in result.incumbents]
    assert objectives and objectives == sorted(objectives)
