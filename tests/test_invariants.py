"""Property-based feasibility invariants over randomized instances.

Every solver in :mod:`repro.solvers` and both scheduler execution modes
must emit assignments that respect capacity, anti-affinity, and
schedulability on *any* well-formed instance — and the full pipeline must
additionally meet every SLA.  Instances come from the seeded
:func:`conftest.make_random_problem` generator, which is feasible by
construction, so a violation is always a solver bug rather than an
impossible instance.
"""

from __future__ import annotations

import pytest

from conftest import (
    assert_books_match_verifier,
    assert_feasible,
    make_random_problem,
)

from repro.core import RASAConfig, RASAScheduler
from repro.solvers import (
    ColumnGenerationAlgorithm,
    GreedyAlgorithm,
    LocalSearchAlgorithm,
    MIPAlgorithm,
)

SOLVERS = [
    GreedyAlgorithm,
    MIPAlgorithm,
    ColumnGenerationAlgorithm,
    LocalSearchAlgorithm,
]

SEEDS = range(6)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("algorithm_cls", SOLVERS, ids=lambda c: c.name)
def test_every_solver_emits_feasible_assignments(algorithm_cls, seed):
    """Solvers may under-place (partial SLA) but never violate a constraint."""
    problem = make_random_problem(seed)
    result = algorithm_cls().solve(problem, time_limit=3.0)
    assert_feasible(result.assignment, allow_partial=True)


@pytest.mark.parametrize("seed", (0, 1, 2))
def test_sequential_pipeline_emits_fully_feasible_assignments(seed):
    problem = make_random_problem(seed, num_services=14)
    config = RASAConfig(max_subproblem_services=6)
    result = RASAScheduler(config=config).schedule(problem, time_limit=10.0)
    assert_feasible(result.assignment)


@pytest.mark.parametrize("seed", (0, 1))
def test_parallel_pipeline_emits_fully_feasible_assignments(seed, monkeypatch):
    """An unbudgeted solve runs its shards on a two-thread pool."""
    monkeypatch.setattr("repro.core.rasa.available_cpus", lambda: 2)
    problem = make_random_problem(seed, num_services=14)
    config = RASAConfig(max_subproblem_services=6)
    result = RASAScheduler(config=config).schedule(problem)
    assert_feasible(result.assignment)


def test_random_problems_are_feasible_by_construction():
    """The generator's capacity slack admits a full greedy placement."""
    for seed in SEEDS:
        problem = make_random_problem(seed)
        exact = MIPAlgorithm().solve(problem, time_limit=5.0)
        assert_feasible(exact.assignment)


# ----------------------------------------------------------------------
# Replay-world invariants under seeded event sequences
# ----------------------------------------------------------------------
def _random_event(rng, world):
    """Sample one applicable event for the world's current books.

    Mirrors the event mix of :func:`repro.cluster.replay.synthesize_trace`
    but without its feasibility guard — the invariant under test is that
    the world never *violates a constraint* even when churn overloads it
    (placement may go partial, but capacity / anti-affinity /
    schedulability must hold).
    """
    from repro.cluster.replay import (
        MachineAdd,
        MachineDrain,
        ServiceDeploy,
        ServiceScale,
        ServiceTeardown,
        SpotReclaim,
        TrafficShift,
    )

    problem = world.state.problem
    services = problem.service_names()
    machines = problem.machine_names()
    roll = rng.random()
    if roll < 0.35:
        svc = services[int(rng.integers(len(services)))]
        return ServiceScale(0.0, svc, int(rng.integers(1, 7)))
    if roll < 0.55 and world.qps:
        u, v = sorted(world.qps)[int(rng.integers(len(world.qps)))]
        return TrafficShift(0.0, u, v, float(rng.uniform(0.5, 2.0)))
    if roll < 0.7:
        name = f"extra-m{int(rng.integers(10_000))}"
        if name in machines:
            return None
        return MachineAdd(0.0, name, {"cpu": 12.0, "memory": 12.0})
    if roll < 0.8 and len(machines) > 2:
        victim = machines[int(rng.integers(len(machines)))]
        if rng.random() < 0.5:
            return SpotReclaim(0.0, victim)
        if victim in world._drained:
            return None
        return MachineDrain(0.0, victim)
    if roll < 0.9:
        name = f"extra-s{int(rng.integers(10_000))}"
        if name in services:
            return None
        peer = services[int(rng.integers(len(services)))]
        return ServiceDeploy(
            0.0, name, int(rng.integers(1, 4)),
            {"cpu": float(rng.uniform(0.5, 2.0)),
             "memory": float(rng.uniform(0.5, 2.0))},
            edges=((peer, float(rng.uniform(1.0, 20.0))),),
        )
    if len(services) > 2:
        return ServiceTeardown(0.0, services[int(rng.integers(len(services)))])
    return None


@pytest.mark.parametrize("seed", (0, 1, 2, 3))
def test_replay_world_stays_feasible_under_random_churn(seed):
    """After any seeded event sequence the cluster state stays feasible:
    capacity, anti-affinity, and schedulability hold after *every* event
    (placement may be partial when churn removes too much capacity)."""
    import numpy as np

    from repro.cluster.replay import ReplayWorld
    from repro.exceptions import ClusterStateError

    rng = np.random.default_rng(seed)
    world = ReplayWorld(make_random_problem(seed))
    applied = 0
    for _ in range(40):
        event = _random_event(rng, world)
        if event is None:
            continue
        try:
            world.apply(event)
        except ClusterStateError:
            continue  # event inconsistent with current books — fine
        applied += 1
        problem = world.state.problem
        assert_feasible(world.state.assignment(), allow_partial=True)
        assert_books_match_verifier(world.state)
        # The books and the materialized problem must agree.
        live = set(problem.service_names())
        assert set(world.qps) >= set(problem.affinity.edges())
        for (u, v), w in problem.affinity.items():
            assert u in live and v in live
            assert world.qps[(u, v) if u <= v else (v, u)] == w
    assert applied >= 20  # the sequence actually exercised the world
