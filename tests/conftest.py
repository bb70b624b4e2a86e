"""Shared fixtures for the test suite.

Fixtures come in two sizes: hand-built micro problems whose optima are known
by inspection, and generated small clusters for integration-level checks.
Dataset fixtures are session-scoped — generation is deterministic, so
sharing them across tests is safe and fast.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.core import AntiAffinityRule, Assignment, Machine, RASAProblem, Service
from repro.workloads import ClusterSpec, generate_cluster

# Tier-1 must be a deterministic gate, so the default profile derives its
# examples from each test's source instead of a random seed.  The ``fuzz``
# profile (``HYPOTHESIS_PROFILE=fuzz``, the ``property-fuzz`` CI lane) is the
# same budget with fresh random examples on every run.
settings.register_profile(
    "tier1",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
settings.register_profile(
    "fuzz", parent=settings.get_profile("tier1"), derandomize=False
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


# ----------------------------------------------------------------------
# Shared invariant helper
# ----------------------------------------------------------------------
def assert_feasible(assignment: Assignment, allow_partial: bool = False) -> None:
    """Assert an assignment respects every constraint family.

    Capacity, anti-affinity, and schedulability are always enforced.  With
    ``allow_partial=True`` the SLA check only forbids *over*-placement
    (``placed <= demand`` per service) — raw solvers may legitimately
    leave containers undeployed for the default scheduler to pick up
    (paper Section IV-B5); the full pipeline must place everything.

    Shared across test modules (also exposed as the ``assert_feasible``
    fixture) so every solver/scheduler test states feasibility the same way.
    """
    report = assignment.check_feasibility(check_sla=not allow_partial)
    assert not report.resource_violations, f"capacity violated: {report.summary()}"
    assert not report.anti_affinity_violations, (
        f"anti-affinity violated: {report.summary()}"
    )
    assert not report.schedulable_violations, (
        f"schedulability violated: {report.summary()}"
    )
    if allow_partial:
        placed = assignment.x.sum(axis=1)
        demands = assignment.problem.demands
        over = [
            (svc.name, int(placed[i]), int(demands[i]))
            for i, svc in enumerate(assignment.problem.services)
            if placed[i] > demands[i]
        ]
        assert not over, f"services over-placed beyond demand: {over}"
    else:
        assert not report.sla_violations, f"SLA violated: {report.summary()}"


def assert_books_match_verifier(state) -> None:
    """Pin a :class:`ClusterState`'s incremental books with the verifier.

    The oracle shares no code with the bookkeeper
    (:class:`~repro.solvers.greedy.PackingState`): from ``state.placement``
    alone it recomputes (a) the free capacity and (b), for every service
    and machine, whether one more container passes
    :meth:`Assignment.check_feasibility`.  The default scheduler's filter
    must say yes exactly on the untagged machines where the verifier does.
    """
    from repro.cluster import DefaultScheduler

    problem, x = state.problem, state.placement
    used = x.T.astype(float) @ problem.requests_matrix
    np.testing.assert_allclose(
        state.free_resources(), problem.capacities_matrix - used, rtol=0, atol=1e-9
    )
    scheduler = DefaultScheduler()
    for s, svc in enumerate(problem.services):
        mask = scheduler.filter(state, s)
        for m, machine in enumerate(problem.machines):
            bumped = x.copy()
            bumped[s, m] += 1
            expected = state.is_schedulable_machine(machine.name) and (
                Assignment(problem, bumped).check_feasibility(check_sla=False).feasible
            )
            assert bool(mask[m]) == expected, (svc.name, machine.name)


@pytest.fixture(name="assert_feasible")
def _assert_feasible_fixture():
    """The :func:`assert_feasible` helper, as a fixture for test modules."""
    return assert_feasible


# ----------------------------------------------------------------------
# Randomized problem generator (property-based invariant harness)
# ----------------------------------------------------------------------
def make_random_problem(
    seed: int,
    num_services: int | None = None,
    num_machines: int | None = None,
) -> RASAProblem:
    """Generate a seeded random :class:`RASAProblem` that is feasible.

    Feasibility by construction: aggregate machine capacity is ~2x the
    aggregate container demand, anti-affinity limits leave slack over the
    even spread, and every service stays schedulable on at least half the
    machines — so solvers and the full pipeline are always *able* to place
    everything, and the invariant tests can demand they never emit a
    constraint-violating assignment.
    """
    rng = np.random.default_rng(seed)
    n = int(num_services if num_services is not None else rng.integers(4, 13))
    m = int(num_machines if num_machines is not None else rng.integers(3, 9))

    services = [
        Service(
            name=f"s{i}",
            demand=int(rng.integers(1, 5)),
            requests={
                "cpu": float(rng.uniform(0.5, 4.0)),
                "memory": float(rng.uniform(0.5, 4.0)),
            },
            priority=float(rng.uniform(0.5, 2.0)),
        )
        for i in range(n)
    ]
    total = np.zeros(2)
    for svc in services:
        total += svc.demand * np.array([svc.requests["cpu"], svc.requests["memory"]])
    machines = []
    for j in range(m):
        jitter = rng.uniform(0.8, 1.2, size=2)
        capacity = total * 2.0 / m * jitter
        machines.append(
            Machine(
                name=f"m{j}",
                capacity={"cpu": float(capacity[0]), "memory": float(capacity[1])},
                spec="big" if j % 2 else "small",
            )
        )

    affinity: dict[tuple[str, str], float] = {}
    num_edges = int(rng.integers(n, 2 * n + 1))
    for _ in range(num_edges):
        u, v = rng.choice(n, size=2, replace=False)
        affinity[(f"s{u}", f"s{v}")] = float(1.0 + rng.pareto(2.0) * 5.0)

    anti_affinity = []
    if rng.random() < 0.7:
        members = rng.choice(n, size=int(rng.integers(1, min(3, n) + 1)), replace=False)
        member_demand = sum(services[i].demand for i in members)
        # Slack over the even spread across the *half* of the machines a
        # member may be restricted to by the schedulability matrix below.
        limit = math.ceil(member_demand / max(1, m // 2)) + 1
        anti_affinity.append(
            AntiAffinityRule(
                services=frozenset(f"s{i}" for i in members), limit=limit
            )
        )

    schedulable = np.ones((n, m), dtype=bool)
    for i in range(n):
        if rng.random() < 0.3:
            banned = rng.choice(m, size=m // 2, replace=False)
            schedulable[i, banned] = False

    return RASAProblem(
        services,
        machines,
        affinity=affinity,
        anti_affinity=anti_affinity,
        schedulable=schedulable,
    )


@pytest.fixture
def tiny_problem() -> RASAProblem:
    """Three services, three machines, two affinity edges.

    Full affinity (1.0 normalized) is achievable: demands are small and any
    machine fits all containers of the heavy pair.
    """
    services = [
        Service("a", 4, {"cpu": 2.0, "memory": 4.0}),
        Service("b", 4, {"cpu": 2.0, "memory": 4.0}),
        Service("c", 2, {"cpu": 4.0, "memory": 2.0}),
    ]
    machines = [Machine(f"m{i}", {"cpu": 16.0, "memory": 32.0}) for i in range(3)]
    return RASAProblem(
        services,
        machines,
        affinity={("a", "b"): 10.0, ("b", "c"): 3.0},
    )


@pytest.fixture
def constrained_problem() -> RASAProblem:
    """Problem exercising every constraint family at once.

    * ``web`` and ``db`` have affinity but ``db`` is pinned to machine pool
      1 (schedulability).
    * ``web`` has a spread rule of at most 2 containers per machine.
    * Machine capacities force the placement to use several machines.
    """
    services = [
        Service("web", 6, {"cpu": 2.0, "memory": 2.0}),
        Service("db", 2, {"cpu": 4.0, "memory": 8.0}),
        Service("batch", 3, {"cpu": 1.0, "memory": 1.0}),
    ]
    machines = [
        Machine("m0", {"cpu": 8.0, "memory": 16.0}, spec="small"),
        Machine("m1", {"cpu": 8.0, "memory": 16.0}, spec="small"),
        Machine("m2", {"cpu": 16.0, "memory": 32.0}, spec="big"),
    ]
    schedulable = np.ones((3, 3), dtype=bool)
    schedulable[1, 0] = False  # db cannot run on m0
    return RASAProblem(
        services,
        machines,
        affinity={("web", "db"): 5.0, ("web", "batch"): 1.0},
        anti_affinity=[AntiAffinityRule(services=frozenset({"web"}), limit=2)],
        schedulable=schedulable,
    )


@pytest.fixture(scope="session")
def small_cluster():
    """A generated ~40-service cluster with a current assignment."""
    spec = ClusterSpec(
        name="test-small",
        num_services=40,
        num_containers=180,
        num_machines=10,
        affinity_beta=2.0,
        seed=42,
    )
    return generate_cluster(spec)


@pytest.fixture(scope="session")
def medium_cluster():
    """A generated ~90-service cluster for pipeline-level tests."""
    spec = ClusterSpec(
        name="test-medium",
        num_services=90,
        num_containers=420,
        num_machines=18,
        affinity_beta=2.0,
        seed=7,
    )
    return generate_cluster(spec)
