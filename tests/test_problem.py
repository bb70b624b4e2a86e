"""Unit tests for the RASA problem model and its validation."""

from __future__ import annotations

import dataclasses
import inspect

import numpy as np
import pytest

from repro.core import AntiAffinityRule, Machine, RASAProblem, Service
from repro.core.problem import problem_digest
from repro.exceptions import ProblemValidationError


def test_service_rejects_non_positive_demand():
    with pytest.raises(ProblemValidationError):
        Service("a", 0, {"cpu": 1.0})
    with pytest.raises(ProblemValidationError):
        Service("a", -2, {"cpu": 1.0})


def test_service_rejects_negative_requests():
    with pytest.raises(ProblemValidationError):
        Service("a", 1, {"cpu": -1.0})


def test_machine_rejects_negative_capacity():
    with pytest.raises(ProblemValidationError):
        Machine("m", {"cpu": -1.0})


def test_anti_affinity_rejects_empty_and_negative():
    with pytest.raises(ProblemValidationError):
        AntiAffinityRule(services=frozenset(), limit=1)
    with pytest.raises(ProblemValidationError):
        AntiAffinityRule(services=frozenset({"a"}), limit=-1)


def test_duplicate_names_rejected():
    services = [Service("a", 1, {"cpu": 1.0}), Service("a", 1, {"cpu": 1.0})]
    machines = [Machine("m", {"cpu": 8.0})]
    with pytest.raises(ProblemValidationError):
        RASAProblem(services, machines)


def test_affinity_edge_must_reference_known_services():
    services = [Service("a", 1, {"cpu": 1.0})]
    machines = [Machine("m", {"cpu": 8.0})]
    with pytest.raises(ProblemValidationError):
        RASAProblem(services, machines, affinity={("a", "ghost"): 1.0})


def test_anti_affinity_must_reference_known_services():
    services = [Service("a", 1, {"cpu": 1.0})]
    machines = [Machine("m", {"cpu": 8.0})]
    with pytest.raises(ProblemValidationError):
        RASAProblem(
            services,
            machines,
            anti_affinity=[AntiAffinityRule(services=frozenset({"ghost"}), limit=1)],
        )


def test_schedulable_shape_validation():
    services = [Service("a", 1, {"cpu": 1.0})]
    machines = [Machine("m", {"cpu": 8.0})]
    with pytest.raises(ProblemValidationError):
        RASAProblem(services, machines, schedulable=np.ones((2, 2), dtype=bool))


def test_current_assignment_validation():
    services = [Service("a", 1, {"cpu": 1.0})]
    machines = [Machine("m", {"cpu": 8.0})]
    with pytest.raises(ProblemValidationError):
        RASAProblem(services, machines, current_assignment=np.array([[-1]]))
    with pytest.raises(ProblemValidationError):
        RASAProblem(services, machines, current_assignment=np.zeros((2, 1), dtype=int))


def test_dense_views_and_counts(tiny_problem):
    assert tiny_problem.num_services == 3
    assert tiny_problem.num_machines == 3
    assert tiny_problem.num_containers == 10
    assert tiny_problem.demands.tolist() == [4, 4, 2]
    assert tiny_problem.requests_matrix.shape == (3, len(tiny_problem.resource_types))
    assert tiny_problem.capacities_matrix.shape == (3, len(tiny_problem.resource_types))


def test_indices_and_names(tiny_problem):
    assert tiny_problem.service_index("b") == 1
    assert tiny_problem.machine_index("m2") == 2
    assert tiny_problem.service_names() == ["a", "b", "c"]
    assert tiny_problem.machine_names() == ["m0", "m1", "m2"]


def test_resource_types_inferred_from_services_and_machines():
    services = [Service("a", 1, {"cpu": 1.0, "gpu": 1.0})]
    machines = [Machine("m", {"cpu": 8.0, "disk": 100.0})]
    problem = RASAProblem(services, machines)
    assert set(problem.resource_types) == {"cpu", "gpu", "disk"}


def test_total_request(tiny_problem):
    total = tiny_problem.total_request()
    cpu = tiny_problem.resource_types.index("cpu")
    assert total[cpu] == pytest.approx(4 * 2.0 + 4 * 2.0 + 2 * 4.0)
    subset = tiny_problem.total_request(["a"])
    assert subset[cpu] == pytest.approx(8.0)
    assert tiny_problem.total_request([]).tolist() == [0.0, 0.0]


def test_subproblem_extraction(constrained_problem):
    sub = constrained_problem.subproblem(["web", "db"], ["m1", "m2"])
    assert sub.num_services == 2
    assert sub.num_machines == 2
    assert sub.affinity.weight("web", "db") == 5.0
    # Edge to the excluded 'batch' service is dropped.
    assert sub.affinity.num_edges == 1
    # The anti-affinity rule on 'web' survives the restriction.
    assert len(sub.anti_affinity) == 1
    # Schedulability slice preserved: db allowed on both m1 and m2.
    assert sub.schedulable.all()


def test_subproblem_drops_rules_without_members(constrained_problem):
    sub = constrained_problem.subproblem(["db", "batch"], ["m2"])
    assert all("web" not in rule.services for rule in sub.anti_affinity)
    assert len(sub.anti_affinity) == 0


def test_weighted_affinity_scales_by_priority():
    services = [
        Service("a", 1, {"cpu": 1.0}, priority=4.0),
        Service("b", 1, {"cpu": 1.0}, priority=1.0),
    ]
    machines = [Machine("m", {"cpu": 8.0})]
    problem = RASAProblem(services, machines, affinity={("a", "b"): 2.0})
    weighted = problem.weighted_affinity()
    assert weighted.weight("a", "b") == pytest.approx(2.0 * 2.0)  # sqrt(4*1) = 2


def test_problem_requires_services_and_machines():
    with pytest.raises(ProblemValidationError):
        RASAProblem([], [Machine("m", {"cpu": 1.0})])
    with pytest.raises(ProblemValidationError):
        RASAProblem([Service("a", 1, {"cpu": 1.0})], [])


# ----------------------------------------------------------------------
# Digest: one cell or one ulp of any constructor input changes it
# ----------------------------------------------------------------------
def _inputs(problem: RASAProblem) -> dict:
    """The constructor arguments that rebuild ``problem``."""
    return dict(
        services=problem.services,
        machines=problem.machines,
        affinity=dict(problem.affinity.items()),
        anti_affinity=problem.anti_affinity,
        schedulable=problem.schedulable,
        resource_types=problem.resource_types,
        current_assignment=problem.current_assignment,
    )


def _up(value: float) -> float:
    return float(np.nextafter(value, np.inf))


def _flipped(matrix: np.ndarray) -> np.ndarray:
    flipped = matrix.copy()
    flipped[0, 0] = not flipped[0, 0] if matrix.dtype == bool else flipped[0, 0] + 1
    return flipped


def _replace_first(items, **changes):
    return [dataclasses.replace(items[0], **changes), *items[1:]]


#: Constructor parameter -> edits of that input alone, each of which must
#: move the digest.  A parameter without an entry fails the test below.
_EDITS = {
    "services": {
        "demand": lambda p: _replace_first(p.services, demand=p.services[0].demand + 1),
        "requests": lambda p: _replace_first(p.services, requests={
            **p.services[0].requests, "cpu": _up(p.services[0].requests["cpu"]),
        }),
        "priority": lambda p: _replace_first(p.services, priority=_up(1.0)),
    },
    "machines": {
        "capacity": lambda p: _replace_first(p.machines, capacity={
            **p.machines[0].capacity, "memory": _up(p.machines[0].capacity["memory"]),
        }),
    },
    "affinity": {
        "weight": lambda p: {
            pair: _up(w) if i == 0 else w
            for i, (pair, w) in enumerate(p.affinity.items())
        },
    },
    "anti_affinity": {
        "limit": lambda p: [dataclasses.replace(p.anti_affinity[0], limit=3)],
    },
    "schedulable": {"cell": lambda p: _flipped(p.schedulable)},
    "resource_types": {"types": lambda p: ("cpu",)},
    "current_assignment": {"cell": lambda p: _flipped(p.current_assignment)},
}


def test_problem_digest_covers_every_constructor_input(constrained_problem):
    parameters = set(inspect.signature(RASAProblem.__init__).parameters) - {"self"}
    assert set(_EDITS) == parameters, "hash the new input in problem_digest"
    inputs = _inputs(constrained_problem)
    inputs["current_assignment"] = np.array([[2, 0, 4], [0, 1, 1], [1, 1, 1]])
    base = RASAProblem(**inputs)
    digest = problem_digest(base)
    assert problem_digest(RASAProblem(**_inputs(base))) == digest
    for name, edits in _EDITS.items():
        for label, edit in edits.items():
            changed = RASAProblem(**{**inputs, name: edit(base)})
            assert problem_digest(changed) != digest, f"{name}: {label}"
