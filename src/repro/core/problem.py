"""Problem model for Resource Allocation with Service Affinity (RASA).

This module defines the cluster description consumed by every algorithm in
the package: services with container demands and per-resource requests,
machines with capacities, the affinity graph between services, anti-affinity
sets, and the schedulability matrix ``b`` (paper Section II, Table I).

The canonical object is :class:`RASAProblem`.  It is immutable after
construction and validated eagerly so downstream solvers can assume a
well-formed instance.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.affinity import AffinityGraph
from repro.exceptions import ProblemValidationError

#: Resource types used by default when a caller does not specify any.
DEFAULT_RESOURCES: tuple[str, ...] = ("cpu", "memory")


@dataclass(frozen=True)
class Service:
    """A microservice that must place ``demand`` homogeneous containers.

    Attributes:
        name: Unique service identifier within the cluster.
        demand: Number of containers (``d_s`` in the paper) required to meet
            the service's SLA.  Must be a positive integer.
        requests: Mapping from resource type to the amount requested by *one*
            container of this service (``R^S_{r,s}``).
        priority: Optional network-performance priority used to scale the
            service's affinity weights (paper Section II-B).  1.0 is neutral.
    """

    name: str
    demand: int
    requests: Mapping[str, float]
    priority: float = 1.0

    def __post_init__(self) -> None:
        if self.demand <= 0:
            raise ProblemValidationError(
                f"service {self.name!r}: demand must be positive, got {self.demand}"
            )
        if self.priority <= 0:
            raise ProblemValidationError(
                f"service {self.name!r}: priority must be positive, got {self.priority}"
            )
        for resource, amount in self.requests.items():
            if amount < 0:
                raise ProblemValidationError(
                    f"service {self.name!r}: negative request for {resource!r}"
                )


@dataclass(frozen=True)
class Machine:
    """A physical machine with per-resource capacities (``R^M_{r,m}``).

    Attributes:
        name: Unique machine identifier within the cluster.
        capacity: Mapping from resource type to total capacity.
        spec: Optional machine specification label.  Machines sharing a spec
            are interchangeable during subproblem machine assignment
            (paper Section IV-B5).
    """

    name: str
    capacity: Mapping[str, float]
    spec: str = "default"

    def __post_init__(self) -> None:
        for resource, amount in self.capacity.items():
            if amount < 0:
                raise ProblemValidationError(
                    f"machine {self.name!r}: negative capacity for {resource!r}"
                )


@dataclass(frozen=True)
class AntiAffinityRule:
    """Anti-affinity constraint: at most ``limit`` containers from
    ``services`` may share a machine (paper Eq. 5).

    A single-service rule expresses service-to-machine anti-affinity (spread).
    """

    services: frozenset[str]
    limit: int

    def __post_init__(self) -> None:
        if self.limit < 0:
            raise ProblemValidationError(
                f"anti-affinity limit must be non-negative, got {self.limit}"
            )
        if not self.services:
            raise ProblemValidationError("anti-affinity rule must name at least one service")


class RASAProblem:
    """A full RASA instance: services, machines, affinity, and constraints.

    Args:
        services: Cluster services.  Order defines service indices.
        machines: Cluster machines.  Order defines machine indices.
        affinity: Edge weights ``w_{s,s'}`` keyed by unordered service-name
            pairs, or an :class:`~repro.core.affinity.AffinityGraph`.
        anti_affinity: Anti-affinity rules (paper Eq. 5).
        schedulable: Optional boolean ``N x M`` matrix ``b``; ``True`` means
            the machine may host containers of the service (paper Eq. 6).
            Defaults to all-schedulable.
        resource_types: Resource types to enforce.  Defaults to the union of
            types appearing in services and machines.
        current_assignment: Optional existing placement ``x0`` (``N x M``
            integer matrix) describing where containers run today.  Used by
            the migration-path algorithm and the ORIGINAL baseline.

    Raises:
        ProblemValidationError: If any cross-references or shapes are invalid.
    """

    def __init__(
        self,
        services: Sequence[Service],
        machines: Sequence[Machine],
        affinity: AffinityGraph | Mapping[tuple[str, str], float] | None = None,
        anti_affinity: Iterable[AntiAffinityRule] = (),
        schedulable: np.ndarray | None = None,
        resource_types: Sequence[str] | None = None,
        current_assignment: np.ndarray | None = None,
    ) -> None:
        self.services: tuple[Service, ...] = tuple(services)
        self.machines: tuple[Machine, ...] = tuple(machines)
        if not self.services:
            raise ProblemValidationError("problem must contain at least one service")
        if not self.machines:
            raise ProblemValidationError("problem must contain at least one machine")

        self._service_index = {s.name: i for i, s in enumerate(self.services)}
        self._machine_index = {m.name: i for i, m in enumerate(self.machines)}
        if len(self._service_index) != len(self.services):
            raise ProblemValidationError("duplicate service names")
        if len(self._machine_index) != len(self.machines):
            raise ProblemValidationError("duplicate machine names")

        if resource_types is None:
            seen: dict[str, None] = {}
            for svc in self.services:
                for r in svc.requests:
                    seen.setdefault(r)
            for mach in self.machines:
                for r in mach.capacity:
                    seen.setdefault(r)
            resource_types = tuple(seen) or DEFAULT_RESOURCES
        self.resource_types: tuple[str, ...] = tuple(resource_types)

        if isinstance(affinity, AffinityGraph):
            self.affinity = affinity
        else:
            self.affinity = AffinityGraph(affinity or {})
        for u, v in self.affinity.edges():
            if u not in self._service_index or v not in self._service_index:
                raise ProblemValidationError(
                    f"affinity edge ({u!r}, {v!r}) references unknown service"
                )

        self.anti_affinity: tuple[AntiAffinityRule, ...] = tuple(anti_affinity)
        for rule in self.anti_affinity:
            for name in rule.services:
                if name not in self._service_index:
                    raise ProblemValidationError(
                        f"anti-affinity rule references unknown service {name!r}"
                    )

        n, m = len(self.services), len(self.machines)
        if schedulable is None:
            schedulable = np.ones((n, m), dtype=bool)
        else:
            schedulable = np.asarray(schedulable, dtype=bool)
            if schedulable.shape != (n, m):
                raise ProblemValidationError(
                    f"schedulable matrix shape {schedulable.shape} != ({n}, {m})"
                )
        self.schedulable: np.ndarray = schedulable
        self.schedulable.setflags(write=False)

        if current_assignment is not None:
            current_assignment = np.asarray(current_assignment, dtype=np.int64)
            if current_assignment.shape != (n, m):
                raise ProblemValidationError(
                    f"current assignment shape {current_assignment.shape} != ({n}, {m})"
                )
            if (current_assignment < 0).any():
                raise ProblemValidationError("current assignment has negative counts")
            current_assignment.setflags(write=False)
        self.current_assignment: np.ndarray | None = current_assignment

        # Dense numeric views used by solvers.  Built once, read many times.
        self._requests = np.array(
            [[svc.requests.get(r, 0.0) for r in self.resource_types] for svc in self.services],
            dtype=float,
        )
        self._capacities = np.array(
            [[mach.capacity.get(r, 0.0) for r in self.resource_types] for mach in self.machines],
            dtype=float,
        )
        self._demands = np.array([svc.demand for svc in self.services], dtype=np.int64)
        self._edges = tuple(
            (self._service_index[u], self._service_index[v], w)
            for (u, v), w in self.affinity.items()
        )
        self._requests.setflags(write=False)
        self._capacities.setflags(write=False)
        self._demands.setflags(write=False)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_services(self) -> int:
        """Number of services ``N``."""
        return len(self.services)

    @property
    def num_machines(self) -> int:
        """Number of machines ``M``."""
        return len(self.machines)

    @property
    def num_containers(self) -> int:
        """Total containers the cluster must host (sum of demands)."""
        return int(self._demands.sum())

    @property
    def demands(self) -> np.ndarray:
        """Vector of container demands ``d_s``, shape ``(N,)``."""
        return self._demands

    @property
    def requests_matrix(self) -> np.ndarray:
        """Per-container resource requests, shape ``(N, len(resource_types))``."""
        return self._requests

    @property
    def capacities_matrix(self) -> np.ndarray:
        """Machine capacities, shape ``(M, len(resource_types))``."""
        return self._capacities

    @property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """Affinity edges as ``(s, t, weight)`` index triples, in ``affinity.items()`` order."""
        return self._edges

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:attr:`edges` as arrays: endpoint indices ``s``, ``t`` and weights."""
        count = len(self._edges)
        s = np.fromiter((e[0] for e in self._edges), dtype=np.int64, count=count)
        t = np.fromiter((e[1] for e in self._edges), dtype=np.int64, count=count)
        w = np.fromiter((e[2] for e in self._edges), dtype=float, count=count)
        for array in (s, t, w):
            array.setflags(write=False)
        return s, t, w

    def service_index(self, name: str) -> int:
        """Return the index of the named service."""
        return self._service_index[name]

    def machine_index(self, name: str) -> int:
        """Return the index of the named machine."""
        return self._machine_index[name]

    def service_names(self) -> list[str]:
        """Names of all services, in index order."""
        return [s.name for s in self.services]

    def machine_names(self) -> list[str]:
        """Names of all machines, in index order."""
        return [m.name for m in self.machines]

    # ------------------------------------------------------------------
    # Derived structure
    # ------------------------------------------------------------------
    def weighted_affinity(self) -> AffinityGraph:
        """Affinity graph with edge weights scaled by service priorities.

        The paper allows cluster operators to up/down-weight traffic by a
        per-service network-performance priority; an edge's effective weight
        is scaled by the geometric mean of its endpoints' priorities.
        """
        scaled: dict[tuple[str, str], float] = {}
        for (u, v), w in self.affinity.items():
            pu = self.services[self._service_index[u]].priority
            pv = self.services[self._service_index[v]].priority
            scaled[(u, v)] = w * float(np.sqrt(pu * pv))
        return AffinityGraph(scaled)

    def subproblem(
        self,
        service_names: Sequence[str],
        machine_names: Sequence[str],
    ) -> "RASAProblem":
        """Extract the sub-instance induced by a service and machine subset.

        The affinity graph is restricted to edges with both endpoints inside
        the subset; anti-affinity rules are restricted to their intersection
        with the subset (rules that lose all members are dropped); the
        schedulability matrix and current assignment are sliced accordingly.
        """
        svc_idx = [self._service_index[s] for s in service_names]
        mach_idx = [self._machine_index[m] for m in machine_names]
        keep = set(service_names)

        sub_affinity = self.affinity.induced_subgraph(keep)
        sub_rules = []
        for rule in self.anti_affinity:
            members = rule.services & keep
            if members:
                sub_rules.append(AntiAffinityRule(services=frozenset(members), limit=rule.limit))

        sub_schedulable = self.schedulable[np.ix_(svc_idx, mach_idx)]
        sub_current = None
        if self.current_assignment is not None:
            sub_current = self.current_assignment[np.ix_(svc_idx, mach_idx)]

        return RASAProblem(
            services=[self.services[i] for i in svc_idx],
            machines=[self.machines[i] for i in mach_idx],
            affinity=sub_affinity,
            anti_affinity=sub_rules,
            schedulable=sub_schedulable,
            resource_types=self.resource_types,
            current_assignment=sub_current,
        )

    def total_request(self, service_names: Sequence[str] | None = None) -> np.ndarray:
        """Total resources requested by all containers of the given services.

        Args:
            service_names: Subset of services; defaults to every service.

        Returns:
            Vector over ``resource_types``.
        """
        if service_names is None:
            idx = np.arange(self.num_services)
        else:
            idx = np.array([self._service_index[s] for s in service_names], dtype=int)
        if idx.size == 0:
            return np.zeros(len(self.resource_types))
        return (self._requests[idx] * self._demands[idx, None]).sum(axis=0)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"RASAProblem(services={self.num_services}, machines={self.num_machines}, "
            f"containers={self.num_containers}, edges={self.affinity.num_edges})"
        )


def problem_digest(problem: RASAProblem) -> bytes:
    """SHA-256 over every input :class:`RASAProblem` was constructed from
    but the current assignment: equal for two snapshots of one world that
    differ only in where the containers run.

    Two problems with the same digest hand every solver the same instance
    up to that placement, order included: services (name, demand,
    requests, priority), machines (name, capacity, spec), the affinity
    edges in ``items()`` order, the anti-affinity rules, the resource
    types, and the bytes of the schedulability matrix.  Floats enter by
    ``repr``, which round-trips, so a one-ulp change changes the digest.
    """
    sha = hashlib.sha256()

    def feed(*parts) -> None:
        sha.update(repr(parts).encode())

    feed(problem.resource_types)
    for svc in problem.services:
        feed(svc.name, svc.demand, tuple(svc.requests.items()), svc.priority)
    for mach in problem.machines:
        feed(mach.name, tuple(mach.capacity.items()), mach.spec)
    feed(tuple(problem.affinity.items()))
    for rule in problem.anti_affinity:
        feed(sorted(rule.services), rule.limit)
    feed(problem.schedulable.dtype.str, problem.schedulable.shape)
    sha.update(np.ascontiguousarray(problem.schedulable).tobytes())
    return sha.digest()
