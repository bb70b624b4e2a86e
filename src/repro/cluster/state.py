"""Mutable cluster state for the control-plane simulator.

Wraps a :class:`~repro.core.problem.RASAProblem` with the live container
placement, and offers the container-level operations the CronJob workflow
performs (delete/create, snapshots, utilization queries).

The placement is kept in one :class:`~repro.solvers.greedy.PackingState`
(``state.books``): the matrix, the free capacity and the anti-affinity
counts, updated in place by every create/delete.  The packer's
``feasible_machines`` is therefore the single statement of "may this
machine take one more container" (capacity, anti-affinity,
schedulability) for the solvers, this state, the default scheduler and
the migration path builder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.problem import RASAProblem
from repro.core.solution import Assignment
from repro.exceptions import ClusterStateError
from repro.solvers.greedy import PackingState


@dataclass
class ClusterSnapshot:
    """Immutable view of the cluster at one instant (the Data Collector's
    output: service list, machine list, deployments, traffic metrics)."""

    problem: RASAProblem
    assignment: Assignment
    timestamp: float


class ClusterState:
    """Live cluster: placement matrix plus resource bookkeeping.

    Args:
        problem: The static cluster description (services, machines,
            affinity from traffic metrics, constraints).
        placement: Initial container placement; defaults to the problem's
            recorded current assignment or an empty cluster.

    Attributes:
        books: The one mutable placement record (``books.x`` is the live
            matrix, ``books.free`` the free capacity per machine); rebuilt
            by :meth:`restore`, :meth:`restore_named` and :meth:`rebind`.
    """

    def __init__(self, problem: RASAProblem, placement: np.ndarray | None = None) -> None:
        self._clock = 0.0
        self.unschedulable_until: dict[str, float] = {}
        self.rebind(problem, placement)

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    @property
    def clock(self) -> float:
        """Simulated time in seconds since state creation."""
        return self._clock

    def advance(self, seconds: float) -> None:
        """Advance the simulated clock."""
        if seconds < 0:
            raise ClusterStateError("cannot advance time backwards")
        self._clock += seconds

    # ------------------------------------------------------------------
    # Container operations
    # ------------------------------------------------------------------
    def delete_container(self, service: str, machine: str) -> None:
        """Remove one container; raises if none exists there."""
        s = self.problem.service_index(service)
        m = self.problem.machine_index(machine)
        if self.books.x[s, m] <= 0:
            raise ClusterStateError(
                f"no container of {service!r} on {machine!r} to delete"
            )
        self.books.remove(s, m)

    def create_container(self, service: str, machine: str) -> None:
        """Add one container; raises when capacity or constraints forbid it."""
        s = self.problem.service_index(service)
        m = self.problem.machine_index(machine)
        if not self.books.feasible_machines(s, m):
            raise ClusterStateError(
                f"{machine!r} cannot take one more container of {service!r} "
                f"(schedulability, free resources or anti-affinity)"
            )
        self.books.place(s, m)

    def mark_unschedulable(self, machine: str, until: float) -> None:
        """Tag a machine as off-limits for optimization until a deadline
        (the paper's 3-day churn guard after a rollback)."""
        self.unschedulable_until[machine] = max(
            self.unschedulable_until.get(machine, 0.0), until
        )

    def is_schedulable_machine(self, machine: str) -> bool:
        """Whether the optimizer may currently target the machine."""
        return self.unschedulable_until.get(machine, 0.0) <= self._clock

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def placement(self) -> np.ndarray:
        """Copy of the current placement matrix."""
        return self.books.x.copy()

    def assignment(self) -> Assignment:
        """Current placement as an :class:`~repro.core.solution.Assignment`."""
        return Assignment(self.problem, self.books.x)

    def snapshot(self) -> ClusterSnapshot:
        """The Data Collector's output for the current instant."""
        return ClusterSnapshot(
            problem=self.problem,
            assignment=self.assignment(),
            timestamp=self._clock,
        )

    def free_resources(self) -> np.ndarray:
        """Free capacity per machine, shape ``(M, R)`` (a copy)."""
        return self.books.free.copy()

    def utilization(self) -> np.ndarray:
        """Per-machine, per-resource utilization in ``[0, 1]`` (NaN when
        capacity is zero)."""
        capacity = self.problem.capacities_matrix
        used = self.books.x.T.astype(float) @ self.problem.requests_matrix
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(capacity > 0, used / capacity, np.nan)

    def utilization_imbalance(self) -> float:
        """Standard deviation of mean machine utilization — the skew metric
        the rollback mechanism watches."""
        util = np.nan_to_num(self.utilization(), nan=0.0).mean(axis=1)
        return float(util.std())

    def restore(self, placement: np.ndarray) -> None:
        """Overwrite the placement (rollback support)."""
        self.rebind(self.problem, placement)

    def named_placement(self) -> dict[str, dict[str, int]]:
        """The placement keyed by service and machine *names*.

        The checkpoint serialization: row/column indices are an artifact
        of one process's problem object, but names survive a restart and
        make divergence (a service or machine that no longer exists)
        detectable instead of silently mis-assigned.  Zero counts are
        omitted.
        """
        out: dict[str, dict[str, int]] = {}
        services = self.problem.service_names()
        machines = self.problem.machine_names()
        for s, svc in enumerate(services):
            row = {
                machines[m]: int(count)
                for m, count in enumerate(self.books.x[s])
                if count
            }
            if row:
                out[svc] = row
        return out

    def restore_named(self, mapping: dict[str, dict[str, int]]) -> None:
        """Overwrite the placement from a :meth:`named_placement` capture.

        The full matrix is built before any assignment, so a divergent
        capture never leaves the state partially mutated.

        Raises:
            ClusterStateError: When the capture references a service or
                machine this cluster does not know — the world changed
                between checkpoint and resume.
        """
        services = {name: i for i, name in enumerate(self.problem.service_names())}
        machines = {name: j for j, name in enumerate(self.problem.machine_names())}
        x = np.zeros_like(self.books.x)
        for svc, row in mapping.items():
            s = services.get(svc)
            if s is None:
                raise ClusterStateError(
                    f"checkpoint places unknown service {svc!r} "
                    f"(torn down since the checkpoint?)"
                )
            for mach, count in row.items():
                m = machines.get(mach)
                if m is None:
                    raise ClusterStateError(
                        f"checkpoint places {svc!r} on unknown machine "
                        f"{mach!r} (reclaimed since the checkpoint?)"
                    )
                x[s, m] = int(count)
        self.books = PackingState(self.problem, x)

    def rebind(self, problem: RASAProblem, placement: np.ndarray | None = None) -> None:
        """Swap in a new problem definition *in place*, preserving identity.

        Structural churn (service deploys, machine reclaims, traffic shifts)
        re-materializes the :class:`RASAProblem`, but the CronJob controller
        and the replay cursor both hold references to *this* state object —
        rebinding keeps those references valid instead of forcing every
        holder to chase a replacement object.  The simulated clock and the
        churn-guard tags survive; tags for machines that left the cluster
        are dropped.

        Args:
            problem: The new cluster description.
            placement: Placement matrix matching the new problem's shape;
                defaults to ``problem.current_assignment`` (or an empty
                cluster when the problem carries none).

        Raises:
            ClusterStateError: When the placement shape does not match.
        """
        if placement is None:
            placement = problem.current_assignment
        if placement is not None:  # else the books start empty
            placement = np.asarray(placement, dtype=np.int64)
            expected = (problem.num_services, problem.num_machines)
            if placement.shape != expected:
                raise ClusterStateError(
                    f"placement shape {placement.shape} != {expected}"
                )
        self.problem = problem
        self.books = PackingState(problem, placement)
        machines = set(problem.machine_names())
        self.unschedulable_until = {
            name: until
            for name, until in self.unschedulable_until.items()
            if name in machines
        }
