"""Migration plans: batched container delete/create command sets.

A migration plan (paper Section IV-E) is an ordered list of *command sets*.
Commands within one set touch distinct machines and may run in parallel;
set ``i+1`` may only start after set ``i`` completes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from repro.schemas import check_schema, tag_schema


class CommandAction(str, Enum):
    """The two reallocation primitives."""

    DELETE = "delete"
    CREATE = "create"


@dataclass(frozen=True)
class Command:
    """One container operation: delete or create a container of a service
    on a machine (e.g. ``(delete, svc-a, node-3)``)."""

    action: CommandAction
    service: str
    machine: str

    def __str__(self) -> str:
        return f"({self.action.value}, {self.service}, {self.machine})"


def alive_floor(sla_floor: float, demands: np.ndarray) -> np.ndarray:
    """Containers each service must keep alive during a migration (int64).

    ``floor(sla_floor * d)`` rather than a fraction test tolerates
    single-container services, which could otherwise never move.
    """
    return np.floor(sla_floor * demands).astype(np.int64)


@dataclass
class MigrationPlan:
    """An executable migration path.

    Attributes:
        steps: Ordered command sets; each set is executable in parallel.
        moved_containers: Total containers relocated by the plan.
        sla_floor: The alive-fraction floor the plan was built to respect.
        complete: False when the path algorithm stalled before fully
            reaching the target mapping (the residual is left to the
            cluster's default scheduler).
    """

    steps: list[list[Command]] = field(default_factory=list)
    moved_containers: int = 0
    sla_floor: float = 0.75
    complete: bool = True

    @property
    def num_steps(self) -> int:
        """Number of sequential command sets."""
        return len(self.steps)

    @property
    def num_commands(self) -> int:
        """Total commands across all sets."""
        return sum(len(step) for step in self.steps)

    def commands_by_action(self, action: CommandAction) -> list[Command]:
        """All commands of one action type, in execution order."""
        return [cmd for step in self.steps for cmd in step if cmd.action == action]

    def summary(self) -> str:
        """Human-readable one-liner."""
        deletes = len(self.commands_by_action(CommandAction.DELETE))
        creates = len(self.commands_by_action(CommandAction.CREATE))
        state = "complete" if self.complete else "partial"
        return (
            f"{state} plan: {self.num_steps} steps, "
            f"{deletes} deletes, {creates} creates"
        )

    # ------------------------------------------------------------------
    # Serialization (plans are handed to external executors as data)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Serialize to plain data (JSON-compatible, ``schema_version``-tagged)."""
        return tag_schema({
            "sla_floor": self.sla_floor,
            "moved_containers": self.moved_containers,
            "complete": self.complete,
            "steps": [
                [
                    {"action": cmd.action.value, "service": cmd.service,
                     "machine": cmd.machine}
                    for cmd in step
                ]
                for step in self.steps
            ],
        })

    @classmethod
    def from_dict(cls, payload: dict) -> "MigrationPlan":
        """Deserialize a plan written by :meth:`to_dict`."""
        check_schema(payload, "MigrationPlan")
        plan = cls(
            sla_floor=float(payload.get("sla_floor", 0.75)),
            moved_containers=int(payload.get("moved_containers", 0)),
            complete=bool(payload.get("complete", True)),
        )
        for step in payload.get("steps", []):
            plan.steps.append(
                [
                    Command(
                        action=CommandAction(entry["action"]),
                        service=entry["service"],
                        machine=entry["machine"],
                    )
                    for entry in step
                ]
            )
        return plan
