"""Migration plan execution against an assignment, with invariant checking
and fault tolerance.

The executor replays a :class:`~repro.migration.plan.MigrationPlan` command
set by command set, verifying after *every* set that

* the placement is feasible (Eq. 4–6: capacity, anti-affinity,
  schedulability) at that step boundary, and
* every service keeps at least the plan's SLA floor of containers alive.

Feasibility is the verifier's verdict —
``Assignment.check_feasibility(check_sla=False)`` — never the packer's
``feasible_machines`` the path builder constructs with: the executor is the
oracle for Algorithm 2 and must not share the builder's statement of the
rule.

It backs :func:`repro.api.execute_plan` and the test suite's proofs of
Algorithm 2's invariants (and of the naive plan's violation of them); the
CronJob loop applies its plans against the live cluster state itself, in
``CronJobController._apply``.

When a :class:`~repro.faults.FaultInjector` is supplied, commands can fail
or time out; each faulted command is retried under a
:class:`~repro.core.config.RetryPolicy` (exponential backoff + seeded
jitter), and a command that exhausts its retries aborts the execution:
the half-applied step is discarded and the assignment rolls back to the
last SLA-safe step boundary.  The returned :class:`ExecutionTrace` then
reports a structured ``outcome`` — ``"completed"``, ``"partial"`` (some
steps survived), or ``"rolled_back"`` (none did) — instead of raising or
silently swallowing the failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.config import RetryPolicy
from repro.core.problem import RASAProblem
from repro.core.solution import Assignment
from repro.exceptions import MigrationError
from repro.faults import FaultInjector, attempt_with_retry
from repro.migration.plan import CommandAction, MigrationPlan, alive_floor
from repro.obs import get_logger, get_metrics, get_tracer, kv
from repro.schemas import check_schema, tag_schema

#: Structured execution outcomes.
OUTCOME_COMPLETED = "completed"
OUTCOME_PARTIAL = "partial"
OUTCOME_ROLLED_BACK = "rolled_back"


@dataclass
class ExecutionTrace:
    """Step-by-step record of a plan execution.

    Attributes:
        final: The assignment after all surviving steps.
        min_alive_fraction: The lowest alive fraction any service hit at any
            step boundary (1.0 when nothing was ever offline).
        peak_overcommit: The largest capacity excess observed (0.0 when
            resources were respected throughout).
        steps_executed: Command sets whose effects survived (after an
            abort, the safe-boundary step count).
        alive_fractions: Per-step minimum alive fraction, for plotting.
        outcome: ``"completed"`` when every step applied, ``"partial"``
            when a fault aborted execution after at least one safe step,
            ``"rolled_back"`` when the rollback reached the start state.
        failed_commands: Commands that exhausted their retry budget.
        command_retries: Total retry attempts across all commands.
        retry_delay_seconds: Total backoff delay accrued by retries (summed
            from the policy; only actually slept when a sleeper is given).
    """

    final: Assignment
    min_alive_fraction: float
    peak_overcommit: float
    steps_executed: int
    alive_fractions: list[float] = field(default_factory=list)
    outcome: str = OUTCOME_COMPLETED
    failed_commands: int = 0
    command_retries: int = 0
    retry_delay_seconds: float = 0.0

    # ------------------------------------------------------------------
    # Serialization (mirrors MigrationPlan.to_dict conventions)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Serialize to plain data (JSON-compatible, ``schema_version``-tagged)."""
        return tag_schema({
            "outcome": self.outcome,
            "min_alive_fraction": self.min_alive_fraction,
            "peak_overcommit": self.peak_overcommit,
            "steps_executed": self.steps_executed,
            "alive_fractions": list(self.alive_fractions),
            "failed_commands": self.failed_commands,
            "command_retries": self.command_retries,
            "retry_delay_seconds": self.retry_delay_seconds,
            "final_x": self.final.x.tolist(),
        })

    @classmethod
    def from_dict(cls, payload: dict, problem: RASAProblem) -> "ExecutionTrace":
        """Deserialize a trace written by :meth:`to_dict`.

        The problem is needed to re-wrap the final placement matrix as an
        :class:`~repro.core.solution.Assignment`.
        """
        check_schema(payload, "ExecutionTrace")
        return cls(
            final=Assignment(
                problem, np.asarray(payload["final_x"], dtype=np.int64)
            ),
            min_alive_fraction=float(payload["min_alive_fraction"]),
            peak_overcommit=float(payload["peak_overcommit"]),
            steps_executed=int(payload["steps_executed"]),
            alive_fractions=[float(v) for v in payload.get("alive_fractions", [])],
            outcome=str(payload.get("outcome", OUTCOME_COMPLETED)),
            failed_commands=int(payload.get("failed_commands", 0)),
            command_retries=int(payload.get("command_retries", 0)),
            retry_delay_seconds=float(payload.get("retry_delay_seconds", 0.0)),
        )


class MigrationExecutor:
    """Replays migration plans and enforces their invariants.

    Args:
        strict: When True, raise :class:`~repro.exceptions.MigrationError`
            on the first invariant violation instead of recording it.
            (Injected faults never raise — they are reported through the
            trace's ``outcome``.)
        retry: Backoff policy for faulted commands; defaults to
            :class:`~repro.core.config.RetryPolicy` defaults.
        sleep: Optional sleeper (e.g. ``time.sleep``) invoked with each
            backoff delay.  None (the default) accrues the delays in the
            trace without blocking — right for simulation, where the
            backoff schedule matters but wall-clock waiting does not.
    """

    def __init__(
        self,
        strict: bool = True,
        retry: RetryPolicy | None = None,
        sleep: Callable[[float], None] | None = None,
    ) -> None:
        self.strict = strict
        self.retry = retry or RetryPolicy()
        self.sleep = sleep

    def execute(
        self,
        problem: RASAProblem,
        start: Assignment,
        plan: MigrationPlan,
        *,
        injector: FaultInjector | None = None,
    ) -> ExecutionTrace:
        """Apply ``plan`` to ``start`` and return the execution trace.

        Args:
            injector: Optional fault source; None (the default) replays the
                plan fault-free and behaves exactly like the pre-fault
                executor.

        Raises:
            MigrationError: In strict mode, when a command is inapplicable
                (deleting a non-existent container) or an invariant breaks.
        """
        x = start.x.copy()
        demands = problem.demands.astype(float)
        floor = alive_floor(plan.sla_floor, problem.demands)

        min_alive = 1.0
        peak_over = 0.0
        alive_fractions: list[float] = []
        tracer = get_tracer()
        logger = get_logger("migration.executor")

        # Abort bookkeeping: the last step boundary at which both
        # invariants held, and the placement at that boundary.
        safe_x = x.copy()
        safe_steps = 0
        outcome = OUTCOME_COMPLETED
        failed_commands = 0
        command_retries = 0
        retry_delay = 0.0

        with tracer.span(
            "migration.execute", steps=len(plan.steps), sla_floor=plan.sla_floor
        ):
            for step_index, step in enumerate(plan.steps):
                with tracer.span(
                    "migration.execute.step", index=step_index, commands=len(step)
                ) as step_span:
                    aborted = False
                    for command in step:
                        fate = self._attempt_command(command, injector)
                        command_retries += fate[0]
                        retry_delay += fate[1]
                        if not fate[2]:
                            failed_commands += 1
                            aborted = True
                            logger.warning(
                                "command failed permanently %s",
                                kv(
                                    step=step_index,
                                    command=str(command),
                                    retries=fate[0],
                                ),
                            )
                            break
                        s = problem.service_index(command.service)
                        m = problem.machine_index(command.machine)
                        if command.action is CommandAction.DELETE:
                            if x[s, m] <= 0:
                                raise MigrationError(
                                    f"step {step_index}: delete of absent container "
                                    f"{command.service} on {command.machine}"
                                )
                            x[s, m] -= 1
                        else:
                            x[s, m] += 1

                    if aborted:
                        # Discard the half-applied step: roll back to the last
                        # boundary where both invariants held.
                        x = safe_x
                        outcome = (
                            OUTCOME_PARTIAL if safe_steps > 0 else OUTCOME_ROLLED_BACK
                        )
                        step_span.set_tag("aborted", True)
                        tracer.event(
                            "migration.abort",
                            step=step_index,
                            safe_steps=safe_steps,
                            outcome=outcome,
                        )
                        break

                    alive_counts = x.sum(axis=1)
                    alive = alive_counts / demands
                    step_min = float(alive.min()) if alive.size else 1.0
                    alive_fractions.append(step_min)
                    min_alive = min(min_alive, step_min)
                    step_span.set_tag("min_alive_fraction", step_min)
                    deficit = floor - alive_counts
                    sla_ok = not (deficit > 0).any()
                    if self.strict and not sla_ok:
                        worst = int(np.argmax(deficit))
                        raise MigrationError(
                            f"step {step_index}: service {problem.services[worst].name} "
                            f"has {int(alive_counts[worst])} alive "
                            f"(< floor {int(floor[worst])} from the "
                            f"{plan.sla_floor:.0%} SLA floor)"
                        )

                    verdict = Assignment(problem, x).check_feasibility(check_sla=False)
                    for _machine, _resource, used, capacity in verdict.resource_violations:
                        peak_over = max(peak_over, used - capacity)
                    if self.strict and not verdict.feasible:
                        raise MigrationError(f"step {step_index}: {verdict.summary()}")
                    if sla_ok and verdict.feasible:
                        safe_x = x.copy()
                        safe_steps = step_index + 1

        metrics = get_metrics()
        metrics.gauge("migration.min_alive_fraction").set(min_alive)
        metrics.gauge("migration.peak_overcommit").set(peak_over)
        if command_retries:
            metrics.counter("migration.retry.commands").inc(command_retries)
        if failed_commands:
            metrics.counter("migration.failed_commands").inc(failed_commands)
        steps_executed = len(plan.steps) if outcome == OUTCOME_COMPLETED else safe_steps
        return ExecutionTrace(
            final=Assignment(problem, x),
            min_alive_fraction=min_alive,
            peak_overcommit=peak_over,
            steps_executed=steps_executed,
            alive_fractions=alive_fractions,
            outcome=outcome,
            failed_commands=failed_commands,
            command_retries=command_retries,
            retry_delay_seconds=retry_delay,
        )

    # ------------------------------------------------------------------
    def _attempt_command(
        self, command, injector: FaultInjector | None
    ) -> tuple[int, float, bool]:
        """Run one command through the shared fault/retry loop.

        Returns:
            ``(retries, delay_seconds, succeeded)``.  Without an injector
            (or with a zero-rate plan) this is a constant-time success.
        """
        return attempt_with_retry(injector, self.retry, self.sleep)
