"""Deterministic fault injection driven by a :class:`~repro.faults.plan.FaultPlan`.

The injector is the single source of chaos randomness for the control
plane.  Consumers (:class:`~repro.migration.executor.MigrationExecutor`,
:class:`~repro.cluster.cronjob.CronJobController`,
:class:`~repro.cluster.collector.DataCollector`) receive it through
optional ``injector`` parameters that default to ``None`` — the no-fault
path performs zero extra work and zero RNG draws, so it stays bit-identical
to a build without the fault layer.

Determinism contract: each CronJob cycle gets its own child stream derived
from ``(plan.seed, cycle)`` via :class:`numpy.random.SeedSequence`, so a
cycle's faults depend only on the seed and the cycle index — not on how
much randomness earlier cycles consumed.  The control plane draws from the
injector strictly sequentially (the solve phase's thread pool merges
deterministically and never draws from it), so the same seed and plan
replay the same fault sequence whatever the machine's CPU count.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.faults.plan import FaultPlan
from repro.obs import get_metrics

#: Command-fault kinds the injector can return.
COMMAND_FAULT_FAIL = "fail"
COMMAND_FAULT_TIMEOUT = "timeout"

#: Snapshot-fault kind: serve the previous cycle's snapshot.
SNAPSHOT_FAULT_STALE = "stale"


class FaultInjector:
    """Seeded chaos source with one decision method per injection point.

    Args:
        plan: The fault specification.  An all-zero plan makes every
            decision method a constant-time no-op.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._cycle: int | None = None
        self._rng = np.random.default_rng(np.random.SeedSequence(plan.seed))

    # ------------------------------------------------------------------
    # Stream management
    # ------------------------------------------------------------------
    def begin_cycle(self, cycle: int) -> None:
        """Re-key the random stream for one control-loop cycle.

        Called by the CronJob once at the top of each cycle (not on cycle
        retries — retries continue the same stream, so a retried migration
        draws fresh fault decisions and has a genuine chance to succeed).
        """
        self._cycle = cycle
        self._rng = np.random.default_rng(
            np.random.SeedSequence(self.plan.seed, spawn_key=(cycle,))
        )

    def reset(self) -> None:
        """Rewind to the initial stream (fresh replay of the same chaos)."""
        self._cycle = None
        self._rng = np.random.default_rng(np.random.SeedSequence(self.plan.seed))

    @property
    def cycle(self) -> int | None:
        """The cycle the stream is currently keyed to (None before any)."""
        return self._cycle

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def state_payload(self) -> dict:
        """JSON-safe capture of the injector's stream keying.

        Because each cycle re-keys the stream from ``(plan.seed, cycle)``
        and the control plane finishes a cycle's draws before the WAL
        record is written, the cycle key alone restores the injector — the
        next ``begin_cycle`` call re-derives everything else.
        """
        return {"cycle": self._cycle}

    def restore_state(self, payload: dict) -> None:
        """Restore a capture written by :meth:`state_payload`."""
        cycle = payload.get("cycle")
        if cycle is None:
            self.reset()
        else:
            self.begin_cycle(int(cycle))

    # ------------------------------------------------------------------
    # Injection points
    # ------------------------------------------------------------------
    def command_fault(self) -> str | None:
        """Fault decision for one migration-command attempt.

        Returns:
            ``"fail"``, ``"timeout"``, or None.  Zero-rate plans return
            None without consuming randomness.
        """
        p_fail = self.plan.command_failure_rate
        p_timeout = self.plan.command_timeout_rate
        if p_fail <= 0.0 and p_timeout <= 0.0:
            return None
        draw = self._rng.random()
        if draw < p_fail:
            get_metrics().counter("faults.injected.command_failures").inc()
            return COMMAND_FAULT_FAIL
        if draw < p_fail + p_timeout:
            get_metrics().counter("faults.injected.command_timeouts").inc()
            return COMMAND_FAULT_TIMEOUT
        return None

    def jitter(self) -> float:
        """A uniform [0, 1) draw for retry-backoff jitter.

        Pulled from the injector stream so retry timing is part of the
        deterministic replay.
        """
        return float(self._rng.random())

    def machine_failures(self, machines: Sequence[str]) -> list[str]:
        """Machines that flap this cycle, in input order.

        One Bernoulli draw per machine at ``machine_failure_rate``; zero
        rate short-circuits without drawing.
        """
        rate = self.plan.machine_failure_rate
        if rate <= 0.0 or not machines:
            return []
        draws = self._rng.random(len(machines))
        failed = [name for name, draw in zip(machines, draws) if draw < rate]
        if failed:
            get_metrics().counter("faults.injected.machine_failures").inc(len(failed))
        return failed

    def snapshot_fault(self) -> str | None:
        """Whether this cycle's collector snapshot is stale."""
        rate = self.plan.stale_snapshot_rate
        if rate <= 0.0:
            return None
        if self._rng.random() < rate:
            get_metrics().counter("faults.injected.stale_snapshots").inc()
            return SNAPSHOT_FAULT_STALE
        return None

    def dropped_edges(self, pairs: Sequence[tuple[str, str]]) -> set[tuple[str, str]]:
        """Traffic edges dropped from a fresh (partial) snapshot.

        Selects ``round(snapshot_drop_fraction * len(pairs))`` edges from
        the input sequence; callers pass the pairs in a canonical (sorted)
        order so the selection is deterministic.
        """
        fraction = self.plan.snapshot_drop_fraction
        if fraction <= 0.0 or not pairs:
            return set()
        count = int(round(fraction * len(pairs)))
        if count <= 0:
            return set()
        chosen = self._rng.choice(len(pairs), size=count, replace=False)
        get_metrics().counter("faults.injected.dropped_edges").inc(int(count))
        return {pairs[int(i)] for i in chosen}


def attempt_with_retry(
    injector: FaultInjector | None,
    retry,
    sleep=None,
) -> tuple[int, float, bool]:
    """Run one command's fault/retry loop against an injector.

    Shared by :class:`~repro.migration.executor.MigrationExecutor` and
    :class:`~repro.cluster.cronjob.CronJobController` so both consumers
    apply the same retry-with-backoff semantics.

    Args:
        injector: Fault source; None is an immediate success with no draws.
        retry: A :class:`~repro.core.config.RetryPolicy`.
        sleep: Optional sleeper invoked with each backoff delay; None
            accrues the delays without blocking (simulation mode).

    Returns:
        ``(retries, delay_seconds, succeeded)``.
    """
    if injector is None:
        return 0, 0.0, True
    retries = 0
    delay = 0.0
    for attempt in range(retry.max_attempts):
        if injector.command_fault() is None:
            return retries, delay, True
        if attempt + 1 >= retry.max_attempts:
            break
        backoff = retry.delay(attempt, injector.jitter())
        delay += backoff
        if sleep is not None:
            sleep(backoff)
        retries += 1
    return retries, delay, False


def coerce_injector(
    faults: "FaultPlan | FaultInjector | dict | None",
) -> FaultInjector | None:
    """Normalize the ``faults`` argument accepted across the public API.

    Accepts None (no injection), a :class:`FaultPlan`, a plan-shaped dict
    (as loaded from JSON), or a ready :class:`FaultInjector`.
    """
    if faults is None:
        return None
    if isinstance(faults, FaultInjector):
        return faults
    if isinstance(faults, FaultPlan):
        return FaultInjector(faults)
    if isinstance(faults, dict):
        return FaultInjector(FaultPlan.from_dict(faults))
    raise TypeError(
        f"faults must be a FaultPlan, FaultInjector, dict, or None; "
        f"got {type(faults).__name__}"
    )
