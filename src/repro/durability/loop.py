"""Durable control loop: journal every cycle, compact, resume after kill -9.

Wraps a :class:`~repro.cluster.cronjob.CronJobController` so that each
completed cycle is durably journaled (committed :class:`CycleReport`,
post-apply placement by name, replay-cursor position, collector RNG and
last-snapshot state, fault-injector cycle key) and periodically compacted
into an atomic, self-contained snapshot.  After a crash at *any* point,
:func:`prepare_resume` rebuilds the world from the snapshot's embedded
source (event trace or problem), fast-forwards the replay cursor, restores
the live state, and continues the loop — producing a CycleReport sequence
bit-identical (modulo the process-local ``metrics`` field, the repo's
established determinism contract) to an uninterrupted run.

Why this restores exactly what it does: the solve phase is a pure function
of the collected problem (the partitioner re-seeds its RNG per call and
the schedulers are stateless), the fault injector re-keys per cycle from
``(plan.seed, cycle)``, and :class:`ReplayWorld`'s books are placement-
independent under event application — so resume determinism needs only
the placement, clock, churn tags, cursor position, collector state
(jitter RNG + last problem, which gates the stale-snapshot fault draw),
and the cycle index implied by the restored history length.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cluster.cronjob import CronJobController, CycleReport, build_controller
from repro.core.config import LoopSpec
from repro.durability.checkpoint import CheckpointStore
from repro.exceptions import CheckpointDivergenceError, ClusterStateError, DurabilityError
from repro.obs import get_logger, get_metrics, kv
from repro.workloads.trace_io import problem_to_dict

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.server import TelemetryHub

# ----------------------------------------------------------------------
# Live-state capture / restore
# ----------------------------------------------------------------------
def capture_live(controller: CronJobController) -> dict:
    """Serialize everything resume needs beyond the run source + history."""
    state = controller.state
    live: dict = {
        "clock": float(state.clock),
        "placement": state.named_placement(),
        "unschedulable_until": {
            str(name): float(until)
            for name, until in state.unschedulable_until.items()
        },
        "cursor_position": (
            int(controller.stream.position)
            if controller.stream is not None
            else None
        ),
        "collector": controller.collector.state_payload(),
        "fault": (
            controller.faults.state_payload()
            if controller.faults is not None
            else None
        ),
    }
    return live


def _restore_live(controller: CronJobController, live: dict) -> None:
    """Apply a captured live state to a freshly rebuilt world.

    Raises:
        CheckpointDivergenceError: When the capture no longer matches the
            rebuilt cluster structure.
    """
    state = controller.state
    try:
        if controller.stream is not None:
            position = live.get("cursor_position")
            if position is None:
                raise ClusterStateError(
                    "replay checkpoint is missing the cursor position"
                )
            controller.stream.seek(int(position))
        state.restore_named(live["placement"])
        target_clock = float(live["clock"])
        state.advance(target_clock - state.clock)
        state.unschedulable_until = {
            str(name): float(until)
            for name, until in dict(live["unschedulable_until"]).items()
        }
        controller.collector.restore_state(live["collector"])
        if controller.faults is not None and live.get("fault") is not None:
            controller.faults.restore_state(live["fault"])
    except (ClusterStateError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointDivergenceError(
            f"checkpoint does not match the rebuilt cluster: {exc}"
        ) from exc


# ----------------------------------------------------------------------
# Source payload (what makes a snapshot self-contained)
# ----------------------------------------------------------------------
def _source_payload(controller: CronJobController) -> dict:
    """The world a resume rebuilds: the replayed trace, or the problem."""
    if controller.stream is not None:
        return {"trace": controller.stream.trace.to_dict()}
    return {"problem": problem_to_dict(controller.state.problem)}


# ----------------------------------------------------------------------
# The durable loop driver
# ----------------------------------------------------------------------
class DurableControlLoop:
    """Drives a controller to a target cycle count with WAL + checkpoints.

    The one loop runner: the facade, a service tenant and a resume all
    drive their controller through :meth:`run`.  Built directly around a
    fresh controller, or by :func:`prepare_resume` (recovery);
    :meth:`run` then journals each committed cycle, compacts every
    ``checkpoint_every`` cycles, and honors a
    :class:`~repro.durability.supervisor.GracefulShutdown` by finishing
    the in-flight cycle and writing a final checkpoint.  With
    ``store=None`` nothing is journaled — :meth:`checkpoint` and the
    per-cycle commit return at once — and the loop is exactly
    ``controller.run`` plus the shutdown handling.
    """

    def __init__(
        self,
        *,
        controller: CronJobController,
        store: CheckpointStore | None,
        spec: LoopSpec,
        total_cycles: int,
        source_payload: dict | None = None,
        shutdown=None,
    ) -> None:
        self.controller = controller
        self.store = store
        #: The tunables the controller was built from (the ``run`` payload).
        self.spec = spec
        #: The world a resume rebuilds (a resume hands its own back).
        if source_payload is None and store is not None:
            source_payload = _source_payload(controller)
        self.source_payload = source_payload
        self.total_cycles = int(total_cycles)
        self.shutdown = shutdown
        #: True when a shutdown request stopped the loop before the target.
        self.interrupted = False
        #: Cycles restored from the checkpoint (0 for a fresh run).
        self.resumed_cycles = 0
        #: True when resume fell back to a guarded cold start.
        self.cold_start = False
        #: Torn WAL records truncated while loading the checkpoint.
        self.truncated_records = 0
        #: Optional callable returning an owner-defined dict persisted
        #: under the snapshot's ``extra`` key (the service stores each
        #: tenant's audit/event log here so it survives restarts).
        self.extra_state = None
        #: The ``extra`` dict loaded from the resumed checkpoint (empty
        #: for fresh runs); owners read it back after
        #: :func:`prepare_resume`.
        self.extra_payload: dict = {}
        #: Optional callback fired after every snapshot write (the
        #: service appends a ``checkpoint.written`` audit event from it).
        self.on_checkpoint = None
        self._since_snapshot = 0

    # ------------------------------------------------------------------
    def _snapshot_payload(self) -> dict:
        payload = {
            "run": {
                "mode": "replay" if self.controller.stream is not None else "cron",
                "cycles": self.total_cycles,
                **LoopSpec.to_dict(self.spec),
            },
            "source": self.source_payload,
            "cycles_completed": len(self.controller.history),
            "reports": [r.to_dict() for r in self.controller.history],
            "live": capture_live(self.controller),
        }
        if self.extra_state is not None:
            payload["extra"] = self.extra_state()
        elif self.extra_payload:
            payload["extra"] = self.extra_payload
        return payload

    def checkpoint(self) -> None:
        """Compact the journal into a fresh snapshot now."""
        if self.store is None:
            return
        self.store.write_snapshot(self._snapshot_payload())
        self._since_snapshot = 0
        if self.on_checkpoint is not None:
            self.on_checkpoint()

    def _commit_cycle(self, report: CycleReport) -> None:
        if self.store is None:
            return
        record = {
            "kind": "cycle",
            "cycle": report.cycle,
            "report": report.to_dict(),
            "live": capture_live(self.controller),
        }
        self.store.append_cycle(record)
        self._since_snapshot += 1
        if self._since_snapshot >= self.spec.checkpoint_every:
            self.checkpoint()

    def _should_stop(self) -> bool:
        return self.shutdown is not None and self.shutdown.requested

    def run(self) -> list[CycleReport]:
        """Run to the target cycle count (or a graceful-shutdown request).

        Returns the full report history — restored cycles included — so a
        resumed run hands back the same list an uninterrupted one would.
        """
        # The initial snapshot makes cycle 0 recoverable and, on resume,
        # immediately absorbs the recovered WAL tail.
        self.checkpoint()
        remaining = self.total_cycles - len(self.controller.history)
        if remaining > 0:
            self.controller.run(
                remaining,
                on_cycle=self._commit_cycle,
                should_stop=self._should_stop,
            )
        self.interrupted = (
            self._should_stop()
            and len(self.controller.history) < self.total_cycles
        )
        if self.shutdown is not None and self.interrupted:
            self.shutdown.interrupted = True
        if self._since_snapshot:
            self.checkpoint()
        return list(self.controller.history)


# ----------------------------------------------------------------------
# Resume
# ----------------------------------------------------------------------
def prepare_resume(
    checkpoint_dir,
    *,
    cycles: int | None = None,
    allow_cold_start: bool = False,
    checkpoint_every: int | None = None,
    shutdown=None,
    telemetry: "TelemetryHub | None" = None,
) -> DurableControlLoop:
    """Rebuild a durable loop from a checkpoint directory.

    Replays snapshot + WAL tail, reconstructs the world from the
    snapshot's embedded source, fast-forwards the replay cursor, restores
    placement/clock/tags/collector/injector state, and returns a loop
    whose :meth:`~DurableControlLoop.run` continues exactly where the
    crashed process stopped.

    Args:
        checkpoint_dir: Directory a previous durable run wrote.
        cycles: New target cycle count; None keeps the recorded target.
        allow_cold_start: On checkpoint divergence, discard the saved
            progress and restart from cycle 0 instead of raising.
        checkpoint_every: Override the recorded compaction cadence.
        shutdown: Optional :class:`GracefulShutdown` to honor.
        telemetry: Optional hub; restored reports are republished to it
            and its ``/healthz`` payload gains the recovery status.

    Raises:
        DurabilityError: When the directory holds no usable checkpoint.
        WALCorruptionError: On unrecoverable (mid-log) WAL damage.
        CheckpointDivergenceError: When the saved state no longer matches
            the rebuilt cluster and ``allow_cold_start`` is False.
    """
    logger = get_logger("durability.resume")
    metrics = get_metrics()
    store = CheckpointStore(checkpoint_dir)
    checkpoint = store.load()
    if checkpoint.snapshot is None:
        raise DurabilityError(
            f"no checkpoint snapshot under {store.directory} "
            f"(nothing to resume)"
        )
    run = dict(checkpoint.snapshot["run"])
    source = checkpoint.snapshot["source"]
    extra = dict(checkpoint.snapshot.get("extra") or {})
    del run["mode"]  # implied by the source
    recorded_total = run.pop("cycles")
    total = int(cycles if cycles is not None else recorded_total)
    # Checkpoints written before LoopSpec: the 3 % gate was recorded (it is
    # the paper's constant), ``faults`` was ``fault_plan``, and a tenant's
    # spec rode inside ``run`` instead of ``extra``.
    run.pop("improvement_gate", None)
    if "fault_plan" in run:
        run["faults"] = run.pop("fault_plan")
    if "tenant_spec" in run:
        extra["tenant_spec"] = run.pop("tenant_spec")
    if checkpoint_every is not None:
        run["checkpoint_every"] = int(checkpoint_every)
    spec = LoopSpec.from_dict(run)

    report_payloads = list(checkpoint.snapshot.get("reports", []))
    report_payloads += [record["report"] for record in checkpoint.wal_records]
    live = (
        checkpoint.wal_records[-1]["live"]
        if checkpoint.wal_records
        else checkpoint.snapshot.get("live")
    )

    history = [CycleReport.from_dict(p) for p in report_payloads]
    controller = build_controller(
        spec, source, telemetry=telemetry, history=history
    )
    cold = False
    try:
        if live is not None:
            _restore_live(controller, live)
    except CheckpointDivergenceError as exc:
        if not allow_cold_start:
            raise
        logger.warning(
            "checkpoint diverged; cold start %s",
            kv(directory=str(store.directory), error=str(exc)),
        )
        metrics.counter("durability.resume.cold_starts").inc()
        cold = True
        controller = build_controller(spec, source, telemetry=telemetry)

    resumed = len(controller.history)
    metrics.counter("durability.resume.count").inc()
    metrics.gauge("durability.resume.cycle").set(resumed)
    logger.info(
        "resume %s",
        kv(
            directory=str(store.directory),
            resumed_cycles=resumed,
            target_cycles=total,
            wal_records=len(checkpoint.wal_records),
            truncated_records=checkpoint.truncated_records,
            cold_start=cold,
        ),
    )
    if telemetry is not None:
        for report in controller.history:
            telemetry.publish_cycle(report)
        telemetry.set_recovery(
            {
                "resumed": True,
                "cold_start": cold,
                "resumed_cycles": resumed,
                "target_cycles": total,
                "wal_records": len(checkpoint.wal_records),
                "truncated_records": checkpoint.truncated_records,
                "supervisor": store.read_supervisor(),
            }
        )
    loop = DurableControlLoop(
        controller=controller,
        store=store,
        spec=spec,
        total_cycles=total,
        source_payload=source,
        shutdown=shutdown,
    )
    loop.resumed_cycles = resumed
    loop.cold_start = cold
    loop.truncated_records = checkpoint.truncated_records
    if not cold:
        loop.extra_payload = extra
    return loop
