"""One tenant = one cluster's control loop, isolated from its neighbors.

A :class:`TenantSpec` is the versioned wire payload a client registers
(``POST /v1/tenants``): the cluster source (a problem snapshot or a v2
event trace), the scheduler/chaos/degradation configuration, and an
optional wall-clock cron cadence.  A :class:`Tenant` is that spec made
live — a :class:`~repro.cluster.cronjob.CronJobController` built through
:func:`repro.cluster.cronjob.build_controller`, i.e. **exactly** the
wiring :func:`repro.api.run_control_loop` uses, so a tenant's cycle
reports are bit-identical to the equivalent single-tenant run.

Isolation is structural, not policed:

* each tenant owns its collector, fault injector, degradation ladder,
  telemetry hub, and metrics registry — the only shared mutable state is
  the process metrics registry, which is advisory and never copied into
  a tenant's reports;
* each tenant's randomness comes from its own seeded generators (the
  collector's jitter stream and the injector's per-cycle
  ``SeedSequence``), so one tenant's chaos plan can never perturb
  another's report sequence;
* each tenant checkpoints under its own directory, so PR 6's durability
  (WAL + snapshots + resume) applies per tenant.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.cluster.collector import DataCollector
from repro.cluster.cronjob import CycleReport, build_controller
from repro.core.config import LoopSpec
from repro.durability.checkpoint import CheckpointStore
from repro.durability.loop import DurableControlLoop, prepare_resume
from repro.exceptions import ProblemValidationError
from repro.obs import TelemetryHub
from repro.obs.context import current_trace_id
from repro.obs.events import DEFAULT_CAPACITY, EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SLOEngine, SLOSpec
from repro.schemas import check_schema, strip_schema, tag_schema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.cronjob import CronJobController
    from repro.migration.plan import MigrationPlan

#: Tenant names appear in URLs and checkpoint paths, so keep them tame.
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


@dataclass(frozen=True, kw_only=True)
class TenantSpec(LoopSpec):
    """Versioned registration payload for one tenant.

    A tenant spec *is* a :class:`~repro.core.config.LoopSpec` — the loop
    tunables are inherited, under the same flat wire keys (DESIGN §12 has
    the field table; the service default ``time_limit`` of None keeps
    report sequences machine-independent) — plus the tenant's identity,
    its world, and its service-side settings.

    Exactly one of ``problem`` / ``trace`` must be set:

    * ``problem`` — a format-v1 problem snapshot
      (:func:`repro.workloads.trace_io.problem_to_dict`); the tenant runs
      CronJob cycles against a static world.
    * ``trace`` — a v2 event-trace payload
      (:meth:`repro.cluster.replay.EventTrace.to_dict`, as in trace files
      and checkpoint source payloads); the tenant replays the stream,
      applying due events before each cycle.

    Attributes:
        name: URL-safe tenant name (also the checkpoint subdirectory).
        problem: Problem snapshot payload, or None.
        trace: Event-trace payload, or None.
        schedule_seconds: Wall-clock cron cadence; when set, the service
            ticker triggers one cycle this often.  None means cycles run
            only when triggered explicitly.
        slo: :class:`~repro.obs.slo.SLOSpec` field overrides; None uses
            the default objectives (SLA-ok ratio only).
        event_log_size: Capacity of the tenant's audit/event ring buffer.
    """

    name: str
    problem: dict | None = None
    trace: dict | None = None
    schedule_seconds: float | None = None
    slo: dict | None = None
    event_log_size: int = DEFAULT_CAPACITY

    def __post_init__(self) -> None:
        super().__post_init__()
        if not isinstance(self.name, str) or not _NAME_RE.match(self.name):
            raise ProblemValidationError(
                "tenant name must match [A-Za-z0-9][A-Za-z0-9._-]{0,63}, "
                f"got {self.name!r}"
            )
        if (self.problem is None) == (self.trace is None):
            raise ProblemValidationError(
                "a TenantSpec needs exactly one of 'problem' or 'trace'"
            )
        if self.schedule_seconds is not None and self.schedule_seconds <= 0:
            raise ProblemValidationError(
                f"schedule_seconds must be positive, got {self.schedule_seconds}"
            )
        if self.event_log_size < 1:
            raise ProblemValidationError(
                f"event_log_size must be >= 1, got {self.event_log_size}"
            )
        if self.slo is not None:
            try:
                SLOSpec.from_dict(self.slo)
            except (TypeError, ValueError) as exc:
                raise ProblemValidationError(
                    f"invalid tenant SLO spec: {exc}"
                ) from exc

    # ------------------------------------------------------------------
    def slo_spec(self) -> SLOSpec:
        """The tenant's SLO spec (defaults when none was registered)."""
        if self.slo is None:
            return SLOSpec()
        return SLOSpec.from_dict(self.slo)

    # ------------------------------------------------------------------
    @property
    def mode(self) -> str:
        """``"replay"`` for trace tenants, ``"cron"`` for problem tenants."""
        return "replay" if self.trace is not None else "cron"

    @property
    def source(self) -> dict:
        """The tenant's world in checkpoint ``source`` payload shape."""
        if self.trace is not None:
            return {"trace": self.trace}
        return {"problem": self.problem}

    def service_dict(self) -> dict:
        """What a durable tenant persists beside its ``run`` and ``source``."""
        return {
            "name": self.name,
            "schedule_seconds": self.schedule_seconds,
            "slo": self.slo,
            "event_log_size": self.event_log_size,
        }

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Serialize to plain data (JSON-compatible, ``schema_version``-tagged)."""
        loop = LoopSpec.to_dict(self)
        # The wire order predates LoopSpec: checkpoint_every follows
        # schedule_seconds.
        checkpoint_every = loop.pop("checkpoint_every")
        return tag_schema(
            {
                "name": self.name,
                "problem": self.problem,
                "trace": self.trace,
                **loop,
                "schedule_seconds": self.schedule_seconds,
                "checkpoint_every": checkpoint_every,
                "slo": self.slo,
                "event_log_size": self.event_log_size,
            }
        )

    @classmethod
    def from_dict(cls, payload: dict) -> "TenantSpec":
        """Deserialize a spec written by :meth:`to_dict` (or a client).

        Unknown keys raise so a typoed tunable cannot silently fall back
        to a default.
        """
        check_schema(payload, "TenantSpec")
        if "name" not in payload:
            raise ProblemValidationError("TenantSpec payload needs a 'name'")
        return super().from_dict(strip_schema(payload))


class Tenant:
    """A registered tenant's live control loop and its local observability.

    Build fresh from a spec (optionally with a checkpoint directory for
    durability), or rebuild from a checkpoint directory with
    :meth:`resume`.  Cycle execution (:meth:`run_cycles`) is serialized
    by the pool (all of one tenant's jobs land on one worker slot), so
    the class only locks its cheap bookkeeping.
    """

    def __init__(
        self,
        spec: TenantSpec,
        *,
        checkpoint_dir: "str | Path | None" = None,
        resumed: "DurableControlLoop | None" = None,
    ) -> None:
        self.spec = spec
        self.registry = MetricsRegistry()
        self.events = EventLog(spec.event_log_size, tenant=spec.name)
        self.slo = SLOEngine(spec.slo_spec(), tenant=spec.name)
        self.checkpoint_dir = (
            None if checkpoint_dir is None else Path(checkpoint_dir)
        )
        self._lock = threading.Lock()
        self._folded = 0
        #: The tenant's one loop runner; it journals iff it has a store.
        self.loop: DurableControlLoop = resumed or DurableControlLoop(
            controller=build_controller(
                spec, spec.source, telemetry=TelemetryHub()
            ),
            store=(
                None if self.checkpoint_dir is None
                else CheckpointStore(self.checkpoint_dir)
            ),
            total_cycles=0,
        )
        self.controller: "CronJobController" = self.loop.controller
        self.hub: TelemetryHub = self.controller.telemetry
        saved_events = self.loop.extra_payload.get("events")
        if saved_events:
            self.events.restore_state(saved_events)
        # Persist the audit log and the tenant's own settings through the
        # checkpoint's ``extra`` payload.
        self.loop.extra_state = lambda: {
            "events": self.events.state_payload(),
            "tenant_spec": self.spec.service_dict(),
        }
        self.loop.on_checkpoint = self._on_checkpoint
        if resumed is None:
            self.loop.checkpoint()
        self._fold_new_reports()

    # ------------------------------------------------------------------
    @classmethod
    def resume(cls, checkpoint_dir: "str | Path") -> "Tenant":
        """Rebuild a tenant from the checkpoint a previous run left behind.

        The restored history is what the tenant's telemetry hub serves
        and is folded into its metrics registry, so ``/healthz`` and
        ``/metrics`` pick up where the previous process stopped.
        """
        durable = prepare_resume(checkpoint_dir, telemetry=TelemetryHub())
        saved = durable.extra_payload.get("tenant_spec")
        if saved is None:
            raise ProblemValidationError(
                f"checkpoint at {checkpoint_dir} was not written by the "
                "multi-tenant service (it carries no tenant_spec)"
            )
        # ``run`` holds the loop tunables and ``source`` the world; the
        # tenant's own record only adds what neither has.
        spec = TenantSpec.from_dict(
            {**durable.controller.spec.to_dict(), **durable.source_payload, **saved}
        )
        return cls(spec, checkpoint_dir=checkpoint_dir, resumed=durable)

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def cycles_completed(self) -> int:
        return len(self.controller.history)

    @property
    def last_report(self) -> "CycleReport | None":
        history = self.controller.history
        return history[-1] if history else None

    @property
    def last_plan(self) -> "MigrationPlan | None":
        return self.controller.last_plan

    # ------------------------------------------------------------------
    def run_cycles(self, cycles: int) -> list[CycleReport]:
        """Run ``cycles`` more cycles on the calling (pool worker) thread.

        Every tenant runs through its
        :class:`~repro.durability.loop.DurableControlLoop`, which
        journals each committed cycle when the tenant has a checkpoint
        directory; the loop's target is bumped by ``cycles`` each
        trigger, which is what makes three one-cycle triggers produce
        the same checkpoint state as one three-cycle run.
        """
        if cycles < 1:
            raise ProblemValidationError(f"cycles must be >= 1, got {cycles}")
        self.events.append(
            "cycle.started",
            cycle=self.cycles_completed,
            trace_id=current_trace_id(),
            detail={"requested": int(cycles)},
        )
        history = self.controller.history
        first = len(history)
        self.loop.total_cycles = first + cycles
        self.loop.run()
        new = history[first:]
        for report in new:
            self._record_cycle_events(report)
        self._fold_new_reports()
        return new

    def _record_cycle_events(self, report: CycleReport) -> None:
        """Append the audit events one finished cycle implies."""
        trace_id = report.trace_id
        self.events.append(
            "cycle.completed",
            cycle=report.cycle,
            trace_id=trace_id,
            detail={
                "action": report.action,
                "gate": report.gate,
                "sla_ok": report.sla_ok,
                "gained_after": report.gained_after,
            },
        )
        if report.rungs:
            self.events.append(
                "cycle.degraded",
                cycle=report.cycle,
                trace_id=trace_id,
                detail={"rungs": list(report.rungs)},
            )
        if report.action == "rolled_back":
            self.events.append(
                "cycle.rolled_back",
                cycle=report.cycle,
                trace_id=trace_id,
                detail={"imbalance_after": report.imbalance_after},
            )
        if (
            report.machine_failures
            or report.failed_commands
            or report.command_retries
        ):
            self.events.append(
                "fault.injected",
                cycle=report.cycle,
                trace_id=trace_id,
                detail={
                    "machine_failures": len(report.machine_failures),
                    "failed_commands": report.failed_commands,
                    "command_retries": report.command_retries,
                },
            )

    def push_snapshot(self, edges: list) -> int:
        """Replace the collector's ground-truth traffic measurements.

        ``edges`` is a list of ``[service_a, service_b, qps]`` triples
        (tuple keys do not survive JSON, so the wire format is triples);
        the next cycle optimizes against the pushed traffic.  Replay
        tenants reject pushes — their traffic comes from the recorded
        stream.
        """
        collector: DataCollector = self.controller.collector
        if collector.stream is not None:
            raise ProblemValidationError(
                f"tenant {self.name!r} replays a recorded trace; its "
                "traffic cannot be overridden by snapshot pushes"
            )
        services = set(self.controller.state.problem.service_names())
        parsed: dict[tuple[str, str], float] = {}
        for entry in edges:
            try:
                a, b, qps = entry
                parsed[(str(a), str(b))] = float(qps)
            except (TypeError, ValueError) as exc:
                raise ProblemValidationError(
                    "snapshot entries must be [service_a, service_b, qps] "
                    f"triples, got {entry!r}"
                ) from exc
            for name in (str(a), str(b)):
                if name not in services:
                    raise ProblemValidationError(
                        f"snapshot references unknown service {name!r}"
                    )
        with self._lock:
            collector.qps = parsed
        return len(parsed)

    def checkpoint(self) -> None:
        """Write a final snapshot now (no-op without a checkpoint directory)."""
        self.loop.checkpoint()

    # ------------------------------------------------------------------
    def _on_checkpoint(self) -> None:
        self.events.append(
            "checkpoint.written",
            cycle=self.cycles_completed,
            trace_id=current_trace_id(),
        )

    def record_event(
        self,
        kind: str,
        *,
        cycle: int | None = None,
        trace_id: str | None = None,
        detail: dict | None = None,
    ) -> dict:
        """Append one audit event to the tenant's log (service plumbing)."""
        return self.events.append(
            kind, cycle=cycle, trace_id=trace_id, detail=detail
        )

    def events_since(self, since: int = 0) -> dict:
        """The ``GET .../events?since=N`` document."""
        return {
            "tenant": self.name,
            "events": self.events.since(since),
            "last_seq": self.events.last_seq,
            "first_seq": self.events.first_seq,
            "evicted": self.events.evicted,
        }

    def alerts_doc(self) -> dict:
        """The ``GET .../alerts`` document: active alerts + SLO status."""
        return {
            "tenant": self.name,
            "alerts": self.slo.alerts(),
            "slo": self.slo.status(),
        }

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """The tenant's status document (``GET /v1/tenants/<name>``)."""
        problem = self.controller.state.problem
        last = self.last_report
        return tag_schema(
            {
                "name": self.name,
                "mode": self.spec.mode,
                "cycles_completed": self.cycles_completed,
                "num_services": problem.num_services,
                "num_machines": problem.num_machines,
                "schedule_seconds": self.spec.schedule_seconds,
                "durable": self.checkpoint_dir is not None,
                "checkpoint_dir": (
                    None if self.checkpoint_dir is None else str(self.checkpoint_dir)
                ),
                "faulted": self.spec.faults is not None,
                "gained_affinity": (
                    None if last is None else float(last.gained_after)
                ),
                "last_action": None if last is None else last.action,
                "last_gate": None if last is None else last.gate,
                "health": self.hub.health(),
                "alerts_active": len(self.slo.alerts()),
                "events_logged": self.events.last_seq,
            }
        )

    # ------------------------------------------------------------------
    def _fold_new_reports(self) -> None:
        """Fold not-yet-counted reports into the tenant metrics registry.

        Per-tenant metrics are derived from the tenant's own report
        history rather than by swapping the process-global registry —
        the global registry is a process-wide singleton and cannot be
        re-pointed per worker thread without cross-tenant bleed.
        """
        with self._lock:
            history = self.controller.history
            fresh = history[self._folded:]
            self._folded = len(history)
        reg = self.registry
        for report in fresh:
            self.slo.observe(report)
            reg.counter("tenant.cycles.total").inc()
            reg.counter(f"tenant.cycles.{report.action}").inc()
            reg.counter("tenant.moved_containers").inc(report.moved_containers)
            reg.counter("tenant.failed_commands").inc(report.failed_commands)
            reg.counter("tenant.skipped_commands").inc(report.skipped_commands)
            reg.counter("tenant.command_retries").inc(report.command_retries)
            reg.counter("tenant.machine_failures").inc(
                len(report.machine_failures)
            )
            if not report.sla_ok:
                reg.counter("tenant.sla_violations").inc()
            reg.gauge("tenant.gained_affinity").set(report.gained_after)
            reg.gauge("tenant.imbalance").set(report.imbalance_after)
            reg.gauge("tenant.min_alive_fraction").set(report.min_alive_fraction)
        if fresh:
            for objective, rates in self.slo.burn_rates().items():
                reg.gauge(f"slo.{objective}.burn_rate_fast").set(rates["fast"])
                reg.gauge(f"slo.{objective}.burn_rate_slow").set(rates["slow"])
            reg.gauge("slo.alerts.active").set(len(self.slo.alerts()))
