"""The multi-tenant optimizer service: a versioned REST control plane.

One process hosts N named clusters as independent tenants.  The HTTP
layer is :mod:`repro.obs.server`'s listener and request pipeline (trace
context, routing, 400/404/405/500 mapping, typed request parsing, access
log — described there once); this module adds the route table below and
one short handler method per row.  Tenant work is executed on a
:class:`~repro.service.pool.ControllerPool`, so handler threads stay
cheap and one tenant's control loop never interleaves with itself.

Surface (all request/response documents are ``schema_version``-tagged
JSON, :mod:`repro.schemas`):

====== ================================== ===================================
Verb   Path                               Meaning
====== ================================== ===================================
GET    ``/v1/healthz``                    service health + tenant roll-up
GET    ``/metrics``                       process metrics (Prometheus text)
GET    ``/v1/tenants``                    list tenant summaries
POST   ``/v1/tenants``                    register a tenant (TenantSpec)
GET    ``/v1/tenants/<n>``                one tenant's summary
DELETE ``/v1/tenants/<n>``                deregister (final checkpoint first)
POST   ``/v1/tenants/<n>/cycles``         trigger cycles (``wait`` to block)
GET    ``/v1/tenants/<n>/cycles``         cycle reports (``since=<k>``)
GET    ``/v1/tenants/<n>/plan``           latest migration plan
POST   ``/v1/tenants/<n>/snapshots``      push collector traffic edges
POST   ``/v1/tenants/<n>/schedule``       set/clear the cron cadence
GET    ``/v1/tenants/<n>/healthz``        tenant health (503 on SLA breach)
GET    ``/v1/tenants/<n>/metrics``        tenant metrics (Prometheus text)
GET    ``/v1/tenants/<n>/events``         tenant audit log (``since=<seq>``)
GET    ``/v1/tenants/<n>/alerts``         tenant SLO burn-rate alerts
GET    ``/v1/events``                     merged audit log across tenants
GET    ``/v1/alerts``                     active alerts across tenants
GET    ``/v1/trace``                      live Chrome trace-event document
GET    ``/v1/trace/otlp``                 live OTLP/JSON trace document
GET    ``/v1/jobs/<id>``                  async trigger status
====== ================================== ===================================

Request tracing: the pipeline's per-request
:class:`~repro.obs.context.TraceContext` crosses the controller-pool
thread boundary with the job, so the HTTP access-log line, the tenant's
audit events, the cycle's spans (Chrome and OTLP exports), and
``CycleReport.trace_id`` all carry the same trace id.

Scheduling: a ticker thread fires one cycle per tenant every
``schedule_seconds`` (wall clock).  A scheduled tick is skipped while the
tenant's previous scheduled cycle is still queued or running — cron
cycles never stack up behind a slow solve.  Clearing the cadence cancels
a queued-not-started scheduled cycle, and the ``POST .../schedule`` reply's
``in_flight`` says whether one is running at that moment (it finishes).

Durability: with ``checkpoint_root`` set, each tenant journals under
``<root>/<name>`` (PR 6's WAL + snapshots), the registered spec rides in
the checkpoint, and service startup resurrects every tenant found on
disk — schedules included.
"""

from __future__ import annotations

import itertools
import re
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING

from repro.durability.checkpoint import SNAPSHOT_FILE, WAL_FILE
from repro.exceptions import ProblemValidationError, ReproError
from repro.obs import get_logger, get_metrics, kv
from repro.obs.context import TraceIdFactory, current_trace_id, use_context
from repro.obs.export import to_otlp
from repro.obs.server import HttpListener, JsonRequestHandler, chrome_trace
from repro.obs.spans import Tracer, get_tracer, set_tracer
from repro.schemas import check_schema, strip_schema, tag_schema
from repro.service.pool import ControllerPool
from repro.service.tenant import Tenant, TenantSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import Future

#: What ``<n>`` and ``<id>`` stand for in the route table's paths.
_NAME = r"(?P<tenant>[A-Za-z0-9._-]+)"
_JOB_ID = r"(job-\d+)"


class TenantExistsError(ReproError):
    """A tenant is already registered under the requested name."""


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one :class:`OptimizerService` process.

    Attributes:
        host: Bind address (loopback by default — the control plane is
            plaintext and unauthenticated).
        port: TCP port; 0 binds an ephemeral one.
        workers: Worker threads in the tenant controller pool.
        checkpoint_root: Directory tenants checkpoint under (one
            subdirectory per tenant); None disables durability.
        resume: Resurrect checkpointed tenants found under
            ``checkpoint_root`` at startup.
        tick_seconds: Cron-ticker cadence (how often due schedules are
            checked, not how often cycles run).
        tracing: Install a real process tracer at startup (when none is
            already enabled) so ``/v1/trace`` and ``/v1/trace/otlp``
            serve live spans.  Tracing is a pure observer — disabling it
            changes no report content.
        trace_seed: Seed of the deterministic trace-id factory.
    """

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 4
    checkpoint_root: Path | None = None
    resume: bool = True
    tick_seconds: float = 0.5
    tracing: bool = True
    trace_seed: int = 0


class _Job:
    """Bookkeeping for one asynchronous cycle trigger."""

    def __init__(self, job_id: str, tenant: str, cycles: int) -> None:
        self.id = job_id
        self.tenant = tenant
        self.cycles = cycles
        self.future: "Future | None" = None
        self.submitted_at = time.time()
        self.trace_id: str | None = None

    def payload(self) -> dict:
        future = self.future
        if future is None or not future.done():
            status, error, reports = "running", None, None
        elif future.cancelled():
            status, error, reports = "cancelled", None, None
        elif future.exception() is not None:
            status, error, reports = "failed", str(future.exception()), None
        else:
            status, error = "done", None
            reports = [report.to_dict() for report in future.result()]
        return tag_schema(
            {
                "id": self.id,
                "tenant": self.tenant,
                "cycles": self.cycles,
                "status": status,
                "error": error,
                "reports": reports,
                "trace_id": self.trace_id,
            }
        )


class OptimizerService:
    """The long-running multi-tenant control plane.

    Use :func:`repro.api.start_service` (or ``rasa serve``) rather than
    constructing this directly; both return the service started, and
    ``stop()`` shuts it down with final per-tenant checkpoints.
    """

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.pool = ControllerPool(self.config.workers)
        self.ids = TraceIdFactory(
            seed=self.config.trace_seed, namespace="rasa-service"
        )
        self._tenants: dict[str, Tenant] = {}
        self._jobs: dict[str, _Job] = {}
        self._job_ids = itertools.count(1)
        self._scheduled: dict[str, "Future | None"] = {}
        self._next_due: dict[str, float] = {}
        self._lock = threading.RLock()
        self._http = HttpListener(
            _ServiceRequestHandler, self,
            host=self.config.host, port=self.config.port,
            name="rasa-service-http",
        )
        self._ticker: threading.Thread | None = None
        self._stop_event = threading.Event()
        self._prev_tracer = None
        self._logger = get_logger("service.app")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> int:
        """Resume checkpointed tenants, bind, and serve; returns the port."""
        if self._ticker is not None:
            return self.port
        if self.config.tracing and not get_tracer().enabled:
            # Install a live tracer for /v1/trace[.otlp]; restored on
            # stop().  An already-enabled tracer (e.g. a test's) is kept.
            self._prev_tracer = set_tracer(Tracer())
        self.pool.start()
        if self.config.checkpoint_root is not None and self.config.resume:
            self._resume_tenants(self.config.checkpoint_root)
        self._http.start()
        self._ticker = threading.Thread(
            target=self._tick_loop, name="rasa-service-ticker", daemon=True
        )
        self._ticker.start()
        self._logger.info(
            "service up %s",
            kv(url=self.url, workers=self.config.workers,
               tenants=len(self._tenants)),
        )
        return self.port

    def stop(self, *, timeout: float | None = 30.0) -> None:
        """Graceful shutdown: drain tenant work, write final checkpoints.

        Order matters: the ticker stops first (no new scheduled cycles),
        then the HTTP listener (no new triggers), then the pool drains
        in-flight cycles, and only then does every durable tenant write
        its final snapshot — so the checkpoints on disk describe a fully
        quiesced service.
        """
        self._stop_event.set()
        ticker, self._ticker = self._ticker, None
        if ticker is not None:
            ticker.join(timeout=5.0)
        self._http.stop()
        self.pool.stop(drain=True, timeout=timeout)
        with self._lock:
            tenants = list(self._tenants.values())
        for tenant in tenants:
            try:
                tenant.checkpoint()
            except Exception as exc:  # noqa: BLE001 - best-effort shutdown
                self._logger.warning(
                    "final checkpoint failed %s",
                    kv(tenant=tenant.name, error=str(exc)),
                )
        if self._prev_tracer is not None:
            set_tracer(self._prev_tracer)
            self._prev_tracer = None
        self._logger.info("service stopped %s", kv(tenants=len(tenants)))

    def __enter__(self) -> "OptimizerService":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        return self._http.port

    @property
    def url(self) -> str:
        return self._http.url

    # ------------------------------------------------------------------
    # Tenant registry
    # ------------------------------------------------------------------
    def register(self, spec: TenantSpec) -> Tenant:
        """Register a tenant from its spec.

        Raises:
            TenantExistsError: When the name is taken (409 over HTTP).
            ProblemValidationError: When the spec's world cannot be built.
        """
        checkpoint_dir = None
        if self.config.checkpoint_root is not None:
            checkpoint_dir = self.config.checkpoint_root / spec.name
        with self._lock:
            if spec.name in self._tenants:
                raise TenantExistsError(spec.name)
        # World building happens outside the lock (it can be seconds for
        # a big trace); the insert re-checks for a racing duplicate.
        try:
            tenant = Tenant(spec, checkpoint_dir=checkpoint_dir)
        except KeyError as exc:
            # A KeyError here is a hole in the payload, never a missing
            # tenant — keep it away from the 404 mapping of lookups.
            raise ProblemValidationError(
                f"malformed tenant payload: missing {exc}"
            ) from exc
        with self._lock:
            if spec.name in self._tenants:
                raise TenantExistsError(spec.name)
            self._tenants[spec.name] = tenant
            self._arm_schedule(tenant)
        get_metrics().counter("service.tenants.registered").inc()
        tenant.record_event(
            "tenant.registered",
            trace_id=current_trace_id(),
            detail={"mode": spec.mode, "durable": checkpoint_dir is not None},
        )
        self._logger.info(
            "tenant registered %s",
            kv(tenant=spec.name, mode=spec.mode,
               slot=self.pool.slot_for(spec.name),
               durable=checkpoint_dir is not None),
        )
        return tenant

    def deregister(self, name: str) -> Tenant:
        """Remove a tenant (its checkpoint directory is left on disk)."""
        with self._lock:
            tenant = self._tenants.pop(name)
            self._scheduled.pop(name, None)
            self._next_due.pop(name, None)
        # Recorded before the final checkpoint so the event survives on
        # disk with the rest of the tenant's audit log.
        tenant.record_event(
            "tenant.deregistered",
            cycle=tenant.cycles_completed,
            trace_id=current_trace_id(),
        )
        tenant.checkpoint()
        get_metrics().counter("service.tenants.deregistered").inc()
        self._logger.info("tenant deregistered %s", kv(tenant=name))
        return tenant

    def tenant(self, name: str) -> Tenant:
        with self._lock:
            return self._tenants[name]

    def tenants(self) -> list[Tenant]:
        with self._lock:
            return [
                self._tenants[name] for name in sorted(self._tenants)
            ]

    def trigger(self, name: str, cycles: int) -> _Job:
        """Queue ``cycles`` cycles for a tenant; returns the job record."""
        tenant = self.tenant(name)
        job = _Job(f"job-{next(self._job_ids)}", name, cycles)
        job.trace_id = current_trace_id()
        with self._lock:
            self._jobs[job.id] = job
        job.future = self.pool.submit(name, lambda: tenant.run_cycles(cycles))
        return job

    def job(self, job_id: str) -> _Job:
        with self._lock:
            return self._jobs[job_id]

    def set_schedule(
        self, name: str, schedule_seconds: float | None
    ) -> tuple[Tenant, bool]:
        """Set or clear a tenant's wall-clock cron cadence.

        Clearing cancels a scheduled cycle that is queued but not started.

        Returns:
            The tenant, and whether a scheduled cycle is running right now
            (it finishes; after a clear, nothing fires behind it).
        """
        with self._lock:
            tenant = self._tenants[name]
            tenant.spec = replace(tenant.spec, schedule_seconds=schedule_seconds)
            self._arm_schedule(tenant)
            scheduled = self._scheduled.get(name)
            return tenant, scheduled is not None and scheduled.running()

    def health(self) -> dict:
        """The service-level ``/v1/healthz`` document."""
        with self._lock:
            tenants = dict(self._tenants)
        statuses = {
            name: tenant.hub.health()["status"]
            for name, tenant in sorted(tenants.items())
        }
        return tag_schema(
            {
                "status": "ok",
                "tenants": len(tenants),
                "workers": self.config.workers,
                "tenant_status": statuses,
                "checkpoint_root": (
                    None
                    if self.config.checkpoint_root is None
                    else str(self.config.checkpoint_root)
                ),
            }
        )

    # ------------------------------------------------------------------
    # Observability roll-ups
    # ------------------------------------------------------------------
    def events_doc(self) -> dict:
        """The merged ``/v1/events`` document (all tenants, time-ordered)."""
        merged: list[dict] = []
        names: list[str] = []
        for tenant in self.tenants():
            names.append(tenant.name)
            merged.extend(tenant.events.snapshot())
        merged.sort(key=lambda e: (e["ts"], e["tenant"] or "", e["seq"]))
        return tag_schema({"tenants": names, "events": merged})

    def alerts_doc(self) -> dict:
        """The ``/v1/alerts`` document: every tenant's active alerts."""
        alerts: list[dict] = []
        observed: dict[str, int] = {}
        for tenant in self.tenants():
            observed[tenant.name] = tenant.slo.cycles_observed
            alerts.extend(tenant.slo.alerts())
        return tag_schema(
            {"alerts": alerts, "cycles_observed": observed}
        )

    def trace_otlp(self) -> dict:
        """Live OTLP/JSON trace document from the process tracer."""
        return to_otlp(get_tracer().finished_roots(),
                       service_name="rasa-service")

    # ------------------------------------------------------------------
    # Cron ticker
    # ------------------------------------------------------------------
    def _arm_schedule(self, tenant: Tenant) -> None:
        """(Re)arm the ticker for a tenant; caller holds the lock."""
        every = tenant.spec.schedule_seconds
        if every is None:
            self._next_due.pop(tenant.name, None)
            scheduled = self._scheduled.get(tenant.name)
            if scheduled is not None:
                # Queued-not-started: the pool skips a cancelled future.
                # A running cycle cannot be cancelled and finishes.
                scheduled.cancel()
        else:
            self._next_due[tenant.name] = time.monotonic() + float(every)

    def _tick_loop(self) -> None:
        while not self._stop_event.wait(self.config.tick_seconds):
            now = time.monotonic()
            with self._lock:
                due = [
                    name
                    for name, at in self._next_due.items()
                    if now >= at and name in self._tenants
                ]
            for name in due:
                self._fire_scheduled(name, now)

    def _fire_scheduled(self, name: str, now: float) -> None:
        with self._lock:
            tenant = self._tenants.get(name)
            if tenant is None or tenant.spec.schedule_seconds is None:
                return
            previous = self._scheduled.get(name)
            if previous is not None and not previous.done():
                # The previous scheduled cycle is still queued or running:
                # skip this tick rather than stacking cycles behind it.
                self._next_due[name] = now + float(tenant.spec.schedule_seconds)
                get_metrics().counter("service.schedule.skipped").inc()
                tenant.record_event(
                    "schedule.tick_skipped",
                    cycle=tenant.cycles_completed,
                    detail={"reason": "previous scheduled cycle still running"},
                )
                return
            self._next_due[name] = now + float(tenant.spec.schedule_seconds)
            # Each scheduled firing gets its own trace context (there is no
            # client request to inherit one from); the pool carries it to
            # the worker thread like any triggered cycle.  Submitted under
            # the same lock acquisition as the None-check above, so a tick
            # racing ``set_schedule(name, None)`` cannot submit after it.
            try:
                with use_context(self.ids.new_context()):
                    self._scheduled[name] = self.pool.submit(
                        name, lambda: tenant.run_cycles(1)
                    )
            except RuntimeError:
                return  # pool already stopped; shutdown is racing the ticker
        get_metrics().counter("service.schedule.fired").inc()

    # ------------------------------------------------------------------
    # Startup resume
    # ------------------------------------------------------------------
    def _resume_tenants(self, root: Path) -> None:
        if not root.is_dir():
            return
        for child in sorted(root.iterdir()):
            if not child.is_dir():
                continue
            if not (
                (child / SNAPSHOT_FILE).exists() or (child / WAL_FILE).exists()
            ):
                continue
            try:
                tenant = Tenant.resume(child)
            except Exception as exc:  # noqa: BLE001 - keep serving the rest
                self._logger.warning(
                    "tenant resume failed %s",
                    kv(dir=str(child), error=str(exc)),
                )
                get_metrics().counter("service.tenants.resume_failed").inc()
                continue
            with self._lock:
                self._tenants[tenant.name] = tenant
                self._arm_schedule(tenant)
            get_metrics().counter("service.tenants.resumed").inc()
            self._logger.info(
                "tenant resumed %s",
                kv(tenant=tenant.name, cycles=tenant.cycles_completed),
            )


class _ServiceRequestHandler(JsonRequestHandler):
    """The control-plane route table; ``owner`` is the :class:`OptimizerService`."""

    logger_name = "service.app"

    # Same rows and order as the module docstring's table (test-enforced).
    routes = tuple(
        (verb, re.compile(path.replace("<n>", _NAME).replace("<id>", _JOB_ID)), name)
        for verb, path, name in (
            ("GET", "/v1/healthz", "get_health"),
            ("GET", "/metrics", "get_metrics"),
            ("GET", "/v1/tenants", "list_tenants"),
            ("POST", "/v1/tenants", "register_tenant"),
            ("GET", "/v1/tenants/<n>", "get_tenant"),
            ("DELETE", "/v1/tenants/<n>", "delete_tenant"),
            ("POST", "/v1/tenants/<n>/cycles", "trigger_cycles"),
            ("GET", "/v1/tenants/<n>/cycles", "get_cycles"),
            ("GET", "/v1/tenants/<n>/plan", "get_plan"),
            ("POST", "/v1/tenants/<n>/snapshots", "push_snapshot"),
            ("POST", "/v1/tenants/<n>/schedule", "set_schedule"),
            ("GET", "/v1/tenants/<n>/healthz", "get_tenant_health"),
            ("GET", "/v1/tenants/<n>/metrics", "get_tenant_metrics"),
            ("GET", "/v1/tenants/<n>/events", "get_tenant_events"),
            ("GET", "/v1/tenants/<n>/alerts", "get_tenant_alerts"),
            ("GET", "/v1/events", "get_events"),
            ("GET", "/v1/alerts", "get_alerts"),
            ("GET", "/v1/trace", "get_trace"),
            ("GET", "/v1/trace/otlp", "get_trace_otlp"),
            ("GET", "/v1/jobs/<id>", "get_job"),
        )
    )

    # ------------------------------------------------------------------
    # Service-wide documents
    # ------------------------------------------------------------------
    def get_health(self) -> None:
        self.respond_json(200, self.owner.health())

    def get_metrics(self) -> None:
        self.respond_prometheus(get_metrics().snapshot())

    def get_events(self) -> None:
        self.respond_json(200, self.owner.events_doc())

    def get_alerts(self) -> None:
        self.respond_json(200, self.owner.alerts_doc())

    def get_trace(self) -> None:
        self.respond_json(200, chrome_trace())

    def get_trace_otlp(self) -> None:
        self.respond_json(200, self.owner.trace_otlp())

    def get_job(self, job_id: str) -> None:
        self.respond_json(200, self.owner.job(job_id).payload())

    def list_tenants(self) -> None:
        summaries = [tenant.summary() for tenant in self.owner.tenants()]
        self.respond_json(200, tag_schema({"tenants": summaries}))

    def register_tenant(self) -> None:
        spec = TenantSpec.from_dict(self.read_json())
        try:
            tenant = self.owner.register(spec)
        except TenantExistsError:
            self.respond_error(409, f"tenant {spec.name!r} already exists")
            return
        self.respond_json(201, tenant.summary())

    # ------------------------------------------------------------------
    # One tenant
    # ------------------------------------------------------------------
    def get_tenant(self, name: str) -> None:
        self.respond_json(200, self.owner.tenant(name).summary())

    def delete_tenant(self, name: str) -> None:
        tenant = self.owner.deregister(name)
        document = {"deregistered": name, "cycles_completed": tenant.cycles_completed}
        self.respond_json(200, tag_schema(document))

    def trigger_cycles(self, name: str) -> None:
        body = strip_schema(check_schema(self.read_json(), "trigger"))
        cycles = body.get("cycles", 1)
        if isinstance(cycles, bool) or not isinstance(cycles, int):
            raise ProblemValidationError(f"'cycles' must be an integer, got {cycles!r}")
        job = self.owner.trigger(name, cycles)
        if body.get("wait") or self.query().get("wait"):
            job.future.result()
            self.respond_json(200, job.payload())
        else:
            self.respond_json(202, job.payload())

    def get_cycles(self, name: str) -> None:
        since = self.int_query("since", 0)
        reports = self.owner.tenant(name).hub.cycles(since)
        document = {"tenant": name, "since": since, "reports": reports}
        self.respond_json(200, tag_schema(document))

    def get_plan(self, name: str) -> None:
        plan = self.owner.tenant(name).last_plan
        if plan is None:
            self.respond_error(404, f"tenant {name!r} has not built a plan yet")
        else:
            self.respond_json(200, plan.to_dict())

    def get_tenant_health(self, name: str) -> None:
        self.respond_health(tag_schema(self.owner.tenant(name).hub.health()))

    def get_tenant_metrics(self, name: str) -> None:
        self.respond_prometheus(self.owner.tenant(name).registry.snapshot())

    def get_tenant_events(self, name: str) -> None:
        document = self.owner.tenant(name).events_since(self.int_query("since", 0))
        self.respond_json(200, tag_schema(document))

    def get_tenant_alerts(self, name: str) -> None:
        self.respond_json(200, tag_schema(self.owner.tenant(name).alerts_doc()))

    def push_snapshot(self, name: str) -> None:
        body = check_schema(self.read_json(), "snapshot")
        edges = body.get("edges")
        if not isinstance(edges, list):
            raise ProblemValidationError(
                "snapshot body needs an 'edges' list of "
                "[service_a, service_b, qps] triples"
            )
        count = self.owner.tenant(name).push_snapshot(edges)
        self.respond_json(200, tag_schema({"tenant": name, "edges": count}))

    def set_schedule(self, name: str) -> None:
        body = check_schema(self.read_json(), "schedule")
        seconds = body.get("schedule_seconds", "missing")
        if seconds is not None and (
            isinstance(seconds, bool) or not isinstance(seconds, (int, float))
        ):
            raise ProblemValidationError(
                "schedule body needs 'schedule_seconds' (number or null), "
                f"got {seconds!r}"
            )
        tenant, in_flight = self.owner.set_schedule(
            name, None if seconds is None else float(seconds)
        )
        document = {
            "tenant": name,
            "schedule_seconds": tenant.spec.schedule_seconds,
            "in_flight": in_flight,
        }
        self.respond_json(200, tag_schema(document))
