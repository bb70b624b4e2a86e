"""Observability layer: spans, metrics, logging, exposition, telemetry.

Independent pieces with one import surface:

* :mod:`repro.obs.spans` — hierarchical span tracer (Chrome trace-event
  export, plain-text summary tree); the process default is a no-op
  :class:`NullTracer`, enabled explicitly via :func:`set_tracer`.
* :mod:`repro.obs.metrics` — always-on counters/gauges/histograms behind
  a process-wide :class:`MetricsRegistry` with a JSON snapshot API.
* :mod:`repro.obs.logging` — ``repro.*`` structured-logger convention,
  including the shared ``repro.http.access`` access-log format.
* :mod:`repro.obs.export` — Prometheus text exposition for a metrics
  snapshot, an OTLP/JSON trace renderer, and an append-only JSONL
  stream writer for per-cycle records.
* :mod:`repro.obs.context` — W3C-style request trace context
  (:class:`TraceContext`, deterministic :class:`TraceIdFactory`,
  ``traceparent`` parsing) propagated via a :class:`contextvars.ContextVar`.
* :mod:`repro.obs.events` — bounded per-tenant audit/event ring buffer
  (:class:`EventLog`) with monotonic sequence numbers and ``since()``
  pagination.
* :mod:`repro.obs.slo` — per-tenant SLO specs and the multi-window
  burn-rate alert engine (:class:`SLOSpec`, :class:`SLOEngine`).
* :mod:`repro.obs.server` — the stdlib HTTP serving layer (one listener,
  one request pipeline) and the telemetry endpoint on it (``/metrics``,
  ``/healthz``, ``/cycles``, ``/trace``, ``/trace/otlp``) the control
  loop attaches via a :class:`TelemetryHub`.
* :mod:`repro.obs.profile` — opt-in per-span cProfile capture attaching
  top-N hotspot tables to solver and partitioning spans; the process
  default is a no-op :class:`NullProfiler`.

Naming convention (see DESIGN.md "Observability"): dotted lowercase
``<layer>.<what>[.<unit>]`` — e.g. spans ``rasa.solve``,
``partition.stage.master``, ``migration.batch``; metrics
``solver.mip.nodes``, ``rasa.phase.solve.seconds``,
``migration.sla_floor``.

The fault-tolerant control plane (DESIGN.md §9) follows the same scheme:
``faults.injected.*`` counters record what the injector fired
(``command_failures``, ``command_timeouts``, ``machine_failures``,
``stale_snapshots``, ``dropped_edges``); ``migration.retry.commands`` /
``migration.failed_commands`` and ``cron.retry.commands`` /
``cron.apply.{skipped,failed}_commands`` record what the consumers
absorbed; ``cron.degradation.{retried,resolved_by_retry,greedy,skipped}``
count ladder rungs, with matching ``cron.degrade`` / ``cron.fault.*``
span events.
"""

from repro.obs.context import (
    TraceContext,
    TraceIdFactory,
    current_context,
    current_trace_id,
    normalize_trace_id,
    parse_traceparent,
    use_context,
)
from repro.obs.events import EventLog
from repro.obs.export import (
    PROMETHEUS_CONTENT_TYPE,
    JsonlStreamWriter,
    sanitize_metric_name,
    to_otlp,
    to_prometheus,
)
from repro.obs.logging import (
    ACCESS_LOGGER,
    access_record,
    configure_logging,
    get_logger,
    kv,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_metrics,
    set_metrics,
    use_metrics,
)
from repro.obs.profile import (
    NullProfiler,
    SpanProfiler,
    get_profiler,
    render_hotspots,
    set_profiler,
    use_profiler,
)
from repro.obs.server import TelemetryHub, TelemetryServer
from repro.obs.slo import SLOEngine, SLOSpec
from repro.obs.spans import (
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)

__all__ = [
    "ACCESS_LOGGER",
    "PROMETHEUS_CONTENT_TYPE",
    "Counter",
    "EventLog",
    "Gauge",
    "Histogram",
    "JsonlStreamWriter",
    "MetricsRegistry",
    "NullProfiler",
    "NullTracer",
    "SLOEngine",
    "SLOSpec",
    "Span",
    "SpanProfiler",
    "TelemetryHub",
    "TelemetryServer",
    "TraceContext",
    "TraceIdFactory",
    "Tracer",
    "access_record",
    "configure_logging",
    "current_context",
    "current_trace_id",
    "get_logger",
    "get_metrics",
    "get_profiler",
    "get_tracer",
    "kv",
    "normalize_trace_id",
    "parse_traceparent",
    "render_hotspots",
    "sanitize_metric_name",
    "set_metrics",
    "set_profiler",
    "set_tracer",
    "to_otlp",
    "to_prometheus",
    "use_context",
    "use_metrics",
    "use_profiler",
    "use_tracer",
]
