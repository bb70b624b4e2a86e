"""Hierarchical tracing spans for the RASA pipeline.

A :class:`Tracer` records a forest of nested, timed :class:`Span` objects
via a context-manager API::

    tracer = Tracer()
    with tracer.span("rasa.schedule", services=120) as root:
        with tracer.span("rasa.partition") as sp:
            ...
            sp.set_tag("subproblems", 7)
        tracer.event("cron.gate", executed=True)

Spans nest along the :mod:`contextvars` context: each thread starts with
an empty one, so concurrent solves produce parallel rather than
interleaved trees, and a task run under a context copied from another
thread (``contextvars.copy_context().run``) nests under the span that was
open there.  Spans export to

* Chrome trace-event JSON (:meth:`Tracer.to_chrome` /
  :meth:`Tracer.export`) — open the file in ``chrome://tracing`` or
  https://ui.perfetto.dev, and
* a plain-text summary tree (:meth:`Tracer.summary`).

The module-level default tracer is a :class:`NullTracer` whose ``span``
and ``event`` calls are near-zero-cost no-ops, so instrumented hot paths
stay cheap unless tracing is explicitly enabled with :func:`set_tracer`.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.obs.context import current_trace_id


@dataclass
class Span:
    """One timed, tagged, possibly-nested region of execution.

    Attributes:
        name: Dotted span name (``"rasa.solve"``, ``"partition.stage.master"``).
        start: Seconds since the owning tracer's epoch.
        end: Completion time (same scale), or None while still open.
        tags: Key/value annotations (``algorithm="mip"``, ``status="optimal"``).
        children: Spans opened (and closed) while this one was current.
        events: Instant events ``(timestamp, name, tags)`` attached here.
        thread_id: ``threading.get_ident()`` of the opening thread.
        instant: True for zero-duration event markers.
    """

    name: str
    start: float
    end: float | None = None
    tags: dict[str, Any] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)
    events: list[tuple[float, str, dict[str, Any]]] = field(default_factory=list)
    thread_id: int = 0
    instant: bool = False

    @property
    def duration(self) -> float:
        """Span duration in seconds (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def set_tag(self, key: str, value: Any) -> "Span":
        """Attach or overwrite one tag; returns self for chaining."""
        self.tags[key] = value
        return self


class _NullSpan:
    """Inert stand-in for :class:`Span` used by the disabled tracer."""

    __slots__ = ()

    name = ""
    tags: dict[str, Any] = {}
    children: list[Span] = []
    events: list[tuple[float, str, dict[str, Any]]] = []
    duration = 0.0

    def set_tag(self, key: str, value: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


#: Shared inert span; also usable directly as a no-op context manager.
NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: every call is a cheap no-op.

    Installed as the process-wide default so instrumentation sprinkled
    through hot paths costs one attribute lookup and one call when
    tracing is off.
    """

    enabled = False

    def span(self, name: str, **tags: Any) -> _NullSpan:
        """Return the shared no-op span/context-manager."""
        return NULL_SPAN

    def event(self, name: str, **tags: Any) -> None:
        """Discard an instant event."""

    def finished_roots(self) -> list[Span]:
        """No spans are ever recorded."""
        return []


#: The innermost open span of the running context and the tracer that
#: opened it.
_open_span: ContextVar[tuple["Tracer", Span] | None] = ContextVar(
    "repro_open_span", default=None
)


class Tracer:
    """Thread-safe hierarchical span recorder.

    A span's parent is the span this tracer has open in the running
    :mod:`contextvars` context; closed top-level spans are collected into
    a shared root list.  Timestamps come from ``time.perf_counter()``
    relative to the tracer's construction, which is what the Chrome
    trace-event export expects.
    """

    enabled = True

    def __init__(self) -> None:
        self._epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._roots: list[Span] = []

    # ------------------------------------------------------------------
    def _now(self) -> float:
        return time.perf_counter() - self._epoch

    def _current(self) -> Span | None:
        """This tracer's innermost open span in the running context."""
        current = _open_span.get()
        if current is None or current[0] is not self:
            return None
        return current[1]

    @contextmanager
    def span(self, name: str, **tags: Any) -> Iterator[Span]:
        """Open a nested span; closes (and files) it when the block exits.

        When a request :class:`~repro.obs.context.TraceContext` is
        current (service-triggered cycles), the span is stamped with its
        ``trace_id`` so exports can be filtered per request.
        """
        span_tags = dict(tags)
        trace_id = current_trace_id()
        if trace_id is not None:
            span_tags.setdefault("trace_id", trace_id)
        span = Span(
            name=name,
            start=self._now(),
            tags=span_tags,
            thread_id=threading.get_ident(),
        )
        parent = self._current()
        token = _open_span.set((self, span))
        try:
            yield span
        except BaseException as exc:
            # Tag the failure so exports and summaries can render the span
            # distinctly; the exception itself propagates unchanged.
            span.tags["error"] = True
            span.tags["error_type"] = type(exc).__name__
            raise
        finally:
            span.end = self._now()
            _open_span.reset(token)
            with self._lock:
                # A parent already closed (another thread's span that did
                # not wait for this one) leaves the span a root.
                if parent is not None and parent.end is None:
                    parent.children.append(span)
                else:
                    self._roots.append(span)

    def event(self, name: str, **tags: Any) -> None:
        """Record an instant event on the current span (or as a root)."""
        now = self._now()
        current = self._current()
        if current is not None:
            current.events.append((now, name, dict(tags)))
            return
        marker_tags = dict(tags)
        trace_id = current_trace_id()
        if trace_id is not None:
            marker_tags.setdefault("trace_id", trace_id)
        marker = Span(
            name=name,
            start=now,
            end=now,
            tags=marker_tags,
            thread_id=threading.get_ident(),
            instant=True,
        )
        with self._lock:
            self._roots.append(marker)

    def finished_roots(self) -> list[Span]:
        """Snapshot of the closed top-level spans recorded so far."""
        with self._lock:
            return list(self._roots)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_chrome(self) -> dict[str, Any]:
        """Render all spans as a Chrome trace-event JSON document.

        Complete spans become ``"ph": "X"`` duration events and instant
        events become ``"ph": "i"`` markers, with microsecond timestamps
        as the format requires.
        """
        trace_events: list[dict[str, Any]] = []

        def emit(span: Span) -> None:
            if span.instant:
                trace_events.append(
                    {
                        "name": span.name,
                        "ph": "i",
                        "ts": span.start * 1e6,
                        "pid": 0,
                        "tid": span.thread_id,
                        "s": "t",
                        "args": _jsonable(span.tags),
                    }
                )
                return
            duration_event: dict[str, Any] = {
                "name": span.name,
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": max(span.duration, 0.0) * 1e6,
                "pid": 0,
                "tid": span.thread_id,
                "args": _jsonable(span.tags),
            }
            if span.tags.get("error"):
                # Chrome/Perfetto reserved color: failed spans render red.
                duration_event["cname"] = "terrible"
            trace_events.append(duration_event)
            for ts, name, tags in span.events:
                trace_events.append(
                    {
                        "name": name,
                        "ph": "i",
                        "ts": ts * 1e6,
                        "pid": 0,
                        "tid": span.thread_id,
                        "s": "t",
                        "args": _jsonable(tags),
                    }
                )
            for child in span.children:
                emit(child)

        for root in self.finished_roots():
            emit(root)
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}

    def export(self, path) -> None:
        """Write the Chrome trace-event JSON document to ``path`` (atomic)."""
        from repro.durability.atomic import atomic_write_json

        atomic_write_json(path, self.to_chrome(), indent=1)

    def to_otlp(self, service_name: str = "rasa") -> dict[str, Any]:
        """Render all spans as an OTLP/JSON trace document.

        See :func:`repro.obs.export.to_otlp` for the mapping (trace ids
        from span ``trace_id`` tags, deterministic span ids, timestamps
        relative to the tracer epoch).
        """
        from repro.obs.export import to_otlp

        return to_otlp(self.finished_roots(), service_name=service_name)

    def export_otlp(self, path, service_name: str = "rasa") -> None:
        """Write the OTLP/JSON trace document to ``path`` (atomic)."""
        from repro.durability.atomic import atomic_write_json

        atomic_write_json(path, self.to_otlp(service_name), indent=1)

    def summary(self) -> str:
        """Plain-text tree of span names, durations, and tags."""
        lines: list[str] = []

        def render(span: Span, depth: int) -> None:
            tags = ""
            if span.tags:
                inner = ", ".join(f"{k}={v}" for k, v in sorted(span.tags.items()))
                tags = f"  [{inner}]"
            marker = "@" if span.instant else f"{span.duration * 1e3:8.2f}ms"
            failed = "!FAILED " if span.tags.get("error") else ""
            lines.append(f"{'  ' * depth}{marker}  {failed}{span.name}{tags}")
            for ts, name, tags_ in span.events:
                lines.append(f"{'  ' * (depth + 1)}@{ts * 1e3:.2f}ms  {name} {tags_}")
            for child in span.children:
                render(child, depth + 1)

        for root in self.finished_roots():
            render(root, 0)
        return "\n".join(lines)


def _jsonable(tags: dict[str, Any]) -> dict[str, Any]:
    """Coerce tag values to JSON-safe primitives."""
    out: dict[str, Any] = {}
    for key, value in tags.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            out[key] = value
        else:
            out[key] = str(value)
    return out


# ----------------------------------------------------------------------
# Process-wide default tracer
# ----------------------------------------------------------------------
_tracer: Tracer | NullTracer = NullTracer()


def get_tracer() -> Tracer | NullTracer:
    """The process-wide tracer (a no-op :class:`NullTracer` by default)."""
    return _tracer


def set_tracer(tracer: Tracer | NullTracer) -> Tracer | NullTracer:
    """Install ``tracer`` globally; returns the previous one for restoring."""
    global _tracer
    previous = _tracer
    _tracer = tracer
    return previous


@contextmanager
def use_tracer(tracer: Tracer | NullTracer) -> Iterator[Tracer | NullTracer]:
    """Temporarily install ``tracer`` (restores the previous on exit)."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
