"""The serving layer: one HTTP listener, one request pipeline, and the
live telemetry endpoint built on them (stdlib only, no deps).

Every HTTP byte this project serves goes through two classes here; the
multi-tenant control plane (:mod:`repro.service.app`) only adds a route
table.  :class:`HttpListener` is the one place a socket is bound.
:meth:`JsonRequestHandler.handle_request` is the one dispatcher, the same
for every verb:

1. **Trace context** — continued from the client's W3C ``traceparent``
   header, else minted from the owner's deterministic
   :class:`~repro.obs.context.TraceIdFactory`; installed for the request.
2. **Route** — the first row of the subclass's ``routes`` table whose
   path pattern and verb match; the pattern's groups are the handler's
   arguments.  A path that matches only under other verbs answers 405
   with ``Allow``; one that matches no row answers 404.
3. **Status mapping** — a handler raising :class:`KeyError` answers 404
   (a lookup missed), :class:`~repro.exceptions.ProblemValidationError`
   400 (the client's input, named by field), anything else the uniform
   500 envelope ``{"error", "error_id", "trace_id"}`` with the exception
   detail kept in the server log under the ``error_id``.
4. **Access log** — one ``repro.http.access`` line per request.

Outside input is converted in three helpers and nowhere else:
:meth:`~JsonRequestHandler.query`, :meth:`~JsonRequestHandler.int_query`
and :meth:`~JsonRequestHandler.read_json`.

Production operators watch a half-hourly control loop live rather than
post-mortem, so the CronJob controller can attach a
:class:`TelemetryServer` — five routes on that pipeline:

* ``GET /metrics`` — the process :class:`~repro.obs.metrics.MetricsRegistry`
  in Prometheus text format (:func:`~repro.obs.export.to_prometheus`).
* ``GET /healthz`` — JSON health derived from the latest
  :class:`~repro.cluster.cronjob.CycleReport`: ``sla_ok``, the
  degradation-ladder ``rungs`` fired, the resolving ``action``, and an
  overall ``status`` (``idle`` → ``ok`` / ``degraded`` / ``sla_violated``).
  Responds 503 when the SLA floor is violated so a plain
  ``curl -f`` works as a health probe.
* ``GET /cycles`` — every published cycle report as a JSON array.
* ``GET /trace`` — the live Chrome trace-event document when a real
  tracer is installed (empty ``traceEvents`` otherwise).
* ``GET /trace/otlp`` — the same span forest as an OTLP/JSON trace
  document (:func:`~repro.obs.export.to_otlp`).

State flows through a :class:`TelemetryHub`: the controller calls
:meth:`TelemetryHub.publish_cycle` as each cycle closes, which also
appends the report to an optional
:class:`~repro.obs.export.JsonlStreamWriter`.  The hub and server are
strictly additive observers — they never feed back into the solve path,
so an attached server leaves solver output and report sequences
bit-identical.
"""

from __future__ import annotations

import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Any
from urllib.parse import parse_qsl, urlsplit

from repro.exceptions import ProblemValidationError
from repro.obs.context import TraceIdFactory, parse_traceparent, use_context
from repro.obs.export import (
    PROMETHEUS_CONTENT_TYPE,
    JsonlStreamWriter,
    to_otlp,
    to_prometheus,
)
from repro.obs.logging import ACCESS_LOGGER, access_record, get_logger, kv
from repro.obs.metrics import MetricsRegistry, get_metrics
from repro.obs.spans import get_tracer
from repro.schemas import tag_schema

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cluster -> obs)
    from repro.cluster.cronjob import CycleReport

#: Largest request body the pipeline accepts (problems and traces are
#: compact JSON; anything bigger is a client bug, not a workload).
MAX_BODY_BYTES = 64 * 1024 * 1024


class TelemetryHub:
    """Thread-safe store of control-loop telemetry the server reads from.

    Args:
        stream: Optional JSONL writer that every published cycle report is
            appended to as it closes (the ``--cycle-stream`` file).
    """

    def __init__(self, stream: JsonlStreamWriter | None = None) -> None:
        self._lock = threading.Lock()
        self._cycles: list[dict[str, Any]] = []
        self._durations: list[float] = []
        self._recovery: dict[str, Any] | None = None
        self.stream = stream

    # ------------------------------------------------------------------
    def publish_cycle(
        self, report: "CycleReport", *, duration_seconds: float = 0.0
    ) -> None:
        """Record one finished cycle (and stream it, when configured).

        ``duration_seconds`` is the cycle's measured wall time (0.0 when
        unknown, e.g. for reports republished during a checkpoint
        resume); the SLO engine reads it for the cycle-latency
        objective.  It is deliberately kept *out* of the report payload
        so report sequences stay machine-independent.
        """
        payload = report.to_dict()
        with self._lock:
            self._cycles.append(payload)
            self._durations.append(float(duration_seconds))
        if self.stream is not None:
            self.stream.write({"kind": "cycle", **payload})

    def set_recovery(self, info: dict[str, Any] | None) -> None:
        """Record crash-recovery status surfaced on ``/healthz``.

        Set by :func:`repro.durability.loop.prepare_resume` after a
        checkpoint resume (resumed/cold-start cycle counts, WAL recovery
        stats, supervisor restart bookkeeping); None for fresh runs.
        """
        with self._lock:
            self._recovery = dict(info) if info is not None else None

    def cycles(self, since: int = 0) -> list[dict[str, Any]]:
        """The published cycle reports from index ``since`` on, in order."""
        with self._lock:
            return self._cycles[since:]

    def durations(self) -> list[float]:
        """Measured wall time of each published cycle (0.0 = unknown)."""
        with self._lock:
            return list(self._durations)

    def health(self) -> dict[str, Any]:
        """Health summary derived from the latest published cycle.

        ``status`` is ``"idle"`` before the first cycle, ``"sla_violated"``
        when the latest cycle broke the SLA floor, ``"degraded"`` when it
        held the floor but needed degradation-ladder rungs, and ``"ok"``
        otherwise.
        """
        with self._lock:
            latest = self._cycles[-1] if self._cycles else None
            count = len(self._cycles)
            recovery = dict(self._recovery) if self._recovery else None
        if latest is None:
            return {"status": "idle", "cycles": 0, "sla_ok": None,
                    "rungs": [], "action": None, "gained_affinity": None,
                    "recovery": recovery}
        sla_ok = bool(latest["sla_ok"])
        rungs = list(latest["rungs"])
        if not sla_ok:
            status = "sla_violated"
        elif rungs:
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "cycles": count,
            "cycle": latest["cycle"],
            "sla_ok": sla_ok,
            "rungs": rungs,
            "action": latest["action"],
            "gained_affinity": latest["gained_after"],
            "min_alive_fraction": latest["min_alive_fraction"],
            "recovery": recovery,
        }


def chrome_trace() -> dict[str, Any]:
    """Live Chrome trace-event document from the process tracer."""
    tracer = get_tracer()
    if not tracer.enabled:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    return tracer.to_chrome()


def _natural(text: str) -> int | None:
    """``text`` as a non-negative integer; None unless it is plain digits."""
    try:
        return int(text) if text.isascii() and text.isdigit() else None
    except ValueError:  # longer than sys.get_int_max_str_digits()
        return None


class HttpListener:
    """A threading HTTP server on a daemon thread — the one bind site.

    Args:
        handler: The :class:`JsonRequestHandler` subclass serving requests.
        owner: What handlers reach as ``self.owner``; it carries the
            ``ids`` :class:`~repro.obs.context.TraceIdFactory` the
            pipeline mints trace contexts and error ids from.
        host: Bind address (loopback by default — everything served here
            is plaintext and unauthenticated).
        port: TCP port; 0 binds an ephemeral one (read :attr:`port` after
            :meth:`start`).
        name: Name of the serving thread (shows up in stack dumps).
    """

    def __init__(
        self,
        handler: "type[JsonRequestHandler]",
        owner: Any,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        name: str = "rasa-http",
    ) -> None:
        self.handler = handler
        self.owner = owner
        self.host = host
        self.name = name
        self._requested_port = port
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        """The bound TCP port (meaningful after :meth:`start`)."""
        if self._httpd is not None:
            return self._httpd.server_address[1]
        return self._requested_port

    @property
    def url(self) -> str:
        """Base URL of the running listener."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> int:
        """Bind and serve in a daemon thread (idempotent); returns the port."""
        if self._httpd is None:
            httpd = ThreadingHTTPServer((self.host, self._requested_port), self.handler)
            httpd.daemon_threads = True
            httpd.owner = self.owner  # type: ignore[attr-defined]
            self._httpd = httpd
            self._thread = threading.Thread(
                target=httpd.serve_forever, name=self.name, daemon=True
            )
            self._thread.start()
        return self.port

    def stop(self) -> None:
        """Shut the listener down and join its thread (idempotent)."""
        httpd, self._httpd = self._httpd, None
        thread, self._thread = self._thread, None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        if thread is not None:
            thread.join(timeout=5.0)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


class JsonRequestHandler(BaseHTTPRequestHandler):
    """The one request pipeline (the module docstring gives its order).

    Subclasses (the telemetry handler below, the multi-tenant service's
    control-plane handler) supply a ``routes`` table and one short method
    per row, written with the ``respond*`` methods and the input helpers.
    """

    # Served responses are tiny; keep connections simple.
    protocol_version = "HTTP/1.1"

    #: Logger for request failures and the stdlib's own messages
    #: (subclasses override).
    logger_name = "obs.server"

    #: ``(verb, compiled path pattern, handler-method name)`` rows; a
    #: pattern group named ``tenant`` also labels the access-log line.
    routes: "tuple[tuple[str, re.Pattern[str], str], ...]" = ()

    def handle_request(self) -> None:
        """Serve one request of any verb through the pipeline."""
        ids: TraceIdFactory = self.owner.ids
        parsed = parse_traceparent(self.headers.get("traceparent"))
        # Continue the client's trace when a valid traceparent came in;
        # mint a fresh deterministic context otherwise.
        ctx = ids.child(parsed) if parsed else ids.new_context()
        self._tenant: str | None = None
        self._last_status = 0
        self._body_unread = self.headers.get("Content-Length") not in (None, "0")
        started = time.perf_counter()
        with use_context(ctx):
            try:
                self._route()
            except KeyError as exc:
                self.respond_error(404, f"not found: {exc}")
            except ProblemValidationError as exc:
                self.respond_error(400, str(exc))
            except Exception as exc:  # noqa: BLE001 - surface, don't kill thread
                # Uniform 500 envelope: the exception detail stays in the
                # server log, keyed by error_id, so internals never leak
                # to clients but remain one grep away.
                error_id = ids.error_id()
                get_logger(self.logger_name).error(
                    "request failed %s",
                    kv(
                        path=self.path,
                        error_id=error_id,
                        trace_id=ctx.trace_id,
                        error=f"{type(exc).__name__}: {exc}",
                    ),
                )
                self.respond_error(
                    500, "internal server error",
                    error_id=error_id, trace_id=ctx.trace_id,
                )
            finally:
                # ``--log-level INFO`` surfaces every request.
                get_logger(ACCESS_LOGGER).info(
                    "%s",
                    access_record(
                        self.command or "-",
                        self.path,
                        self._last_status,
                        (time.perf_counter() - started) * 1e3,
                        tenant=self._tenant,
                        trace_id=ctx.trace_id,
                    ),
                )

    # HEAD and OPTIONS stay the stdlib's 501.
    do_GET = do_POST = do_DELETE = do_PUT = do_PATCH = handle_request  # noqa: N815

    def _route(self) -> None:
        path = urlsplit(self.path).path.rstrip("/") or "/"
        allowed = set()
        for verb, pattern, handler in self.routes:
            match = pattern.fullmatch(path)
            if match is None:
                continue
            self._tenant = match.groupdict().get("tenant")
            if verb == self.command:
                getattr(self, handler)(*match.groups())
                return
            allowed.add(verb)
        if allowed:
            self.respond_error(
                405, f"{self.command} is not allowed on {path!r}",
                allow=", ".join(sorted(allowed)),
            )
        else:
            self.respond_error(404, f"unknown path {path!r}")

    @property
    def owner(self) -> Any:
        """The object the listener serves for (``HttpListener.owner``)."""
        return self.server.owner  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # Outside input
    # ------------------------------------------------------------------
    def query(self) -> dict[str, str]:
        """The query parameters, percent-decoded (the last value wins)."""
        return dict(parse_qsl(urlsplit(self.path).query, keep_blank_values=True))

    def int_query(self, name: str, default: int) -> int:
        """Query parameter ``name`` as a non-negative integer, else a 400 naming it."""
        text = self.query().get(name)
        value = default if text is None else _natural(text)
        if value is None:
            raise ProblemValidationError(
                f"query parameter {name!r} must be a non-negative integer, "
                f"got {text!r}"
            )
        return value

    def read_json(self) -> dict:
        """The request body as a JSON object (``{}`` when there is none).

        A non-integer or oversized ``Content-Length``, a body that is not
        valid JSON and one that is not an object are each a 400.
        """
        declared = self.headers.get("Content-Length") or "0"
        length = _natural(declared.strip())
        if length is None:
            raise ProblemValidationError(
                f"Content-Length must be a non-negative integer, got {declared!r}"
            )
        if length > MAX_BODY_BYTES:
            raise ProblemValidationError(
                f"request body of {length} bytes exceeds {MAX_BODY_BYTES}"
            )
        raw = self.rfile.read(length) if length else b""
        self._body_unread = False
        try:
            body = json.loads(raw) if raw else {}
        except (ValueError, RecursionError) as exc:
            raise ProblemValidationError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(body, dict):
            raise ProblemValidationError("request body must be a JSON object")
        return body

    # ------------------------------------------------------------------
    # Responses
    # ------------------------------------------------------------------
    def respond_json(self, code: int, payload: Any, *, allow: str | None = None) -> None:
        """Send ``payload`` as a canonical (sorted-keys) JSON document."""
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.respond(code, "application/json; charset=utf-8", body, allow=allow)

    def respond_error(
        self, code: int, message: str, *, allow: str | None = None, **detail: Any
    ) -> None:
        """Send the tagged error document ``{"error": message, **detail}``."""
        self.respond_json(code, tag_schema({"error": message, **detail}), allow=allow)

    def respond_prometheus(self, snapshot: dict[str, Any]) -> None:
        """Send a metrics snapshot in Prometheus text format."""
        body = to_prometheus(snapshot).encode("utf-8")
        self.respond(200, PROMETHEUS_CONTENT_TYPE, body)

    def respond_health(self, health: dict[str, Any]) -> None:
        """Send a :meth:`TelemetryHub.health` document; 503 on SLA breach."""
        code = 503 if health["status"] == "sla_violated" else 200
        self.respond_json(code, health)

    def respond(
        self, code: int, content_type: str, body: bytes, *, allow: str | None = None
    ) -> None:
        """Send a fully framed response."""
        self._last_status = int(code)
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if allow is not None:
            self.send_header("Allow", allow)
        if self._body_unread:
            # The declared request body was never read (the request was
            # refused first, or its Content-Length is unusable), so what
            # follows on the socket is not a request line.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: Any) -> None:
        """Route access logs through the project logger instead of stderr."""
        get_logger(self.logger_name).debug("%s %s", self.address_string(),
                                           format % args)


class _TelemetryRequestHandler(JsonRequestHandler):
    """The five telemetry routes; ``owner`` is the :class:`TelemetryServer`."""

    routes = (
        ("GET", re.compile("/metrics"), "get_metrics"),
        ("GET", re.compile("/healthz"), "get_healthz"),
        ("GET", re.compile("/cycles"), "get_cycles"),
        ("GET", re.compile("/trace"), "get_trace"),
        ("GET", re.compile("/trace/otlp"), "get_trace_otlp"),
    )

    def get_metrics(self) -> None:
        self.respond_prometheus(self.owner.registry_snapshot())

    def get_healthz(self) -> None:
        self.respond_health(self.owner.hub.health())

    def get_cycles(self) -> None:
        self.respond_json(200, self.owner.hub.cycles())

    def get_trace(self) -> None:
        self.respond_json(200, chrome_trace())

    def get_trace_otlp(self) -> None:
        self.respond_json(200, to_otlp(get_tracer().finished_roots()))


class TelemetryServer(HttpListener):
    """The telemetry listener and its data sources.

    Args:
        hub: Control-loop state to serve; a fresh empty hub by default.
        registry: Metrics source for ``/metrics``; None resolves the
            process-wide registry *at scrape time* (so worker-payload
            merges are visible).
        port: TCP port; 0 binds an ephemeral port (see :attr:`port` after
            :meth:`start`).
        host: Bind address (loopback by default — telemetry is
            plaintext and unauthenticated, so keep it local unless fronted
            by something that is not).
    """

    def __init__(
        self,
        hub: TelemetryHub | None = None,
        *,
        registry: MetricsRegistry | None = None,
        port: int = 0,
        host: str = "127.0.0.1",
    ) -> None:
        super().__init__(
            _TelemetryRequestHandler, self, host=host, port=port, name="rasa-telemetry"
        )
        self.hub = hub or TelemetryHub()
        self.ids = TraceIdFactory(namespace="rasa-telemetry")
        self._registry = registry

    def registry_snapshot(self) -> dict[str, Any]:
        """Snapshot of the configured (or process-wide) metrics registry."""
        registry = self._registry or get_metrics()
        return registry.snapshot()

    def start(self) -> int:
        """Bind and serve in a daemon thread; returns the bound port."""
        if self._httpd is None:
            super().start()
            get_logger("obs.server").info("telemetry server up %s", kv(url=self.url))
        return self.port

    def stop(self) -> None:
        """Shut the listener down and close the cycle stream (idempotent)."""
        super().stop()
        if self.hub.stream is not None:
            self.hub.stream.close()
