"""Stdlib HTTP client for the multi-tenant control plane.

:class:`ServiceClient` mirrors the REST surface of
:class:`~repro.service.app.OptimizerService` one method per endpoint, so
scripts and the ``rasa tenant ...`` CLI never hand-build URLs.  It is
``urllib.request`` only — the client must work in the same
no-new-dependencies environment the service does.

Every request carries a W3C ``traceparent`` header minted from the
client's own deterministic :class:`~repro.obs.context.TraceIdFactory`
(seeded by ``trace_seed``), so the trace id printed by the CLI is the
same one that shows up in the server's access log, the tenant's audit
events, and the cycle's span exports.  A freshly started service may not
be accepting connections yet; connection-refused errors are retried with
bounded exponential backoff (``connect_retries``/``connect_backoff``)
instead of making every caller hand-roll a sleep loop.

Non-2xx responses raise :class:`ServiceError` carrying the HTTP status
and the server's JSON error document.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any

from repro.obs.context import TraceIdFactory
from repro.schemas import tag_schema


class ServiceError(RuntimeError):
    """A control-plane request failed (non-2xx response).

    Attributes:
        status: HTTP status code (0 when the connection itself failed).
        payload: Parsed JSON error document, when the server sent one.
    """

    def __init__(self, message: str, *, status: int = 0,
                 payload: Any = None) -> None:
        super().__init__(message)
        self.status = status
        self.payload = payload


class ServiceClient:
    """Typed access to one optimizer service.

    Args:
        base_url: The service root, e.g. ``http://127.0.0.1:8080``
            (``service.url`` from :func:`repro.api.start_service`).
        timeout: Per-request socket timeout in seconds.  Blocking
            triggers (``wait=True``) run full optimization cycles before
            responding, so give those a budget sized to the workload.
        trace_seed: Seed of the client's trace-id factory (each request
            sends a fresh ``traceparent`` minted from it).
        connect_retries: How many times a refused connection is retried
            before giving up (covers the startup race against a service
            that has not bound its port yet).  0 disables retrying.
        connect_backoff: Initial retry delay in seconds; doubles per
            attempt, capped at 1 second.
    """

    def __init__(
        self,
        base_url: str,
        *,
        timeout: float = 60.0,
        trace_seed: int = 0,
        connect_retries: int = 0,
        connect_backoff: float = 0.05,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.ids = TraceIdFactory(seed=trace_seed, namespace="rasa-client")
        self.connect_retries = max(0, int(connect_retries))
        self.connect_backoff = float(connect_backoff)
        #: trace id of the most recent request (what the CLI prints).
        self.last_trace_id: str | None = None

    # ------------------------------------------------------------------
    def _open(self, request: urllib.request.Request) -> bytes:
        """``urlopen`` with bounded retry on connection-refused only.

        Refused connections are the startup race (server thread not yet
        bound); anything else — timeouts, resets mid-request, DNS — is
        not safely retryable for non-idempotent verbs and surfaces
        immediately.
        """
        attempts = 0
        delay = self.connect_backoff
        while True:
            try:
                with urllib.request.urlopen(
                    request, timeout=self.timeout
                ) as resp:
                    return resp.read()
            except urllib.error.URLError as exc:
                refused = isinstance(exc.reason, ConnectionRefusedError)
                if not refused or attempts >= self.connect_retries:
                    raise
                attempts += 1
                time.sleep(min(delay, 1.0))
                delay = min(delay * 2.0, 1.0)

    def _request(
        self,
        method: str,
        path: str,
        payload: Any = None,
        *,
        trace_id: str | None = None,
    ) -> Any:
        body = None
        context = (
            self.ids.new_context()
            if trace_id is None
            else self.ids.child_of_trace(trace_id)
        )
        self.last_trace_id = context.trace_id
        headers = {
            "Accept": "application/json",
            "traceparent": context.traceparent,
        }
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            f"{self.base_url}{path}", data=body, headers=headers,
            method=method,
        )
        try:
            raw = self._open(request)
        except urllib.error.HTTPError as exc:
            raw = exc.read()
            try:
                document = json.loads(raw)
            except (ValueError, UnicodeDecodeError):
                document = None
            message = (
                document.get("error") if isinstance(document, dict) else None
            ) or f"{method} {path} failed with HTTP {exc.code}"
            raise ServiceError(
                message, status=exc.code, payload=document
            ) from exc
        except urllib.error.URLError as exc:
            raise ServiceError(
                f"{method} {path} failed: {exc.reason}"
            ) from exc
        if not raw:
            return None
        try:
            return json.loads(raw)
        except ValueError:
            return raw.decode("utf-8", errors="replace")

    # ------------------------------------------------------------------
    # Service level
    # ------------------------------------------------------------------
    def service_health(self) -> dict:
        """``GET /v1/healthz``."""
        return self._request("GET", "/v1/healthz")

    def service_metrics(self) -> str:
        """``GET /metrics`` (Prometheus text for the whole process)."""
        return self._request("GET", "/metrics")

    def list_tenants(self) -> list[dict]:
        """``GET /v1/tenants`` — every tenant's summary document."""
        return self._request("GET", "/v1/tenants")["tenants"]

    # ------------------------------------------------------------------
    # Tenant lifecycle
    # ------------------------------------------------------------------
    def register_tenant(self, spec: "dict") -> dict:
        """``POST /v1/tenants`` with a TenantSpec payload (or its dict).

        Accepts either a plain payload dict or anything with a
        ``to_dict`` method (a :class:`~repro.service.tenant.TenantSpec`).
        """
        payload = spec.to_dict() if hasattr(spec, "to_dict") else tag_schema(spec)
        return self._request("POST", "/v1/tenants", payload)

    def deregister_tenant(self, name: str) -> dict:
        """``DELETE /v1/tenants/<name>``."""
        return self._request("DELETE", f"/v1/tenants/{name}")

    def tenant(self, name: str) -> dict:
        """``GET /v1/tenants/<name>`` — one tenant's summary."""
        return self._request("GET", f"/v1/tenants/{name}")

    # ------------------------------------------------------------------
    # Tenant operations
    # ------------------------------------------------------------------
    def trigger_cycles(
        self,
        name: str,
        *,
        cycles: int = 1,
        wait: bool = False,
        trace_id: "str | None" = None,
    ) -> dict:
        """``POST /v1/tenants/<name>/cycles`` — run more cycles.

        Returns the job document: 202-style (``status: "running"``) when
        ``wait`` is False, or the finished job with its cycle reports
        when ``wait`` is True.  ``trace_id`` pins the request (and thus
        the triggered cycles' spans and audit events) to a caller-chosen
        trace instead of a minted one.
        """
        return self._request(
            "POST",
            f"/v1/tenants/{name}/cycles",
            tag_schema({"cycles": cycles, "wait": bool(wait)}),
            trace_id=trace_id,
        )

    def job(self, job_id: str) -> dict:
        """``GET /v1/jobs/<id>`` — an async trigger's status."""
        return self._request("GET", f"/v1/jobs/{job_id}")

    def reports(self, name: str, *, since: int = 0) -> list[dict]:
        """``GET /v1/tenants/<name>/cycles?since=k`` — cycle reports."""
        document = self._request(
            "GET", f"/v1/tenants/{name}/cycles?since={since}"
        )
        return document["reports"]

    def plan(self, name: str) -> dict:
        """``GET /v1/tenants/<name>/plan`` — the latest migration plan."""
        return self._request("GET", f"/v1/tenants/{name}/plan")

    def push_snapshot(self, name: str, edges: list) -> dict:
        """``POST /v1/tenants/<name>/snapshots`` — push traffic triples."""
        return self._request(
            "POST",
            f"/v1/tenants/{name}/snapshots",
            tag_schema({"edges": edges}),
        )

    def set_schedule(self, name: str, schedule_seconds: "float | None") -> dict:
        """``POST /v1/tenants/<name>/schedule`` — set/clear cron cadence."""
        return self._request(
            "POST",
            f"/v1/tenants/{name}/schedule",
            tag_schema({"schedule_seconds": schedule_seconds}),
        )

    def health(self, name: str) -> dict:
        """``GET /v1/tenants/<name>/healthz`` — tenant health document.

        Unlike a raw probe, an SLA-violated tenant (HTTP 503) returns its
        health document here instead of raising, mirroring how the
        telemetry server's probe semantics are meant to be consumed.
        """
        try:
            return self._request("GET", f"/v1/tenants/{name}/healthz")
        except ServiceError as exc:
            if exc.status == 503 and isinstance(exc.payload, dict):
                return exc.payload
            raise

    def metrics(self, name: str) -> str:
        """``GET /v1/tenants/<name>/metrics`` (Prometheus text)."""
        return self._request("GET", f"/v1/tenants/{name}/metrics")

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def events(self, name: str, *, since: int = 0) -> dict:
        """``GET /v1/tenants/<name>/events?since=k`` — the audit log."""
        return self._request(
            "GET", f"/v1/tenants/{name}/events?since={int(since)}"
        )

    def all_events(self) -> dict:
        """``GET /v1/events`` — merged audit log across all tenants."""
        return self._request("GET", "/v1/events")

    def alerts(self, name: str) -> dict:
        """``GET /v1/tenants/<name>/alerts`` — SLO status + alerts."""
        return self._request("GET", f"/v1/tenants/{name}/alerts")

    def all_alerts(self) -> dict:
        """``GET /v1/alerts`` — every tenant's active burn-rate alerts."""
        return self._request("GET", "/v1/alerts")

    def trace(self) -> dict:
        """``GET /v1/trace`` — the live Chrome trace-event document."""
        return self._request("GET", "/v1/trace")

    def trace_otlp(self) -> dict:
        """``GET /v1/trace/otlp`` — the live OTLP/JSON trace document."""
        return self._request("GET", "/v1/trace/otlp")
