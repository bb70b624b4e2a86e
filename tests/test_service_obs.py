"""End-to-end service observability: one trace id from the client call
through the access log, pool slot, cycle spans (Chrome + OTLP), and the
tenant audit log; the uniform 500 envelope; SLO burn-rate alerts over
HTTP; and the client's bounded connect-retry."""

from __future__ import annotations

import json
import logging
import re
import time
import urllib.error
import urllib.request

import pytest

from repro import api
from repro.service.client import ServiceClient, ServiceError
from repro.workloads import ClusterSpec, generate_cluster
from repro.workloads.trace_io import problem_to_dict

TRACE_ID = "feedc0de"
PADDED = TRACE_ID.zfill(32)


def _problem_payload(seed: int) -> dict:
    spec = ClusterSpec(
        name=f"obs-{seed}", num_services=10, num_containers=50,
        num_machines=4, seed=seed,
    )
    return problem_to_dict(generate_cluster(spec).problem)


def _await_access_line(caplog, fragment: str) -> str:
    """The access-log line containing ``fragment``.

    The handler logs after it has replied, so the line can trail the
    client's return by a thread switch — call this inside the
    ``caplog.at_level`` block, before the capture level is restored.
    """
    deadline = time.monotonic() + 10
    while True:
        for record in list(caplog.records):
            if record.name == "repro.http.access" and fragment in record.getMessage():
                return record.getMessage()
        assert time.monotonic() < deadline, f"no access-log line with {fragment!r}"
        time.sleep(0.01)


@pytest.fixture()
def service():
    svc = api.start_service(port=0, workers=2, tick_seconds=0.05)
    try:
        yield svc
    finally:
        svc.stop()


@pytest.fixture()
def client(service):
    return ServiceClient(service.url, timeout=600.0)


# ----------------------------------------------------------------------
# One trace id, end to end
# ----------------------------------------------------------------------
def test_trace_id_links_client_to_cycle_spans_and_events(
    service, client, caplog, monkeypatch
):
    # configure_logging (run by CLI tests sharing this process) stops
    # propagation at the package root; caplog needs it back on.
    monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
    client.register_tenant(
        {"name": "alpha", "problem": _problem_payload(7), "time_limit": None}
    )
    with caplog.at_level(logging.INFO, logger="repro.http.access"):
        job = client.trigger_cycles(
            "alpha", cycles=1, wait=True, trace_id=TRACE_ID
        )
        line = _await_access_line(caplog, "path=/v1/tenants/alpha/cycles")
    assert client.last_trace_id == PADDED
    assert job["trace_id"] == PADDED

    # The cycle report object carries it (process-local, never serialized).
    tenant = service.tenant("alpha")
    assert tenant.controller.history[-1].trace_id == PADDED
    assert all("trace_id" not in r for r in client.reports("alpha"))

    # The audit log stamps the cycle events with it.
    events = client.events("alpha")["events"]
    by_kind = {}
    for event in events:
        by_kind.setdefault(event["kind"], []).append(event)
    assert by_kind["cycle.started"][-1]["trace_id"] == PADDED
    assert by_kind["cycle.completed"][-1]["trace_id"] == PADDED

    # Both span exports can be filtered down to the request's trace.
    chrome = client.trace()["traceEvents"]
    assert any(e.get("args", {}).get("trace_id") == PADDED for e in chrome)
    otlp = client.trace_otlp()["resourceSpans"][0]["scopeSpans"][0]["spans"]
    traced = [s for s in otlp if s["traceId"] == PADDED]
    assert any(s["name"].startswith("cron.cycle") for s in traced)

    # And the access log recorded the request under the same id.
    assert f"trace_id={PADDED}" in line
    assert "tenant=alpha" in line
    assert "method=POST" in line and "status=200" in line
    assert re.search(r"duration_ms=\d+\.\d\d", line)


def test_access_log_covers_untenanted_requests(client, caplog, monkeypatch):
    monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
    with caplog.at_level(logging.INFO, logger="repro.http.access"):
        client.service_health()
        line = _await_access_line(caplog, "path=/v1/healthz")
    assert "method=GET" in line and "path=/v1/healthz" in line
    assert "status=200" in line and "tenant=-" in line
    assert f"trace_id={client.last_trace_id}" in line


def test_server_derives_context_from_client_traceparent(client):
    client.service_health()
    first = client.last_trace_id
    client.service_health()
    # Fresh trace per request, both minted deterministically.
    assert client.last_trace_id != first
    again = ServiceClient(client.base_url, timeout=600.0)
    again.service_health()
    assert again.last_trace_id == first


# ----------------------------------------------------------------------
# Uniform 500 envelope
# ----------------------------------------------------------------------
def test_internal_errors_return_uniform_envelope(service, client, monkeypatch):
    def boom():
        raise RuntimeError("secret detail that must stay server-side")

    monkeypatch.setattr(service, "events_doc", boom)
    with pytest.raises(ServiceError) as excinfo:
        client.all_events()
    error = excinfo.value
    assert error.status == 500
    assert error.payload["error"] == "internal server error"
    assert re.fullmatch(r"[0-9a-f]{12}", error.payload["error_id"])
    assert error.payload["trace_id"] == client.last_trace_id
    assert "secret detail" not in json.dumps(error.payload)


# ----------------------------------------------------------------------
# Audit log over HTTP
# ----------------------------------------------------------------------
def test_event_endpoints_paginate_and_merge(service, client):
    client.register_tenant(
        {"name": "one", "problem": _problem_payload(3), "time_limit": None}
    )
    client.register_tenant(
        {"name": "two", "problem": _problem_payload(4), "time_limit": None}
    )
    client.trigger_cycles("one", cycles=2, wait=True)

    document = client.events("one")
    assert document["tenant"] == "one"
    assert not document["evicted"]
    kinds = [e["kind"] for e in document["events"]]
    assert kinds[0] == "tenant.registered"
    assert kinds.count("cycle.completed") == 2

    # ?since= pagination is exact: resuming from last_seq yields nothing,
    # and a fresh event arrives without refetching the old ones.
    cursor = document["last_seq"]
    assert client.events("one", since=cursor)["events"] == []
    client.trigger_cycles("one", cycles=1, wait=True)
    fresh = client.events("one", since=cursor)["events"]
    assert fresh and all(e["seq"] > cursor for e in fresh)

    merged = client.all_events()
    assert merged["tenants"] == ["one", "two"]
    registered = [e for e in merged["events"] if e["kind"] == "tenant.registered"]
    assert {e["tenant"] for e in registered} == {"one", "two"}
    stamps = [e["ts"] for e in merged["events"]]
    assert stamps == sorted(stamps)


def test_deregister_event_is_recorded(service, client):
    client.register_tenant(
        {"name": "gone", "problem": _problem_payload(5), "time_limit": None}
    )
    tenant = service.tenant("gone")
    client.deregister_tenant("gone")
    kinds = [e["kind"] for e in tenant.events.snapshot()]
    assert kinds[-1] == "tenant.deregistered"


# ----------------------------------------------------------------------
# SLO alerts over HTTP
# ----------------------------------------------------------------------
def test_violating_tenant_fires_fast_burn_within_five_cycles(service, client):
    client.register_tenant(
        {"name": "healthy", "problem": _problem_payload(11),
         "time_limit": None}
    )
    # gained_after can never reach 1.5, so every cycle violates the
    # affinity floor: burn = (1/1)/0.05 = 20x >= the 6x fast threshold.
    client.register_tenant(
        {"name": "violator", "problem": _problem_payload(12),
         "time_limit": None, "slo": {"gained_affinity_floor": 1.5}}
    )
    client.trigger_cycles("healthy", cycles=5, wait=True)
    client.trigger_cycles("violator", cycles=5, wait=True)

    assert client.alerts("healthy")["alerts"] == []
    document = client.alerts("violator")
    (alert,) = document["alerts"]
    assert alert["severity"] == "fast_burn"
    assert alert["objective"] == "gained_affinity"
    assert alert["burn_rate"] >= 6.0
    assert document["slo"]["objectives"]["gained_affinity"]["alert"] == "fast_burn"

    merged = client.all_alerts()
    assert [a["tenant"] for a in merged["alerts"]] == ["violator"]
    assert merged["cycles_observed"] == {"healthy": 5, "violator": 5}

    tenants = {t["name"]: t for t in client.list_tenants()}
    assert tenants["violator"]["alerts_active"] == 1
    assert tenants["healthy"]["alerts_active"] == 0

    exposition = client.metrics("violator")
    match = re.search(
        r"^slo_gained_affinity_burn_rate_fast (\S+)", exposition, re.M
    )
    assert match and float(match.group(1)) == pytest.approx(20.0)
    assert "slo_alerts_active 1.0" in exposition
    # The process exposition carries the new p99 quantile line.
    assert 'quantile="0.99"' in client.service_metrics()


# ----------------------------------------------------------------------
# Client connect-retry
# ----------------------------------------------------------------------
def test_client_retries_refused_connections(service, monkeypatch):
    real_urlopen = urllib.request.urlopen
    calls = {"n": 0}

    def flaky(request, timeout=None):
        calls["n"] += 1
        if calls["n"] <= 2:
            raise urllib.error.URLError(ConnectionRefusedError("refused"))
        return real_urlopen(request, timeout=timeout)

    monkeypatch.setattr(urllib.request, "urlopen", flaky)
    patient = ServiceClient(
        service.url, timeout=600.0, connect_retries=5, connect_backoff=0.001
    )
    assert patient.service_health()["status"] == "ok"
    assert calls["n"] == 3

    calls["n"] = -10_000  # make the fake refuse for any retry budget
    impatient = ServiceClient(service.url, timeout=600.0)
    with pytest.raises(ServiceError, match="refused"):
        impatient.service_health()
    assert calls["n"] == -9_999  # exactly one attempt, no retries


def test_client_does_not_retry_http_errors(service, monkeypatch):
    calls = {"n": 0}
    real_urlopen = urllib.request.urlopen

    def counting(request, timeout=None):
        calls["n"] += 1
        return real_urlopen(request, timeout=timeout)

    monkeypatch.setattr(urllib.request, "urlopen", counting)
    client = ServiceClient(service.url, timeout=600.0, connect_retries=5)
    with pytest.raises(ServiceError) as excinfo:
        client.tenant("missing")
    assert excinfo.value.status == 404
    assert calls["n"] == 1


# ----------------------------------------------------------------------
# Determinism with tracing enabled
# ----------------------------------------------------------------------
def test_reports_stay_bit_identical_with_tracing_on(service, client):
    reference = [
        r.to_dict()
        for r in api.run_control_loop(
            generate_cluster(
                ClusterSpec(name="obs-20", num_services=10,
                            num_containers=50, num_machines=4, seed=20)
            ).problem,
            cycles=3,
            time_limit=None,
        )
    ]

    client.register_tenant(
        {"name": "det", "problem": _problem_payload(20), "time_limit": None}
    )
    client.trigger_cycles("det", cycles=3, wait=True, trace_id=TRACE_ID)
    assert client.reports("det") == reference
