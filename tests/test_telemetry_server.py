"""Tests for the live telemetry plane: hub health, HTTP endpoints, e2e loop."""

from __future__ import annotations

import json
import logging
import re
import time
import urllib.error
import urllib.request

import pytest

from repro.api import run_control_loop
from repro.cluster.collector import DataCollector
from repro.cluster.cronjob import CronJobController, CycleReport
from repro.cluster.state import ClusterState
from repro.obs import (
    MetricsRegistry,
    TelemetryHub,
    TelemetryServer,
    Tracer,
    use_metrics,
    use_tracer,
)


def _get(url: str):
    """GET ``url`` → (status, content_type, body_bytes); follows 5xx too."""
    try:
        with urllib.request.urlopen(url, timeout=10) as resp:
            return resp.status, resp.headers.get("Content-Type"), resp.read()
    except urllib.error.HTTPError as err:
        return err.code, err.headers.get("Content-Type"), err.read()


def _report(cycle=0, *, sla_ok=True, rungs=(), action="executed",
            gained=0.5) -> CycleReport:
    return CycleReport(cycle=cycle, action=action, gained_before=0.1,
                       gained_after=gained, rungs=list(rungs), sla_ok=sla_ok,
                       min_alive_fraction=1.0 if sla_ok else 0.5)


# ----------------------------------------------------------------------
# TelemetryHub health semantics
# ----------------------------------------------------------------------
def test_hub_idle_before_first_cycle():
    health = TelemetryHub().health()
    assert health["status"] == "idle"
    assert health["cycles"] == 0
    assert health["sla_ok"] is None


def test_hub_ok_degraded_and_sla_violated():
    # The hub serves the history list it is bound to; a controller binds
    # its own and appends one report per finished cycle.
    hub = TelemetryHub()
    hub.history.append(_report(0))
    assert hub.health()["status"] == "ok"

    hub.history.append(_report(1, rungs=["retried"], action="retried"))
    health = hub.health()
    assert health["status"] == "degraded"
    assert health["rungs"] == ["retried"]

    hub.history.append(_report(2, sla_ok=False))
    health = hub.health()
    assert health["status"] == "sla_violated"
    assert health["cycles"] == 3
    assert health["cycle"] == 2
    assert health["min_alive_fraction"] == 0.5


def test_hub_streams_published_cycles(tmp_path):
    from repro.obs import JsonlStreamWriter

    path = tmp_path / "cycles.jsonl"
    hub = TelemetryHub(stream=JsonlStreamWriter(path))
    hub.publish_cycle(_report(0))
    hub.publish_cycle(_report(1))
    hub.stream.close()
    assert hub.history == []  # publishing only streams; the log is history
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["cycle"] for r in records] == [0, 1]
    assert all(r["kind"] == "cycle" for r in records)


# ----------------------------------------------------------------------
# HTTP endpoints (unit level, fabricated state)
# ----------------------------------------------------------------------
def test_metrics_endpoint_serves_prometheus_text():
    registry = MetricsRegistry()
    registry.counter("rasa.subproblems.solved").inc(3)
    with TelemetryServer(registry=registry) as server:
        status, ctype, body = _get(server.url + "/metrics")
    assert status == 200
    assert "version=0.0.4" in ctype
    assert "# TYPE rasa_subproblems_solved_total counter" in body.decode()
    assert "rasa_subproblems_solved_total 3.0" in body.decode()


def test_healthz_endpoint_200_ok_and_503_on_sla_violation():
    hub = TelemetryHub()
    with TelemetryServer(hub, registry=MetricsRegistry()) as server:
        status, _ctype, body = _get(server.url + "/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "idle"

        hub.history.append(_report(0))
        status, _ctype, body = _get(server.url + "/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"

        hub.history.append(_report(1, sla_ok=False))
        status, _ctype, body = _get(server.url + "/healthz")
        assert status == 503
        assert json.loads(body)["status"] == "sla_violated"


def test_cycles_endpoint_returns_all_reports():
    hub = TelemetryHub()
    hub.history += [_report(0), _report(1, action="dry_run")]
    with TelemetryServer(hub, registry=MetricsRegistry()) as server:
        status, _ctype, body = _get(server.url + "/cycles")
    assert status == 200
    cycles = json.loads(body)
    assert [c["cycle"] for c in cycles] == [0, 1]
    assert cycles[1]["action"] == "dry_run"


def test_trace_endpoint_reflects_live_tracer():
    with TelemetryServer(registry=MetricsRegistry()) as server:
        status, _ctype, body = _get(server.url + "/trace")
        assert status == 200
        assert json.loads(body)["traceEvents"] == []

        with use_tracer(Tracer()) as tracer:
            with tracer.span("live.span"):
                pass
            status, _ctype, body = _get(server.url + "/trace")
        names = {e["name"] for e in json.loads(body)["traceEvents"]}
        assert "live.span" in names


def test_unknown_path_is_404():
    with TelemetryServer(registry=MetricsRegistry()) as server:
        status, _ctype, body = _get(server.url + "/nope")
    assert status == 404
    assert "unknown path" in json.loads(body)["error"]


def test_wrong_verb_is_405_json():
    with TelemetryServer(registry=MetricsRegistry()) as server:
        request = urllib.request.Request(
            server.url + "/healthz", data=b"{}", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
    error = excinfo.value
    assert error.code == 405 and error.headers.get("Allow") == "GET"
    document = json.loads(error.read())
    assert document["schema_version"] == 1 and "POST" in document["error"]


def test_raising_data_source_is_a_logged_500_envelope(caplog, monkeypatch):
    # configure_logging (run by CLI tests sharing this process) stops
    # propagation at the package root; caplog needs it back on.
    monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
    hub = TelemetryHub()

    def boom():
        raise RuntimeError("secret detail that must stay server-side")

    monkeypatch.setattr(hub, "health", boom)
    with caplog.at_level(logging.INFO, logger="repro"):
        with TelemetryServer(hub, registry=MetricsRegistry()) as server:
            status, _ctype, body = _get(server.url + "/healthz")
            # The handler logs after it has replied; stopping the server
            # does not wait for it, so wait here.
            deadline = time.monotonic() + 10
            while not any(
                r.name == "repro.http.access" for r in caplog.records
            ):
                assert time.monotonic() < deadline, "no access-log line"
                time.sleep(0.01)
    document = json.loads(body)
    assert status == 500
    assert document["error"] == "internal server error"
    assert re.fullmatch(r"[0-9a-f]{12}", document["error_id"])
    assert "secret detail" not in body.decode()
    messages = [r.getMessage() for r in caplog.records]
    assert any(
        document["error_id"] in m and "secret detail" in m for m in messages
    )
    assert any(
        "method=GET path=/healthz status=500" in m
        and f"trace_id={document['trace_id']}" in m
        for m in messages
    )


def test_server_start_is_idempotent_and_stop_reentrant():
    server = TelemetryServer(registry=MetricsRegistry())
    port = server.start()
    assert server.start() == port
    assert server.url.endswith(str(port))
    server.stop()
    server.stop()


# ----------------------------------------------------------------------
# End-to-end: a 2-cycle control loop with the server attached
# ----------------------------------------------------------------------
def _controller(cluster, hub=None) -> CronJobController:
    return CronJobController(
        state=ClusterState(cluster.problem),
        collector=DataCollector(cluster.qps),
        telemetry=hub,
    )


def test_e2e_loop_serves_healthz_and_metrics(small_cluster):
    hub = TelemetryHub()
    with use_metrics(MetricsRegistry()):
        controller = _controller(small_cluster, hub)
        assert hub.history is controller.history
        with TelemetryServer(hub) as server:
            status, _ctype, body = _get(server.url + "/healthz")
            assert json.loads(body)["status"] == "idle"

            reports = controller.run(2)

            status, _ctype, body = _get(server.url + "/healthz")
            assert status == 200
            health = json.loads(body)
            assert health["cycles"] == 2
            assert health["cycle"] == reports[-1].cycle
            assert health["action"] == reports[-1].action
            assert health["gained_affinity"] == pytest.approx(
                reports[-1].gained_after)

            status, ctype, body = _get(server.url + "/metrics")
            assert status == 200 and "version=0.0.4" in ctype
            text = body.decode()
            assert "rasa_subproblems_solved_total" in text
            assert "rasa_phase_solve_seconds_count" in text

            status, _ctype, body = _get(server.url + "/cycles")
            assert [c["cycle"] for c in json.loads(body)] == [0, 1]


def test_facade_telemetry_port_and_cycle_stream(small_cluster, tmp_path):
    stream_path = tmp_path / "cycles.jsonl"
    seen: dict = {}

    def probe(server: TelemetryServer) -> None:
        seen["url"] = server.url
        status, ctype, body = _get(server.url + "/metrics")
        seen["metrics"] = (status, ctype, body.decode())
        status, _ctype, body = _get(server.url + "/healthz")
        seen["healthz"] = (status, json.loads(body))

    with use_metrics(MetricsRegistry()):
        reports = run_control_loop(
            small_cluster.problem,
            cycles=2,
            time_limit=None,
            telemetry_port=0,
            cycle_stream=str(stream_path),
            on_telemetry_start=probe,
        )

    assert len(reports) == 2
    # The probe ran while the loop owned a live server on an ephemeral port.
    assert seen["metrics"][0] == 200
    assert "version=0.0.4" in seen["metrics"][1]
    assert seen["healthz"][0] == 200
    assert seen["healthz"][1]["status"] == "idle"
    # Every finished cycle reached the JSONL stream before shutdown.
    records = [json.loads(line)
               for line in stream_path.read_text().splitlines()]
    assert [r["cycle"] for r in records] == [0, 1]
    assert all(r["kind"] == "cycle" for r in records)
    assert records[-1]["action"] == reports[-1].action


# ----------------------------------------------------------------------
# Differential: attached telemetry ⇒ bit-identical control loop
# ----------------------------------------------------------------------
def test_telemetry_attached_loop_is_bit_identical(small_cluster, tmp_path):
    with use_metrics(MetricsRegistry()):
        plain = run_control_loop(small_cluster.problem, cycles=2,
                                 time_limit=None)
    with use_metrics(MetricsRegistry()):
        observed = run_control_loop(
            small_cluster.problem,
            cycles=2,
            time_limit=None,
            telemetry_port=0,
            cycle_stream=str(tmp_path / "cycles.jsonl"),
        )
    assert plain == observed
