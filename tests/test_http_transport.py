"""The HTTP transport between ``ServiceClient`` and the serving layer:
one kept-alive connection per client thread, reconnects only before a
send, no Nagle stall on reused connections, and a stopped listener that
ends its idle connections and answers nothing after it returns."""

from __future__ import annotations

import gc
import http.client
import re
import statistics
import threading
import time
from types import SimpleNamespace

import pytest

from repro import api
from repro.cli import main as cli_main
from repro.obs import MetricsRegistry, TelemetryServer
from repro.obs.context import TraceIdFactory
from repro.obs.server import HttpListener, JsonRequestHandler
from repro.service.client import ServiceClient, ServiceError
from repro.workloads import ClusterSpec, generate_cluster
from repro.workloads.trace_io import problem_to_dict


class _Connections:
    """Counts the connections a listener accepts and the ones it has closed."""

    def __init__(self, monkeypatch) -> None:
        self.accepted = 0
        self.closed = 0
        self._changed = threading.Condition()
        real_setup, real_finish = JsonRequestHandler.setup, JsonRequestHandler.finish
        counter = self

        def setup(handler):
            real_setup(handler)
            with counter._changed:
                counter.accepted += 1

        def finish(handler):
            try:
                real_finish(handler)
            finally:
                with counter._changed:
                    counter.closed += 1
                    counter._changed.notify_all()

        monkeypatch.setattr(JsonRequestHandler, "setup", setup)
        monkeypatch.setattr(JsonRequestHandler, "finish", finish)

    def wait_closed(self, count: int) -> None:
        with self._changed:
            assert self._changed.wait_for(lambda: self.closed >= count, timeout=10.0)


@pytest.fixture()
def connections(monkeypatch):
    return _Connections(monkeypatch)


@pytest.fixture()
def service():
    svc = api.start_service(port=0, workers=2)
    try:
        yield svc
    finally:
        svc.stop()


class _EchoHandler(JsonRequestHandler):
    """Answers on the client's own paths, plus two ways to drop a connection."""

    routes = (
        ("GET", re.compile("/v1/healthz"), "get_health"),
        ("GET", re.compile("/api/v1/healthz"), "get_prefixed_health"),
        ("GET", re.compile("/v1/tenants/(?P<tenant>[^/]+)"), "get_tenant"),
        ("GET", re.compile("/metrics"), "get_then_close"),
        ("GET", re.compile("/v1/alerts"), "get_no_answer"),
        ("GET", re.compile("/v1/events"), "get_slow"),
    )

    def get_health(self) -> None:
        self.respond_json(200, {"status": "ok"})

    def get_prefixed_health(self) -> None:
        self.respond_json(200, {"status": "prefixed"})

    def get_tenant(self, name: str) -> None:
        self.respond_json(200, {"name": name})

    def get_then_close(self) -> None:
        # Answers as if the connection stayed open, then closes it idle.
        self.respond(200, "text/plain", b"bye")
        self.close_connection = True

    def get_no_answer(self) -> None:
        self.owner.unanswered += 1
        self.close_connection = True

    def get_slow(self) -> None:
        self.owner.slow_started.set()
        assert self.owner.release.wait(timeout=10.0)
        self.respond_json(200, {"events": []})


@pytest.fixture()
def echo():
    owner = SimpleNamespace(
        ids=TraceIdFactory(namespace="test-echo"), unanswered=0,
        slow_started=threading.Event(), release=threading.Event(),
    )
    listener = HttpListener(_EchoHandler, owner)
    listener.start()
    try:
        yield listener
    finally:
        owner.release.set()
        listener.stop()


# ----------------------------------------------------------------------
# One connection per client thread
# ----------------------------------------------------------------------
def test_sequential_requests_share_one_connection(service, connections):
    client = ServiceClient(service.url)
    for _ in range(20):
        assert client.service_health()["status"] == "ok"
    assert connections.accepted == 1


def test_connection_close_answer_is_followed_by_a_fresh_connection(
    service, connections
):
    client = ServiceClient(service.url)
    client.service_health()
    # No route matches, so the POST is refused with its body unread and
    # answered with ``Connection: close``.
    with pytest.raises(ServiceError) as excinfo:
        client.trigger_cycles("no/such")
    assert excinfo.value.status == 404
    assert client.service_health()["status"] == "ok"
    assert connections.accepted == 2


def test_idle_connection_closed_by_the_server_is_replaced_before_sending(
    echo, connections
):
    client = ServiceClient(echo.url)
    assert client.service_metrics() == "bye"
    connections.wait_closed(1)
    assert client.service_health() == {"status": "ok"}
    assert connections.accepted == 2


def test_a_request_that_failed_after_sending_is_not_sent_again(echo):
    client = ServiceClient(echo.url, connect_retries=5)
    with pytest.raises(ServiceError, match="GET /v1/alerts failed"):
        client.all_alerts()
    assert echo.owner.unanswered == 1
    assert client.service_health() == {"status": "ok"}


def test_threads_sharing_a_client_get_their_own_responses(echo, connections):
    client = ServiceClient(echo.url)
    wrong: list[tuple[str, object]] = []

    def worker(name: str) -> None:
        for _ in range(25):
            document = client.tenant(name)
            if document != {"name": name}:
                wrong.append((name, document))

    threads = [threading.Thread(target=worker, args=(f"t{i}",)) for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert wrong == []
    assert connections.accepted == 8


def test_base_url_path_prefix_is_kept(echo):
    # Everything after the host is a prefix of every request path.
    client = ServiceClient(echo.url + "/api/")
    assert client.service_health() == {"status": "prefixed"}


# ----------------------------------------------------------------------
# close() and dropped clients
# ----------------------------------------------------------------------
def test_close_and_with_block_end_every_thread_connection(echo, connections):
    with ServiceClient(echo.url) as client:
        client.service_health()
        worker = threading.Thread(target=client.service_health)
        worker.start()
        worker.join()
    connections.wait_closed(2)
    # A closed client reconnects on its next request.
    assert client.service_health() == {"status": "ok"}
    client.close()
    client.close()
    connections.wait_closed(3)
    assert connections.accepted == 3


def test_a_dropped_client_closes_its_connection(echo, connections):
    client = ServiceClient(echo.url)
    client.service_health()
    del client
    gc.collect()
    connections.wait_closed(1)


def test_tenant_cli_closes_its_client(service, monkeypatch, capsys):
    closed = []
    real_close = ServiceClient.close

    def close(client):
        closed.append(client)
        real_close(client)

    monkeypatch.setattr(ServiceClient, "close", close)
    assert cli_main(["tenant", "list", "--url", service.url]) == 0
    assert cli_main(["alerts", "--url", service.url]) == 0
    assert cli_main(["top", "--url", service.url]) == 0
    assert len(closed) == 3
    capsys.readouterr()


# ----------------------------------------------------------------------
# Stopping a listener with open connections
# ----------------------------------------------------------------------
def _files(root) -> dict:
    return {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_a_client_kept_across_stop_gets_an_error_not_a_response(tmp_path):
    spec = ClusterSpec(name="stop-t", num_services=8, num_containers=40,
                       num_machines=3, seed=4)
    svc = api.start_service(port=0, workers=1, checkpoint_root=tmp_path)
    client = ServiceClient(svc.url)
    try:
        client.register_tenant(
            {"name": "kept", "problem": problem_to_dict(generate_cluster(spec).problem),
             "time_limit": None}
        )
        client.trigger_cycles("kept", wait=True)
    finally:
        svc.stop()
    before = _files(tmp_path / "kept")
    assert before
    with pytest.raises(ServiceError):
        client.trigger_cycles("kept", wait=True)
    with pytest.raises(ServiceError):
        client.push_snapshot("kept", [])
    assert _files(tmp_path / "kept") == before


def test_stop_ends_idle_connections_and_answers_requests_in_flight(
    echo, connections
):
    idle = http.client.HTTPConnection(echo.host, echo.port, timeout=10)
    idle.request("GET", "/v1/healthz")
    assert idle.getresponse().read()
    busy = http.client.HTTPConnection(echo.host, echo.port, timeout=10)
    busy.request("GET", "/v1/events")
    assert echo.owner.slow_started.wait(timeout=10.0)
    stopper = threading.Thread(target=echo.stop)
    stopper.start()
    time.sleep(0.2)
    assert stopper.is_alive()  # waiting for the request in flight
    echo.owner.release.set()
    response = busy.getresponse()
    assert response.status == 200 and response.getheader("Connection") == "close"
    assert response.read() == b'{"events": []}'
    stopper.join(timeout=10.0)
    assert not stopper.is_alive()
    # Both connection threads have exited by the time stop() returns.
    assert connections.accepted == connections.closed == 2
    # The idle connection was ended, not left to answer one more request.
    with pytest.raises((ConnectionError, http.client.HTTPException)):
        idle.request("GET", "/v1/healthz")
        idle.getresponse()
    idle.close()
    busy.close()


# ----------------------------------------------------------------------
# No Nagle stall on a reused connection
# ----------------------------------------------------------------------
def _median_get_ms(url: str, path: str, requests: int = 50) -> float:
    host, port = url.removeprefix("http://").split(":")
    connection = http.client.HTTPConnection(host, int(port), timeout=10)
    samples = []
    try:
        for _ in range(requests):
            started = time.perf_counter()
            connection.request("GET", path)
            response = connection.getresponse()
            response.read()
            samples.append((time.perf_counter() - started) * 1e3)
            assert response.status == 200 and not response.will_close
    finally:
        connection.close()
    return statistics.median(samples)


def test_reused_connection_is_not_nagle_stalled_on_the_service(service):
    # With Nagle on, the delayed ACK holds every response body ~40 ms.
    assert _median_get_ms(service.url, "/v1/healthz") < 10.0


def test_reused_connection_is_not_nagle_stalled_on_telemetry():
    with TelemetryServer(registry=MetricsRegistry()) as server:
        assert _median_get_ms(server.url, "/metrics") < 10.0
