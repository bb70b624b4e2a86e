"""The multi-tenant optimizer service: pool sharding, the REST control
plane, and the tenancy contract — each tenant's cycle reports must be
bit-identical to the equivalent single-tenant :func:`repro.api.run_control_loop`, with one
tenant's chaos plan never perturbing another's RNG streams.
"""

from __future__ import annotations

import http.client
import json
import re
import threading
import time
from pathlib import Path

import pytest

from repro import api, obs
from repro.cluster.replay import synthesize_trace
from repro.exceptions import ProblemValidationError
from repro.obs import server as obs_server
from repro.service import app
from repro.service.client import ServiceClient, ServiceError
from repro.service.pool import ControllerPool
from repro.service.tenant import Tenant, TenantSpec
from repro.workloads import ClusterSpec, generate_cluster
from repro.workloads.trace_io import problem_to_dict

FAULTS = {"seed": 3, "command_failure_rate": 0.3, "machine_failure_rate": 0.1}


def _spec(seed: int, services: int = 12) -> ClusterSpec:
    return ClusterSpec(
        name=f"svc-test-{seed}",
        num_services=services,
        num_containers=services * 5,
        num_machines=4,
        seed=seed,
    )


def _problem(seed: int, services: int = 12):
    return generate_cluster(_spec(seed, services)).problem


def _raw(base_url: str, method: str, path: str, body=None, headers=None):
    """One request with ``http.client`` (no client-side checks) →
    (response, body bytes)."""
    host, port = base_url.removeprefix("http://").split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=600)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        return response, response.read()
    finally:
        conn.close()


def _reference_reports(seed: int, cycles: int, faults=None) -> list[dict]:
    """What a single-tenant run_control_loop produces for the same world."""
    reports = api.run_control_loop(
        _problem(seed), cycles=cycles, time_limit=None, faults=faults
    )
    return [r.to_dict() for r in reports]


# ----------------------------------------------------------------------
# The controller pool
# ----------------------------------------------------------------------
def test_pool_serializes_jobs_per_tenant():
    order: list[int] = []
    lock = threading.Lock()

    def job(i: int):
        def run():
            time.sleep(0.01)
            with lock:
                order.append(i)
            return i

        return run

    with ControllerPool(workers=3) as pool:
        futures = [pool.submit("one-tenant", job(i)) for i in range(6)]
        assert all(f.result() == i for i, f in enumerate(futures))
    assert order == sorted(order)


def test_pool_runs_distinct_slots_concurrently():
    pool = ControllerPool(workers=4)
    # Find two tenants that hash to different slots.
    names = [f"t-{i}" for i in range(32)]
    a = names[0]
    b = next(n for n in names if pool.slot_for(n) != pool.slot_for(a))
    first_running = threading.Event()
    release = threading.Event()

    def blocker():
        first_running.set()
        assert release.wait(timeout=5.0)
        return "a"

    def other():
        return "b"

    with pool:
        fut_a = pool.submit(a, blocker)
        assert first_running.wait(timeout=5.0)
        fut_b = pool.submit(b, other)
        # b's slot is free, so it completes while a is still blocked.
        assert fut_b.result(timeout=5.0) == "b"
        release.set()
        assert fut_a.result(timeout=5.0) == "a"


def test_pool_rejects_submissions_when_not_running():
    pool = ControllerPool(workers=2)
    with pytest.raises(RuntimeError):
        pool.submit("x", lambda: None)
    pool.start()
    pool.stop()
    with pytest.raises(RuntimeError):
        pool.submit("x", lambda: None)


def test_pool_propagates_job_exceptions():
    def boom():
        raise ValueError("kaput")

    with ControllerPool(workers=1) as pool:
        future = pool.submit("x", boom)
        with pytest.raises(ValueError, match="kaput"):
            future.result(timeout=5.0)


# ----------------------------------------------------------------------
# REST control plane
# ----------------------------------------------------------------------
@pytest.fixture()
def service():
    svc = api.start_service(port=0, workers=4, tick_seconds=0.05)
    try:
        yield svc
    finally:
        svc.stop()


@pytest.fixture()
def client(service):
    return ServiceClient(service.url, timeout=600.0)


def test_service_lifecycle_over_http(client):
    health = client.service_health()
    assert health["status"] == "ok" and health["tenants"] == 0

    registered = client.register_tenant(
        {"name": "alpha", "problem": problem_to_dict(_problem(7)),
         "time_limit": None}
    )
    assert registered["name"] == "alpha"
    assert registered["mode"] == "cron"
    assert registered["cycles_completed"] == 0

    job = client.trigger_cycles("alpha", cycles=2, wait=True)
    assert job["status"] == "done"
    assert [r["cycle"] for r in job["reports"]] == [0, 1]

    reports = client.reports("alpha")
    assert len(reports) == 2
    assert client.reports("alpha", since=1) == reports[1:]

    plan = client.plan("alpha")
    assert {"steps", "complete", "schema_version"} <= set(plan)

    health = client.health("alpha")
    assert health["status"] in ("ok", "degraded")
    assert health["cycles"] == 2

    metrics = client.metrics("alpha")
    assert "tenant_cycles_total 2.0" in metrics

    assert [t["name"] for t in client.list_tenants()] == ["alpha"]
    assert client.service_health()["tenant_status"]["alpha"] == health["status"]

    gone = client.deregister_tenant("alpha")
    assert gone["deregistered"] == "alpha"
    assert client.list_tenants() == []


def test_service_error_paths(client):
    with pytest.raises(ServiceError) as excinfo:
        client.tenant("missing")
    assert excinfo.value.status == 404

    with pytest.raises(ServiceError) as excinfo:
        client.register_tenant({"name": "bad name!", "problem": {}})
    assert excinfo.value.status == 400

    payload = {"name": "dup", "problem": problem_to_dict(_problem(7)),
               "time_limit": None}
    client.register_tenant(payload)
    with pytest.raises(ServiceError) as excinfo:
        client.register_tenant(payload)
    assert excinfo.value.status == 409

    with pytest.raises(ServiceError) as excinfo:
        client.plan("dup")  # no cycle has run, so no plan yet
    assert excinfo.value.status == 404

    # A malformed spec is the client's error, named by field — never a
    # 500, a 201 that fails on its first cycle, or a bogus 409/404.
    problem = payload["problem"]
    for bad, field in [
        ({"problem": problem, "config": {"wrkers": 2}}, "config"),
        ({"problem": problem, "degradation": {"cycle_retrys": 2}}, "degradation"),
        ({"problem": problem, "retry": {"max_attemps": 2}}, "retry"),
        ({"problem": problem, "time_limit": "fast"}, "time_limit"),
        ({"problem": problem, "sla_floor": 7}, "sla_floor"),
        ({"problem": problem, "sla_floor": 0}, "sla_floor"),
        ({"trace": {"events": []}}, "base"),
        ({"trace": {"base": problem, "events": [{"kind": "deploy"}]}}, "event"),
        # json carries NaN/Infinity; the event codec must not.
        ({"trace": {"base": problem, "events": [
            {"kind": "traffic_shift", "at_seconds": 0.0, "u": "a", "v": "b",
             "factor": float("nan")}]}}, "factor"),
        ({"trace": {"base": problem, "events": [
            {"kind": "machine_add", "at_seconds": 0.0, "machine": "m",
             "capacity": {"cpu": float("inf")}}]}}, "capacity"),
        ({"trace": {"base": problem, "events": [
            {"kind": "service_scale", "at_seconds": 0.0, "service": "a",
             "new_demand": 0}]}}, "new_demand"),
    ]:
        with pytest.raises(ServiceError) as excinfo:
            client.register_tenant({"name": "c", **bad})
        assert excinfo.value.status == 400, bad
        assert field in excinfo.value.payload["error"], excinfo.value.payload
    with pytest.raises(ServiceError) as excinfo:
        client.tenant("c")
    assert excinfo.value.status == 404

    # Malformed queries and bodies name the offending field, same rule.
    for method, path, body, field in [
        ("GET", "/v1/tenants/dup/cycles?since=abc", None, "since"),
        ("GET", "/v1/tenants/dup/cycles?since=-1", None, "since"),
        ("GET", "/v1/tenants/dup/events?since=1.5", None, "since"),
        ("POST", "/v1/tenants/dup/cycles", {"cycles": "two"}, "cycles"),
        ("POST", "/v1/tenants/dup/schedule", {"schedule_seconds": "soon"},
         "schedule_seconds"),
    ]:
        with pytest.raises(ServiceError) as excinfo:
            client._request(method, path, body)
        assert excinfo.value.status == 400, path
        assert field in excinfo.value.payload["error"], excinfo.value.payload
    # Query values are percent-decoded before they are parsed.
    assert client._request("GET", "/v1/tenants/dup/cycles?since=%31")["since"] == 1

    response, body = _raw(
        client.base_url, "POST", "/v1/tenants/dup/cycles",
        headers={"Content-Length": "abc"},
    )
    assert response.status == 400 and "Content-Length" in json.loads(body)["error"]
    # A known path under a verb it does not serve is 405, not a 404 or
    # the stdlib's HTML 501.
    response, body = _raw(client.base_url, "PUT", "/v1/tenants/dup")
    document = json.loads(body)
    assert response.status == 405
    assert response.getheader("Allow") == "DELETE, GET"
    assert document["schema_version"] == 1 and "PUT" in document["error"]


@pytest.mark.parametrize("field, value, name", [
    ("config", {"local_search_seconds": "x"},
     "LoopSpec.config.local_search_seconds"),
    ("config", {"max_subproblem_services": 0},
     "LoopSpec.config.max_subproblem_services"),
    ("config", {"seed": -1}, "LoopSpec.config.seed"),
    ("config", {"backend": "bnb"}, "LoopSpec.config.backend"),
    ("retry", {"max_attempts": 2.5}, "LoopSpec.retry.max_attempts"),
    ("degradation", {"cycle_retries": 1.5}, "LoopSpec.degradation.cycle_retries"),
])
def test_bad_value_inside_a_structured_loop_field_is_a_400(client, field, value, name):
    """A value of the wrong type or range inside ``config``/``retry``/
    ``degradation`` is refused up front, naming the field — not a 201
    whose first cycle raises or silently runs on it."""
    from repro.core.config import LoopSpec

    with pytest.raises(ProblemValidationError, match=re.escape(name)):
        LoopSpec(**{field: value})
    with pytest.raises(ServiceError) as excinfo:
        client.register_tenant(
            {"name": "c", "problem": problem_to_dict(_problem(7)), field: value}
        )
    assert excinfo.value.status == 400
    assert name in excinfo.value.payload["error"], excinfo.value.payload
    assert client.list_tenants() == []


def test_infinite_time_limit_is_a_400(client):
    """``time_limit`` is a finite budget or null: infinity would count as a
    budget that no clock can spend, so it is refused by name."""
    from repro.core.config import LoopSpec

    with pytest.raises(ProblemValidationError, match="LoopSpec.time_limit"):
        LoopSpec(time_limit=float("inf"))
    with pytest.raises(ServiceError) as excinfo:
        client.register_tenant({
            "name": "c", "problem": problem_to_dict(_problem(7)),
            "time_limit": float("inf"),
        })
    assert excinfo.value.status == 400
    assert "LoopSpec.time_limit" in excinfo.value.payload["error"], excinfo.value.payload
    assert client.list_tenants() == []


def _route_templates(handler, **groups) -> list[tuple[str, str]]:
    """``(verb, path)`` per route row, ``<key>`` standing for its group."""
    rows = []
    for verb, pattern, _name in handler.routes:
        path = pattern.pattern
        for key, regex in groups.items():
            path = path.replace(regex, f"<{key}>")
        rows.append((verb, path))
    return rows


SERVICE_ROUTES = _route_templates(
    app._ServiceRequestHandler, n=app._NAME, id=app._JOB_ID
)
TELEMETRY_ROUTES = _route_templates(obs_server._TelemetryRequestHandler)


def test_docstring_route_table_is_the_route_table():
    documented = re.findall(
        r"^(GET|POST|DELETE)\s+``(/\S*)``", app.__doc__, flags=re.MULTILINE
    )
    assert documented == SERVICE_ROUTES
    assert len(SERVICE_ROUTES) == 20 and len(TELEMETRY_ROUTES) == 5
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    assert re.findall(r"^\| (GET|POST|DELETE) \| `(/\S*)` \|", readme, flags=re.M) == documented


@pytest.mark.parametrize(
    "verb,template,kind",
    [pytest.param(*row, "service", id=" ".join(row)) for row in SERVICE_ROUTES]
    + [pytest.param(*row, "telemetry", id=" ".join(row)) for row in TELEMETRY_ROUTES],
)
def test_malformed_requests_never_5xx(verb, template, kind, service, client):
    """Every route answers a non-integer query value, a non-object JSON
    body and wrong-typed fields with 2xx or 4xx — never a 500."""
    client.register_tenant(
        {"name": "fuzz", "problem": problem_to_dict(_problem(7)),
         "time_limit": None}
    )
    path = template.replace("<n>", "fuzz").replace("<id>", "job-1")
    wrong_types = {"name": 7, "cycles": "two", "wait": [], "edges": 5,
                   "schedule_seconds": "soon", "schema_version": "1"}
    with obs.TelemetryServer(registry=obs.MetricsRegistry()) as telemetry:
        base = service.url if kind == "service" else telemetry.url
        for suffix, body in [
            ("?since=abc&wait=%ZZ", None),
            ("", "[1, 2]"),
            ("", json.dumps(wrong_types)),
        ]:
            response, _ = _raw(base, verb, path + suffix, body=body)
            assert response.status < 500, (verb, path + suffix, body)


def test_async_trigger_and_job_polling(client):
    client.register_tenant(
        {"name": "bg", "problem": problem_to_dict(_problem(9)),
         "time_limit": None}
    )
    job = client.trigger_cycles("bg", cycles=1, wait=False)
    assert job["status"] in ("running", "done")
    deadline = time.monotonic() + 120
    while True:
        job = client.job(job["id"])
        if job["status"] == "done":
            break
        assert time.monotonic() < deadline, "async job never finished"
        time.sleep(0.05)
    assert len(job["reports"]) == 1


def test_snapshot_push_changes_next_cycle_inputs(client):
    problem = _problem(11)
    client.register_tenant(
        {"name": "push", "problem": problem_to_dict(problem),
         "time_limit": None}
    )
    names = problem.service_names()
    pushed = client.push_snapshot(
        "push", [[names[0], names[1], 42.0], [names[1], names[2], 7.0]]
    )
    assert pushed["edges"] == 2
    with pytest.raises(ServiceError) as excinfo:
        client.push_snapshot("push", [[names[0], "no-such-service", 1.0]])
    assert excinfo.value.status == 400
    job = client.trigger_cycles("push", cycles=1, wait=True)
    assert job["status"] == "done"


def test_replay_tenant_rejects_snapshot_push(client):
    trace = synthesize_trace(
        _spec(3, services=8), name="replay-tenant", seed=3,
        duration_seconds=3 * 1800.0,
    )
    client.register_tenant(
        {
            "name": "replayed",
            "trace": {
                "name": trace.name,
                "seed": int(trace.seed),
                "interval_seconds": float(trace.interval_seconds),
                "description": trace.description,
                "base": problem_to_dict(trace.base),
                "events": [event.to_dict() for event in trace.events],
            },
            "time_limit": None,
        }
    )
    assert client.tenant("replayed")["mode"] == "replay"
    with pytest.raises(ServiceError) as excinfo:
        client.push_snapshot("replayed", [["a", "b", 1.0]])
    assert excinfo.value.status == 400
    job = client.trigger_cycles("replayed", cycles=2, wait=True)
    assert job["status"] == "done"
    # Replay cycles applied the trace's recorded events.
    reference = api.replay_trace(trace, cycles=2, time_limit=None)
    assert client.reports("replayed") == [
        r.to_dict() for r in reference
    ]


def test_cron_schedule_fires_and_clears(client):
    client.register_tenant(
        {"name": "sched", "problem": problem_to_dict(_problem(5, services=8)),
         "time_limit": None, "schedule_seconds": 0.1}
    )
    deadline = time.monotonic() + 120
    while client.tenant("sched")["cycles_completed"] < 2:
        assert time.monotonic() < deadline, "scheduled cycles never fired"
        time.sleep(0.05)
    cleared = client.set_schedule("sched", None)
    assert cleared["schedule_seconds"] is None
    if cleared["in_flight"]:
        # One scheduled cycle was running when the cadence was cleared.  A
        # tenant's jobs are FIFO on one slot, so a blocking trigger returns
        # only after that cycle has landed.
        client.trigger_cycles("sched", cycles=1, wait=True)
    # Nothing is queued (cancelled) and no tick can submit any more.
    settled = client.tenant("sched")["cycles_completed"]
    time.sleep(0.3)
    assert client.tenant("sched")["cycles_completed"] == settled


# ----------------------------------------------------------------------
# The tenancy contract: bit-identity and RNG isolation
# ----------------------------------------------------------------------
def test_concurrent_tenants_match_single_tenant_runs(client):
    """Two tenants under simultaneous load — one with a chaos plan — must
    each reproduce their single-tenant ``run_control_loop`` reports
    bit-identically, and the faulted tenant's injector must not perturb
    the clean tenant's streams (or vice versa)."""
    reference_faulted = _reference_reports(11, 3, faults=dict(FAULTS))
    reference_clean = _reference_reports(5, 3)

    client.register_tenant(
        {"name": "chaotic", "problem": problem_to_dict(_problem(11)),
         "time_limit": None, "faults": dict(FAULTS)}
    )
    client.register_tenant(
        {"name": "clean", "problem": problem_to_dict(_problem(5)),
         "time_limit": None}
    )

    errors: list[BaseException] = []

    def drive(name: str, triggers: int, per_trigger: int):
        try:
            for _ in range(triggers):
                job = client.trigger_cycles(
                    name, cycles=per_trigger, wait=True
                )
                assert job["status"] == "done"
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    # Three one-cycle triggers against one three-cycle trigger, in
    # parallel: per-tenant serialization plus per-tenant state must make
    # trigger granularity and neighbor load invisible in the reports.
    threads = [
        threading.Thread(target=drive, args=("chaotic", 3, 1)),
        threading.Thread(target=drive, args=("clean", 1, 3)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=600)
    assert not errors, errors

    assert client.reports("chaotic") == reference_faulted
    assert client.reports("clean") == reference_clean


def test_tenant_alone_matches_tenant_with_neighbors(client):
    """The clean tenant's reports must not depend on who else is hosted —
    run it alone first, then next to a chaos tenant, same service.  The
    whole payload is compared: a report carries nothing process-wide (it
    once carried a metrics snapshot holding every tenant's counters)."""
    client.register_tenant(
        {"name": "alone", "problem": problem_to_dict(_problem(5)),
         "time_limit": None}
    )
    client.trigger_cycles("alone", cycles=3, wait=True)
    alone = client.reports("alone")

    client.register_tenant(
        {"name": "noisy", "problem": problem_to_dict(_problem(11)),
         "time_limit": None, "faults": dict(FAULTS)}
    )
    client.register_tenant(
        {"name": "watched", "problem": problem_to_dict(_problem(5)),
         "time_limit": None}
    )
    noisy = threading.Thread(
        target=lambda: client.trigger_cycles("noisy", cycles=3, wait=True)
    )
    noisy.start()
    client.trigger_cycles("watched", cycles=3, wait=True)
    noisy.join(timeout=600)

    assert client.reports("watched") == alone


# ----------------------------------------------------------------------
# Per-tenant durability
# ----------------------------------------------------------------------
def test_durable_tenants_resume_across_service_restarts(tmp_path):
    """Stop the service mid-run; a fresh service over the same
    checkpoint root must resurrect both tenants (schedules included) and
    continue to reports bit-identical to uninterrupted runs."""
    root = tmp_path / "tenants"
    reference_a = _reference_reports(11, 5, faults=dict(FAULTS))
    reference_b = _reference_reports(5, 4)

    # Each service life gets its own process registry: a restarted
    # process counts from zero.
    with obs.use_metrics(obs.MetricsRegistry()) as registry:
        svc = api.start_service(port=0, workers=2, checkpoint_root=root)
        try:
            client = ServiceClient(svc.url, timeout=600.0)
            client.register_tenant(
                {"name": "dur-a", "problem": problem_to_dict(_problem(11)),
                 "time_limit": None, "faults": dict(FAULTS)}
            )
            client.register_tenant(
                {"name": "dur-b", "problem": problem_to_dict(_problem(5)),
                 "time_limit": None, "checkpoint_every": 1}
            )
            client.trigger_cycles("dur-a", cycles=2, wait=True)
            client.trigger_cycles("dur-b", cycles=1, wait=True)
        finally:
            svc.stop()
        before = registry.snapshot()["counters"]
    assert (root / "dur-a" / "snapshot.json").exists()
    assert (root / "dur-b" / "snapshot.json").exists()

    with obs.use_metrics(obs.MetricsRegistry()) as registry:
        svc = api.start_service(port=0, workers=2, checkpoint_root=root)
        try:
            # Resuming N tenants must not replay N copies of the process
            # counters their reports snapshotted.
            after = registry.snapshot()["counters"]
            assert before["solver.cg.solves"] > 0
            assert {n: v for n, v in after.items() if v > before.get(n, v)} == {}
            client = ServiceClient(svc.url, timeout=600.0)
            tenants = {t["name"]: t for t in client.list_tenants()}
            assert set(tenants) == {"dur-a", "dur-b"}
            assert tenants["dur-a"]["cycles_completed"] == 2
            assert tenants["dur-b"]["cycles_completed"] == 1
            client.trigger_cycles("dur-a", cycles=3, wait=True)
            client.trigger_cycles("dur-b", cycles=3, wait=True)
            assert client.reports("dur-a") == reference_a
            assert client.reports("dur-b") == reference_b
        finally:
            svc.stop()


def test_tenant_matches_cli_replay_run(tmp_path, client):
    """HTTP-driven cycles must match ``rasa replay`` on the same trace
    (the replay CLI defaults to an unlimited solver budget, which is what
    makes its report sequence machine-independent and comparable)."""
    from repro.cli import main as cli_main

    trace = synthesize_trace(
        _spec(9, services=8), name="cli-parity", seed=9,
        duration_seconds=3 * 1800.0,
    )
    trace_path = tmp_path / "trace.jsonl"
    trace.save(trace_path)
    report_path = tmp_path / "reports.json"
    code = cli_main(
        ["replay", str(trace_path), "--cycles", "3", "--quiet",
         "--report-out", str(report_path)]
    )
    assert code == 0
    via_cli = json.loads(report_path.read_text())

    client.register_tenant(
        {
            "name": "parity",
            "trace": {
                "name": trace.name,
                "seed": int(trace.seed),
                "interval_seconds": float(trace.interval_seconds),
                "description": trace.description,
                "base": problem_to_dict(trace.base),
                "events": [event.to_dict() for event in trace.events],
            },
            "time_limit": None,
        }
    )
    client.trigger_cycles("parity", cycles=3, wait=True)
    assert client.reports("parity") == via_cli


# ----------------------------------------------------------------------
# Tenant internals
# ----------------------------------------------------------------------
def test_tenant_builds_without_deprecation_warning(recwarn):
    import warnings

    tenant = Tenant(
        TenantSpec(
            name="quiet", problem=problem_to_dict(_problem(5, services=8)),
            time_limit=None,
        )
    )
    warnings.simplefilter("always")
    assert not [
        w for w in recwarn.list if issubclass(w.category, DeprecationWarning)
    ]
    reports = tenant.run_cycles(1)
    assert len(reports) == 1
    assert tenant.cycles_completed == 1
    assert tenant.last_report is reports[-1]
    summary = tenant.summary()
    assert summary["name"] == "quiet"
    assert summary["health"]["cycles"] == 1


def test_tenant_rejects_bad_cycle_counts():
    tenant = Tenant(
        TenantSpec(
            name="bounds", problem=problem_to_dict(_problem(5, services=8)),
            time_limit=None,
        )
    )
    with pytest.raises(ProblemValidationError):
        tenant.run_cycles(0)
