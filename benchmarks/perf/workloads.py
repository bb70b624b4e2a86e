"""The four benchmark workloads, each driven through the ``repro.api`` facade.

Every workload does a fixed amount of work on pinned inputs (see README.md,
"Seeds"): ``setup`` builds the inputs and checks their SHA-256 pins,
``run`` does the measured work and checks its outputs.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from catalog import READ_ENDPOINTS, WRITE_ENDPOINTS
from harness import (
    REFERENCE_TRACE,
    ROOT,
    SRC,
    BenchError,
    CycleClock,
    check_pin,
    sha256_file,
    sha256_json,
)

from repro import api
from repro.cluster.replay import EventTrace
from repro.cluster.state import ClusterState
from repro.core.config import RASAConfig
from repro.service.client import ServiceClient, ServiceError
from repro.workloads import EVALUATION_SPECS, ClusterSpec, generator
from repro.workloads.trace_io import problem_to_dict


@dataclass
class Outcome:
    """What one measured pass of a workload produced.

    Attributes:
        work_s: Wall seconds of the whole measured section (``service_mixed``:
            seconds per 10,000 completed requests).
        op_ms: One latency sample per operation, in milliseconds: a facade
            call on the fixed-work workloads, a read request on the service.
        gained_affinity: Normalized gained affinity the pass ended with.
        attempted / failed: Operations tried and operations that failed.
        checks: ``(name, passed, detail)`` for every output check.
        extra: Workload-specific numbers the per-layer metrics use.
    """

    work_s: float
    op_ms: list[float]
    gained_affinity: float
    attempted: int
    failed: int
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, bool(passed), detail))


class Workload:
    """Interface of a workload; see the subclasses for what each measures."""

    name = ""
    #: How often set-up is repeated for ``setup_s`` (its median is reported).
    setup_repeats = 3
    #: Quantile of ``op_ms`` reported as ``op_tail_ms``.
    tail_quantile = 1.0

    def setup(self, seed: int, workdir: str, *, in_process: bool = False):
        raise NotImplementedError

    def teardown(self, inputs) -> list[tuple[str, bool, str]]:
        """Release what ``setup`` acquired; returns teardown checks."""
        return []

    def run(self, inputs, seconds: float, workdir: str, *, recorder=None,
            ladder: bool = False) -> Outcome:
        raise NotImplementedError


def _set_run(recorder, run: str) -> None:
    if recorder is not None:
        recorder.run = run


class OptimizeM3(Workload):
    """Cold one-shot workflow on M3: optimize to gap termination, then plan
    and execute the migration from the recorded placement.

    One repetition per 10 s of ``--seconds``.  With ``ladder`` the same
    problem is also solved under 1 s and 4 s budgets (the two-point
    time-to-quality curve, reported per layer).
    """

    name = "optimize_m3"
    # Generating M3 takes milliseconds; many repetitions steady the median.
    setup_repeats = 15
    unit_seconds = 10.0

    def setup(self, seed, workdir, *, in_process=False):
        problem = generator.generate_cluster(EVALUATION_SPECS["M3"]).problem
        check_pin("optimize_m3", sha256_json(problem_to_dict(problem)))
        return problem

    def run(self, problem, seconds, workdir, *, recorder=None, ladder=False):
        repetitions = max(1, int(seconds // self.unit_seconds))
        op_ms, gained, failed = [], 0.0, 0
        outcome = Outcome(0.0, op_ms, 0.0, repetitions, 0)
        started = time.perf_counter()
        for i in range(repetitions):
            _set_run(recorder, f"{self.name}#{i}")
            t0 = time.perf_counter()
            result = api.optimize(problem, time_limit=None)
            op_ms.append((time.perf_counter() - t0) * 1000.0)
            plan = api.plan_migration(
                problem, problem.current_assignment, result.assignment
            )
            trace = api.execute_plan(problem, problem.current_assignment, plan)
            feasible = result.assignment.check_feasibility().feasible
            migrated = plan.complete and trace.outcome == "completed"
            outcome.check(f"rep{i}.feasible", feasible)
            outcome.check(f"rep{i}.migration_completed", migrated, trace.outcome)
            failed += not (feasible and migrated)
            gained = result.gained_affinity
        outcome.work_s = time.perf_counter() - started
        outcome.gained_affinity = gained
        outcome.failed = failed
        if ladder:
            _set_run(recorder, f"{self.name}#ladder")
            for budget in (1, 4):
                result = api.optimize(problem, time_limit=float(budget))
                outcome.attempted += 1
                feasible = result.assignment.check_feasibility().feasible
                outcome.check(f"budget{budget}s.feasible", feasible)
                outcome.failed += not feasible
                outcome.extra[f"gained_at_{budget}s"] = result.gained_affinity
        return outcome


def _report_digest(reports) -> str:
    """SHA-256 of a report sequence without the process-local ``metrics``."""
    documents = []
    for report in reports:
        document = report.to_dict() if hasattr(report, "to_dict") else dict(report)
        document.pop("metrics", None)
        documents.append(document)
    return sha256_json(documents)


def _checkpoint_bytes(directory: str) -> int:
    path = os.path.join(directory, "snapshot.json")
    return os.path.getsize(path) if os.path.exists(path) else 0


class ReplayWeek(Workload):
    """Steady-state loop: replay the committed reference week, durable.

    1.5 cycles per second of ``--seconds`` (30 at the benchmark's 20 s), one
    compaction every 16 cycles.  After the first cycle nearly every cycle
    is a ``dry_run`` that still pays a full cold column-generation solve.
    """

    name = "replay_week"
    # Loading the trace takes milliseconds; see OptimizeM3.setup_repeats.
    setup_repeats = 15

    def setup(self, seed, workdir, *, in_process=False):
        check_pin("reference_week.jsonl.gz", sha256_file(REFERENCE_TRACE))
        return EventTrace.load(REFERENCE_TRACE)

    def run(self, trace, seconds, workdir, *, recorder=None, ladder=False):
        cycles = max(2, round(1.5 * seconds))
        clock = CycleClock()
        _set_run(recorder, f"{self.name}#0")
        with tempfile.TemporaryDirectory(dir=workdir) as checkpoints:
            started = time.perf_counter()
            reports = api.replay_trace(
                trace, cycles=cycles, time_limit=None,
                checkpoint_dir=checkpoints, checkpoint_every=16,
                shutdown=clock,
            )
            work_s = time.perf_counter() - started
            snapshot_bytes = _checkpoint_bytes(checkpoints)
        violations = sum(not report.sla_ok for report in reports)
        outcome = Outcome(
            work_s, [work_s * 1000.0],
            statistics.fmean(report.gained_after for report in reports),
            cycles, violations,
        )
        outcome.check("cycles", len(reports) == cycles, str(len(reports)))
        outcome.check("sla_ok", violations == 0, f"{violations} violations")
        outcome.extra.update(
            reports_sha=_report_digest(reports),
            snapshot_bytes=snapshot_bytes,
            events_applied=sum(len(report.events) for report in reports),
            cycle_ms=[s * 1000.0 for s in clock.cycle_seconds(cycles)],
        )
        return outcome


class LoopM1Large(Workload):
    """One executed control-loop cycle on M1 at 0.6 of paper scale.

    3,542 services / 586 machines, 12-service shards so every MILP
    terminates, durable.  Paper scale takes 80 s for two cycles; 0.6 is the
    largest scale whose cycle fits the run budget while the Python layers
    still do most of the work.
    """

    name = "loop_m1_large"
    spec = ClusterSpec(
        name="M1-0.6", num_services=3542, num_containers=15384,
        num_machines=586, affinity_beta=2.2, seed=109,
    )

    def setup(self, seed, workdir, *, in_process=False):
        problem = generator.generate_cluster(self.spec).problem
        check_pin("loop_m1_large", sha256_json(problem_to_dict(problem)))
        return problem

    def run(self, problem, seconds, workdir, *, recorder=None, ladder=False):
        clock = CycleClock()
        state = ClusterState(problem)
        _set_run(recorder, f"{self.name}#0")
        with tempfile.TemporaryDirectory(dir=workdir) as checkpoints:
            started = time.perf_counter()
            reports = api.run_control_loop(
                state, cycles=1, time_limit=None,
                config=RASAConfig(max_subproblem_services=12),
                checkpoint_dir=checkpoints, shutdown=clock,
            )
            work_s = time.perf_counter() - started
            snapshot_bytes = _checkpoint_bytes(checkpoints)
        report = reports[0]
        feasible = state.assignment().check_feasibility().feasible
        executed = report.action == "executed" and report.moved_containers > 0
        ok = feasible and executed and report.sla_ok
        outcome = Outcome(
            work_s, [work_s * 1000.0], report.gained_after, 1, int(not ok),
        )
        outcome.check("feasible", feasible)
        outcome.check("executed", executed,
                      f"{report.action}, moved {report.moved_containers}")
        outcome.check("sla_ok", report.sla_ok)
        outcome.extra.update(
            reports_sha=_report_digest(reports), snapshot_bytes=snapshot_bytes,
            cycle_ms=[s * 1000.0 for s in clock.cycle_seconds(1)],
        )
        return outcome


@dataclass
class _Service:
    """A running optimizer service with its registered tenants."""

    url: str
    seed: int
    checkpoints: str
    edges: dict[str, list] = field(default_factory=dict)
    process: "subprocess.Popen | None" = None
    log: object = None
    service: object = None


class ServiceMixed(Workload):
    """Closed loop of two clients against a served process with 8 tenants.

    80 % reads spread evenly over ``reports``, ``health``, ``metrics``,
    ``events`` and ``tenant`` on all tenants, 20 % ``push_snapshot`` on
    ``t4``-``t7``, and every 2,000th request of a client triggers a cycle
    on one of ``t0``-``t3`` without waiting for it.  ``t0``/``t1`` and
    ``t2``/``t3`` are twins (same problem), so their report sequences must
    share a common prefix.  The seed draws the request sequence and the
    pushed traffic values; the tenants' problems are pinned.

    The untraced pass serves from a subprocess (``rasa serve``) so client
    and server do not share an interpreter lock; the traced pass serves
    in-process so the wrappers can see the server side.
    """

    name = "service_mixed"
    tail_quantile = 0.99
    clients = 2
    tenants = tuple(f"t{i}" for i in range(8))
    #: Tenant -> seed of its generated problem; equal seeds make twins.
    problem_seeds = (4, 4, 19, 19, 16, 20, 22, 28)
    trigger_every = 2000

    def _problems(self) -> dict[str, dict]:
        documents = {}
        for tenant, seed in zip(self.tenants, self.problem_seeds):
            spec = ClusterSpec(
                name=f"svc-{seed}", num_services=12, num_containers=60,
                num_machines=5, seed=seed,
            )
            documents[tenant] = problem_to_dict(generator.generate_cluster(spec).problem)
        check_pin("service_mixed", sha256_json(documents))
        return documents

    def setup(self, seed, workdir, *, in_process=False):
        problems = self._problems()
        checkpoints = tempfile.mkdtemp(dir=workdir, prefix="svc-")
        if in_process:
            running = api.start_service(
                port=0, workers=2, checkpoint_root=checkpoints
            )
            service = _Service(running.url, seed, checkpoints, service=running)
        else:
            service = self._serve(seed, checkpoints, workdir)
        try:
            client = ServiceClient(service.url, connect_retries=10)
            for tenant, document in problems.items():
                client.register_tenant({"name": tenant, "problem": document})
                service.edges[tenant] = [
                    [edge["u"], edge["v"], edge["weight"]]
                    for edge in document["affinity"]
                ]
            for tenant in self.tenants:
                job = client.trigger_cycles(tenant, wait=True)
                action = job["reports"][0]["action"] if job["reports"] else None
                if job["status"] != "done" or action != "executed":
                    raise BenchError(
                        f"warm-up cycle of {tenant} ended {job['status']} / "
                        f"{action}; expected done / executed"
                    )
        except BaseException:
            self.teardown(service)
            raise
        return service

    def _serve(self, seed: int, checkpoints: str, workdir: str) -> _Service:
        log = tempfile.NamedTemporaryFile(
            dir=workdir, prefix="serve-", suffix=".log", delete=False
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--workers", "2", "--checkpoint-root", checkpoints],
            stdout=log, stderr=subprocess.STDOUT, env=env, cwd=str(ROOT),
        )
        service = _Service("", seed, checkpoints, process=process, log=log)
        deadline = time.monotonic() + 30.0
        while True:
            with open(log.name, encoding="utf-8", errors="replace") as handle:
                found = re.search(r"service: (http://\S+)", handle.read())
            if found:
                service.url = found.group(1)
                return service
            if process.poll() is not None or time.monotonic() > deadline:
                with open(log.name, encoding="utf-8", errors="replace") as handle:
                    output = handle.read()
                self.teardown(service)
                raise BenchError(f"rasa serve did not start: {output[-2000:]}")
            time.sleep(0.02)

    def teardown(self, service) -> list[tuple[str, bool, str]]:
        if service.service is not None:
            service.service.stop()
            shutil.rmtree(service.checkpoints, ignore_errors=True)
            return []
        process = service.process
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
        try:
            code = process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            process.kill()
            code = process.wait()
        service.log.close()
        os.unlink(service.log.name)
        shutil.rmtree(service.checkpoints, ignore_errors=True)
        # ``rasa serve`` drains, checkpoints and exits 3 when interrupted.
        return [("server_exit_code", code == 3, f"exit {code}")]

    def _client_loop(self, service, index, deadline, samples, jobs):
        rng = np.random.default_rng([service.seed, index])
        client = ServiceClient(service.url, trace_seed=index)
        reads = {
            "reports": client.reports, "health": client.health,
            "metrics": client.metrics, "events": client.events,
            "tenant": client.tenant,
        }
        # Clients start out of phase so their triggers alternate instead of
        # arriving together.
        sent = index * self.trigger_every // self.clients
        while time.perf_counter() < deadline:
            sent += 1
            if sent % self.trigger_every == 0:
                endpoint, tenant = "trigger_cycles", self.tenants[rng.integers(4)]
                call = lambda: jobs.append(client.trigger_cycles(tenant)["id"])
            elif rng.random() < 0.2:
                endpoint, tenant = "push_snapshot", self.tenants[4 + rng.integers(4)]
                factors = rng.uniform(0.5, 1.5, len(service.edges[tenant]))
                edges = [
                    [a, b, qps * factor]
                    for (a, b, qps), factor in zip(service.edges[tenant], factors)
                ]
                call = lambda: client.push_snapshot(tenant, edges)
            else:
                endpoint = READ_ENDPOINTS[rng.integers(len(READ_ENDPOINTS))]
                tenant = self.tenants[rng.integers(len(self.tenants))]
                call = lambda: reads[endpoint](tenant)
            t0 = time.perf_counter()
            try:
                call()
                ok = True
            except (ServiceError, OSError):
                ok = False
            samples.append((endpoint, (time.perf_counter() - t0) * 1000.0, ok))

    def run(self, service, seconds, workdir, *, recorder=None, ladder=False):
        _set_run(recorder, f"{self.name}#0")
        per_client = [[] for _ in range(self.clients)]
        jobs: list[str] = []
        started = time.perf_counter()
        threads = [
            threading.Thread(
                target=self._client_loop,
                args=(service, i, started + seconds, per_client[i], jobs),
            )
            for i in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        window = time.perf_counter() - started
        samples = [sample for client in per_client for sample in client]
        completed = sum(ok for _, _, ok in samples)
        if not completed:
            raise BenchError("no request completed")

        client = ServiceClient(service.url)
        statuses = [self._await_job(client, job) for job in jobs]
        failed_jobs = sum(status != "done" for status in statuses)
        reports = {t: client.reports(t) for t in self.tenants}
        outcome = Outcome(
            window * 10000.0 / completed,
            [ms for endpoint, ms, ok in samples if ok and endpoint in READ_ENDPOINTS],
            statistics.fmean(r[-1]["gained_after"] for r in reports.values()),
            len(samples) + len(jobs),
            len(samples) - completed + failed_jobs,
        )
        outcome.check("requests_ok", completed == len(samples),
                      f"{len(samples) - completed} failed")
        outcome.check("jobs_done", failed_jobs == 0, str(statuses))
        for a, b in (("t0", "t1"), ("t2", "t3")):
            shared = min(len(reports[a]), len(reports[b]))
            same = _report_digest(reports[a][:shared]) == _report_digest(
                reports[b][:shared]
            )
            outcome.check(f"twins_{a}_{b}", same, f"prefix of {shared}")
        sla = all(r["sla_ok"] for history in reports.values() for r in history)
        outcome.check("sla_ok", sla)
        outcome.extra.update(
            window_s=window,
            req_per_s=completed / window,
            jobs_done=len(jobs) - failed_jobs,
            jobs_failed=failed_jobs,
            endpoints={
                endpoint: [ms for e, ms, ok in samples if ok and e == endpoint]
                for endpoint in READ_ENDPOINTS + WRITE_ENDPOINTS
            },
        )
        return outcome

    @staticmethod
    def _await_job(client, job_id: str) -> str:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            status = client.job(job_id)["status"]
            if status != "running":
                return status
            time.sleep(0.05)
        return "running"


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (OptimizeM3(), ReplayWeek(), LoopM1Large(), ServiceMixed())
}
