"""Stable, keyword-only entry points — the supported surface of ``repro``.

Four functions cover the library's workflows end to end:

* :func:`optimize` — run the three-phase RASA pipeline on a problem.
* :func:`plan_migration` — compute an SLA-safe migration path between two
  assignments.
* :func:`execute_plan` — replay a migration plan with invariant checking,
  optional fault injection, and retry/backoff.
* :func:`run_control_loop` — drive the CronJob control plane for N cycles,
  optionally under a chaos :class:`~repro.faults.FaultPlan`.
* :func:`replay_trace` — drive the control plane against a recorded
  v2 event trace (deploys, scaling, traffic shifts, machine churn).

The service surface rides on the same facade:

* :func:`start_service` — run the multi-tenant optimizer service
  (:mod:`repro.service`): N named clusters as independent tenants behind
  a versioned REST control plane.
* :class:`ServiceClient` — stdlib HTTP client for that control plane.

Each facade function is a thin, stable wrapper over the class-based layer
(:class:`~repro.core.rasa.RASAScheduler`,
:class:`~repro.migration.path.MigrationPathBuilder`,
:class:`~repro.migration.executor.MigrationExecutor`,
:class:`~repro.cluster.cronjob.CronJobController`) and returns exactly what
the underlying call would — the classes remain available for advanced
composition (custom partitioners, selectors, schedulers), but new code
should start here: keyword-only signatures keep call sites readable and
let the underlying constructors evolve without breaking callers.

Calling convention, uniform across the facade: each function takes its
data subjects (problem, assignments, plan, trace, checkpoint dir)
positionally and *every* tunable keyword-only — positional tunables are
rejected by the signatures themselves (enforced by a test over
``api.__all__``).

A control-loop tunable is declared once, as a field of
:class:`~repro.core.config.LoopSpec` (type, range, default, meaning).
The signatures of :func:`run_control_loop` / :func:`replay_trace` below
name the same fields as keywords and take their defaults from the spec
(``sla_floor: float = LoopSpec.sla_floor``) — only ``run_control_loop``'s
``time_limit`` and ``interval_seconds`` defaults are its own — and the
``rasa`` command line derives its loop flags from the field names
(:data:`repro.cli.LOOP_FLAGS`).  A loop run builds one ``LoopSpec`` (in
:func:`run_control_loop`, which :func:`replay_trace` calls), hands it to
:func:`~repro.cluster.cronjob.build_controller`, and drives the
controller with the one loop runner,
:class:`~repro.durability.loop.DurableControlLoop` (which journals iff
``checkpoint_dir`` is set); the service's tenant payload and the durable
checkpoint's ``run`` payload are that same record (DESIGN §12 has the
field table).  Runtime objects — a custom ``collector``, a ready
``FaultInjector``, ``stream``, ``shutdown``, the telemetry arguments —
are arguments of the call, not fields of the spec.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

import numpy as np

from repro.cluster.collector import DataCollector
from repro.cluster.cronjob import CycleReport, build_controller
from repro.cluster.replay import EventStreamCursor, EventTrace
from repro.cluster.state import ClusterState
from repro.core.config import DegradationPolicy, LoopSpec, RASAConfig, RetryPolicy
from repro.core.problem import RASAProblem
from repro.core.rasa import RASAResult, RASAScheduler
from repro.core.solution import Assignment
from repro.durability.checkpoint import CheckpointStore
from repro.durability.loop import DurableControlLoop, prepare_resume
from repro.faults import FaultInjector, FaultPlan, coerce_injector
from repro.migration.executor import ExecutionTrace, MigrationExecutor
from repro.migration.path import MigrationPathBuilder
from repro.migration.plan import MigrationPlan
from repro.obs import JsonlStreamWriter, TelemetryHub, TelemetryServer, get_metrics
from repro.service.app import OptimizerService, ServiceConfig
from repro.service.client import ServiceClient

__all__ = [
    "ServiceClient",
    "execute_plan",
    "optimize",
    "plan_migration",
    "replay_trace",
    "resume_control_loop",
    "run_control_loop",
    "start_service",
]


def _coerce_assignment(
    problem: RASAProblem, assignment: "Assignment | np.ndarray"
) -> Assignment:
    """Accept an Assignment or a raw placement matrix."""
    if isinstance(assignment, Assignment):
        return assignment
    return Assignment(problem, np.asarray(assignment))


def _run_observed(
    build: "Callable[[TelemetryHub | None], Callable[[], list[CycleReport]]]",
    telemetry_port: int | None,
    telemetry_host: str,
    cycle_stream: "str | None",
    on_telemetry_start: "Callable[[TelemetryServer], None] | None",
) -> list[CycleReport]:
    """Run a loop under the optional cycle stream and telemetry server.

    ``build`` receives the hub the loop should publish to (None when
    neither output was requested) and returns the loop's ``run`` callable;
    the server is started once the loop is built and both outputs are
    closed when ``run`` returns or raises.
    """
    hub = None
    server = None
    if cycle_stream is not None or telemetry_port is not None:
        hub = TelemetryHub(
            stream=JsonlStreamWriter(cycle_stream) if cycle_stream else None
        )
    run = build(hub)
    try:
        if telemetry_port is not None:
            server = TelemetryServer(hub, port=telemetry_port, host=telemetry_host)
            server.start()
            if on_telemetry_start is not None:
                on_telemetry_start(server)
        return run()
    finally:
        if server is not None:
            server.stop()
        elif hub is not None and hub.stream is not None:
            hub.stream.close()


def optimize(
    problem: RASAProblem,
    *,
    config: RASAConfig | None = None,
    time_limit: float | None = None,
) -> RASAResult:
    """Compute a cluster-wide placement maximizing gained affinity.

    Args:
        problem: The cluster instance.
        config: Pipeline tunables; None uses :class:`RASAConfig` defaults.
        time_limit: Overall wall-clock budget (seconds); None is unlimited.

    Returns:
        The merged placement plus per-phase diagnostics, identical to
        ``RASAScheduler(config=config).schedule(problem, time_limit=...)``.
    """
    return RASAScheduler(config=config).schedule(problem, time_limit=time_limit)


def plan_migration(
    problem: RASAProblem,
    start: "Assignment | np.ndarray",
    target: "Assignment | np.ndarray",
    *,
    sla_floor: float = 0.75,
) -> MigrationPlan:
    """Compute an SLA-safe migration path from ``start`` to ``target``.

    Args:
        problem: The cluster instance both assignments belong to.
        start: Current placement (Assignment or placement matrix).
        target: Desired placement.
        sla_floor: Minimum alive fraction per service during migration.

    Returns:
        An executable :class:`MigrationPlan`; ``plan.complete`` is False
        when some containers cannot move without violating the floor.
    """
    return MigrationPathBuilder(sla_floor=sla_floor).build(
        problem,
        _coerce_assignment(problem, start),
        _coerce_assignment(problem, target),
    )


def execute_plan(
    problem: RASAProblem,
    start: "Assignment | np.ndarray",
    plan: MigrationPlan,
    *,
    strict: bool = True,
    faults: "FaultPlan | FaultInjector | dict | None" = None,
    retry: RetryPolicy | None = None,
) -> ExecutionTrace:
    """Replay a migration plan against ``start`` with invariant checking.

    Args:
        problem: The cluster instance.
        start: Placement the plan applies to.
        plan: The migration plan (typically from :func:`plan_migration`).
        strict: Raise on invariant violations instead of recording them.
        faults: Optional chaos source — a :class:`FaultPlan`, a plan-shaped
            dict, or a ready :class:`FaultInjector`; None replays
            fault-free.
        retry: Backoff policy for faulted commands.

    Returns:
        The :class:`ExecutionTrace`, whose ``outcome`` reports
        ``"completed"``, ``"partial"``, or ``"rolled_back"``.
    """
    executor = MigrationExecutor(strict=strict, retry=retry)
    return executor.execute(
        problem,
        _coerce_assignment(problem, start),
        plan,
        injector=coerce_injector(faults),
    )


def run_control_loop(
    state: "ClusterState | RASAProblem",
    *,
    cycles: int,
    config: RASAConfig | None = None,
    faults: "FaultPlan | FaultInjector | dict | None" = None,
    collector: DataCollector | None = None,
    time_limit: float | None = 10.0,
    interval_seconds: float | None = 1800.0,
    sla_floor: float = LoopSpec.sla_floor,
    rollback_imbalance: float | None = None,
    degradation: DegradationPolicy | None = None,
    retry: RetryPolicy | None = None,
    traffic_jitter_sigma: float = LoopSpec.traffic_jitter_sigma,
    seed: int = LoopSpec.seed,
    telemetry_port: int | None = None,
    telemetry_host: str = "127.0.0.1",
    cycle_stream: "str | None" = None,
    on_telemetry_start: "Callable[[TelemetryServer], None] | None" = None,
    stream: "EventStreamCursor | None" = None,
    checkpoint_dir: "str | Path | None" = None,
    checkpoint_every: int = LoopSpec.checkpoint_every,
    shutdown=None,
) -> list[CycleReport]:
    """Drive the CronJob control plane for ``cycles`` cycles.

    Args:
        state: A live :class:`ClusterState`, or a :class:`RASAProblem` to
            wrap in one (using its recorded current assignment).
        cycles: Number of half-hourly cycles to run.
        config: Scheduler tunables for the per-cycle RASA solve.
        faults: Optional chaos source (see :func:`execute_plan`).
        collector: Custom data collector; None builds one from the
            problem's affinity weights as ground-truth traffic.
        time_limit: Per-cycle solver budget (seconds); None is unlimited.
        interval_seconds: Simulated time between cycles; None uses the
            replayed ``stream``'s recorded cadence.
        sla_floor: Alive-fraction floor enforced during migrations.
        rollback_imbalance: Utilization-skew rollback threshold; None
            disables the guard.
        degradation: Ladder policy for faulted cycles; None uses defaults
            (retry once, then greedy residual, then skip-and-tag).
        retry: Backoff policy for faulted migration commands.
        traffic_jitter_sigma: Measurement drift of the default collector.
        seed: Seed of the default collector's jitter stream.
        telemetry_port: When set, serve live telemetry for the duration of
            the loop — ``/metrics`` (Prometheus text), ``/healthz``,
            ``/cycles``, ``/trace`` — on this port (0 binds an ephemeral
            one).  The server is a pure observer and is shut down before
            returning.
        telemetry_host: Bind address for the telemetry server (loopback by
            default; it is plaintext and unauthenticated).
        cycle_stream: When set, append each finished cycle's report as one
            JSON line to this file as the loop runs.
        on_telemetry_start: Callback invoked with the running
            :class:`~repro.obs.server.TelemetryServer` right after it
            binds — the way to learn an ephemeral port.
        stream: Optional replay cursor
            (:class:`~repro.cluster.replay.EventStreamCursor`); each cycle
            first applies the trace events due at the simulated clock.
            Must wrap the same :class:`ClusterState` passed as ``state``
            (:func:`replay_trace` wires this up for you).
        checkpoint_dir: When set, journal every committed cycle to a
            CRC-guarded write-ahead log in this directory and compact it
            into an atomic snapshot every ``checkpoint_every`` cycles —
            after a crash (kill -9 included), :func:`resume_control_loop`
            continues the run with a bit-identical report sequence.
        checkpoint_every: Cycles between WAL compactions.
        shutdown: Optional
            :class:`~repro.durability.supervisor.GracefulShutdown`; once
            it is requested the loop finishes the in-flight cycle, writes
            a final checkpoint, and returns early.

    Returns:
        One :class:`CycleReport` per cycle, in order.
    """
    if checkpoint_dir is not None and collector is not None:
        raise ValueError(
            "checkpoint_dir cannot be combined with a caller-supplied "
            "collector: a resumed run rebuilds its collector from the "
            "checkpoint, which only records the default collector's "
            "configuration (traffic_jitter_sigma and seed)"
        )
    injector = coerce_injector(faults)
    spec = LoopSpec(
        config=config,
        faults=None if injector is None else injector.plan,
        degradation=degradation,
        retry=retry,
        time_limit=time_limit,
        interval_seconds=interval_seconds,
        sla_floor=sla_floor,
        rollback_imbalance=rollback_imbalance,
        traffic_jitter_sigma=traffic_jitter_sigma,
        seed=seed,
        checkpoint_every=checkpoint_every,
    )

    def build(hub):
        controller = build_controller(
            spec,
            stream if stream is not None else state,
            collector=collector,
            injector=injector,
            telemetry=hub,
        )
        return DurableControlLoop(
            controller=controller,
            store=(
                None if checkpoint_dir is None
                else CheckpointStore(checkpoint_dir)
            ),
            spec=spec,
            total_cycles=cycles,
            shutdown=shutdown,
        ).run

    return _run_observed(
        build, telemetry_port, telemetry_host, cycle_stream, on_telemetry_start
    )


def replay_trace(
    trace: "EventTrace | str | Path",
    *,
    cycles: int | None = None,
    config: RASAConfig | None = None,
    faults: "FaultPlan | FaultInjector | dict | None" = None,
    time_limit: float | None = None,
    interval_seconds: float | None = None,
    sla_floor: float = LoopSpec.sla_floor,
    rollback_imbalance: float | None = None,
    degradation: DegradationPolicy | None = None,
    retry: RetryPolicy | None = None,
    traffic_jitter_sigma: float = LoopSpec.traffic_jitter_sigma,
    seed: int = LoopSpec.seed,
    telemetry_port: int | None = None,
    telemetry_host: str = "127.0.0.1",
    cycle_stream: "str | None" = None,
    on_telemetry_start: "Callable[[TelemetryServer], None] | None" = None,
    checkpoint_dir: "str | Path | None" = None,
    checkpoint_every: int = LoopSpec.checkpoint_every,
    shutdown=None,
) -> list[CycleReport]:
    """Replay a recorded event trace through the CronJob control plane.

    Builds a fresh replay world from the trace's base cluster, then runs
    the control loop: each cycle first applies the trace events due at the
    simulated clock (deploys, teardowns, scaling, traffic shifts, machine
    churn), then collects, solves, and migrates as usual.

    Replays are deterministic: the same trace, ``seed``, and fault plan
    produce a bit-identical report sequence for any worker count.  The
    default ``time_limit`` of None keeps that guarantee — finite budgets
    make the solver's progress wall-clock-dependent.

    Args:
        trace: An in-memory :class:`~repro.cluster.replay.EventTrace` or a
            path to a v2 trace file.
        cycles: Cycles to run; None replays the whole stream
            (``trace.num_cycles()``).
        interval_seconds: Cycle period; None uses the trace's recorded
            cadence.
        (remaining arguments as in :func:`run_control_loop`)

    Returns:
        One :class:`CycleReport` per cycle; ``report.events`` records the
        trace events applied before each cycle.
    """
    if not isinstance(trace, EventTrace):
        trace = EventTrace.load(trace)
    if cycles is None:
        cycles = trace.num_cycles(interval_seconds)
    cursor = trace.cursor()
    return run_control_loop(
        cursor.state,
        cycles=cycles,
        config=config,
        faults=faults,
        time_limit=time_limit,
        interval_seconds=interval_seconds,
        sla_floor=sla_floor,
        rollback_imbalance=rollback_imbalance,
        degradation=degradation,
        retry=retry,
        traffic_jitter_sigma=traffic_jitter_sigma,
        seed=seed,
        telemetry_port=telemetry_port,
        telemetry_host=telemetry_host,
        cycle_stream=cycle_stream,
        on_telemetry_start=on_telemetry_start,
        stream=cursor,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every,
        shutdown=shutdown,
    )


def resume_control_loop(
    checkpoint_dir: "str | Path",
    *,
    cycles: int | None = None,
    allow_cold_start: bool = False,
    checkpoint_every: int | None = None,
    telemetry_port: int | None = None,
    telemetry_host: str = "127.0.0.1",
    cycle_stream: "str | None" = None,
    on_telemetry_start: "Callable[[TelemetryServer], None] | None" = None,
    shutdown=None,
) -> list[CycleReport]:
    """Resume a checkpointed control loop after a crash or shutdown.

    Loads the snapshot + WAL tail a previous :func:`run_control_loop` /
    :func:`replay_trace` invocation (with ``checkpoint_dir``) left behind,
    rebuilds the world from the checkpoint's embedded source, restores the
    live state, and runs the remaining cycles.  The returned history —
    restored cycles followed by freshly run ones — is bit-identical
    (modulo the process-local ``metrics`` field) to what the uninterrupted
    run would have returned, no matter where the previous process died.

    A torn WAL tail (the record being written at the kill) is detected by
    CRC and recovered by truncating back to the last good record; damage
    in the *middle* of the log raises
    :class:`~repro.exceptions.WALCorruptionError` instead of guessing.

    Args:
        checkpoint_dir: Directory the interrupted run journaled into.
        cycles: New target for *total* cycles (restored + new); None keeps
            the original run's target.
        allow_cold_start: When the checkpoint no longer matches the world
            it rebuilds (divergence), discard it and restart from cycle 0
            instead of raising
            :class:`~repro.exceptions.CheckpointDivergenceError`.
        checkpoint_every: Override the recorded compaction cadence.
        shutdown: Optional graceful-shutdown flag, as in
            :func:`run_control_loop`.
        (telemetry arguments as in :func:`run_control_loop`; restored
        cycles are republished to the hub, and ``/healthz`` gains a
        ``recovery`` block describing the resume.)

    Returns:
        The full report history, restored cycles included.
    """
    def build(hub: "TelemetryHub | None") -> "Callable[[], list[CycleReport]]":
        loop = prepare_resume(
            checkpoint_dir,
            cycles=cycles,
            allow_cold_start=allow_cold_start,
            checkpoint_every=checkpoint_every,
            shutdown=shutdown,
            telemetry=hub,
        )
        # This loop owns the process, so its counters/gauges survive the
        # restart via the last report's snapshot (histograms restart empty
        # — their reservoirs are process-local).  Tenants of a service
        # share the registry their reports snapshot, so they must not.
        if loop.controller.history:
            last = loop.controller.history[-1].metrics
            get_metrics().merge(
                {
                    "counters": dict(last.get("counters", {})),
                    "gauges": dict(last.get("gauges", {})),
                }
            )
        return loop.run

    return _run_observed(
        build,
        telemetry_port,
        telemetry_host,
        cycle_stream,
        on_telemetry_start,
    )


def start_service(
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int = 4,
    checkpoint_root: "str | Path | None" = None,
    resume: bool = True,
    tick_seconds: float = 0.5,
    tracing: bool = True,
    trace_seed: int = 0,
) -> "OptimizerService":
    """Start the multi-tenant optimizer service and return it running.

    The service manages N named clusters as independent tenants behind a
    versioned REST control plane (``/v1/tenants/...``): register a
    cluster from a problem or event-trace payload, push collector
    snapshots, trigger or cron-schedule optimization cycles, fetch
    migration plans and cycle reports, and scrape per-tenant ``/healthz``
    and ``/metrics``.  Tenant control loops shard onto a bounded worker
    pool (each tenant pinned to one slot); each tenant keeps its own
    checkpoint directory, fault plan, and degradation policy.

    Args:
        host: Bind address (loopback by default; the control plane is
            plaintext and unauthenticated).
        port: TCP port; 0 binds an ephemeral one (read ``service.url``).
        workers: Worker-thread count for the tenant controller pool.
        checkpoint_root: When set, each tenant checkpoints under
            ``<checkpoint_root>/<tenant>``; on startup, tenants found
            there are resumed (unless ``resume`` is False).
        resume: Whether to resume checkpointed tenants found under
            ``checkpoint_root`` at startup.
        tick_seconds: Cadence of the cron ticker that fires scheduled
            tenant cycles.
        tracing: Install a live process tracer at startup so
            ``/v1/trace`` and ``/v1/trace/otlp`` serve spans; a pure
            observer (report sequences are unchanged either way).
        trace_seed: Seed of the service's deterministic trace-id factory.

    Returns:
        The running :class:`~repro.service.app.OptimizerService`; call
        ``service.stop()`` (or use it as a context manager) to shut it
        down with final per-tenant checkpoints.
    """
    service = OptimizerService(
        ServiceConfig(
            host=host,
            port=port,
            workers=workers,
            checkpoint_root=(
                None if checkpoint_root is None else Path(checkpoint_root)
            ),
            resume=resume,
            tick_seconds=tick_seconds,
            tracing=tracing,
            trace_seed=trace_seed,
        )
    )
    service.start()
    return service
