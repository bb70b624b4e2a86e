"""Command-line interface for the RASA reproduction.

Subcommands mirror the workflows a cluster operator needs:

* ``rasa generate`` — synthesize a cluster trace (or dump a registered
  dataset) to a JSON trace file.
* ``rasa optimize`` — load a trace, run the RASA pipeline, print the
  placement summary and (optionally) the migration plan.  ``--workers N``
  / ``--parallel`` solve independent subproblems in a process pool.
* ``rasa compare`` — run every baseline plus RASA on a trace.
* ``rasa inspect`` — placement metrics and skew profile of a trace.
* ``rasa cron`` — run the CronJob control loop for N cycles, optionally
  under a chaos ``--fault-plan``, with a ``--degradation-policy`` ladder
  and a machine-readable ``--report-out``.
* ``rasa replay`` — drive the control loop against a recorded v2 event
  trace (service deploys/teardowns, scaling, traffic shifts, machine
  churn), replaying the whole stream by default.
* ``rasa serve`` — run the multi-tenant optimizer service: N named
  clusters as independent tenants behind a versioned REST control plane
  (register/deregister, push snapshots, trigger or cron-schedule cycles,
  fetch plans and reports, per-tenant ``/healthz`` and ``/metrics``).
* ``rasa tenant`` — client for a running service (``register``, ``list``,
  ``show``, ``cycles``, ``reports``, ``plan``, ``push``, ``schedule``,
  ``health``, ``events``, ``alerts``, ``deregister``).
* ``rasa alerts`` — every tenant's active SLO burn-rate alerts as JSON.
* ``rasa top`` — a one-shot (or ``--interval`` refreshed) terminal view
  of tenants, cycle counts, health, and firing alerts.

Every subcommand accepts ``--log-level`` (structured ``repro.*`` logging
to stderr) and ``--quiet`` (suppress the plain-text stdout report);
``rasa optimize`` additionally writes Chrome trace-event JSON with
``--trace-out``, OTLP/JSON with ``--otlp-out``, and a metrics snapshot
with ``--metrics-out``.  ``rasa tenant cycles --trace-id ID`` pins the
triggered cycles to a caller-chosen trace id that can then be grepped
in the service access log, audit events, and span exports.

Command implementations go through the :mod:`repro.api` facade — the CLI
is a thin shell over the same supported surface library callers use.

Installed as the ``rasa`` console script via pyproject.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from typing import Callable

from repro import api
from repro.analysis import pair_localization_table, placement_metrics
from repro.core import Assignment, DegradationPolicy, RASAConfig
from repro.durability import atomic_write_json
from repro.durability.checkpoint import CheckpointStore
from repro.durability.supervisor import (
    EXIT_INTERRUPTED,
    GracefulShutdown,
    Supervisor,
    SupervisorPolicy,
    strip_supervisor_args,
)
from repro.exceptions import (
    CheckpointDivergenceError,
    DurabilityError,
    ProblemValidationError,
)
from repro.faults import FaultPlan
from repro.obs import (
    Tracer,
    configure_logging,
    get_logger,
    get_metrics,
    render_hotspots,
    set_tracer,
)
from repro.workloads import ClusterSpec, generate_cluster, load_cluster
from repro.workloads.trace_io import (
    load_event_trace,
    load_trace,
    problem_to_dict,
    save_trace,
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--log-level",
        type=str.upper,
        choices=["DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"],
        help="enable structured logging to stderr at this level (e.g. INFO)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the plain-text stdout report (log lines still emitted)",
    )


def _add_parallel(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="solve independent subproblems in N worker processes (default: 1)",
    )
    parser.add_argument(
        "--parallel",
        action="store_true",
        help="enable parallel subproblem solving; without --workers, uses all CPUs",
    )


def _add_profile(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile",
        action="store_true",
        help="capture per-span cProfile hotspot tables on partition/solve "
             "spans (adds overhead; implies span tracing)",
    )


def _add_durability(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="journal every cycle to a write-ahead log in DIR and compact "
             "it into atomic snapshots; if DIR already holds a checkpoint, "
             "resume the interrupted run from it",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="cycles between WAL compactions into a snapshot (default: 16; "
             "on resume, the default keeps the recorded cadence)",
    )
    parser.add_argument(
        "--allow-cold-start",
        action="store_true",
        help="on checkpoint divergence (the world no longer matches the "
             "saved state), discard the checkpoint and restart from cycle "
             "0 instead of failing",
    )
    parser.add_argument(
        "--supervise",
        action="store_true",
        help="run the loop in a supervised child process: crashes and "
             "hangs restart it (resuming from the checkpoint) with "
             "bounded exponential backoff; requires --checkpoint-dir",
    )
    parser.add_argument(
        "--max-restarts",
        type=int,
        default=5,
        metavar="N",
        help="restart budget for --supervise (default: 5)",
    )
    parser.add_argument(
        "--hang-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="with --supervise, kill and restart the child when its "
             "checkpoint heartbeat goes stale for this long (default: off)",
    )


def _add_client_opts(parser: argparse.ArgumentParser) -> None:
    """Flags shared by every subcommand that talks to a running service."""
    parser.add_argument(
        "--url", default="http://127.0.0.1:8080", metavar="URL",
        help="service base URL (default: http://127.0.0.1:8080)",
    )
    parser.add_argument(
        "--timeout", type=float, default=600.0, metavar="SECONDS",
        help="per-request timeout; blocking cycle triggers run full "
             "optimization cycles before responding (default: 600)",
    )
    parser.add_argument(
        "--connect-retries", type=int, default=0, metavar="N",
        help="retry refused connections up to N times with exponential "
             "backoff (covers the service-startup race; default: 0)",
    )


def _make_client(args: argparse.Namespace):
    from repro.service.client import ServiceClient

    return ServiceClient(
        args.url,
        timeout=args.timeout,
        connect_retries=args.connect_retries,
    )


def _scheduler_config(args: argparse.Namespace) -> RASAConfig:
    """Build the scheduler config from the parallelism/profiling CLI flags."""
    config = RASAConfig()
    if getattr(args, "workers", None) is not None:
        if args.workers < 1:
            raise SystemExit("error: --workers must be >= 1")
        config.workers = args.workers
    if getattr(args, "parallel", False):
        config.parallel = True
    if getattr(args, "profile", False):
        config.profile = True
    return config


def _add_generate(subparsers) -> None:
    parser = subparsers.add_parser(
        "generate", help="synthesize a cluster trace to a JSON file"
    )
    parser.add_argument("output", help="trace file to write")
    parser.add_argument("--dataset", help="registered dataset name (M1-M4, T1-T4)")
    parser.add_argument("--services", type=int, default=80)
    parser.add_argument("--containers", type=int, default=400)
    parser.add_argument("--machines", type=int, default=16)
    parser.add_argument("--beta", type=float, default=2.0, help="affinity skew exponent")
    parser.add_argument("--seed", type=int, default=0)
    _add_common(parser)


def _add_optimize(subparsers) -> None:
    parser = subparsers.add_parser(
        "optimize", help="run the RASA pipeline on a trace"
    )
    parser.add_argument("trace", help="JSON trace file")
    parser.add_argument("--time-limit", type=float, default=30.0)
    parser.add_argument(
        "--migration-plan",
        action="store_true",
        help="also compute and print the migration path (needs a current assignment)",
    )
    parser.add_argument(
        "--trace-out",
        help="write Chrome trace-event JSON (open in chrome://tracing or Perfetto)",
    )
    parser.add_argument(
        "--otlp-out",
        help="write the same spans as an OTLP/JSON trace document",
    )
    parser.add_argument(
        "--metrics-out",
        help="write the metrics-registry snapshot as JSON",
    )
    _add_parallel(parser)
    _add_profile(parser)
    _add_common(parser)


def _add_compare(subparsers) -> None:
    parser = subparsers.add_parser(
        "compare", help="run every baseline plus RASA on a trace"
    )
    parser.add_argument("trace", help="JSON trace file")
    parser.add_argument("--time-limit", type=float, default=10.0)
    _add_parallel(parser)
    _add_common(parser)


def _add_inspect(subparsers) -> None:
    parser = subparsers.add_parser("inspect", help="placement metrics of a trace")
    parser.add_argument("trace", help="JSON trace file")
    parser.add_argument("--top-pairs", type=int, default=10)
    _add_common(parser)


def _add_loop_command(subparsers, name: str) -> None:
    """``rasa cron`` / ``rasa replay``: one flag set, two kinds of source."""
    replay = name == "replay"
    parser = subparsers.add_parser(
        name,
        help=(
            "replay a recorded v2 event trace through the control loop"
            if replay else "run the CronJob control loop on a trace"
        ),
    )
    parser.add_argument(
        "trace",
        help=(
            "v2 event-trace file (gzip JSONL)"
            if replay else "JSON trace file (needs a current assignment)"
        ),
    )
    parser.add_argument(
        "--cycles", type=int, default=None,
        help="total cycles to run (default: 5 for cron, the whole stream for "
             "replay; on resume, the interrupted run's recorded target)",
    )
    parser.add_argument(
        "--time-limit", type=float, default=None if replay else 10.0,
        help="per-cycle solver budget in seconds (default: 10 for cron; "
             "unlimited for replay, which keeps it bit-deterministic)",
    )
    parser.add_argument("--sla-floor", type=float, default=0.75,
                        help="alive-fraction floor enforced during migrations")
    if replay:
        parser.add_argument("--seed", type=int, default=0,
                            help="collector jitter-stream seed")
        parser.add_argument(
            "--jitter", type=float, default=0.0, metavar="SIGMA",
            help="lognormal sigma of traffic-measurement drift (default: 0)",
        )
    parser.add_argument(
        "--fault-plan",
        metavar="PATH",
        help="JSON FaultPlan file enabling seeded chaos injection",
    )
    parser.add_argument(
        "--degradation-policy",
        default="retry,greedy,skip",
        metavar="LADDER",
        help="comma ladder of rungs for faulted cycles: retry[:N], greedy, skip "
             "(default: retry,greedy,skip)",
    )
    parser.add_argument(
        "--report-out",
        help="write the per-cycle reports as machine-readable JSON",
    )
    parser.add_argument(
        "--telemetry-port",
        type=int,
        metavar="PORT",
        help="serve live telemetry on this port for the duration of the "
             "loop: /metrics (Prometheus), /healthz, /cycles, /trace",
    )
    parser.add_argument(
        "--cycle-stream",
        metavar="PATH",
        help="append each finished cycle's report as one JSON line to PATH",
    )
    _add_durability(parser)
    _add_parallel(parser)
    _add_profile(parser)
    _add_common(parser)


def _add_serve(subparsers) -> None:
    parser = subparsers.add_parser(
        "serve", help="run the multi-tenant optimizer service"
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: loopback)")
    parser.add_argument("--port", type=int, default=8080,
                        help="TCP port; 0 binds an ephemeral one (default: 8080)")
    parser.add_argument(
        "--workers", type=int, default=4, metavar="N",
        help="worker threads in the tenant controller pool (default: 4)",
    )
    parser.add_argument(
        "--checkpoint-root", metavar="DIR",
        help="checkpoint each tenant under DIR/<name>; on startup, resume "
             "every tenant found there",
    )
    parser.add_argument(
        "--no-resume", action="store_true",
        help="do not resume checkpointed tenants found under "
             "--checkpoint-root at startup",
    )
    parser.add_argument(
        "--tick-seconds", type=float, default=0.5, metavar="SECONDS",
        help="cron-ticker cadence for scheduled tenants (default: 0.5)",
    )
    parser.add_argument(
        "--no-tracing", action="store_true",
        help="do not install a span tracer for the service process "
             "(disables /v1/trace and /v1/trace/otlp span capture)",
    )
    parser.add_argument(
        "--trace-seed", type=int, default=0, metavar="N",
        help="seed of the service's deterministic trace-id factory "
             "(default: 0)",
    )
    _add_common(parser)


def _add_tenant(subparsers) -> None:
    parser = subparsers.add_parser(
        "tenant", help="talk to a running optimizer service"
    )
    actions = parser.add_subparsers(dest="tenant_action", required=True)

    register = actions.add_parser("register", help="register a tenant")
    _add_client_opts(register)
    register.add_argument("name", help="tenant name (URL-safe)")
    register.add_argument("trace", help="v1 problem trace or v2 event trace")
    register.add_argument(
        "--event-trace", action="store_true",
        help="treat TRACE as a v2 event trace and register a replay tenant",
    )
    register.add_argument("--time-limit", type=float, default=None,
                          help="per-cycle solver budget (default: unlimited)")
    register.add_argument("--sla-floor", type=float, default=0.75)
    register.add_argument("--seed", type=int, default=0,
                          help="collector jitter-stream seed")
    register.add_argument("--jitter", type=float, default=0.0, metavar="SIGMA",
                          help="traffic-measurement drift (default: 0)")
    register.add_argument("--fault-plan", metavar="PATH",
                          help="JSON FaultPlan enabling seeded chaos")
    register.add_argument(
        "--schedule", type=float, default=None, metavar="SECONDS",
        help="fire one cycle this often (wall clock); omit for "
             "trigger-only operation",
    )
    register.add_argument(
        "--interval", type=float, default=None, metavar="SECONDS",
        help="simulated cycle period (default: trace cadence or 1800)",
    )
    register.add_argument(
        "--slo", metavar="JSON",
        help="SLO spec overrides as inline JSON, e.g. "
             '\'{"sla_ok_target": 0.95, "cycle_p95_seconds": 5.0}\'',
    )

    for action, help_text in [
        ("list", "list registered tenants"),
        ("show", "one tenant's summary"),
        ("cycles", "trigger optimization cycles"),
        ("reports", "fetch cycle reports"),
        ("plan", "fetch the latest migration plan"),
        ("push", "push a collector traffic snapshot"),
        ("schedule", "set or clear the cron cadence"),
        ("health", "tenant health document"),
        ("events", "fetch the tenant's audit/event log"),
        ("alerts", "the tenant's SLO status and burn-rate alerts"),
        ("deregister", "remove a tenant"),
    ]:
        sub = actions.add_parser(action, help=help_text)
        _add_client_opts(sub)
        if action != "list":
            sub.add_argument("name", help="tenant name")
        if action == "cycles":
            sub.add_argument("--cycles", type=int, default=1, metavar="N")
            sub.add_argument(
                "--no-wait", action="store_true",
                help="return the job id immediately instead of blocking",
            )
            sub.add_argument(
                "--trace-id", metavar="ID",
                help="pin the request (and the cycles it triggers) to this "
                     "trace id (1-32 hex chars) instead of a minted one",
            )
        if action == "reports":
            sub.add_argument("--since", type=int, default=0, metavar="K")
        if action == "events":
            sub.add_argument(
                "--since", type=int, default=0, metavar="SEQ",
                help="only events with sequence number > SEQ (default: 0)",
            )
        if action == "push":
            sub.add_argument(
                "edges", help="JSON file: list of [svc_a, svc_b, qps] triples"
            )
        if action == "schedule":
            sub.add_argument(
                "seconds", help='cadence in seconds, or "off" to clear'
            )


def _add_alerts(subparsers) -> None:
    parser = subparsers.add_parser(
        "alerts", help="every tenant's active SLO burn-rate alerts"
    )
    _add_client_opts(parser)
    _add_common(parser)


def _add_top(subparsers) -> None:
    parser = subparsers.add_parser(
        "top", help="terminal view of tenants, health, and firing alerts"
    )
    _add_client_opts(parser)
    parser.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="refresh cadence when --iterations > 1 (default: 2)",
    )
    parser.add_argument(
        "--iterations", type=int, default=1, metavar="N",
        help="how many refreshes to render before exiting; the default "
             "of 1 prints one snapshot and exits",
    )
    _add_common(parser)


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="rasa",
        description="Resource Allocation with Service Affinity (ICDE 2024) toolkit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_generate(subparsers)
    _add_optimize(subparsers)
    _add_compare(subparsers)
    _add_inspect(subparsers)
    _add_loop_command(subparsers, "cron")
    _add_loop_command(subparsers, "replay")
    _add_serve(subparsers)
    _add_tenant(subparsers)
    _add_alerts(subparsers)
    _add_top(subparsers)
    return parser


def _make_output(args: argparse.Namespace) -> Callable[[str], None]:
    """Stdout reporter that mirrors every line into the structured logger.

    The plain-text stdout report stays the default format; ``--quiet``
    silences stdout while the ``repro.cli`` logger (enabled via
    ``--log-level``) still receives each line.
    """
    logger = get_logger("cli")
    quiet = bool(getattr(args, "quiet", False))

    def out(message: str) -> None:
        if not quiet:
            print(message)
        logger.info(message)

    return out


# ----------------------------------------------------------------------
# Command implementations
# ----------------------------------------------------------------------
def cmd_generate(args: argparse.Namespace) -> int:
    out = _make_output(args)
    if args.dataset:
        problem = load_cluster(args.dataset).problem
    else:
        spec = ClusterSpec(
            name="cli",
            num_services=args.services,
            num_containers=args.containers,
            num_machines=args.machines,
            affinity_beta=args.beta,
            seed=args.seed,
        )
        problem = generate_cluster(spec).problem
    save_trace(problem, args.output)
    out(f"wrote {problem} to {args.output}")
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    out = _make_output(args)
    problem = load_trace(args.trace)

    metrics = get_metrics()
    metrics.reset()
    # --profile needs live spans to attach its hotspot tables to, so it
    # enables the tracer even without --trace-out.
    tracer = (
        Tracer() if (args.trace_out or args.otlp_out or args.profile) else None
    )
    previous = set_tracer(tracer) if tracer is not None else None
    try:
        result = api.optimize(
            problem, config=_scheduler_config(args), time_limit=args.time_limit
        )
    finally:
        if tracer is not None:
            set_tracer(previous)

    out(f"gained affinity: {result.gained_affinity:.2%}")
    out(f"runtime: {result.runtime_seconds:.1f}s")
    for report in result.reports:
        out(
            f"  shard {report.subproblem.num_services:>4d} services "
            f"-> {report.selected_algorithm}: {report.result.status}"
        )
    feasibility = result.assignment.check_feasibility()
    out(f"placement: {feasibility.summary()}")

    exit_code = 0
    if args.migration_plan:
        if problem.current_assignment is None:
            out("trace has no current assignment; skipping migration plan")
            exit_code = 1
        else:
            plan = api.plan_migration(
                problem, problem.current_assignment, result.assignment
            )
            out(f"migration: {plan.summary()} ({plan.moved_containers} containers)")

    if args.profile and tracer is not None:
        report = render_hotspots(tracer.finished_roots())
        out("profile hotspots (top cumulative time per span):")
        for line in report.splitlines():
            out(f"  {line}")

    try:
        if tracer is not None and args.trace_out:
            tracer.export(args.trace_out)
            out(f"wrote trace to {args.trace_out}")
        if tracer is not None and args.otlp_out:
            tracer.export_otlp(args.otlp_out)
            out(f"wrote OTLP trace to {args.otlp_out}")
        if args.metrics_out:
            metrics.export(args.metrics_out)
            out(f"wrote metrics to {args.metrics_out}")
    except OSError as exc:
        print(f"error: could not write observability output: {exc}", file=sys.stderr)
        exit_code = 1
    return exit_code


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.baselines import (
        ApplSci19Algorithm,
        K8sPlusAlgorithm,
        OriginalAlgorithm,
        POPAlgorithm,
    )

    out = _make_output(args)
    problem = load_trace(args.trace)
    total = problem.affinity.total_affinity or 1.0
    algorithms = [
        OriginalAlgorithm(),
        K8sPlusAlgorithm(),
        POPAlgorithm(),
        ApplSci19Algorithm(),
    ]
    out(f"{'algorithm':12s} {'gained':>8s} {'runtime':>9s}")
    for algorithm in algorithms:
        result = algorithm.solve(problem, time_limit=args.time_limit)
        out(
            f"{algorithm.name:12s} {result.objective / total:>8.3f} "
            f"{result.runtime_seconds:>8.1f}s"
        )
    result = api.optimize(
        problem, config=_scheduler_config(args), time_limit=args.time_limit
    )
    out(f"{'rasa':12s} {result.gained_affinity:>8.3f} "
        f"{result.runtime_seconds:>8.1f}s")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    out = _make_output(args)
    problem = load_trace(args.trace)
    out(f"{problem}")
    if problem.current_assignment is None:
        out("trace has no current assignment")
        return 1
    assignment = Assignment(problem, problem.current_assignment)
    metrics = placement_metrics(assignment)
    out(f"gained affinity:    {metrics.gained_affinity:.2%}")
    out(
        f"pairs localized:    {metrics.localized_pairs} full, "
        f"{metrics.partially_localized_pairs} partial, {metrics.remote_pairs} remote"
    )
    out(f"mean utilization:   {metrics.mean_utilization:.1%} "
        f"(std {metrics.utilization_std:.3f})")
    out(f"unplaced containers: {metrics.unplaced_containers}")
    out(f"\ntop {args.top_pairs} pairs by traffic:")
    for u, v, weight, ratio in pair_localization_table(assignment, top=args.top_pairs):
        out(f"  {u} <-> {v}: weight={weight:.1f} localized={ratio:.1%}")
    return 0


def _cmd_loop(args: argparse.Namespace, *, replay: bool) -> int:
    """``rasa cron`` (a problem snapshot) / ``rasa replay`` (an event trace)."""
    out = _make_output(args)
    # A --checkpoint-dir that already holds a snapshot means "resume it".
    resume = bool(
        args.checkpoint_dir
        and CheckpointStore(args.checkpoint_dir).snapshot_path.exists()
    )
    faults = None
    if not resume:
        if replay:
            try:
                source = load_event_trace(args.trace)
            except (OSError, ProblemValidationError) as exc:
                print(f"error: could not load event trace: {exc}", file=sys.stderr)
                return 1
            cycles = args.cycles if args.cycles is not None else source.num_cycles()
            out(
                f"trace {source.name!r}: {len(source.events)} events, "
                f"{source.base.num_services} services / "
                f"{source.base.num_machines} machines, replaying {cycles} cycles"
            )
            run_fresh = functools.partial(
                api.replay_trace, source, cycles=args.cycles,
                traffic_jitter_sigma=args.jitter, seed=args.seed,
            )
        else:
            source = load_trace(args.trace)
            if source.current_assignment is None:
                out("trace has no current assignment; cannot run the control loop")
                return 1
            run_fresh = functools.partial(
                api.run_control_loop, source,
                cycles=args.cycles if args.cycles is not None else 5,
            )
        if args.fault_plan:
            try:
                faults = FaultPlan.load(args.fault_plan)
            except (OSError, ValueError, ProblemValidationError) as exc:
                print(f"error: could not load fault plan: {exc}", file=sys.stderr)
                return 1
            out(f"fault plan: {faults.to_dict()}")
    try:
        degradation = DegradationPolicy.parse(args.degradation_policy)
    except (ValueError, ProblemValidationError) as exc:
        print(f"error: invalid --degradation-policy: {exc}", file=sys.stderr)
        return 1

    if args.telemetry_port is not None and args.telemetry_port < 0:
        print("error: --telemetry-port must be >= 0", file=sys.stderr)
        return 1
    # Profiling (and the /trace endpoint) need live spans, so either flag
    # installs a tracer for the duration of the loop.
    tracer = Tracer() if (args.profile or args.telemetry_port is not None) else None
    previous = set_tracer(tracer) if tracer is not None else None

    def announce(server) -> None:
        out(f"telemetry: {server.url} (/metrics /healthz /cycles /trace)")

    shutdown = GracefulShutdown()
    observers = dict(
        telemetry_port=args.telemetry_port,
        cycle_stream=args.cycle_stream,
        on_telemetry_start=announce if args.telemetry_port is not None else None,
        shutdown=shutdown,
    )
    try:
        with shutdown:
            if resume:
                out(f"resuming from checkpoint {args.checkpoint_dir}")
                reports = api.resume_control_loop(
                    args.checkpoint_dir,
                    cycles=args.cycles,
                    allow_cold_start=args.allow_cold_start,
                    checkpoint_every=args.checkpoint_every,
                    **observers,
                )
            else:
                reports = run_fresh(
                    config=_scheduler_config(args),
                    faults=faults,
                    time_limit=args.time_limit,
                    sla_floor=args.sla_floor,
                    degradation=degradation,
                    checkpoint_dir=args.checkpoint_dir,
                    checkpoint_every=args.checkpoint_every or 16,
                    **observers,
                )
    except CheckpointDivergenceError as exc:
        print(
            f"error: {exc}\n(pass --allow-cold-start to discard the "
            f"checkpoint and restart from cycle 0)",
            file=sys.stderr,
        )
        return 1
    except DurabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if tracer is not None:
            set_tracer(previous)

    out(f"{'cycle':>5s} {'action':16s} {'gained':>8s} {'moved':>6s} "
        f"{'events':>7s} {'skipped':>8s} {'failed':>7s} {'sla':>4s}")
    for report in reports:
        out(
            f"{report.cycle:>5d} {report.action:16s} "
            f"{report.gained_after:>8.3f} {report.moved_containers:>6d} "
            f"{len(report.events):>7d} "
            f"{report.skipped_commands:>8d} {report.failed_commands:>7d} "
            f"{'ok' if report.sla_ok else 'VIOL':>4s}"
        )
    out(
        f"cycles: {len(reports)} "
        f"({sum(1 for r in reports if r.action == 'executed')} executed, "
        f"{sum(1 for r in reports if r.action == 'dry_run')} dry-run, "
        f"{sum(1 for r in reports if r.rungs)} degraded, "
        f"{sum(len(r.events) for r in reports)} events applied)"
    )

    exit_code = 0 if all(r.sla_ok for r in reports) else 1
    if exit_code:
        out("SLA floor violated in at least one cycle")
    if args.report_out:
        try:
            atomic_write_json(
                args.report_out, [r.to_dict() for r in reports], indent=1
            )
            out(f"wrote report to {args.report_out}")
        except OSError as exc:
            print(f"error: could not write report: {exc}", file=sys.stderr)
            exit_code = 1
    if shutdown.interrupted:
        if args.checkpoint_dir:
            out(
                f"interrupted by {shutdown.signal_name}; final checkpoint "
                f"written, resume with the same --checkpoint-dir"
            )
        else:
            out(f"interrupted by {shutdown.signal_name}")
        return EXIT_INTERRUPTED
    return exit_code


def cmd_serve(args: argparse.Namespace) -> int:
    out = _make_output(args)
    shutdown = GracefulShutdown()
    with shutdown:
        try:
            service = api.start_service(
                host=args.host,
                port=args.port,
                workers=args.workers,
                checkpoint_root=args.checkpoint_root,
                resume=not args.no_resume,
                tick_seconds=args.tick_seconds,
                tracing=not args.no_tracing,
                trace_seed=args.trace_seed,
            )
        except OSError as exc:
            print(f"error: could not bind service: {exc}", file=sys.stderr)
            return 1
        out(f"service: {service.url} (workers={args.workers}"
            + (f", checkpoint_root={args.checkpoint_root}"
               if args.checkpoint_root else "")
            + ")")
        resumed = service.tenants()
        if resumed:
            out("resumed tenants: " + ", ".join(t.name for t in resumed))
        try:
            while not shutdown.requested:
                time.sleep(0.2)
        finally:
            out("shutting down: draining tenant cycles, writing final "
                "checkpoints")
            service.stop()
    if shutdown.requested:
        shutdown.interrupted = True
        out(f"interrupted by {shutdown.signal_name}; final checkpoints "
            f"written" if args.checkpoint_root
            else f"interrupted by {shutdown.signal_name}")
        return EXIT_INTERRUPTED
    return 0


def _tenant_register_payload(args: argparse.Namespace) -> dict:
    """Build the TenantSpec wire payload from ``rasa tenant register`` args."""
    spec: dict = {
        "name": args.name,
        "time_limit": args.time_limit,
        "sla_floor": args.sla_floor,
        "seed": args.seed,
        "traffic_jitter_sigma": args.jitter,
        "schedule_seconds": args.schedule,
        "interval_seconds": args.interval,
    }
    if args.event_trace:
        spec["trace"] = load_event_trace(args.trace).to_dict()
    else:
        spec["problem"] = problem_to_dict(load_trace(args.trace))
    if args.fault_plan:
        spec["faults"] = FaultPlan.load(args.fault_plan).to_dict()
    if args.slo:
        spec["slo"] = json.loads(args.slo)
    return spec


def cmd_tenant(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceError

    client = _make_client(args)
    action = args.tenant_action
    try:
        if action == "register":
            try:
                document = client.register_tenant(_tenant_register_payload(args))
            except (OSError, ProblemValidationError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
        elif action == "list":
            document = client.list_tenants()
        elif action == "show":
            document = client.tenant(args.name)
        elif action == "cycles":
            try:
                document = client.trigger_cycles(
                    args.name,
                    cycles=args.cycles,
                    wait=not args.no_wait,
                    trace_id=args.trace_id,
                )
            except ValueError as exc:  # bad --trace-id
                print(f"error: {exc}", file=sys.stderr)
                return 1
        elif action == "reports":
            document = client.reports(args.name, since=args.since)
        elif action == "plan":
            document = client.plan(args.name)
        elif action == "push":
            with open(args.edges, encoding="utf-8") as handle:
                edges = json.load(handle)
            document = client.push_snapshot(args.name, edges)
        elif action == "schedule":
            seconds = (
                None if args.seconds.lower() in ("off", "none", "null")
                else float(args.seconds)
            )
            document = client.set_schedule(args.name, seconds)
        elif action == "health":
            document = client.health(args.name)
        elif action == "events":
            document = client.events(args.name, since=args.since)
        elif action == "alerts":
            document = client.alerts(args.name)
        else:  # deregister
            document = client.deregister_tenant(args.name)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(document, indent=2, sort_keys=True))
    return 0


def cmd_alerts(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceError

    client = _make_client(args)
    try:
        document = client.all_alerts()
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(document, indent=2, sort_keys=True))
    return 0


def _render_top(tenants: list[dict], alerts: list[dict], out) -> None:
    """One ``rasa top`` frame: a tenant table plus the firing alerts."""
    out(f"{'tenant':16s} {'mode':8s} {'cycles':>6s} {'gained':>8s} "
        f"{'sched':>7s} {'health':8s} {'alerts':>6s}")
    for tenant in tenants:
        gained = tenant.get("gained_affinity")
        schedule = tenant.get("schedule_seconds")
        health = tenant.get("health") or {}
        out(
            f"{tenant['name']:16s} {tenant.get('mode', '-'):8s} "
            f"{tenant.get('cycles_completed', 0):>6d} "
            f"{'-' if gained is None else format(gained, '8.3f'):>8s} "
            f"{'-' if schedule is None else format(schedule, '.1f'):>7s} "
            f"{health.get('status', '-'):8s} "
            f"{tenant.get('alerts_active', 0):>6d}"
        )
    if alerts:
        out("firing alerts:")
        for alert in alerts:
            out(
                f"  {alert['tenant']}: {alert['objective']} "
                f"{alert['severity']} burn={alert['burn_rate']:.1f}x "
                f"(threshold {alert['threshold']:.1f}, "
                f"window {alert['window_cycles']} cycles)"
            )
    else:
        out("no alerts firing")


def cmd_top(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceError

    out = _make_output(args)
    client = _make_client(args)
    if args.iterations < 1:
        print("error: --iterations must be >= 1", file=sys.stderr)
        return 1
    try:
        for iteration in range(args.iterations):
            if iteration:
                time.sleep(max(0.0, args.interval))
                out("")
            tenants = client.list_tenants()
            alerts = client.all_alerts().get("alerts", [])
            _render_top(tenants, alerts, out)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return EXIT_INTERRUPTED
    return 0


COMMANDS = {
    "generate": cmd_generate,
    "optimize": cmd_optimize,
    "compare": cmd_compare,
    "inspect": cmd_inspect,
    "cron": functools.partial(_cmd_loop, replay=False),
    "replay": functools.partial(_cmd_loop, replay=True),
    "serve": cmd_serve,
    "tenant": cmd_tenant,
    "alerts": cmd_alerts,
    "top": cmd_top,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    raw = list(argv) if argv is not None else sys.argv[1:]
    args = build_parser().parse_args(raw)
    if getattr(args, "log_level", None):
        configure_logging(args.log_level)
    if getattr(args, "supervise", False):
        if not getattr(args, "checkpoint_dir", None):
            print("error: --supervise requires --checkpoint-dir",
                  file=sys.stderr)
            return 1
        # Re-exec the same command line (minus the supervisor flags) in a
        # child process; crashes and hangs restart it, and each restart
        # auto-resumes from the checkpoint directory.
        child_argv = [sys.executable, "-m", "repro.cli"]
        child_argv += strip_supervisor_args(raw)
        policy = SupervisorPolicy(
            max_restarts=args.max_restarts, hang_timeout=args.hang_timeout
        )
        return Supervisor(
            child_argv, args.checkpoint_dir, policy=policy
        ).run()
    return COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
