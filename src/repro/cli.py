"""Command-line interface for the RASA reproduction.

Subcommands mirror the workflows a cluster operator needs (:data:`COMMANDS`
holds each one's help, arguments and implementation):

* ``rasa generate`` — synthesize a cluster trace (or dump a registered
  dataset) to a JSON trace file.
* ``rasa optimize`` — run the RASA pipeline on a trace; print the placement
  summary and (optionally) the migration plan.  Under its ``--time-limit``
  the subproblems are solved one at a time, each on its share of the
  budget.
* ``rasa compare`` / ``rasa inspect`` — every baseline plus RASA on a
  trace / its placement metrics and skew profile.
* ``rasa cron`` — run the CronJob control loop for N cycles, optionally
  under a chaos ``--fault-plan``, with a ``--degradation-policy`` ladder
  and a machine-readable ``--report-out``.
* ``rasa replay`` — the same loop against a recorded v2 event trace
  (deploys, scaling, traffic shifts, machine churn), whole by default.
* ``rasa serve`` — run the multi-tenant optimizer service: N named
  clusters as independent tenants behind a versioned REST control plane.
* ``rasa tenant`` — client for a running service, one action per endpoint
  (:data:`TENANT_ACTIONS`: ``register``, ``list``, ``cycles``, ``push``, …).
* ``rasa alerts`` / ``rasa top`` — every tenant's firing SLO burn-rate
  alerts as JSON / a terminal view of tenants, health and alerts.

Every subcommand accepts ``--log-level`` (structured ``repro.*`` logging
to stderr) and ``--quiet`` (suppress the plain-text stdout report);
``rasa optimize`` additionally writes Chrome trace-event JSON with
``--trace-out``, OTLP/JSON with ``--otlp-out``, and a metrics snapshot
with ``--metrics-out``.  ``rasa tenant cycles --trace-id ID`` pins the
triggered cycles to a caller-chosen trace id that can then be grepped
in the service access log, audit events, and span exports.

Command implementations go through the :mod:`repro.api` facade — the CLI
is a thin shell over the same supported surface library callers use.

A control-loop tunable is declared in one place, a field of
:class:`~repro.core.config.LoopSpec` (type, range, default, meaning).  A
flag for it is one row of :data:`LOOP_FLAGS` — field, ``add_argument``
call, the commands taking it — shared by ``rasa cron``, ``rasa replay``
and ``rasa tenant register``.  :func:`_loop_fields` turns a parsed command
line into one validated ``LoopSpec`` (an unset flag keeps the spec's own
default) and hands its fields on under their own names: the facade's
keywords and the tenant payload's keys.  DESIGN §12 shows both tables.

Errors have one exit: :func:`main` prints ``error: <message>`` to stderr
and returns 1 for a :class:`~repro.exceptions.ReproError`, an ``OSError``,
a ``ValueError`` from parsing input (malformed JSON, a bad ``--trace-id``)
or a :class:`~repro.service.client.ServiceError`; commands catch only to
add a hint.  Options must be spelled out (no argparse abbreviations).

Installed as the ``rasa`` console script via pyproject.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable, NamedTuple

from repro import api
from repro.analysis import pair_localization_table, placement_metrics
from repro.core import Assignment, DegradationPolicy, RASAConfig
from repro.core.config import LoopSpec
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
    ReproError,
)
from repro.faults import FaultPlan
from repro.obs import (
    Tracer,
    configure_logging,
    get_logger,
    get_metrics,
    get_tracer,
    render_hotspots,
    use_tracer,
)
from repro.service.client import ServiceError
from repro.workloads import ClusterSpec, generate_cluster, load_cluster
from repro.workloads.trace_io import (
    load_event_trace,
    load_trace,
    problem_to_dict,
    save_trace,
)


class _Parser(argparse.ArgumentParser):
    """Options must be spelled out, in sub-parsers too (``add_subparsers``
    builds them with ``type(self)``): ``--superv`` is a usage error, never a
    flag the supervisor fails to strip from its child's command line."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**{**kwargs, "allow_abbrev": False})


def _arg(*names: str, **kwargs) -> tuple[tuple, dict]:
    """One ``add_argument`` call as data."""
    return names, kwargs


def _parse(what: str, parse: Callable, text):
    """``parse(text)``, a failure reported as an input error saying ``what``."""
    try:
        return parse(text)
    except (OSError, ValueError, ReproError) as exc:
        raise ProblemValidationError(f"{what}: {exc}") from exc


#: ``rasa <command>`` -> (help, argument rows, implementation), in
#: definition order; a row that is a dict is a table of sub-actions of the
#: same shape, parsed into ``<command>_action``.
COMMANDS: dict[str, tuple[str, list, Callable]] = {}


def _command(name: str, help_text: str, *arguments):
    """Register the decorated function as ``rasa <name>`` taking ``arguments``."""

    def register(run: Callable) -> Callable:
        COMMANDS[name] = (help_text, list(arguments), run)
        return run

    return register


# ----------------------------------------------------------------------
# Argument tables
# ----------------------------------------------------------------------
COMMON = [
    _arg("--log-level", type=str.upper,
         choices=["DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"],
         help="enable structured logging to stderr at this level (e.g. INFO)"),
    _arg("--quiet", action="store_true",
         help="suppress the plain-text stdout report (log lines still emitted)"),
]

PROFILE = [
    _arg("--profile", action="store_true",
         help="capture per-span cProfile hotspot tables on partition/solve "
              "spans (adds overhead; implies span tracing)"),
]

#: Consumed by the supervising parent; :func:`_supervise` strips exactly
#: these from the command line it re-executes in the child.
SUPERVISOR = [
    _arg("--supervise", action="store_true",
         help="run the loop in a supervised child process: crashes and "
              "hangs restart it (resuming from the checkpoint) with "
              "bounded exponential backoff; requires --checkpoint-dir"),
    _arg("--max-restarts", type=int, default=SupervisorPolicy.max_restarts,
         metavar="N",
         help="restart budget for --supervise (default: "
              f"{SupervisorPolicy.max_restarts})"),
    _arg("--hang-timeout", type=float, default=None, metavar="SECONDS",
         help="with --supervise, kill and restart the child when its "
              "checkpoint heartbeat goes stale for this long (default: off)"),
]

#: Flags shared by every subcommand that talks to a running service.
CLIENT = [
    _arg("--url", default="http://127.0.0.1:8080", metavar="URL",
         help="service base URL (default: http://127.0.0.1:8080)"),
    _arg("--timeout", type=float, default=600.0, metavar="SECONDS",
         help="per-request timeout; blocking cycle triggers run full "
              "optimization cycles before responding (default: 600)"),
    _arg("--connect-retries", type=int, default=0, metavar="N",
         help="retry refused connections up to N times with exponential "
              "backoff (covers the service-startup race; default: 0)"),
]


class LoopFlag(NamedTuple):
    """One command-line flag for one :class:`LoopSpec` field."""

    field: str
    #: The ``add_argument`` call.  It names no default: unset is None,
    #: which :func:`_loop_fields` reads as "the field's own default".
    arg: tuple[tuple, dict]
    #: The commands that take the flag.
    commands: tuple[str, ...] = ("cron", "replay", "register")
    #: Per-command default, where it really differs from the field's.
    defaults: dict = {}
    #: Parsed value -> field value (a path -> a plan, a ladder -> a policy).
    load: Callable | None = None
    #: What a failing ``load`` is reported as.
    error: str = ""

    @property
    def option(self) -> str:
        return self.arg[0][0]


#: ``rasa cron``'s cycle count when a fresh run names none.
CRON_CYCLES = 5
_LADDER = DegradationPolicy().ladder()

#: The loop flags of ``rasa cron``, ``rasa replay`` and ``rasa tenant
#: register``: one row per ``LoopSpec`` field the command line can set
#: (DESIGN §12 shows them beside the field table).
LOOP_FLAGS = (
    LoopFlag("time_limit", _arg(
        "--time-limit", type=float,
        help="per-cycle solver budget in seconds (default: 10 for cron; "
             "else unlimited, which keeps runs bit-deterministic)"),
        defaults={"cron": 10.0}),
    LoopFlag("sla_floor", _arg(
        "--sla-floor", type=float,
        help="alive-fraction floor enforced during migrations")),
    LoopFlag("seed", _arg(
        "--seed", type=int, help="collector jitter-stream seed"),
        commands=("replay", "register")),
    LoopFlag("traffic_jitter_sigma", _arg(
        "--jitter", type=float, metavar="SIGMA",
        help="lognormal sigma of traffic-measurement drift"),
        commands=("replay", "register")),
    LoopFlag("interval_seconds", _arg(
        "--interval", type=float, metavar="SECONDS",
        help="simulated cycle period (default: trace cadence or 1800)"),
        commands=("register",)),
    LoopFlag("faults", _arg(
        "--fault-plan", metavar="PATH",
        help="JSON FaultPlan file enabling seeded chaos injection"),
        load=FaultPlan.load, error="could not load fault plan"),
    LoopFlag("degradation", _arg(
        "--degradation-policy", metavar="LADDER",
        help="comma ladder of rungs for faulted cycles: retry[:N], greedy, "
             f"skip (default: {_LADDER})"),
        commands=("cron", "replay"),
        defaults={"cron": _LADDER, "replay": _LADDER},
        load=DegradationPolicy.parse, error="invalid --degradation-policy"),
    LoopFlag("checkpoint_every", _arg(
        "--checkpoint-every", type=int, metavar="N",
        help="cycles between WAL compactions into a snapshot (on resume, "
             "leaving it off keeps the recorded cadence)"),
        commands=("cron", "replay")),
)


def _loop_flags(command: str) -> list:
    """The :data:`LOOP_FLAGS` rows ``command`` takes, as argument rows."""
    return [
        _arg(*flag.arg[0], **flag.arg[1], default=flag.defaults.get(command))
        for flag in LOOP_FLAGS if command in flag.commands
    ]


def _loop_fields(args: argparse.Namespace, **facade_only) -> dict:
    """The loop tunables of a parsed command line, validated as one record.

    Each :data:`LOOP_FLAGS` row the user set gives its field (``config``
    and the like arrive as ``facade_only``), the rest keep ``LoopSpec``'s
    defaults, and ``LoopSpec`` validates the lot, naming what it rejects.
    Returns only the fields this command has a flag for, by field name, so
    any other stays the callee's (``rasa cron`` has no ``--interval``).
    """
    given = dict(facade_only)
    for flag in LOOP_FLAGS:
        dest = flag.option.lstrip("-").replace("-", "_")
        if not hasattr(args, dest):
            continue
        value = getattr(args, dest)
        if value is not None and flag.load is not None:
            value = _parse(flag.error, flag.load, value)
        given[flag.field] = value
    spec = LoopSpec(**{k: v for k, v in given.items() if v is not None})
    return {name: getattr(spec, name) for name in given}


def _loop_command(command: str, trace_help: str) -> list:
    """``rasa cron`` / ``rasa replay``: one flag set, two kinds of source."""
    return [
        _arg("trace", help=trace_help),
        _arg("--cycles", type=int, default=None,
             help=f"total cycles to run (default: {CRON_CYCLES} for cron, "
                  "the whole stream for replay; on resume, the interrupted "
                  "run's recorded target)"),
        *_loop_flags(command),
        _arg("--report-out",
             help="write the per-cycle reports as machine-readable JSON"),
        _arg("--telemetry-port", type=int, metavar="PORT",
             help="serve live telemetry on this port for the duration of the "
                  "loop: /metrics (Prometheus), /healthz, /cycles, /trace"),
        _arg("--cycle-stream", metavar="PATH",
             help="append each finished cycle's report as one JSON line to "
                  "PATH"),
        _arg("--checkpoint-dir", metavar="DIR",
             help="journal every cycle to a write-ahead log in DIR and "
                  "compact it into atomic snapshots; if DIR already holds a "
                  "checkpoint, resume the interrupted run from it"),
        _arg("--allow-cold-start", action="store_true",
             help="on checkpoint divergence (the world no longer matches the "
                  "saved state), discard the checkpoint and restart from "
                  "cycle 0 instead of failing"),
        *SUPERVISOR, *PROFILE, *COMMON,
    ]


def _make_client(args: argparse.Namespace) -> api.ServiceClient:
    return api.ServiceClient(
        args.url, timeout=args.timeout, connect_retries=args.connect_retries
    )


def _scheduler_config(args: argparse.Namespace) -> RASAConfig:
    """Build the scheduler config from the ``--profile`` flag."""
    return RASAConfig(profile=getattr(args, "profile", False))


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
@_command(
    "generate", "synthesize a cluster trace to a JSON file",
    _arg("output", help="trace file to write"),
    _arg("--dataset", help="registered dataset name (M1-M4, T1-T4)"),
    _arg("--services", type=int, default=80),
    _arg("--containers", type=int, default=400),
    _arg("--machines", type=int, default=16),
    _arg("--beta", type=float, default=2.0, help="affinity skew exponent"),
    _arg("--seed", type=int, default=0),
    *COMMON,
)
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


@_command(
    "optimize", "run the RASA pipeline on a trace",
    _arg("trace", help="JSON trace file"),
    _arg("--time-limit", type=float, default=30.0),
    _arg("--migration-plan", action="store_true",
         help="also compute and print the migration path (needs a current "
              "assignment)"),
    _arg("--trace-out",
         help="write Chrome trace-event JSON (open in chrome://tracing or "
              "Perfetto)"),
    _arg("--otlp-out", help="write the same spans as an OTLP/JSON trace document"),
    _arg("--metrics-out", help="write the metrics-registry snapshot as JSON"),
    *PROFILE, *COMMON,
)
def cmd_optimize(args: argparse.Namespace) -> int:
    _parse("--time-limit", lambda value: LoopSpec(time_limit=value), args.time_limit)
    out = _make_output(args)
    problem = load_trace(args.trace)

    metrics = get_metrics()
    metrics.reset()
    # --profile needs live spans to attach its hotspot tables to, so it
    # enables the tracer even without --trace-out.
    tracer = (
        Tracer() if (args.trace_out or args.otlp_out or args.profile) else None
    )
    with use_tracer(tracer or get_tracer()):
        result = api.optimize(
            problem, config=_scheduler_config(args), time_limit=args.time_limit
        )

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


@_command(
    "compare", "run every baseline plus RASA on a trace",
    _arg("trace", help="JSON trace file"),
    _arg("--time-limit", type=float, default=10.0),
    *COMMON,
)
def cmd_compare(args: argparse.Namespace) -> int:
    from repro.baselines import (
        ApplSci19Algorithm,
        K8sPlusAlgorithm,
        OriginalAlgorithm,
        POPAlgorithm,
    )

    _parse("--time-limit", lambda value: LoopSpec(time_limit=value), args.time_limit)
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


@_command(
    "inspect", "placement metrics of a trace",
    _arg("trace", help="JSON trace file"),
    _arg("--top-pairs", type=int, default=10),
    *COMMON,
)
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
    fields = _loop_fields(args, config=_scheduler_config(args))
    if args.telemetry_port is not None and args.telemetry_port < 0:
        raise ProblemValidationError("--telemetry-port must be >= 0")
    # A --checkpoint-dir that already holds a snapshot means "resume it":
    # the snapshot's own LoopSpec wins, except a --checkpoint-every given now.
    store = args.checkpoint_dir and CheckpointStore(args.checkpoint_dir)
    if store and store.snapshot_path.exists():
        out(f"resuming from checkpoint {args.checkpoint_dir}")
        run = functools.partial(
            api.resume_control_loop, args.checkpoint_dir, cycles=args.cycles,
            allow_cold_start=args.allow_cold_start,
            checkpoint_every=args.checkpoint_every,
        )
    else:
        if replay:
            source = _parse(
                "could not load event trace", load_event_trace, args.trace
            )
            cycles = args.cycles if args.cycles is not None else source.num_cycles()
            out(
                f"trace {source.name!r}: {len(source.events)} events, "
                f"{source.base.num_services} services / "
                f"{source.base.num_machines} machines, replaying {cycles} cycles"
            )
            run = functools.partial(api.replay_trace, source, cycles=args.cycles)
        else:
            source = load_trace(args.trace)
            if source.current_assignment is None:
                out("trace has no current assignment; cannot run the control loop")
                return 1
            run = functools.partial(
                api.run_control_loop, source,
                cycles=args.cycles if args.cycles is not None else CRON_CYCLES,
            )
        if fields["faults"] is not None:
            out(f"fault plan: {FaultPlan(**fields['faults']).to_dict()}")
        run = functools.partial(run, checkpoint_dir=args.checkpoint_dir, **fields)

    # Profiling (and the /trace endpoint) need live spans, so either flag
    # installs a tracer for the duration of the loop.
    tracer = Tracer() if (args.profile or args.telemetry_port is not None) else None
    shutdown = GracefulShutdown()
    try:
        with use_tracer(tracer or get_tracer()), shutdown:
            reports = run(
                telemetry_port=args.telemetry_port,
                cycle_stream=args.cycle_stream,
                on_telemetry_start=lambda server: out(
                    f"telemetry: {server.url} (/metrics /healthz /cycles /trace)"
                ),
                shutdown=shutdown,
            )
    except CheckpointDivergenceError as exc:
        raise DurabilityError(
            f"{exc}\n(pass --allow-cold-start to discard the checkpoint and "
            f"restart from cycle 0)"
        ) from exc

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
    actions = Counter(r.action for r in reports)
    out(
        f"cycles: {len(reports)} "
        f"({actions['executed']} executed, {actions['dry_run']} dry-run, "
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
        out(f"interrupted by {shutdown.signal_name}" + (
            "; final checkpoint written, resume with the same --checkpoint-dir"
            if args.checkpoint_dir else ""
        ))
        return EXIT_INTERRUPTED
    return exit_code


_command(
    "cron", "run the CronJob control loop on a trace",
    *_loop_command("cron", "JSON trace file (needs a current assignment)"),
)(functools.partial(_cmd_loop, replay=False))
_command(
    "replay", "replay a recorded v2 event trace through the control loop",
    *_loop_command("replay", "v2 event-trace file (gzip JSONL)"),
)(functools.partial(_cmd_loop, replay=True))


@_command(
    "serve", "run the multi-tenant optimizer service",
    _arg("--host", default="127.0.0.1", help="bind address (default: loopback)"),
    _arg("--port", type=int, default=8080,
         help="TCP port; 0 binds an ephemeral one (default: 8080)"),
    _arg("--workers", type=int, default=4, metavar="N",
         help="worker threads in the tenant controller pool (default: 4)"),
    _arg("--checkpoint-root", metavar="DIR",
         help="checkpoint each tenant under DIR/<name>; on startup, resume "
              "every tenant found there"),
    _arg("--no-resume", action="store_true",
         help="do not resume checkpointed tenants found under "
              "--checkpoint-root at startup"),
    _arg("--tick-seconds", type=float, default=0.5, metavar="SECONDS",
         help="cron-ticker cadence for scheduled tenants (default: 0.5)"),
    _arg("--no-tracing", action="store_true",
         help="do not install a span tracer for the service process "
              "(disables /v1/trace and /v1/trace/otlp span capture)"),
    _arg("--trace-seed", type=int, default=0, metavar="N",
         help="seed of the service's deterministic trace-id factory "
              "(default: 0)"),
    *COMMON,
)
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
            raise OSError(f"could not bind service: {exc}") from exc
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
        out(f"interrupted by {shutdown.signal_name}; final checkpoints "
            f"written" if args.checkpoint_root
            else f"interrupted by {shutdown.signal_name}")
        return EXIT_INTERRUPTED
    return 0


def _tenant_register_payload(args: argparse.Namespace) -> dict:
    """Build the TenantSpec wire payload from ``rasa tenant register`` args."""
    payload = {
        "name": args.name,
        "schedule_seconds": args.schedule,
        **_loop_fields(args),
    }
    if args.event_trace:
        payload["trace"] = load_event_trace(args.trace).to_dict()
    else:
        payload["problem"] = problem_to_dict(load_trace(args.trace))
    if args.slo:
        payload["slo"] = _parse("--slo is not valid JSON", json.loads, args.slo)
    return payload


def _cadence(text: str) -> float | None:
    """``rasa tenant schedule``'s SECONDS: a number, or ``off`` to clear."""
    if text.lower() in ("off", "none", "null"):
        return None
    return _parse('seconds must be a number or "off"', float, text)


_NAME = _arg("name", help="tenant name")

#: ``rasa tenant <action>``: help, arguments, and the client call whose
#: JSON document the action prints.
TENANT_ACTIONS: dict[str, tuple[str, list, Callable]] = {
    "register": (
        "register a tenant",
        [*CLIENT,
         _arg("name", help="tenant name (URL-safe)"),
         _arg("trace", help="v1 problem trace or v2 event trace"),
         _arg("--event-trace", action="store_true",
              help="treat TRACE as a v2 event trace and register a replay "
                   "tenant"),
         *_loop_flags("register"),
         _arg("--schedule", type=float, default=None, metavar="SECONDS",
              help="fire one cycle this often (wall clock); omit for "
                   "trigger-only operation"),
         _arg("--slo", metavar="JSON",
              help="SLO spec overrides as inline JSON, e.g. "
                   '\'{"sla_ok_target": 0.95, "cycle_p95_seconds": 5.0}\'')],
        lambda client, args: client.register_tenant(
            _tenant_register_payload(args)
        ),
    ),
    "list": ("list registered tenants", CLIENT,
             lambda client, args: client.list_tenants()),
    "show": ("one tenant's summary", [*CLIENT, _NAME],
             lambda client, args: client.tenant(args.name)),
    "cycles": (
        "trigger optimization cycles",
        [*CLIENT, _NAME,
         _arg("--cycles", type=int, default=1, metavar="N"),
         _arg("--no-wait", action="store_true",
              help="return the job id immediately instead of blocking"),
         _arg("--trace-id", metavar="ID",
              help="pin the request (and the cycles it triggers) to this "
                   "trace id (1-32 hex chars) instead of a minted one")],
        lambda client, args: client.trigger_cycles(
            args.name, cycles=args.cycles, wait=not args.no_wait,
            trace_id=args.trace_id,
        ),
    ),
    "reports": (
        "fetch cycle reports",
        [*CLIENT, _NAME, _arg("--since", type=int, default=0, metavar="K")],
        lambda client, args: client.reports(args.name, since=args.since),
    ),
    "plan": ("fetch the latest migration plan", [*CLIENT, _NAME],
             lambda client, args: client.plan(args.name)),
    "push": (
        "push a collector traffic snapshot",
        [*CLIENT, _NAME,
         _arg("edges", help="JSON file: list of [svc_a, svc_b, qps] triples")],
        lambda client, args: client.push_snapshot(
            args.name, json.loads(Path(args.edges).read_text(encoding="utf-8"))
        ),
    ),
    "schedule": (
        "set or clear the cron cadence",
        [*CLIENT, _NAME,
         _arg("seconds", help='cadence in seconds, or "off" to clear')],
        lambda client, args: client.set_schedule(
            args.name, _cadence(args.seconds)
        ),
    ),
    "health": ("tenant health document", [*CLIENT, _NAME],
               lambda client, args: client.health(args.name)),
    "events": (
        "fetch the tenant's audit/event log",
        [*CLIENT, _NAME,
         _arg("--since", type=int, default=0, metavar="SEQ",
              help="only events with sequence number > SEQ (default: 0)")],
        lambda client, args: client.events(args.name, since=args.since),
    ),
    "alerts": ("the tenant's SLO status and burn-rate alerts",
               [*CLIENT, _NAME],
               lambda client, args: client.alerts(args.name)),
    "deregister": ("remove a tenant", [*CLIENT, _NAME],
                   lambda client, args: client.deregister_tenant(args.name)),
}


def _print_document(document) -> int:
    print(json.dumps(document, indent=2, sort_keys=True))
    return 0


@_command("tenant", "talk to a running optimizer service", TENANT_ACTIONS)
def cmd_tenant(args: argparse.Namespace) -> int:
    _help, _arguments, call = TENANT_ACTIONS[args.tenant_action]
    with _make_client(args) as client:
        return _print_document(call(client, args))


@_command("alerts", "every tenant's active SLO burn-rate alerts", *CLIENT, *COMMON)
def cmd_alerts(args: argparse.Namespace) -> int:
    with _make_client(args) as client:
        return _print_document(client.all_alerts())


def _render_top(tenants: list[dict], alerts: list[dict], out) -> None:
    """One ``rasa top`` frame: a tenant table plus the firing alerts."""
    out(f"{'tenant':16s} {'mode':8s} {'cycles':>6s} {'gained':>8s} "
        f"{'gate':7s} {'sched':>7s} {'health':8s} {'alerts':>6s}")
    for tenant in tenants:
        gained = tenant.get("gained_affinity")
        schedule = tenant.get("schedule_seconds")
        health = tenant.get("health") or {}
        out(
            f"{tenant['name']:16s} {tenant.get('mode', '-'):8s} "
            f"{tenant.get('cycles_completed', 0):>6d} "
            f"{'-' if gained is None else format(gained, '8.3f'):>8s} "
            f"{tenant.get('last_gate') or '-':7s} "
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


@_command(
    "top", "terminal view of tenants, health, and firing alerts",
    *CLIENT,
    _arg("--interval", type=float, default=2.0, metavar="SECONDS",
         help="refresh cadence when --iterations > 1 (default: 2)"),
    _arg("--iterations", type=int, default=1, metavar="N",
         help="how many refreshes to render before exiting; the default of "
              "1 prints one snapshot and exits"),
    *COMMON,
)
def cmd_top(args: argparse.Namespace) -> int:
    out = _make_output(args)
    if args.iterations < 1:
        raise ProblemValidationError("--iterations must be >= 1")
    try:
        with _make_client(args) as client:
            for iteration in range(args.iterations):
                if iteration:
                    time.sleep(max(0.0, args.interval))
                    out("")
                tenants = client.list_tenants()
                alerts = client.all_alerts().get("alerts", [])
                _render_top(tenants, alerts, out)
    except KeyboardInterrupt:
        return EXIT_INTERRUPTED
    return 0


def _add_commands(parser: argparse.ArgumentParser, dest: str, table: dict) -> None:
    subparsers = parser.add_subparsers(dest=dest, required=True)
    for name, (help_text, arguments, _run) in table.items():
        sub = subparsers.add_parser(name, help=help_text)
        for row in arguments:
            if isinstance(row, dict):  # a table of sub-actions
                _add_commands(sub, f"{name}_action", row)
            else:
                sub.add_argument(*row[0], **row[1])


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser from :data:`COMMANDS`."""
    parser = _Parser(
        prog="rasa",
        description="Resource Allocation with Service Affinity (ICDE 2024) toolkit",
    )
    _add_commands(parser, "command", COMMANDS)
    return parser


def _supervise(args: argparse.Namespace, raw: list[str]) -> int:
    """Re-exec the command line, minus :data:`SUPERVISOR`'s flags, in a child
    that crashes and hangs restart (each restart resumes from the checkpoint)."""
    if not args.checkpoint_dir:
        raise ProblemValidationError("--supervise requires --checkpoint-dir")
    child_argv = [sys.executable, "-m", "repro.cli"]
    child_argv += strip_supervisor_args(
        raw, {names[0]: "action" not in kwargs for names, kwargs in SUPERVISOR}
    )
    policy = SupervisorPolicy(
        max_restarts=args.max_restarts, hang_timeout=args.hang_timeout
    )
    return Supervisor(child_argv, args.checkpoint_dir, policy=policy).run()


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: parse, dispatch, and map input errors to exit 1."""
    raw = list(argv) if argv is not None else sys.argv[1:]
    args = build_parser().parse_args(raw)
    if getattr(args, "log_level", None):
        configure_logging(args.log_level)
    try:
        if getattr(args, "supervise", False):
            return _supervise(args, raw)
        return COMMANDS[args.command][2](args)
    except (ReproError, OSError, ValueError, ServiceError) as exc:
        get_logger("cli").debug("command failed", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
