"""The workflow-controlling CronJob (paper Section III-A, III-B).

Orchestrates the full optimization loop every cycle:

1. trigger the data collector → cluster snapshot,
2. run the RASA algorithm on the snapshot,
3. *dry-run gate*: skip execution unless gained affinity improves by more
   than 3 % (churn control) — without step 2 when the bound on gained
   affinity settles it, or when the snapshot matches the controller's memo
   of its last unbudgeted solve in everything that solve read,
4. compute the migration path and reallocate containers,
5. *rollback guard*: if the reallocation skewed machine utilization past a
   threshold, restore the previous placement, re-place via the default
   scheduler, and tag the skewed machines unschedulable for three days.

The controller is fault-tolerant: with a
:class:`~repro.faults.FaultInjector` attached, migration commands can fail
or time out (retried with exponential backoff under a
:class:`~repro.core.config.RetryPolicy`), machines can flap mid-cycle, and
collector snapshots can go stale.  A cycle whose migration aborts walks the
:class:`~repro.core.config.DegradationPolicy` ladder — retry the cycle,
re-solve the residual with the greedy default scheduler, or skip the cycle
and tag the offending machines unschedulable — and every rung fired is
recorded on the :class:`CycleReport` and in spans/metrics.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, fields
from typing import get_origin, get_type_hints

import numpy as np

from repro.cluster.collector import DataCollector
from repro.cluster.replay import EventStreamCursor, EventTrace
from repro.cluster.scheduler import DefaultScheduler
from repro.cluster.state import ClusterState
from repro.core.config import (
    CYCLE_SECONDS,
    UNSCHEDULABLE_SECONDS,
    DegradationPolicy,
    LoopSpec,
    RetryPolicy,
)
from repro.core.problem import RASAProblem, problem_digest
from repro.core.rasa import RASAScheduler
from repro.core.solution import Assignment
from repro.exceptions import ClusterStateError
from repro.faults import FaultInjector, attempt_with_retry, coerce_injector
from repro.migration.path import MigrationPathBuilder
from repro.migration.plan import CommandAction, MigrationPlan, alive_floor
from repro.obs import get_logger, get_metrics, get_tracer, kv
from repro.obs.context import current_trace_id
from repro.obs.server import TelemetryHub
from repro.schemas import check_schema, tag_schema
from repro.workloads.trace_io import problem_from_dict

#: The paper's churn gate: execute only on > 3 % gained-affinity improvement.
IMPROVEMENT_GATE = 0.03

#: Floating-point slack of the solver-free bound: a computed normalized
#: gained affinity may exceed its exact value (at most 1) by summation error.
BOUND_SLACK = 1e-9


@dataclass
class CycleReport:
    """Outcome of one CronJob cycle.

    Attributes:
        cycle: Cycle index.
        action: Final disposition — ``"executed"``, ``"dry_run"``, or
            ``"rolled_back"`` on the fault-free path; degraded cycles
            record the ladder rung that resolved them instead:
            ``"retried"``, ``"degraded_greedy"``, or ``"skipped"``.
        gained_before: Normalized gained affinity before the cycle.
        gained_after: Normalized gained affinity after the cycle.
        moved_containers: Containers relocated (0 for dry runs).
        imbalance_after: Machine-utilization standard deviation after the
            cycle.
        skipped_commands: Stale commands dropped while applying the plan
            (inapplicable against the live state).
        failed_commands: Commands that exhausted their retry budget.
        command_retries: Fault-retry attempts across all commands.
        retry_delay_seconds: Total backoff delay accrued by those retries.
        machine_failures: Machines that flapped during the cycle.
        rungs: Degradation-ladder rungs fired, in order (empty on the
            fault-free path).
        cycle_attempts: Times the cycle body ran (1 + retry-rung firings).
        min_alive_fraction: Lowest per-service alive fraction observed at
            any migration step boundary during the cycle (1.0 for dry
            runs).
        sla_ok: Whether every step boundary and the final state respected
            the SLA floor.
        events: Descriptions of replay-stream events applied before this
            cycle ran (empty outside replay mode).
        trace_id: Request trace id current while the cycle ran (None when
            untraced).
        duration_seconds: Measured wall time of the cycle (0.0 when
            unknown: a cycle restored from a checkpoint); the SLO engine's
            cycle-latency objective reads it.
        gate: Where the cycle's decision came from — ``"bound"``,
            ``"memo"`` or ``"solved"`` (see ``CronJobController._gate``);
            None when unknown: a cycle restored from a checkpoint.

    ``trace_id``, ``duration_seconds`` and ``gate`` are process-local:
    excluded from :meth:`to_dict` (``wire=False``) and from equality, so
    serialized report sequences stay bit-identical and machine-independent
    whether or not tracing is enabled and whatever decided the cycle (a
    resumed loop has no memo).  A report carries no snapshot of the
    process metrics registry — the registry is process-wide (a service's
    tenants share it) and is scraped from ``/metrics``, not journaled.
    """

    cycle: int
    action: str
    gained_before: float
    gained_after: float
    moved_containers: int = 0
    imbalance_after: float = 0.0
    skipped_commands: int = 0
    failed_commands: int = 0
    command_retries: int = 0
    retry_delay_seconds: float = 0.0
    machine_failures: list[str] = field(default_factory=list)
    rungs: list[str] = field(default_factory=list)
    cycle_attempts: int = 1
    min_alive_fraction: float = 1.0
    sla_ok: bool = True
    events: list[str] = field(default_factory=list)
    trace_id: str | None = field(
        default=None, compare=False, metadata={"wire": False}
    )
    duration_seconds: float = field(
        default=0.0, compare=False, metadata={"wire": False}
    )
    gate: str | None = field(
        default=None, compare=False, metadata={"wire": False}
    )

    # ------------------------------------------------------------------
    # Serialization (mirrors MigrationPlan.to_dict conventions)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Serialize to plain data (JSON-compatible, ``schema_version``-tagged).

        The payload is the dataclass's fields in declaration order, minus
        the ones marked ``wire=False`` — a new report field is one line.
        """
        return tag_schema({
            name: list(getattr(self, name)) if kind is list else getattr(self, name)
            for name, kind in _WIRE_FIELDS.items()
        })

    @classmethod
    def from_dict(cls, payload: dict) -> "CycleReport":
        """Deserialize a report written by :meth:`to_dict`.

        Values are coerced to their field's type; a field an older writer
        did not know keeps its dataclass default, and a key this version
        does not know (an older writer's ``metrics`` snapshot) is ignored.
        """
        check_schema(payload, "CycleReport")
        return cls(**{
            name: kind(payload[name])
            for name, kind in _WIRE_FIELDS.items()
            if name in payload
        })


_HINTS = get_type_hints(CycleReport)
#: Serialized field -> the type its value is coerced to on load.
_WIRE_FIELDS = {
    f.name: get_origin(_HINTS[f.name]) or _HINTS[f.name]
    for f in fields(CycleReport)
    if f.metadata.get("wire", True)
}


@dataclass
class _ApplyOutcome:
    """Result of replaying one migration plan onto the live state."""

    skipped: int = 0
    failed: int = 0
    retries: int = 0
    retry_delay: float = 0.0
    aborted: bool = False
    safe_steps: int = 0
    moved_at_safe: int = 0
    min_alive: float = 1.0
    boundaries_safe: bool = True
    failed_machines: list[str] = field(default_factory=list)


def _memo_key(blind: bytes, problem: RASAProblem, trivial: np.ndarray) -> bytes:
    """SHA-256 of ``problem_digest(problem)`` (``blind``) plus the current
    rows of the ``trivial`` services, fed row by row: no copy of a matrix
    that can hold most of a large cluster."""
    sha = hashlib.sha256(blind)
    current = np.ascontiguousarray(problem.current_assignment)
    for s in trivial:
        sha.update(current[s])
    return sha.digest()


@dataclass(frozen=True)
class _Memo:
    """What the gate keeps of the last unbudgeted solve (see ``_gate``).

    Attributes:
        key: :func:`_memo_key` of the solved problem.
        trivial: Indices of the services the solve's partition left
            trivial — the only rows of ``current_assignment`` it read.
        gained_affinity: The solve's normalized gained affinity.
        cells: The solve's placement as ``(service, machine, count)`` rows,
            one per nonzero cell.
    """

    key: bytes
    trivial: np.ndarray
    gained_affinity: float
    cells: np.ndarray

    @classmethod
    def of(
        cls,
        blind: bytes,
        problem: RASAProblem,
        trivial_services: list[str],
        gained_affinity: float,
        assignment: Assignment,
    ) -> "_Memo":
        trivial = np.array(
            [problem.service_index(s) for s in trivial_services], dtype=np.int64
        )
        x = assignment.x
        rows, cols = np.nonzero(x)
        return cls(
            key=_memo_key(blind, problem, trivial),
            trivial=trivial,
            gained_affinity=gained_affinity,
            cells=np.stack([rows, cols, x[rows, cols]], axis=1),
        )

    def matches(self, blind: bytes, problem: RASAProblem) -> bool:
        return _memo_key(blind, problem, self.trivial) == self.key

    def assignment(self, problem: RASAProblem) -> Assignment:
        """The kept placement, rebound to ``problem``."""
        x = np.zeros((problem.num_services, problem.num_machines), dtype=np.int64)
        rows, cols, counts = self.cells.T
        x[rows, cols] = counts
        return Assignment(problem, x)


@dataclass
class CronJobController:
    """Periodic optimizer driving a simulated cluster.

    Every loop tunable is read from ``spec`` (a
    :class:`~repro.core.config.LoopSpec`, the same record the facade, a
    service tenant and a durable checkpoint carry), so a controller cannot
    disagree with the spec it was built from.  The typed objects behind
    the spec's structured fields are built once, here.

    Attributes:
        state: The live cluster.
        collector: Data collector supplying RASA inputs.
        spec: The loop's tunables (solver budget, SLA floor, rollback
            threshold, ladder, retry policy, pipeline config, fault plan,
            cycle period).
        faults: A ready fault injector; None builds one from
            ``spec.faults``, which is None — the exact fault-free control
            loop — by default.
        telemetry: Optional :class:`~repro.obs.server.TelemetryHub`
            serving this controller's ``history`` (live ``/healthz`` /
            ``/cycles``) and streaming each finished cycle to the JSONL
            cycle stream.  A pure observer: it never feeds back into the
            loop, so attaching one leaves the report sequence
            bit-identical.
        stream: Optional replay cursor
            (:class:`~repro.cluster.replay.EventStreamCursor`).  When set,
            every cycle first applies all trace events due at the current
            simulated clock, then runs the normal collect→solve→migrate
            body against the churned world.  The cursor must wrap the same
            :class:`ClusterState` object as ``state``.
        history: Reports of every cycle run so far — the loop's one cycle
            log: the telemetry hub serves it, the durable loop journals it,
            a service tenant folds it into its metrics.
        last_plan: The most recent migration plan a cycle built (dry-run
            cycles leave it untouched; None before any cycle migrated) —
            the payload behind the service's ``GET .../plan`` endpoint.
        rasa: The RASA scheduler, built from ``spec.config``.
        degradation: The ladder walked when a cycle's migration aborts
            (``spec.degradation``).
        retry: Backoff policy for faulted migration commands
            (``spec.retry``).
        interval_seconds: The cycle period: ``spec.interval_seconds``,
            else the replayed trace's cadence, else the paper's half hour.
        default_scheduler: The greedy scheduler that re-places containers
            a plan, a rollback or a flap left unplaced.
    """

    state: ClusterState
    collector: DataCollector
    spec: LoopSpec = field(default_factory=LoopSpec)
    faults: FaultInjector | None = None
    telemetry: "TelemetryHub | None" = None
    stream: "EventStreamCursor | None" = None
    history: list[CycleReport] = field(default_factory=list)
    last_plan: MigrationPlan | None = field(default=None, repr=False)
    rasa: RASAScheduler = field(init=False, repr=False)
    degradation: DegradationPolicy = field(init=False, repr=False)
    retry: RetryPolicy = field(init=False, repr=False)
    interval_seconds: float = field(init=False)
    default_scheduler: DefaultScheduler = field(
        default_factory=DefaultScheduler, init=False, repr=False
    )
    _memo: _Memo | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self.rasa = RASAScheduler(config=self.spec.typed("config"))
        self.degradation = self.spec.typed("degradation")
        self.retry = self.spec.typed("retry")
        if self.faults is None:
            self.faults = coerce_injector(self.spec.typed("faults"))
        interval = self.spec.interval_seconds
        if interval is None:
            interval = (
                self.stream.trace.interval_seconds
                if self.stream is not None
                else CYCLE_SECONDS
            )
        self.interval_seconds = float(interval)
        if self.telemetry is not None:
            self.telemetry.history = self.history

    # ------------------------------------------------------------------
    def run_once(self) -> CycleReport:
        """Run one full optimization cycle and return its report."""
        cycle = len(self.history)
        started = time.perf_counter()
        tracer = get_tracer()
        logger = get_logger("cluster.cronjob")
        events: list[str] = []
        if self.stream is not None:
            with tracer.span("cron.replay", cycle=cycle) as span:
                events = self.stream.advance_to(self.state.clock)
                span.set_tag("events", len(events))
            for description in events:
                logger.info(
                    "replay event %s", kv(cycle=cycle, event=description)
                )
        with tracer.span("cron.cycle", cycle=cycle) as span:
            report = self._run_cycle(cycle, tracer, logger)
            span.set_tag("action", report.action)
            span.set_tag("gained_after", report.gained_after)
            span.set_tag("moved_containers", report.moved_containers)
        report.events = events
        report.trace_id = current_trace_id()
        report.duration_seconds = time.perf_counter() - started
        logger.info(
            "cycle done %s",
            kv(
                cycle=cycle,
                action=report.action,
                gained_after=f"{report.gained_after:.4f}",
                moved=report.moved_containers,
            ),
        )
        self.history.append(report)
        if self.telemetry is not None:
            self.telemetry.publish_cycle(report)
        return report

    def _run_cycle(self, cycle: int, tracer, logger) -> CycleReport:
        """One cycle with fault handling: attempt → degradation ladder."""
        metrics = get_metrics()
        machine_failures = self._inject_machine_faults(cycle, tracer, logger)

        rungs: list[str] = []
        attempts = 0
        report: CycleReport | None = None
        outcome = _ApplyOutcome()
        totals = _ApplyOutcome()
        before_placement = self.state.placement
        while True:
            attempts += 1
            decision, report, outcome = self._attempt_cycle(cycle, tracer, logger)
            totals.skipped += outcome.skipped
            totals.failed += outcome.failed
            totals.retries += outcome.retries
            totals.retry_delay += outcome.retry_delay
            totals.min_alive = min(totals.min_alive, outcome.min_alive)
            totals.boundaries_safe = (
                totals.boundaries_safe and outcome.boundaries_safe
            )
            if report is not None:
                break
            # The migration aborted; the state sits at the last SLA-safe
            # step boundary.  Walk the ladder.
            if attempts <= self.degradation.cycle_retries:
                rungs.append("retry")
                metrics.counter("cron.degradation.retried").inc()
                tracer.event("cron.degrade", rung="retry", attempt=attempts)
                logger.warning(
                    "cycle retry %s",
                    kv(cycle=cycle, attempt=attempts,
                       failed_commands=outcome.failed),
                )
                self.state.restore(before_placement)
                continue
            break

        if report is None:
            report = self._degrade(
                cycle, outcome, before_placement, rungs, tracer, logger
            )
        elif rungs:
            # A retry rung resolved the cycle: the action records the rung.
            report.action = "retried"
            metrics.counter("cron.degradation.resolved_by_retry").inc()

        report.gate = decision
        report.rungs = rungs
        report.cycle_attempts = attempts
        report.machine_failures = machine_failures
        # Counts cover every attempt of the cycle, not just the resolving
        # one — reverted attempts still drew faults and touched the state.
        report.skipped_commands = totals.skipped
        report.failed_commands = totals.failed
        report.command_retries = totals.retries
        report.retry_delay_seconds = totals.retry_delay
        report.min_alive_fraction = totals.min_alive
        report.sla_ok = totals.boundaries_safe and self._sla_satisfied()
        return report

    def _attempt_cycle(
        self, cycle: int, tracer, logger
    ) -> tuple[str, CycleReport | None, _ApplyOutcome]:
        """One attempt of the cycle body: collect → decide → migrate.

        The decision (:meth:`_gate`) runs the RASA solve only when neither
        the bound nor the memo already has its answer.

        Returns ``(decision, report, outcome)``; the report is None when
        the migration aborted and the degradation ladder must decide.
        """
        with tracer.span("cron.collect"):
            problem = self.collector.collect(self.state, injector=self.faults)
        current = Assignment(problem, problem.current_assignment)
        gained_before = current.gained_affinity(normalized=True)

        decision, target = self._gate(problem, gained_before, tracer)
        if target is None:
            logger.info(
                "dry run %s",
                kv(
                    cycle=cycle,
                    decision=decision,
                    gained_before=f"{gained_before:.4f}",
                    gate=IMPROVEMENT_GATE,
                ),
            )
            return (
                decision,
                CycleReport(
                    cycle=cycle,
                    action="dry_run",
                    gained_before=gained_before,
                    gained_after=gained_before,
                    imbalance_after=self.state.utilization_imbalance(),
                ),
                _ApplyOutcome(),
            )

        before_placement = self.state.placement
        plan = MigrationPathBuilder(sla_floor=self.spec.sla_floor).build(
            problem, current, target
        )
        self.last_plan = plan
        with tracer.span("cron.apply", steps=len(plan.steps)):
            outcome = self._apply(plan, cycle=cycle)
        if outcome.aborted:
            return decision, None, outcome

        imbalance = self.state.utilization_imbalance()
        threshold = self.spec.rollback_imbalance
        if threshold is not None and imbalance > threshold:
            skewed = self._skewed_machines()
            tracer.event(
                "cron.rollback",
                imbalance=imbalance,
                threshold=threshold,
                tagged_machines=len(skewed),
            )
            logger.warning(
                "rollback %s",
                kv(
                    cycle=cycle,
                    imbalance=f"{imbalance:.4f}",
                    threshold=threshold,
                    tagged_machines=len(skewed),
                ),
            )
            self.state.restore(before_placement)
            for machine in skewed:
                self.state.mark_unschedulable(
                    machine, self.state.clock + UNSCHEDULABLE_SECONDS
                )
            self.default_scheduler.place_missing(self.state)
            return (
                decision,
                self._finish_report(
                    cycle, "rolled_back", gained_before, plan.moved_containers
                ),
                outcome,
            )

        # Containers the plan could not move stay with the default scheduler.
        self.default_scheduler.place_missing(self.state)
        return (
            decision,
            self._finish_report(
                cycle, "executed", gained_before, plan.moved_containers
            ),
            outcome,
        )

    def _gate(
        self, problem: RASAProblem, gained_before: float, tracer
    ) -> tuple[str, Assignment | None]:
        """Decide the cycle: ``(decision, target)``, the target None on a dry run.

        ``bound`` needs no placement: normalized gained affinity is at most
        1 (under Eq. 3 each edge gains ``sum_m min(x_sm/d_s, x_tm/d_t) <=
        sum_m x_sm/d_s = 1`` of its weight), so once ``gained_before * (1 +
        gate)`` reaches 1 no placement can clear the gate.

        Otherwise the 3 % gate decides on a new placement taken from one of
        two places:

        * ``memo``: the problem matches the memo of the last unbudgeted
          solve, which the solve would return again.  Such a solve is a
          pure function of the problem with ``current_assignment`` left
          out plus the current rows of the services its partition leaves
          trivial (``place_trivial`` is the one reader of the current
          placement; the partitioner seeds a fresh RNG per call).  The key
          is exactly that: equal placement-blind digests mean the same
          trivial set, so checking it needs no partition call.
        * ``solved``: RASA runs.  A solve with no ``time_limit`` and no
          local-search polish in which no pricing MILP stopped on its own
          wall clock replaces the memo, whatever the gate then decides.

        A hit settles an unchanged snapshot and the cycle after an
        execution (the kept placement is the running one) as dry runs, and
        re-executes a target a fault cut short.  Each decision tags the
        ``cron.gate`` event; ``cron.gate.bound`` / ``cron.gate.memo`` count
        the solver-free ones.
        """
        metrics = get_metrics()
        if gained_before * (1.0 + IMPROVEMENT_GATE) >= 1.0 + BOUND_SLACK:
            metrics.counter("cron.gate.bound").inc()
            tracer.event(
                "cron.gate", decision="bound", executed=False,
                gained_before=gained_before,
            )
            return "bound", None
        memoizes = (
            self.spec.time_limit is None and not self.rasa.config.local_search_seconds
        )
        blind = problem_digest(problem) if memoizes else b""
        memo = self._memo
        if memo is not None and memo.matches(blind, problem):
            decision, gained_new = "memo", memo.gained_affinity
            metrics.counter("cron.gate.memo").inc()
        else:
            decision = "solved"
            result = self.rasa.schedule(problem, time_limit=self.spec.time_limit)
            gained_new, solved = result.gained_affinity, result.assignment
            trivial, pure = result.partition.trivial_services, not result.wall_clock_stops
            # Free the partition and shard results before the memo allocates:
            # kept arrays allocated while they are alive sit high in the heap
            # and raised loop_m1_large's later peak RSS by ~14 MB.
            del result
            if memoizes and pure:
                self._memo = _Memo.of(blind, problem, trivial, gained_new, solved)
        improvement = gained_new - gained_before
        relative = improvement / gained_before if gained_before > 0 else np.inf
        gated = gained_new <= gained_before or (
            gained_before > 0 and relative <= IMPROVEMENT_GATE
        )
        tracer.event(
            "cron.gate",
            decision=decision,
            executed=not gated,
            gained_before=gained_before,
            gained_new=gained_new,
            relative_improvement=relative if np.isfinite(relative) else None,
        )
        if gated:
            return decision, None
        return decision, solved if decision == "solved" else memo.assignment(problem)

    def _degrade(
        self,
        cycle: int,
        outcome: _ApplyOutcome,
        before_placement: np.ndarray,
        rungs: list[str],
        tracer,
        logger,
    ) -> CycleReport:
        """Ladder rungs 2 and 3 after retries are exhausted.

        The state sits at the last SLA-safe step boundary of the failed
        attempt.  Rung 2 keeps that partial progress and lets the greedy
        default scheduler re-solve the residual; rung 3 reverts the cycle
        entirely and tags the machines behind the permanent failures.
        """
        metrics = get_metrics()
        gained_before = Assignment(
            self.state.problem, before_placement
        ).gained_affinity(normalized=True)

        if self.degradation.greedy_residual:
            rungs.append("greedy")
            metrics.counter("cron.degradation.greedy").inc()
            placed = self.default_scheduler.place_missing(self.state)
            tracer.event(
                "cron.degrade", rung="greedy",
                safe_steps=outcome.safe_steps, placed=placed,
            )
            logger.warning(
                "greedy residual %s",
                kv(cycle=cycle, safe_steps=outcome.safe_steps, placed=placed),
            )
            if self._sla_satisfied():
                return self._finish_report(
                    cycle, "degraded_greedy", gained_before,
                    outcome.moved_at_safe,
                )

        rungs.append("skip")
        metrics.counter("cron.degradation.skipped").inc()
        self.state.restore(before_placement)
        self.default_scheduler.place_missing(self.state)
        tagged = outcome.failed_machines if self.degradation.skip_and_tag else []
        for machine in tagged:
            self.state.mark_unschedulable(
                machine, self.state.clock + self.degradation.tag_seconds
            )
        tracer.event("cron.degrade", rung="skip", tagged_machines=len(tagged))
        logger.warning(
            "cycle skipped %s",
            kv(cycle=cycle, tagged_machines=len(tagged),
               failed_commands=outcome.failed),
        )
        return self._finish_report(cycle, "skipped", gained_before, 0)

    def _finish_report(
        self, cycle: int, action: str, gained_before: float, moved: int
    ) -> CycleReport:
        """Assemble a report for a resolved cycle from the live state.

        The fault counters and ``sla_ok`` are left to :meth:`_run_cycle`,
        which writes them once from the totals over every attempt.
        """
        return CycleReport(
            cycle=cycle,
            action=action,
            gained_before=gained_before,
            gained_after=self.state.assignment().gained_affinity(normalized=True),
            moved_containers=moved,
            imbalance_after=self.state.utilization_imbalance(),
        )

    def run(
        self,
        cycles: int,
        *,
        on_cycle=None,
        should_stop=None,
    ) -> list[CycleReport]:
        """Run several cycles, advancing the simulated clock between them.

        Args:
            cycles: Number of cycles to run.
            on_cycle: Optional callback invoked with each
                :class:`CycleReport` after the clock has advanced — the
                durability layer journals the committed cycle here, so a
                crash during the callback re-runs nothing.
            should_stop: Optional predicate checked between cycles; a True
                return ends the run early (graceful shutdown).

        Returns:
            The reports of the cycles this call ran (the tail of
            :attr:`history`).
        """
        first = len(self.history)
        for _ in range(cycles):
            if should_stop is not None and should_stop():
                break
            report = self.run_once()
            self.state.advance(self.interval_seconds)
            if on_cycle is not None:
                on_cycle(report)
        return self.history[first:]

    # ------------------------------------------------------------------
    def _inject_machine_faults(self, cycle: int, tracer, logger) -> list[str]:
        """Flap machines per the fault plan: cordon (and optionally kill)."""
        if self.faults is None:
            return []
        self.faults.begin_cycle(cycle)
        names = [m.name for m in self.state.problem.machines]
        failed = self.faults.machine_failures(names)
        if not failed:
            return []
        plan = self.faults.plan
        until = self.state.clock + plan.machine_flap_cycles * self.interval_seconds
        for name in failed:
            self.state.mark_unschedulable(name, until)
            if plan.kill_containers:
                self._evict_machine(name)
        if plan.kill_containers:
            self.default_scheduler.place_missing(self.state)
        tracer.event("cron.fault.machines", machines=failed, cycle=cycle)
        logger.warning(
            "machine flap %s",
            kv(cycle=cycle, machines=",".join(failed),
               kill=plan.kill_containers),
        )
        return failed

    def _evict_machine(self, machine: str) -> None:
        """Delete every container on a killed machine."""
        problem = self.state.problem
        m = problem.machine_index(machine)
        column = self.state.books.x[:, m].copy()  # the deletes below write the books
        for s in np.nonzero(column)[0]:
            for _ in range(int(column[s])):
                self.state.delete_container(problem.services[int(s)].name, machine)

    # ------------------------------------------------------------------
    def _apply(self, plan, cycle: int = -1) -> _ApplyOutcome:
        """Replay a migration plan onto the live state, set by set.

        Stale commands (inapplicable against the live state) are skipped,
        counted, and logged; injected faults run the per-command retry
        loop, and a permanent failure aborts the replay back to the last
        SLA-safe step boundary.
        """
        metrics = get_metrics()
        logger = get_logger("cluster.cronjob")
        demands = self.state.problem.demands
        floor = alive_floor(plan.sla_floor, demands)

        outcome = _ApplyOutcome()
        safe_placement = self.state.placement
        moved = 0
        for step_index, step in enumerate(plan.steps):
            for command in step:
                retries, delay, ok = attempt_with_retry(self.faults, self.retry)
                outcome.retries += retries
                outcome.retry_delay += delay
                if not ok:
                    outcome.failed += 1
                    if command.machine not in outcome.failed_machines:
                        outcome.failed_machines.append(command.machine)
                    metrics.counter("cron.apply.failed_commands").inc()
                    logger.warning(
                        "command failed permanently %s",
                        kv(cycle=cycle, step=step_index, command=str(command),
                           retries=retries),
                    )
                    outcome.aborted = True
                    self.state.restore(safe_placement)
                    if outcome.retries:
                        metrics.counter("cron.retry.commands").inc(outcome.retries)
                    return outcome
                try:
                    if command.action is CommandAction.DELETE:
                        self.state.delete_container(command.service, command.machine)
                    else:
                        self.state.create_container(command.service, command.machine)
                        moved += 1
                except ClusterStateError as exc:
                    # A stale snapshot can make single commands inapplicable;
                    # the default scheduler repairs the residual afterwards.
                    outcome.skipped += 1
                    metrics.counter("cron.apply.skipped_commands").inc()
                    logger.warning(
                        "skipped stale command %s",
                        kv(cycle=cycle, step=step_index, command=str(command),
                           error=str(exc)),
                    )
            alive = self.state.books.x.sum(axis=1)
            fraction = float((alive / np.maximum(demands, 1)).min()) if alive.size else 1.0
            outcome.min_alive = min(outcome.min_alive, fraction)
            if (alive >= floor).all():
                safe_placement = self.state.placement
                outcome.safe_steps = step_index + 1
                outcome.moved_at_safe = moved
            else:
                outcome.boundaries_safe = False
        if outcome.retries:
            metrics.counter("cron.retry.commands").inc(outcome.retries)
        return outcome

    def _sla_satisfied(self) -> bool:
        """Whether the live state meets the integral SLA floor per service."""
        floor = alive_floor(self.spec.sla_floor, self.state.problem.demands)
        return bool((self.state.books.x.sum(axis=1) >= floor).all())

    def _skewed_machines(self, top_fraction: float = 0.1) -> list[str]:
        """Most-utilized machines — the rollback's unschedulable targets."""
        util = np.nan_to_num(self.state.utilization(), nan=0.0).mean(axis=1)
        count = max(1, int(len(util) * top_fraction))
        worst = np.argsort(-util)[:count]
        return [self.state.problem.machines[m].name for m in worst]


def build_controller(
    spec: LoopSpec,
    world: "ClusterState | RASAProblem | EventStreamCursor | dict",
    *,
    collector: DataCollector | None = None,
    injector: FaultInjector | None = None,
    telemetry: "TelemetryHub | None" = None,
    history: "list[CycleReport] | None" = None,
) -> CronJobController:
    """Wire a control loop from its :class:`~repro.core.config.LoopSpec`.

    Every supported entry point — the :mod:`repro.api` facade, a service
    tenant, checkpoint resume — builds its controller here, which is what
    makes their cycle reports bit-identical for the same spec and world:
    same world coercion, same default collector, and a controller that
    reads every other tunable from ``spec`` itself.

    Args:
        spec: The loop's tunables.
        world: What the loop optimizes — a live :class:`ClusterState`, a
            :class:`RASAProblem` to wrap in one, a replay cursor (whose
            state and event stream the loop then drives), or a checkpoint
            ``source`` payload (``{"problem": ...}`` / ``{"trace": ...}``)
            to rebuild either from.
        collector: Custom data collector; None builds the default one
            (ground-truth traffic from the problem's affinity weights, or
            the cursor's live traffic map, jittered per ``spec``).
        injector: A ready fault injector to use instead of the one the
            controller builds over ``spec.faults``.
        telemetry: Hub every finished cycle is published to.
        history: Already-completed cycles (checkpoint resume).
    """
    if isinstance(world, dict):
        if world.get("trace") is not None:
            world = EventTrace.from_dict(world["trace"]).cursor()
        else:
            world = problem_from_dict(world["problem"])
    stream = world if isinstance(world, EventStreamCursor) else None
    if stream is not None:
        world = stream.state
    state = world if isinstance(world, ClusterState) else ClusterState(world)
    if collector is None:
        collector = DataCollector(
            None if stream is not None else dict(state.problem.affinity.items()),
            traffic_jitter_sigma=spec.traffic_jitter_sigma,
            seed=spec.seed,
            stream=stream,
        )
    return CronJobController(
        state=state,
        collector=collector,
        spec=spec,
        faults=injector,
        telemetry=telemetry,
        stream=stream,
        history=[] if history is None else history,
    )
