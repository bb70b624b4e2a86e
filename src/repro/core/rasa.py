"""The RASA scheduler: partition → select → solve → merge (paper Section IV).

:class:`RASAScheduler` is the package's main entry point.  It wires the
multi-stage partitioner, an algorithm selector, and the scheduling algorithm
pool into the full three-phase pipeline, returning the merged cluster-wide
assignment together with per-subproblem diagnostics and an anytime
quality-over-time trajectory (used by the Fig. 10 benchmark).

The solve phase is one loop over the subproblems in affinity-descending
order, and each kind of solve has one mode:

* A solve with a time limit solves each shard in-process at its merge
  turn, on a share of the remaining budget proportional to the shard's
  affinity; time a shard leaves unspent flows to the shards still
  unsolved.
* A solve without one first hands every shard to the thread pool
  (:mod:`repro.core.parallel`), one thread per CPU.  No layer below it
  reads a clock, so each shard's result is a pure function of the shard.
  What the pool delivers is merged at the shard's turn; a shard whose
  thread raised is solved in-process at its turn instead — so
  parallelism never loses shards or reorders the merge, and the result
  is bit-identical to a one-at-a-time solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import RASAConfig
from repro.core.parallel import (
    DefaultAlgorithmFactory,
    ParallelDispatcher,
    SubproblemTask,
    TaskFailure,
    TaskOutcome,
    available_cpus,
    select_and_solve,
)
from repro.core.problem import RASAProblem
from repro.core.solution import Assignment
from repro.obs import (
    SpanProfiler,
    get_logger,
    get_metrics,
    get_profiler,
    get_tracer,
    kv,
    use_profiler,
)
from repro.partitioning.base import PartitionResult, Partitioner, Subproblem
from repro.partitioning.multistage import MultiStagePartitioner
from repro.selection.selector import AlgorithmSelector, HeuristicSelector
from repro.solvers.base import SolveResult, Stopwatch
from repro.solvers.greedy import repair_unplaced

#: Time floor (seconds) granted to every subproblem even when the overall
#: budget is tight.
MIN_SUBPROBLEM_BUDGET = 0.5


@dataclass
class SubproblemReport:
    """Diagnostics for one solved subproblem."""

    subproblem: Subproblem
    selected_algorithm: str
    result: SolveResult


@dataclass
class RASAResult:
    """Full outcome of one RASA scheduling run.

    Attributes:
        assignment: The merged cluster-wide placement.
        gained_affinity: Normalized overall gained affinity in ``[0, 1]``.
        partition: The partitioning phase's output.
        reports: Per-subproblem algorithm choices and solve results, in
            merge (affinity-descending) order — identical between the
            one-at-a-time and pooled solves.
        runtime_seconds: Total wall-clock time.
        trajectory: Cumulative ``(elapsed_seconds, normalized_gained)``
            points — RASA is an anytime algorithm (halting mid-run returns
            the current best).  Each subproblem solve contributes its full
            incumbent history (offset by the solve's start time), restoring
            the paper's Fig. 10 anytime-curve resolution.  Timestamps are
            non-decreasing even when parallel workers finish out of order.

    The run's solver counters and per-phase duration histograms go to the
    process metrics registry (``rasa optimize --metrics-out``, ``/metrics``);
    the result carries no copy of it.
    """

    assignment: Assignment
    gained_affinity: float
    partition: PartitionResult
    reports: list[SubproblemReport] = field(default_factory=list)
    runtime_seconds: float = 0.0
    trajectory: list[tuple[float, float]] = field(default_factory=list)

    def summary_dict(self) -> dict:
        """JSON-safe, ``schema_version``-tagged summary of the run.

        The wire shape the multi-tenant service returns for an optimize
        call: the headline quality/runtime numbers plus per-subproblem
        algorithm choices — everything a remote client needs short of the
        full placement matrix (fetch the migration plan for that).
        """
        from repro.schemas import tag_schema

        return tag_schema({
            "gained_affinity": float(self.gained_affinity),
            "runtime_seconds": float(self.runtime_seconds),
            "num_services": self.assignment.problem.num_services,
            "num_machines": self.assignment.problem.num_machines,
            "num_subproblems": len(self.reports),
            "algorithms": sorted(
                {report.selected_algorithm for report in self.reports}
            ),
            "subproblems": [
                {
                    "services": report.subproblem.num_services,
                    "algorithm": report.selected_algorithm,
                    "status": report.result.status,
                    "objective": float(report.result.objective),
                }
                for report in self.reports
            ],
            "trajectory": [
                [float(t), float(v)] for t, v in self.trajectory
            ],
        })


def _append_point(
    trajectory: list[tuple[float, float]], elapsed: float, value: float
) -> None:
    """Append a trajectory point, keeping timestamps non-decreasing.

    Parallel workers start at overlapping wall-clock offsets, so mapping
    their incumbent histories into the merge order can step backwards in
    time; clamping to the previous timestamp keeps the anytime curve a
    valid function of elapsed time.
    """
    if trajectory:
        elapsed = max(elapsed, trajectory[-1][0])
    trajectory.append((elapsed, value))


class RASAScheduler:
    """Three-phase RASA pipeline over a pluggable partitioner and selector.

    Args:
        config: Pipeline tunables; defaults to :class:`RASAConfig` defaults.
        partitioner: Service partitioner; defaults to the paper's
            multi-stage partitioner configured from ``config``.
        selector: Algorithm selector; defaults to the heuristic rule (train
            and pass a :class:`~repro.selection.selector.GCNSelector` for
            the paper's full configuration).  Pool threads share it, so
            ``select`` must not mutate it.
    """

    def __init__(
        self,
        config: RASAConfig | None = None,
        partitioner: Partitioner | None = None,
        selector: AlgorithmSelector | None = None,
    ) -> None:
        self.config = config or RASAConfig()
        self.partitioner = partitioner or MultiStagePartitioner(
            master_ratio=self.config.master_ratio,
            max_subproblem_services=self.config.max_subproblem_services,
            seed=self.config.seed,
        )
        self.selector = selector or HeuristicSelector()

    # ------------------------------------------------------------------
    def schedule(
        self,
        problem: RASAProblem,
        time_limit: float | None = None,
    ) -> RASAResult:
        """Compute a new cluster-wide placement maximizing gained affinity.

        Args:
            problem: The cluster instance.
            time_limit: Overall wall-clock budget; split across subproblems
                proportionally to their total affinity (important shards
                get more time).  None solves every shard to its end, one
                thread per CPU.

        Returns:
            The merged placement plus per-phase diagnostics.
        """
        if not self.config.profile:
            return self._schedule(problem, time_limit)
        # Opt-in hotspot attribution: install a span profiler for the run
        # so partition/solve spans carry top-N cProfile tables.
        with use_profiler(SpanProfiler()):
            return self._schedule(problem, time_limit)

    def _schedule(
        self,
        problem: RASAProblem,
        time_limit: float | None = None,
    ) -> RASAResult:
        """The pipeline body behind :meth:`schedule`."""
        tracer = get_tracer()
        metrics = get_metrics()
        logger = get_logger("core.rasa")
        watch = Stopwatch(time_limit)
        with tracer.span(
            "rasa.schedule",
            services=problem.num_services,
            machines=problem.num_machines,
            time_limit=time_limit,
        ) as run_span:
            with tracer.span("rasa.partition") as span:
                with get_profiler().capture(span):
                    partition = self.partitioner.partition(problem)
                span.set_tag("subproblems", len(partition.subproblems))
                span.set_tag("affinity_retained", partition.affinity_retained)
            metrics.histogram("rasa.phase.partition.seconds").observe(watch.elapsed)

            merged = partition.trivial_assignment.copy()
            assignment = Assignment(problem, merged)
            trajectory = [(watch.elapsed, assignment.gained_affinity(normalized=True))]

            reports: list[SubproblemReport] = []
            # Solve high-affinity shards first so early stopping keeps the
            # most valuable improvements; pool results merge in this same
            # order, so every thread count produces identical results.
            order = sorted(
                range(len(partition.subproblems)),
                key=lambda i: -partition.subproblems[i].total_affinity,
            )
            threads = available_cpus() if time_limit is None else 1
            assignment = self._solve(
                problem, partition.subproblems, order, assignment, trajectory,
                reports, watch, threads, run_span,
            )

            # Containers the solvers left unplaced go to the cluster's
            # default scheduler (paper IV-B5); the greedy packer stands in.
            with tracer.span("rasa.repair"):
                repaired = repair_unplaced(problem, assignment.x)
                assignment = Assignment(problem, repaired)
            _append_point(
                trajectory, watch.elapsed, assignment.gained_affinity(normalized=True)
            )

            if self.config.local_search_seconds > 0:
                from repro.solvers.local_search import LocalSearchImprover

                with tracer.span(
                    "rasa.local_search", budget=self.config.local_search_seconds
                ):
                    assignment = LocalSearchImprover().improve(
                        problem, assignment, time_limit=self.config.local_search_seconds
                    )
                _append_point(
                    trajectory, watch.elapsed, assignment.gained_affinity(normalized=True)
                )

            gained = assignment.gained_affinity(normalized=True)
            run_span.set_tag("gained_affinity", gained)
            run_span.set_tag("subproblems_solved", len(reports))
        metrics.gauge("rasa.gained_affinity").set(gained)
        logger.info(
            "schedule done %s",
            kv(
                gained=f"{gained:.4f}",
                subproblems=len(reports),
                runtime=f"{watch.elapsed:.2f}s",
                workers=threads,
            ),
        )
        return RASAResult(
            assignment=assignment,
            gained_affinity=gained,
            partition=partition,
            reports=reports,
            runtime_seconds=watch.elapsed,
            trajectory=trajectory,
        )

    # ------------------------------------------------------------------
    # Solve phase
    # ------------------------------------------------------------------
    def _solve(
        self,
        problem: RASAProblem,
        subproblems: list[Subproblem],
        order: list[int],
        assignment: Assignment,
        trajectory: list[tuple[float, float]],
        reports: list[SubproblemReport],
        watch: Stopwatch,
        threads: int,
        run_span,
    ) -> Assignment:
        """Solve and merge every shard in affinity-descending order.

        With more than one thread and more than one shard (an unbudgeted
        solve), the thread pool solves the shards ahead of the merge.  The
        walk over ``order`` then merges what the pool delivered and solves
        every other shard in-process at its merge turn — all of them when
        there was no pool, a shard whose thread raised otherwise — so one
        bad shard never loses the other shards' results.  A budgeted walk
        gives each shard its share of the time still left.
        """
        metrics = get_metrics()
        logger = get_logger("core.rasa")
        factory = DefaultAlgorithmFactory()
        outcomes: dict[int, TaskOutcome | TaskFailure] = {}
        if threads > 1 and len(order) > 1:
            run_span.set_tag("workers", threads)
            outcomes = self._dispatch(subproblems, order, factory, threads)
        # Deterministic merge: fixed affinity-descending order, regardless
        # of which thread finished first.
        for position, i in enumerate(order):
            subproblem = subproblems[i]
            outcome = outcomes.get(i)
            if isinstance(outcome, TaskOutcome):
                label, result = outcome.label, outcome.result
                solve_start = max(
                    0.0, outcome.started_monotonic - watch.start_monotonic
                )
            elif watch.expired:
                continue  # anytime stop: the shard keeps its current placement
            else:
                if outcome is not None:
                    logger.warning(
                        "sequential retry %s",
                        kv(subproblem=i, error=outcome.error),
                    )
                    metrics.counter("rasa.parallel.retries").inc()
                budget = None
                if watch.time_limit is not None:
                    pending = [subproblems[j] for j in order[position:]]
                    budget = self._next_budget(pending, watch)
                solve_start = watch.elapsed
                label, result = select_and_solve(
                    subproblem, self.selector, factory, budget
                )
            reports.append(
                SubproblemReport(
                    subproblem=subproblem,
                    selected_algorithm=label,
                    result=result,
                )
            )
            assignment = self._merge_result(
                problem, assignment, subproblem, result, trajectory,
                solve_start, watch,
            )
        return assignment

    def _dispatch(
        self,
        subproblems: list[Subproblem],
        order: list[int],
        factory: DefaultAlgorithmFactory,
        threads: int,
    ) -> dict[int, TaskOutcome | TaskFailure]:
        """Solve every shard on the thread pool; outcomes by shard index."""
        tracer = get_tracer()
        tasks = [
            SubproblemTask(
                index=i,
                subproblem=subproblems[i],
                selector=self.selector,
                algorithm_factory=factory,
            )
            for i in order
        ]
        dispatcher = ParallelDispatcher(workers=threads)
        with tracer.span("rasa.dispatch", workers=threads, tasks=len(tasks)):
            return dispatcher.run(tasks)

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _merge_result(
        self,
        problem: RASAProblem,
        assignment: Assignment,
        subproblem: Subproblem,
        result: SolveResult,
        trajectory: list[tuple[float, float]],
        solve_start: float,
        watch: Stopwatch,
    ) -> Assignment:
        """Overlay one shard's solution and extend the anytime trajectory."""
        tracer = get_tracer()
        metrics = get_metrics()
        merge_start = watch.elapsed
        with tracer.span("rasa.merge", services=subproblem.num_services):
            assignment = assignment.merge_subassignment(
                result.assignment,
                subproblem.service_names,
                subproblem.machine_names,
            )
        metrics.histogram("rasa.phase.merge.seconds").observe(
            watch.elapsed - merge_start
        )
        # One evaluation serves both points; dividing by the graph total is
        # the same operation ``gained_affinity(normalized=True)`` performs.
        gained = assignment.gained_affinity()
        graph_total = problem.affinity.total_affinity
        self._extend_trajectory(trajectory, gained, graph_total, result, solve_start)
        _append_point(
            trajectory, watch.elapsed, gained / graph_total if graph_total else 0.0
        )
        return assignment

    def _next_budget(self, pending: list[Subproblem], watch: Stopwatch) -> float:
        """Budget for the first of the still-queued shards.

        Recomputing the affinity-proportional waterfilling split over the
        *remaining* shards each time redistributes time that earlier
        shards left unspent (and absorbs any overrun) instead of pinning
        every shard to the split computed up front.
        """
        budget = self._budgets(pending, watch)[0]
        remaining = watch.remaining
        if remaining is not None:
            budget = max(MIN_SUBPROBLEM_BUDGET, min(budget, remaining))
        return budget

    @staticmethod
    def _extend_trajectory(
        trajectory: list[tuple[float, float]],
        merged_unnorm: float,
        total: float,
        result: SolveResult,
        solve_start: float,
    ) -> None:
        """Merge a subproblem's incumbent history into the run trajectory.

        The solver trajectory is ``(elapsed_since_solver_start, objective)``
        in the subproblem's unnormalized gained-affinity scale.  Each
        incumbent is mapped to the overall curve by offsetting its timestamp
        by the solve's start time and estimating the cluster-wide gained
        affinity it would have produced: the merged value minus the part of
        the final objective the incumbent had not yet reached.  Values are
        clamped to keep the anytime curve monotone (an incumbent is only
        adopted when it improves the merged placement).  ``merged_unnorm``
        is the merged placement's gained affinity, ``total`` the graph's.
        """
        if total <= 0 or not result.trajectory:
            return
        floor = trajectory[-1][1] if trajectory else 0.0
        for elapsed, objective in result.trajectory:
            estimate = (merged_unnorm - max(0.0, result.objective - objective)) / total
            value = min(1.0, max(floor, estimate))
            _append_point(trajectory, solve_start + max(0.0, elapsed), value)
            floor = value

    def _budgets(self, subproblems: list[Subproblem], watch: Stopwatch) -> list[float]:
        """Split the remaining budget proportionally to shard affinity.

        Every shard is guaranteed ``MIN_SUBPROBLEM_BUDGET``; shares above
        the floor are renormalized to the budget left after the floored
        shards take theirs, so the summed budgets never overcommit the
        overall limit (unless the floors alone already exceed it).
        """
        remaining = watch.remaining or 0.0
        weights = np.array([max(sp.total_affinity, 1e-12) for sp in subproblems])
        if weights.sum() == 0 or not subproblems:
            return [remaining] * len(subproblems)
        shares = weights / weights.sum()
        floor = MIN_SUBPROBLEM_BUDGET
        budgets = np.full(len(subproblems), floor)
        floored = np.zeros(len(subproblems), dtype=bool)
        # Waterfilling: repeatedly pin shards whose renormalized share falls
        # below the floor, re-splitting the leftover among the rest.
        while not floored.all():
            leftover = remaining - floor * floored.sum()
            if leftover <= 0:
                break
            free = ~floored
            scaled = shares[free] / shares[free].sum() * leftover
            newly = scaled < floor
            if newly.any():
                index = np.nonzero(free)[0][newly]
                floored[index] = True
                continue
            budgets[free] = scaled
            break
        return [float(b) for b in budgets]
