"""The RASA scheduler: partition → select → solve → merge (paper Section IV).

:class:`RASAScheduler` is the package's main entry point.  It wires the
multi-stage partitioner, an algorithm selector, and the scheduling algorithm
pool into the full three-phase pipeline, returning the merged cluster-wide
assignment together with per-subproblem diagnostics.

The solve phase is one loop over the subproblems in affinity-descending
order, each shard solved by :func:`~repro.core.parallel.select_and_solve`,
and each kind of solve has one mode:

* A solve with a time limit solves each shard in-process at its merge
  turn, on a share of the remaining budget proportional to the shard's
  affinity; time a shard leaves unspent flows to the shards still
  unsolved.
* A solve without one first submits every shard to a thread pool, one
  thread per CPU, and joins it.  No layer below it reads a clock, so each
  shard's result is a pure function of the shard.  The loop then reads
  each shard's future at the shard's turn; a shard whose thread raised is
  solved in-process at its turn instead — so parallelism never loses
  shards or reorders the merge, and the result is bit-identical to a
  one-at-a-time solve.
"""

from __future__ import annotations

import contextvars
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import _SCALARS, RASAConfig, _check_fields
from repro.core.parallel import available_cpus, release_freed_heap, select_and_solve
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

    The run's solver counters and per-phase duration histograms go to the
    process metrics registry (``rasa optimize --metrics-out``, ``/metrics``);
    the result carries no copy of it.
    """

    assignment: Assignment
    gained_affinity: float
    partition: PartitionResult
    reports: list[SubproblemReport] = field(default_factory=list)
    runtime_seconds: float = 0.0


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

        Raises:
            ProblemValidationError: ``time_limit`` is neither None nor a
                finite number above 0 (:class:`LoopSpec`'s rule).
        """
        _check_fields({"time_limit": time_limit}, _SCALARS, "RASAScheduler.schedule")
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
                partition.subproblems, order, assignment, reports, watch, threads,
                run_span,
            )

            # Containers the solvers left unplaced go to the cluster's
            # default scheduler (paper IV-B5); the greedy packer stands in.
            with tracer.span("rasa.repair"):
                repaired = repair_unplaced(problem, assignment.x)
                assignment = Assignment(problem, repaired)

            if self.config.local_search_seconds > 0:
                from repro.solvers.local_search import LocalSearchImprover

                with tracer.span(
                    "rasa.local_search", budget=self.config.local_search_seconds
                ):
                    assignment = LocalSearchImprover().improve(
                        problem, assignment, time_limit=self.config.local_search_seconds
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
        )

    # ------------------------------------------------------------------
    # Solve phase
    # ------------------------------------------------------------------
    def _solve(
        self,
        subproblems: list[Subproblem],
        order: list[int],
        assignment: Assignment,
        reports: list[SubproblemReport],
        watch: Stopwatch,
        threads: int,
        run_span,
    ) -> Assignment:
        """Solve and merge every shard in affinity-descending order.

        With more than one thread and more than one shard (an unbudgeted
        solve), a thread pool solves every shard and is joined before the
        merge.  The walk over ``order`` then merges each shard's future and
        solves every other shard in-process at its merge turn — all of them
        when there was no pool, a shard whose thread raised otherwise — so
        one bad shard never loses the other shards' results.  A budgeted
        walk gives each shard its share of the time still left.
        """
        metrics = get_metrics()
        logger = get_logger("core.rasa")
        futures: dict[int, Future] = {}
        if threads > 1 and len(order) > 1:
            run_span.set_tag("workers", threads)
            # Each thread runs in a copy of this context, so its spans carry
            # the request's trace id and nest under ``rasa.dispatch``.
            with get_tracer().span("rasa.dispatch", workers=threads, tasks=len(order)):
                with ThreadPoolExecutor(
                    max_workers=min(threads, len(order)),
                    thread_name_prefix="rasa-solve",
                ) as pool:
                    futures = {
                        i: pool.submit(
                            contextvars.copy_context().run,
                            select_and_solve, subproblems[i], self.selector,
                        )
                        for i in order
                    }
                release_freed_heap()
        # Deterministic merge: fixed affinity-descending order, regardless
        # of which thread finished first.
        for position, i in enumerate(order):
            subproblem = subproblems[i]
            pooled = None
            if i in futures:
                try:
                    pooled = futures[i].result()
                except Exception as exc:  # the solve raised on its thread
                    logger.warning(
                        "sequential retry %s",
                        kv(subproblem=i, error=f"{type(exc).__name__}: {exc}"),
                    )
                    metrics.counter("rasa.parallel.task_failures").inc()
                    metrics.counter("rasa.parallel.retries").inc()
            if pooled is not None:
                label, result = pooled
            elif watch.expired:
                continue  # anytime stop: the shard keeps its current placement
            else:
                budget = None
                if watch.time_limit is not None:
                    pending = [subproblems[j] for j in order[position:]]
                    budget = self._next_budget(pending, watch)
                label, result = select_and_solve(subproblem, self.selector, budget)
            reports.append(
                SubproblemReport(
                    subproblem=subproblem,
                    selected_algorithm=label,
                    result=result,
                )
            )
            assignment = self._merge_result(assignment, subproblem, result, watch)
        return assignment

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _merge_result(
        assignment: Assignment,
        subproblem: Subproblem,
        result: SolveResult,
        watch: Stopwatch,
    ) -> Assignment:
        """Overlay one shard's solution on the cluster-wide placement."""
        merge_start = watch.elapsed
        with get_tracer().span("rasa.merge", services=subproblem.num_services):
            assignment = assignment.merge_subassignment(
                result.assignment,
                subproblem.service_names,
                subproblem.machine_names,
            )
        get_metrics().histogram("rasa.phase.merge.seconds").observe(
            watch.elapsed - merge_start
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
