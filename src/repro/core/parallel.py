"""Parallel subproblem execution engine for the RASA pipeline.

Partitioning (paper Section IV) decomposes the global placement MIP into
independent subproblems, which makes the solve phase embarrassingly
parallel — the same observation POP (Narayanan et al.) exploits for
granular allocation problems.  This module runs the per-subproblem
``(select, solve)`` step on a :class:`~concurrent.futures.ThreadPoolExecutor`.
HiGHS releases the GIL while it searches, so shards solved on threads
overlap as they would in processes, without pickling a shard or forking
a copy of the parent's heap:

* :func:`run_task` is the thread entry point.  It runs
  :func:`select_and_solve` against the process-wide tracer, metrics
  registry and profiler, which are lock-protected, so spans and metric
  samples land where an in-process solve would put them.
* :class:`ParallelDispatcher` submits one task per subproblem under a copy
  of the caller's :mod:`contextvars` context — the request's trace id and
  the open ``rasa.dispatch`` span travel into the thread — and collects
  the outcomes by task index.  A task that raises, or misses its
  wall-clock deadline, becomes a :class:`TaskFailure`, and the scheduler's
  one solve loop solves that shard in-process when its merge turn comes.

Determinism: :class:`~repro.core.rasa.RASAScheduler` merges outcomes in
the fixed affinity-descending order regardless of completion order, so for
a given seed the merged assignment is bit-identical to a one-at-a-time
solve whenever the per-subproblem solves themselves are
budget-deterministic (i.e. they finish within their budget — always true
without an overall time limit).
"""

from __future__ import annotations

import contextvars
import ctypes
import os
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.obs import get_logger, get_metrics, get_profiler, get_tracer, kv
from repro.partitioning.base import Subproblem
from repro.selection.selector import AlgorithmSelector
from repro.solvers.base import SchedulingAlgorithm, SolveResult, Stopwatch


def available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where there is one."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - no affinity API (macOS)
        return os.cpu_count() or 1


def _release_freed_heap() -> None:
    """Hand the heap that finished threads freed back to the OS.

    glibc keeps a thread's freed memory in that thread's arena, up to a
    trim threshold that grows to twice the largest block freed — tens of
    MB once a placement matrix has been freed there.  One ``malloc_trim``
    returns it; where libc has no ``malloc_trim`` this does nothing.
    """
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):  # pragma: no cover - not glibc
        return
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    trim(0)


class DefaultAlgorithmFactory:
    """Maps a selector label to an algorithm instance."""

    def __call__(self, label: str) -> SchedulingAlgorithm:
        from repro.solvers.column_generation import ColumnGenerationAlgorithm
        from repro.solvers.mip import MIPAlgorithm

        if label == "mip":
            return MIPAlgorithm()
        return ColumnGenerationAlgorithm()


@dataclass
class SubproblemTask:
    """One unit of parallel work: select an algorithm and solve one shard.

    Attributes:
        index: The subproblem's index in the partition (the merge key).
        subproblem: The self-contained shard to solve.
        selector: Algorithm selector.
        algorithm_factory: Label → algorithm mapping.
        budget: Per-subproblem solver time budget (seconds; None or
            ``inf`` for unlimited).
    """

    index: int
    subproblem: Subproblem
    selector: AlgorithmSelector
    algorithm_factory: Callable[[str], SchedulingAlgorithm]
    budget: float | None = None


@dataclass
class TaskOutcome:
    """A completed task: the selected label and the shard's solve result.

    ``started_monotonic`` is when the thread began the task, so the
    scheduler can place the solve's incumbents on the run's time axis.
    """

    index: int
    label: str
    result: SolveResult
    started_monotonic: float


@dataclass
class TaskFailure:
    """A task the pool could not complete; the caller retries it inline.

    Attributes:
        index: The failed task's subproblem index.
        kind: ``"timeout"`` (no result by the deadline) or ``"error"``
            (the solve raised).
        error: Human-readable cause.
    """

    index: int
    kind: str
    error: str


def select_and_solve(
    subproblem: Subproblem,
    selector: AlgorithmSelector,
    algorithm_factory: Callable[[str], SchedulingAlgorithm],
    budget: float | None,
) -> tuple[str, SolveResult]:
    """Run the per-subproblem (select, solve) step with full instrumentation.

    The scheduler's solve loop and the pool's threads both call this, so
    spans and metrics have an identical shape regardless of where the
    solve ran.
    """
    tracer = get_tracer()
    metrics = get_metrics()
    clock = Stopwatch()
    with tracer.span("rasa.select", services=subproblem.num_services) as span:
        label = selector.select(subproblem)
        span.set_tag("algorithm", label)
    metrics.histogram("rasa.phase.select.seconds").observe(clock.elapsed)
    algorithm = algorithm_factory(label)
    solve_clock = Stopwatch()
    with tracer.span(
        "rasa.solve",
        algorithm=label,
        budget=None if budget is None or budget == np.inf else budget,
        services=subproblem.num_services,
    ) as span:
        with get_profiler().capture(span):
            result = algorithm.solve(subproblem.problem, time_limit=budget)
        span.set_tag("status", result.status)
        span.set_tag("objective", result.objective)
    metrics.histogram("rasa.phase.solve.seconds").observe(solve_clock.elapsed)
    metrics.counter("rasa.subproblems.solved").inc()
    return label, result


def run_task(task: SubproblemTask) -> TaskOutcome:
    """Thread entry point: solve one task.

    Exceptions propagate through the future; the dispatcher converts them
    into a :class:`TaskFailure`.
    """
    started = time.monotonic()
    label, result = select_and_solve(
        task.subproblem, task.selector, task.algorithm_factory, task.budget
    )
    return TaskOutcome(
        index=task.index, label=label, result=result, started_monotonic=started
    )


class ParallelDispatcher:
    """Solves subproblem tasks on a thread pool and collects their outcomes.

    Args:
        workers: Maximum pool threads.
        timeout_factor: A task's wall-clock deadline is
            ``budget * timeout_factor + timeout_margin`` — solvers enforce
            their own budget, so the deadline only catches a hung solve.
            Tasks with an unlimited budget have no deadline.
        timeout_margin: Constant slack added to every deadline (deadlines
            are measured from submission, not task start, so it also
            covers queueing behind other tasks).

    A thread cannot be stopped: a task that misses its deadline is
    abandoned to finish on its own, and interpreter exit waits for it.
    """

    def __init__(
        self,
        workers: int,
        timeout_factor: float = 2.0,
        timeout_margin: float = 5.0,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.timeout_factor = timeout_factor
        self.timeout_margin = timeout_margin

    # ------------------------------------------------------------------
    def run(self, tasks: list[SubproblemTask]) -> dict[int, TaskOutcome | TaskFailure]:
        """Execute every task; never raises for per-task problems.

        Each task is submitted under a copy of the caller's context, so
        spans opened in the thread carry the request's trace id and nest
        under the span open at submission.

        Returns:
            Outcome or failure per task, keyed by ``task.index``.  The
            caller decides what to do with failures (the scheduler retries
            them in-process with redistributed budgets).
        """
        logger = get_logger("core.parallel")
        metrics = get_metrics()
        results: dict[int, TaskOutcome | TaskFailure] = {}
        pool = ThreadPoolExecutor(
            max_workers=min(self.workers, max(1, len(tasks))),
            thread_name_prefix="rasa-solve",
        )
        futures: list[tuple[SubproblemTask, Future, float | None]] = []
        try:
            submitted = time.monotonic()
            for task in tasks:
                deadline = None
                if task.budget is not None and task.budget != np.inf:
                    deadline = (
                        submitted + task.budget * self.timeout_factor + self.timeout_margin
                    )
                context = contextvars.copy_context()
                futures.append((task, pool.submit(context.run, run_task, task), deadline))
            for task, future, deadline in futures:
                results[task.index] = self._collect(task, future, deadline, logger)
                if isinstance(results[task.index], TaskFailure):
                    metrics.counter("rasa.parallel.task_failures").inc()
        finally:
            # Join the threads only when every task is done: one past its
            # deadline is abandoned, not waited for.
            drained = all(future.done() for _, future, _ in futures)
            pool.shutdown(wait=drained, cancel_futures=True)
            if drained:
                _release_freed_heap()
        return results

    def _collect(
        self,
        task: SubproblemTask,
        future: Future,
        deadline: float | None,
        logger,
    ) -> TaskOutcome | TaskFailure:
        """Await one future, mapping every failure mode to a TaskFailure."""
        timeout = None
        if deadline is not None:
            timeout = max(0.0, deadline - time.monotonic())
        try:
            return future.result(timeout=timeout)
        except FutureTimeoutError:
            logger.warning(
                "worker timeout %s", kv(subproblem=task.index, budget=task.budget)
            )
            return TaskFailure(
                index=task.index,
                kind="timeout",
                error=f"no result within {timeout:.1f}s deadline",
            )
        except Exception as exc:  # the solve raised inside the thread
            logger.warning("worker error %s", kv(subproblem=task.index, error=str(exc)))
            return TaskFailure(
                index=task.index, kind="error", error=f"{type(exc).__name__}: {exc}"
            )
