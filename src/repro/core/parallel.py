"""The per-shard solve step, and what the solve phase sizes its pool by.

Partitioning (paper Section IV) decomposes the global placement MIP into
independent subproblems, which makes the solve phase embarrassingly
parallel — the same observation POP (Narayanan et al.) exploits for
granular allocation problems.  :func:`select_and_solve` is the one
per-shard step: select an algorithm for the shard, then solve it.  The
scheduler (:mod:`repro.core.rasa`) calls it on its own thread for a
budgeted solve, and submits it to a
:class:`~concurrent.futures.ThreadPoolExecutor` for an unbudgeted one.
HiGHS releases the GIL while it searches, so shards solved on threads
overlap as they would in processes, without pickling a shard or forking
a copy of the parent's heap.  The step records into the process-wide
tracer, metrics registry and profiler, which are lock-protected, so
spans and metric samples have the same shape wherever it ran.

Determinism: an unbudgeted shard solve is a pure function of the shard,
and the scheduler merges results in the fixed affinity-descending order
regardless of completion order, so for a given seed the merged
assignment is bit-identical to a one-at-a-time solve.
"""

from __future__ import annotations

import ctypes
import os

from repro.obs import get_metrics, get_profiler, get_tracer
from repro.partitioning.base import Subproblem
from repro.selection.selector import AlgorithmSelector
from repro.solvers.base import SchedulingAlgorithm, SolveResult, Stopwatch


def available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where there is one."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - no affinity API (macOS)
        return os.cpu_count() or 1


def release_freed_heap() -> None:
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


def make_algorithm(label: str) -> SchedulingAlgorithm:
    """The algorithm a selector label names: MIP for ``"mip"``, else CG."""
    from repro.solvers.column_generation import ColumnGenerationAlgorithm
    from repro.solvers.mip import MIPAlgorithm

    if label == "mip":
        return MIPAlgorithm()
    return ColumnGenerationAlgorithm()


def select_and_solve(
    subproblem: Subproblem,
    selector: AlgorithmSelector,
    budget: float | None = None,
) -> tuple[str, SolveResult]:
    """Run the per-subproblem (select, solve) step with full instrumentation.

    Returns:
        The selected label and the shard's solve result.
    """
    tracer = get_tracer()
    metrics = get_metrics()
    clock = Stopwatch()
    with tracer.span("rasa.select", services=subproblem.num_services) as span:
        label = selector.select(subproblem)
        span.set_tag("algorithm", label)
    metrics.histogram("rasa.phase.select.seconds").observe(clock.elapsed)
    algorithm = make_algorithm(label)
    solve_clock = Stopwatch()
    with tracer.span(
        "rasa.solve",
        algorithm=label,
        budget=budget,
        services=subproblem.num_services,
    ) as span:
        with get_profiler().capture(span):
            result = algorithm.solve(subproblem.problem, time_limit=budget)
        span.set_tag("status", result.status)
        span.set_tag("objective", result.objective)
    metrics.histogram("rasa.phase.solve.seconds").observe(solve_clock.elapsed)
    metrics.counter("rasa.subproblems.solved").inc()
    return label, result
