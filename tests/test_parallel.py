"""Parallel subproblem engine: determinism, fallback, budgets, and obs.

The engine's contract (see :mod:`repro.core.parallel`) is threefold:

* **Determinism** — for a fixed seed and no overall time limit, parallel
  runs are bit-identical to sequential runs: same assignment matrix, same
  objective, same trajectory *values*, same merge order.
* **Resilience** — a crashed, raising, or hung worker falls back to an
  in-process sequential retry, and one bad shard never loses the results
  the other workers already produced.
* **Completeness** — worker spans, metric samples, and incumbent
  trajectories are folded back into the parent tracer/registry so
  observability exports look the same in both modes.

Worker-poisoning uses a pid-gated selector: it only misbehaves when
running outside the parent process, so the in-process retry succeeds.
"""

from __future__ import annotations

import functools
import os
import time

import numpy as np
import pytest

from repro.core import Assignment, RASAConfig, RASAScheduler
from repro.core.parallel import (
    DefaultAlgorithmFactory,
    ParallelDispatcher,
    SubproblemTask,
    TaskFailure,
    TaskOutcome,
    run_task,
)
from repro.obs import MetricsRegistry, Tracer, use_metrics, use_tracer
from repro.selection.selector import FixedSelector, HeuristicSelector
from repro.solvers.base import SolveResult

#: Shard size that splits the 40-service ``small_cluster`` into 3 shards.
SHARD_SERVICES = 12


def _config(**overrides) -> RASAConfig:
    return RASAConfig(max_subproblem_services=SHARD_SERVICES, **overrides)


def _run(problem, config, selector=None, time_limit=None):
    """Run the pipeline under a fresh metrics registry; return both."""
    with use_metrics(MetricsRegistry()) as metrics:
        scheduler = RASAScheduler(config=config, selector=selector)
        result = scheduler.schedule(problem, time_limit=time_limit)
    return result, metrics


@pytest.fixture(scope="module")
def seq(small_cluster):
    """Sequential reference run (no time limit → budget-deterministic)."""
    result, _ = _run(small_cluster.problem, _config(workers=1))
    return result


class WorkerPoisonedSelector(HeuristicSelector):
    """Selector that misbehaves only inside pool worker processes.

    ``mode`` is ``"crash"`` (kill the worker process), ``"raise"`` (raise
    from the select step), or ``"hang"`` (sleep past the task deadline).
    With ``target_service`` set, only the shard containing that service is
    poisoned; otherwise every shard is.  The parent-process retry path
    sees a well-behaved :class:`HeuristicSelector`.
    """

    def __init__(self, mode, target_service=None, hang_seconds=6.0):
        self.mode = mode
        self.target_service = target_service
        self.hang_seconds = hang_seconds
        self.parent_pid = os.getpid()

    def select(self, subproblem):
        poisoned = (
            self.target_service is None
            or self.target_service in subproblem.service_names
        )
        if poisoned and os.getpid() != self.parent_pid:
            if self.mode == "crash":
                os._exit(17)
            if self.mode == "raise":
                raise RuntimeError("poisoned shard")
            time.sleep(self.hang_seconds)
        return super().select(subproblem)


class _InstantAlgorithm:
    """Records its time budget and returns an empty placement instantly."""

    name = "instant"

    def __init__(self, record):
        self.record = record

    def solve(self, problem, time_limit=None):
        self.record.append(time_limit)
        empty = np.zeros((problem.num_services, problem.num_machines), dtype=int)
        return SolveResult(
            assignment=Assignment(problem, empty),
            algorithm=self.name,
            status="optimal",
            runtime_seconds=0.0,
            objective=0.0,
        )


class RecordingFactory:
    """Algorithm factory whose products log the budgets they were given."""

    def __init__(self):
        self.budgets = []

    def __call__(self, label):
        return _InstantAlgorithm(self.budgets)


# ----------------------------------------------------------------------
# Determinism: parallel ≡ sequential
# ----------------------------------------------------------------------
def _assert_identical(sequential, parallel):
    """Bit-identical assignments and value-identical trajectories.

    Trajectory *timestamps* legitimately differ between runs (wall-clock),
    so the anytime-curve comparison is on the value sequence.
    """
    assert np.array_equal(sequential.assignment.x, parallel.assignment.x)
    assert parallel.gained_affinity == sequential.gained_affinity
    assert [v for _, v in parallel.trajectory] == [
        v for _, v in sequential.trajectory
    ]
    assert [r.selected_algorithm for r in parallel.reports] == [
        r.selected_algorithm for r in sequential.reports
    ]
    assert [r.subproblem.service_names for r in parallel.reports] == [
        r.subproblem.service_names for r in sequential.reports
    ]


def test_two_workers_match_sequential(small_cluster, seq):
    parallel, _ = _run(small_cluster.problem, _config(workers=2))
    assert len(parallel.partition.subproblems) > 1  # parallel path exercised
    _assert_identical(seq, parallel)


@pytest.mark.slow
def test_four_workers_match_sequential(small_cluster, seq):
    parallel, _ = _run(small_cluster.problem, _config(workers=4))
    _assert_identical(seq, parallel)


def test_merge_order_is_affinity_descending(small_cluster, seq):
    parallel, _ = _run(small_cluster.problem, _config(workers=2))
    for result in (seq, parallel):
        affinities = [r.subproblem.total_affinity for r in result.reports]
        assert affinities == sorted(affinities, reverse=True)


def test_trajectory_timestamps_are_monotone(small_cluster, seq):
    parallel, _ = _run(small_cluster.problem, _config(workers=2))
    for result in (seq, parallel):
        times = [t for t, _ in result.trajectory]
        assert times == sorted(times), "trajectory timestamps went backwards"
        assert all(t >= 0.0 for t in times)


# ----------------------------------------------------------------------
# Resilience: crash / error / timeout fallback
# ----------------------------------------------------------------------
def test_crashed_workers_fall_back_to_sequential(small_cluster, seq):
    """A dying worker breaks the pool; every shard retries in-process."""
    selector = WorkerPoisonedSelector("crash")
    result, metrics = _run(
        small_cluster.problem, _config(workers=2), selector=selector
    )
    _assert_identical(seq, result)
    counters = metrics.snapshot()["counters"]
    assert counters["rasa.parallel.retries"] == len(result.partition.subproblems)
    assert counters["rasa.parallel.task_failures"] >= 1


def test_one_bad_shard_keeps_other_workers_results(small_cluster, seq):
    """Only the poisoned shard retries; the rest come from the pool."""
    target = seq.reports[1].subproblem.service_names[0]
    selector = WorkerPoisonedSelector("raise", target_service=target)
    result, metrics = _run(
        small_cluster.problem, _config(workers=2), selector=selector
    )
    _assert_identical(seq, result)
    counters = metrics.snapshot()["counters"]
    assert counters["rasa.parallel.retries"] == 1
    assert counters["rasa.parallel.task_failures"] == 1


@pytest.mark.slow
def test_hung_worker_times_out_and_retries(small_cluster, seq, monkeypatch):
    """A wedged worker trips the per-task deadline; no shard is lost."""
    target = seq.reports[-1].subproblem.service_names[0]
    selector = WorkerPoisonedSelector("hang", target_service=target, hang_seconds=8.0)
    monkeypatch.setattr(
        "repro.core.rasa.ParallelDispatcher",
        functools.partial(ParallelDispatcher, timeout_factor=1.0, timeout_margin=1.0),
    )
    config = _config(workers=2)
    result, metrics = _run(
        small_cluster.problem, config, selector=selector, time_limit=9.0
    )
    # Budget-limited, so no bit-identity claim — but every shard must be
    # present and the merged placement fully feasible.
    assert len(result.reports) == len(result.partition.subproblems)
    feasibility = result.assignment.check_feasibility()
    assert feasibility.feasible, feasibility.summary()
    counters = metrics.snapshot()["counters"]
    assert counters["rasa.parallel.retries"] >= 1
    assert counters["rasa.parallel.task_failures"] >= 1


# ----------------------------------------------------------------------
# Budget redistribution (unspent time flows to still-queued shards)
# ----------------------------------------------------------------------
def test_sequential_budgets_redistribute_unspent_time(small_cluster, monkeypatch):
    factory = RecordingFactory()
    monkeypatch.setattr(
        "repro.core.rasa.DefaultAlgorithmFactory", lambda: factory
    )
    limit = 8.0
    config = _config()
    RASAScheduler(config=config).schedule(small_cluster.problem, time_limit=limit)
    budgets = factory.budgets
    assert len(budgets) == 3
    # Instant solves leave their whole share unspent, so each later shard
    # sees a bigger slice; a static up-front split would sum to <= limit
    # and be affinity-descending instead.
    assert budgets[-1] > budgets[0]
    assert sum(budgets) > limit * 1.1


def test_parallel_retry_budgets_redistribute(small_cluster, monkeypatch):
    factory = RecordingFactory()
    monkeypatch.setattr(
        "repro.core.rasa.DefaultAlgorithmFactory", lambda: factory
    )
    selector = WorkerPoisonedSelector("raise")  # all shards retry in-process
    config = _config(workers=2)
    _, metrics = _run(
        small_cluster.problem, config, selector=selector, time_limit=8.0
    )
    budgets = factory.budgets
    assert len(budgets) == 3  # every retry ran in the parent and recorded
    assert budgets[-1] > budgets[0]
    assert metrics.snapshot()["counters"]["rasa.parallel.retries"] == 3


# ----------------------------------------------------------------------
# Observability completeness under parallelism
# ----------------------------------------------------------------------
def test_worker_spans_and_metrics_fold_into_parent(small_cluster):
    with use_metrics(MetricsRegistry()) as metrics, use_tracer(Tracer()) as tracer:
        result = RASAScheduler(config=_config(workers=2)).schedule(
            small_cluster.problem
        )
    shards = len(result.partition.subproblems)
    root = tracer.finished_roots()[0]
    assert root.name == "rasa.schedule"
    names = [child.name for child in root.children]
    assert "rasa.dispatch" in names
    assert names.count("rasa.select") == shards  # adopted from workers
    assert names.count("rasa.solve") == shards
    assert names.count("rasa.merge") == shards
    for child in root.children:
        assert child.start >= root.start - 0.05
        assert (child.end or child.start) <= root.end + 0.05
    histograms = metrics.snapshot()["histograms"]
    assert histograms["rasa.phase.select.seconds"]["count"] == shards
    assert histograms["rasa.phase.solve.seconds"]["count"] == shards
    assert histograms["rasa.phase.merge.seconds"]["count"] == shards


# ----------------------------------------------------------------------
# Dispatcher / worker unit tests
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def shards(small_cluster):
    scheduler = RASAScheduler(config=_config())
    return scheduler.partitioner.partition(small_cluster.problem).subproblems


def test_dispatcher_rejects_bad_worker_count():
    with pytest.raises(ValueError):
        ParallelDispatcher(workers=0)


def test_run_task_roundtrip(shards):
    """Worker entry point returns a self-contained, rebuildable outcome."""
    subproblem = shards[0]
    task = SubproblemTask(
        index=0,
        subproblem=subproblem,
        selector=HeuristicSelector(),
        algorithm_factory=DefaultAlgorithmFactory(),
        budget=None,
        collect_spans=True,
    )
    outcome = run_task(task)
    assert isinstance(outcome, TaskOutcome)
    assert {span.name for span in outcome.spans} == {"rasa.select", "rasa.solve"}
    assert outcome.metrics["counters"]["rasa.subproblems.solved"] == 1
    result = outcome.to_solve_result(subproblem.problem)
    assert result.assignment.problem is subproblem.problem
    assert result.objective == outcome.objective
    assert result.status == outcome.status


def test_run_task_carries_the_mip_bound(shards):
    """A worker's MIP solve returns its dual bound to the parent."""
    subproblem = shards[0]
    task = SubproblemTask(
        index=0,
        subproblem=subproblem,
        selector=FixedSelector("mip"),
        algorithm_factory=DefaultAlgorithmFactory(),
        budget=None,
    )
    outcome = run_task(task)
    result = outcome.to_solve_result(subproblem.problem)
    assert result.bound == outcome.bound
    assert result.bound >= result.objective


def test_dispatcher_maps_crash_to_failure(shards):
    task = SubproblemTask(
        index=5,
        subproblem=shards[-1],
        selector=WorkerPoisonedSelector("crash"),
        algorithm_factory=DefaultAlgorithmFactory(),
    )
    with use_metrics(MetricsRegistry()):
        results = ParallelDispatcher(workers=1).run([task])
    failure = results[5]
    assert isinstance(failure, TaskFailure)
    assert failure.kind == "crash"


def test_dispatcher_maps_hang_to_timeout(shards):
    task = SubproblemTask(
        index=3,
        subproblem=shards[-1],
        selector=WorkerPoisonedSelector("hang", hang_seconds=4.0),
        algorithm_factory=DefaultAlgorithmFactory(),
        budget=0.1,  # finite budget arms the deadline
    )
    dispatcher = ParallelDispatcher(workers=1, timeout_factor=1.0, timeout_margin=0.5)
    with use_metrics(MetricsRegistry()):
        results = dispatcher.run([task])
    failure = results[3]
    assert isinstance(failure, TaskFailure)
    assert failure.kind == "timeout"


# ----------------------------------------------------------------------
# Config threading: CLI, worker resolution
# ----------------------------------------------------------------------
def test_effective_workers_resolution():
    assert RASAScheduler(config=RASAConfig())._effective_workers() == 1
    assert RASAScheduler(config=RASAConfig(workers=4))._effective_workers() == 4
    assert RASAScheduler(config=RASAConfig(workers=0))._effective_workers() == 1


def test_cli_parallel_flags():
    from repro.cli import _scheduler_config, build_parser
    from repro.exceptions import ProblemValidationError

    args = build_parser().parse_args(
        ["optimize", "trace.json", "--workers", "3", "--parallel"]
    )
    assert _scheduler_config(args).workers == 3
    # ``--parallel`` alone is one worker per CPU, resolved at parse time.
    args = build_parser().parse_args(["optimize", "trace.json", "--parallel"])
    assert _scheduler_config(args).workers == (os.cpu_count() or 1)
    args = build_parser().parse_args(["optimize", "trace.json"])
    assert _scheduler_config(args).workers == 1

    # An input error like any other: main() turns it into ``error:`` + exit 1.
    bad = build_parser().parse_args(["optimize", "trace.json", "--workers", "0"])
    with pytest.raises(ProblemValidationError, match="--workers must be >= 1"):
        _scheduler_config(bad)

