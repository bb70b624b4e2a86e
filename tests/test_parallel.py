"""The solve phase's thread pool: determinism, fallback, budgets, and obs.

The pooled solve's contract (see :mod:`repro.core.rasa`) is threefold:

* **Determinism** — for a fixed seed and no overall time limit, threaded
  runs are bit-identical to one-at-a-time runs: same assignment matrix,
  same objective, same merge order, and each shard's same solver
  objective, status and bound.
* **Resilience** — a raising pool thread falls back to an in-process
  retry, and one bad shard never loses the results the other threads
  already produced.
* **Completeness** — pool threads record spans and metric samples into
  the process tracer/registry, nested under ``rasa.dispatch`` and
  stamped with the request's trace id.

The CPU helper the solve phase sizes its pool with is patched, so the
reference runs one shard at a time and the pooled runs use the same
thread count on every machine.  Thread poisoning uses a selector that
only misbehaves off the main thread, so the in-process retry succeeds.
"""

from __future__ import annotations

import logging
import threading

import numpy as np
import pytest

from repro.core import Assignment, RASAConfig, RASAScheduler
from repro.core.parallel import select_and_solve
from repro.exceptions import ProblemValidationError
from repro.obs import (
    MetricsRegistry,
    TraceContext,
    Tracer,
    use_context,
    use_metrics,
    use_tracer,
)
from repro.selection.selector import FixedSelector, HeuristicSelector
from repro.solvers.base import SolveResult
from repro.workloads.generator import ClusterSpec, generate_cluster

#: Shard size that splits the 40-service ``small_cluster`` into 3 shards.
SHARD_SERVICES = 12

#: The solve phase's CPU helper, as the scheduler looks it up.
CPU_HELPER = "repro.core.rasa.available_cpus"

#: The label -> algorithm lookup of the per-shard step.
MAKE_ALGORITHM = "repro.core.parallel.make_algorithm"


def _config(**overrides) -> RASAConfig:
    return RASAConfig(max_subproblem_services=SHARD_SERVICES, **overrides)


def _run(problem, config, selector=None, time_limit=None):
    """Run the pipeline under a fresh metrics registry; return both."""
    with use_metrics(MetricsRegistry()) as metrics:
        scheduler = RASAScheduler(config=config, selector=selector)
        result = scheduler.schedule(problem, time_limit=time_limit)
    return result, metrics


def _one_at_a_time(problem, config, **kwargs):
    """The reference: the pipeline with a one-CPU pool, i.e. no pool."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CPU_HELPER, lambda: 1)
        return _run(problem, config, **kwargs)


@pytest.fixture(scope="module")
def seq(small_cluster):
    """One-at-a-time reference run (no time limit → budget-deterministic)."""
    result, _ = _one_at_a_time(small_cluster.problem, _config())
    return result


@pytest.fixture
def two_cpus(monkeypatch):
    """Unbudgeted solves run a two-thread pool, whatever the machine has."""
    monkeypatch.setattr(CPU_HELPER, lambda: 2)


class WorkerPoisonedSelector(HeuristicSelector):
    """Selector that raises from the select step, only on pool threads.

    With ``target_service`` set, only the shard containing that service is
    poisoned; otherwise every shard is.  The in-process retry, on the main
    thread, sees a well-behaved :class:`HeuristicSelector`.
    """

    def __init__(self, target_service=None):
        self.target_service = target_service

    def select(self, subproblem):
        poisoned = (
            self.target_service is None
            or self.target_service in subproblem.service_names
        )
        if poisoned and threading.current_thread() is not threading.main_thread():
            raise RuntimeError("poisoned shard")
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
    """Stands in for ``make_algorithm``; its algorithms log their budgets."""

    def __init__(self):
        self.budgets = []

    def __call__(self, label):
        return _InstantAlgorithm(self.budgets)


# ----------------------------------------------------------------------
# Determinism: threaded ≡ one at a time
# ----------------------------------------------------------------------
def _assert_identical(sequential, parallel):
    """Bit-identical assignments, and per shard the same solver objective,
    status and bound in the same merge order."""
    assert sequential.assignment.x.tobytes() == parallel.assignment.x.tobytes()
    assert parallel.gained_affinity == sequential.gained_affinity
    assert [
        (r.result.objective, r.result.status, r.result.bound) for r in parallel.reports
    ] == [
        (r.result.objective, r.result.status, r.result.bound) for r in sequential.reports
    ]
    assert [r.selected_algorithm for r in parallel.reports] == [
        r.selected_algorithm for r in sequential.reports
    ]
    assert [r.subproblem.service_names for r in parallel.reports] == [
        r.subproblem.service_names for r in sequential.reports
    ]


def test_two_workers_match_sequential(small_cluster, seq, two_cpus):
    parallel, metrics = _run(small_cluster.problem, _config())
    assert len(parallel.partition.subproblems) > 1  # parallel path exercised
    _assert_identical(seq, parallel)
    assert "rasa.parallel.task_failures" not in metrics.snapshot()["counters"]


@pytest.mark.slow
def test_four_workers_match_sequential(small_cluster, seq, monkeypatch):
    monkeypatch.setattr(CPU_HELPER, lambda: 4)
    parallel, _ = _run(small_cluster.problem, _config())
    _assert_identical(seq, parallel)


def test_threaded_solves_are_bit_identical_over_repeats(monkeypatch):
    """Nine shards, MIP and CG among them, solved five times on four
    threads: every run matches the one-at-a-time solve to the byte."""
    problem = generate_cluster(ClusterSpec(
        name="test-shards", num_services=160, num_containers=480,
        num_machines=16, seed=3,
    )).problem
    config = RASAConfig(max_subproblem_services=6)
    reference, _ = _one_at_a_time(problem, config)
    assert len(reference.partition.subproblems) >= 8
    assert {r.selected_algorithm for r in reference.reports} == {"mip", "cg"}
    monkeypatch.setattr(CPU_HELPER, lambda: 4)
    for _ in range(5):
        threaded, _ = _run(problem, config)
        _assert_identical(reference, threaded)


def test_merge_order_is_affinity_descending(small_cluster, seq, two_cpus):
    parallel, _ = _run(small_cluster.problem, _config())
    for result in (seq, parallel):
        affinities = [r.subproblem.total_affinity for r in result.reports]
        assert affinities == sorted(affinities, reverse=True)


# ----------------------------------------------------------------------
# Resilience: error fallback
# ----------------------------------------------------------------------
def test_one_bad_shard_keeps_other_workers_results(
    small_cluster, seq, two_cpus, caplog, monkeypatch
):
    """Only the poisoned shard retries; the rest come from the pool."""
    # A configured CLI log level turns propagation off at the package
    # root; caplog needs it back on.
    monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
    target = seq.reports[1].subproblem.service_names[0]
    selector = WorkerPoisonedSelector(target_service=target)
    with caplog.at_level(logging.WARNING, logger="repro.core.rasa"):
        result, metrics = _run(small_cluster.problem, _config(), selector=selector)
    _assert_identical(seq, result)
    counters = metrics.snapshot()["counters"]
    assert counters["rasa.parallel.retries"] == 1
    assert counters["rasa.parallel.task_failures"] == 1
    [warning] = [r for r in caplog.records if r.levelno >= logging.WARNING]
    assert "RuntimeError: poisoned shard" in warning.getMessage()


# ----------------------------------------------------------------------
# One mode per kind of solve; budget redistribution (unspent time flows
# to still-queued shards)
# ----------------------------------------------------------------------
def test_only_an_unbudgeted_solve_pools_and_it_passes_no_clock(
    small_cluster, two_cpus, monkeypatch
):
    """Without a time limit every shard is solved on the pool with no
    budget; with one, the shards are solved one at a time on the caller's
    thread, each on a finite share."""
    factory = RecordingFactory()
    monkeypatch.setattr(MAKE_ALGORITHM, factory)
    for time_limit in (None, 8.0):
        factory.budgets.clear()
        with use_metrics(MetricsRegistry()), use_tracer(Tracer()) as tracer:
            RASAScheduler(config=_config()).schedule(
                small_cluster.problem, time_limit=time_limit
            )
        [root] = tracer.finished_roots()
        pooled = [child for child in root.children if child.name == "rasa.dispatch"]
        assert len(factory.budgets) == 3
        if time_limit is None:
            assert len(pooled) == 1
            assert factory.budgets == [None] * 3
        else:
            assert pooled == []
            assert all(0.0 < budget <= time_limit for budget in factory.budgets)


def test_sequential_budgets_redistribute_unspent_time(small_cluster, monkeypatch):
    factory = RecordingFactory()
    monkeypatch.setattr(MAKE_ALGORITHM, factory)
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


# ----------------------------------------------------------------------
# Observability completeness under parallelism
# ----------------------------------------------------------------------
def test_worker_spans_and_metrics_fold_into_parent(small_cluster, two_cpus):
    """An unbudgeted solve pools its shards; the threads' spans nest under
    ``rasa.dispatch`` and their samples land in the process registry."""
    with use_metrics(MetricsRegistry()) as metrics, use_tracer(Tracer()) as tracer:
        result = RASAScheduler(config=_config()).schedule(small_cluster.problem)
    shards = len(result.partition.subproblems)
    [root] = tracer.finished_roots()
    assert root.name == "rasa.schedule"
    names = [child.name for child in root.children]
    assert names.count("rasa.merge") == shards
    [dispatch] = [child for child in root.children if child.name == "rasa.dispatch"]
    assert dispatch.tags["workers"] == 2
    inner = [child.name for child in dispatch.children]
    assert sorted(inner) == ["rasa.select"] * shards + ["rasa.solve"] * shards
    assert {child.thread_id for child in dispatch.children} != {dispatch.thread_id}
    for child in dispatch.children:
        assert dispatch.start <= child.start <= (child.end or child.start) <= dispatch.end
    histograms = metrics.snapshot()["histograms"]
    assert histograms["rasa.phase.select.seconds"]["count"] == shards
    assert histograms["rasa.phase.solve.seconds"]["count"] == shards
    assert histograms["rasa.phase.merge.seconds"]["count"] == shards


def test_pool_thread_spans_keep_the_request_trace_id(small_cluster, two_cpus):
    """A cycle triggered by a traced request keeps its trace id on the
    spans its pool threads open."""
    context = TraceContext(trace_id="cafe0001".zfill(32), span_id="1" * 16)
    with use_metrics(MetricsRegistry()), use_tracer(Tracer()) as tracer:
        with use_context(context):
            RASAScheduler(config=_config()).schedule(small_cluster.problem)
    [root] = tracer.finished_roots()
    [dispatch] = [child for child in root.children if child.name == "rasa.dispatch"]
    assert dispatch.children
    for span in dispatch.children:
        assert span.name in ("rasa.select", "rasa.solve")
        assert span.tags["trace_id"] == context.trace_id


# ----------------------------------------------------------------------
# The per-shard step, and the name the scheduler calls it by
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def shards(small_cluster):
    scheduler = RASAScheduler(config=_config())
    return scheduler.partitioner.partition(small_cluster.problem).subproblems


def test_select_and_solve_roundtrip(shards):
    """The per-shard step solves against the shard itself and records
    into the process tracer and registry."""
    subproblem = shards[0]
    with use_metrics(MetricsRegistry()) as metrics, use_tracer(Tracer()) as tracer:
        label, result = select_and_solve(subproblem, HeuristicSelector())
    assert [span.name for span in tracer.finished_roots()] == [
        "rasa.select", "rasa.solve"
    ]
    assert metrics.snapshot()["counters"]["rasa.subproblems.solved"] == 1
    assert result.assignment.problem is subproblem.problem
    assert label in ("mip", "cg")


def test_select_and_solve_carries_the_mip_bound(shards):
    """A MIP shard solve returns its dual bound with the result."""
    _, result = select_and_solve(shards[0], FixedSelector("mip"))
    assert result.bound >= result.objective


@pytest.mark.parametrize(
    "cpus,time_limit", [(2, None), (1, None), (2, 8.0)],
    ids=["pooled", "one-cpu", "budgeted"],
)
def test_every_shard_goes_through_the_schedulers_binding(
    small_cluster, monkeypatch, cpus, time_limit
):
    """Rebinding ``repro.core.rasa.select_and_solve`` (as the benchmark's
    span wrappers do) sees every shard, pooled or not."""
    calls = []

    def counting(subproblem, selector, budget=None):
        calls.append(subproblem.service_names)
        return select_and_solve(subproblem, selector, budget)

    monkeypatch.setattr(CPU_HELPER, lambda: cpus)
    monkeypatch.setattr("repro.core.rasa.select_and_solve", counting)
    monkeypatch.setattr(MAKE_ALGORITHM, RecordingFactory())
    result, _ = _run(small_cluster.problem, _config(), time_limit=time_limit)
    assert len(calls) == len(result.partition.subproblems) == 3
    assert sorted(calls) == sorted(r.subproblem.service_names for r in result.reports)


@pytest.mark.parametrize("time_limit", [-1, 0, float("nan"), float("inf")])
def test_schedule_refuses_a_time_limit_no_clock_can_spend(small_cluster, time_limit):
    """A budget at or below 0 once solved no shard; nan and inf took the
    budgeted path.  Each is refused, naming the field."""
    with pytest.raises(ProblemValidationError, match="time_limit"):
        RASAScheduler(config=_config()).schedule(
            small_cluster.problem, time_limit=time_limit
        )
