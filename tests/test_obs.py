"""Tests for the observability layer (repro.obs) and its integrations."""

from __future__ import annotations

import contextvars
import json
import logging
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cli import main
from repro.core import RASAScheduler
from repro.core.config import RASAConfig
from repro.core.rasa import MIN_SUBPROBLEM_BUDGET
from repro.obs import (
    MetricsRegistry,
    NullTracer,
    Tracer,
    configure_logging,
    get_logger,
    get_tracer,
    kv,
    use_metrics,
    use_tracer,
)
from repro.obs.spans import NULL_SPAN
from repro.partitioning.base import Subproblem
from repro.solvers.base import Stopwatch


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def test_span_nesting_records_tree():
    tracer = Tracer()
    with tracer.span("outer", layer="core") as outer:
        with tracer.span("inner") as inner:
            inner.set_tag("status", "ok")
        tracer.event("marker", kind="gate")
        outer.set_tag("done", True)

    roots = tracer.finished_roots()
    assert len(roots) == 1
    root = roots[0]
    assert root.name == "outer"
    assert root.tags == {"layer": "core", "done": True}
    assert [c.name for c in root.children] == ["inner"]
    assert root.children[0].tags == {"status": "ok"}
    assert [name for _ts, name, _tags in root.events] == ["marker"]
    assert root.duration >= root.children[0].duration >= 0.0


def test_span_chrome_export_round_trip(tmp_path):
    tracer = Tracer()
    with tracer.span("parent", x=1):
        with tracer.span("child"):
            tracer.event("instant", y="z")
    path = tmp_path / "trace.json"
    tracer.export(path)

    doc = json.loads(path.read_text())
    events = doc["traceEvents"]
    by_name = {e["name"]: e for e in events}
    assert set(by_name) == {"parent", "child", "instant"}
    parent, child = by_name["parent"], by_name["child"]
    assert parent["ph"] == child["ph"] == "X"
    assert by_name["instant"]["ph"] == "i"
    # The child lies within the parent on the microsecond timeline.
    assert parent["ts"] <= child["ts"]
    assert child["ts"] + child["dur"] <= parent["ts"] + parent["dur"] + 1.0
    assert parent["args"] == {"x": 1}


def test_span_summary_tree_mentions_names_and_tags():
    tracer = Tracer()
    with tracer.span("a", k="v"):
        with tracer.span("b"):
            pass
    text = tracer.summary()
    assert "a" in text and "b" in text and "k=v" in text
    # The child line is indented under the parent.
    lines = text.splitlines()
    assert lines[1].startswith("  ")


def test_tracer_is_thread_safe():
    tracer = Tracer()

    def work(i: int) -> None:
        with tracer.span(f"thread-{i}"):
            with tracer.span("leaf"):
                pass

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    roots = tracer.finished_roots()
    assert len(roots) == 8
    assert all(len(r.children) == 1 for r in roots)


def test_span_in_a_copied_context_nests_under_the_submitting_span():
    """Pool threads running under ``copy_context()`` nest their spans and
    events under the span open where each task was submitted — with more
    threads than CPUs and a short switch interval, none is lost."""
    tracer = Tracer()
    tasks = 200
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            with tracer.span("rasa.dispatch") as dispatch:
                futures = []
                for i in range(tasks):
                    context = contextvars.copy_context()
                    futures.append(pool.submit(context.run, _open_leaf, tracer, i))
                for future in futures:
                    future.result(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    [root] = tracer.finished_roots()
    assert root is dispatch
    assert sorted(child.name for child in root.children) == sorted(
        f"task-{i}" for i in range(tasks)
    )
    for child in root.children:
        assert [leaf.name for leaf in child.children] == ["leaf"]
        assert [name for _, name, _ in child.events] == ["marker"]
        assert child.thread_id != root.thread_id


def test_span_in_a_fresh_thread_is_a_root():
    """Without a copied context a thread's spans start their own tree."""
    tracer = Tracer()
    with tracer.span("outer") as outer:
        thread = threading.Thread(target=_open_leaf, args=(tracer, 0))
        thread.start()
        thread.join()
    assert outer.children == []
    assert sorted(r.name for r in tracer.finished_roots()) == ["outer", "task-0"]


def _open_leaf(tracer, i):
    with tracer.span(f"task-{i}"):
        with tracer.span("leaf"):
            pass
        tracer.event("marker")


def test_null_tracer_interface():
    tracer = NullTracer()
    with tracer.span("anything", tag=1) as span:
        assert span is NULL_SPAN
        span.set_tag("ignored", True)
    tracer.event("whatever")
    assert tracer.finished_roots() == []
    assert not tracer.enabled


def test_use_tracer_restores_previous():
    before = get_tracer()
    with use_tracer(Tracer()) as active:
        assert get_tracer() is active
    assert get_tracer() is before


# ----------------------------------------------------------------------
# Span failure status
# ----------------------------------------------------------------------
def test_span_tags_error_on_raise():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("outer"):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
    root = tracer.finished_roots()[0]
    doomed = root.children[0]
    assert doomed.tags["error"] is True
    assert doomed.tags["error_type"] == "RuntimeError"
    # The exception bubbled through the parent, so it is tagged too...
    assert root.tags["error"] is True
    # ...but a sibling that never raised stays clean.
    with tracer.span("fine"):
        pass
    assert "error" not in tracer.finished_roots()[1].tags


def test_failed_spans_render_distinctly_in_summary():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.span("bad"):
            raise ValueError("nope")
    with tracer.span("good"):
        pass
    lines = tracer.summary().splitlines()
    assert any("!FAILED" in line and "bad" in line for line in lines)
    assert not any("!FAILED" in line and "good" in line for line in lines)


def test_failed_spans_colored_in_chrome_export():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.span("bad"):
            raise ValueError("nope")
    with tracer.span("good"):
        pass
    by_name = {e["name"]: e for e in tracer.to_chrome()["traceEvents"]}
    assert by_name["bad"]["cname"] == "terrible"
    assert by_name["bad"]["args"]["error_type"] == "ValueError"
    assert "cname" not in by_name["good"]


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def test_counter_gauge_roundtrip():
    registry = MetricsRegistry()
    registry.counter("c").inc()
    registry.counter("c").inc(4)
    registry.gauge("g").set(2.5)
    snap = registry.snapshot()
    assert snap["counters"]["c"] == 5.0
    assert snap["gauges"]["g"] == 2.5


def test_histogram_percentiles():
    registry = MetricsRegistry()
    hist = registry.histogram("h")
    for v in range(1, 101):
        hist.observe(float(v))
    summary = registry.snapshot()["histograms"]["h"]
    assert summary["count"] == 100
    assert summary["min"] == 1.0
    assert summary["max"] == 100.0
    assert abs(summary["p50"] - 50.0) <= 1.0
    assert abs(summary["p95"] - 95.0) <= 1.0
    assert summary["sum"] == pytest.approx(5050.0)


def test_histogram_empty_summary_is_zeroes():
    registry = MetricsRegistry()
    registry.histogram("empty")
    summary = registry.snapshot()["histograms"]["empty"]
    assert summary == {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                       "p50": 0.0, "p95": 0.0, "p99": 0.0}


def test_counter_inc_is_thread_safe():
    registry = MetricsRegistry()
    counter = registry.counter("contended")

    def work() -> None:
        for _ in range(10_000):
            counter.inc()

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert counter.value == 80_000.0


def test_histogram_memory_is_bounded_with_exact_stats():
    from repro.obs.metrics import Histogram

    hist = Histogram(sample_cap=100)
    n = 10_000
    for v in range(1, n + 1):
        hist.observe(float(v))
    assert len(hist.values) == 100  # reservoir never exceeds the cap
    summary = hist.summarize()
    # count/sum/min/max stay exact past the cap...
    assert summary["count"] == n
    assert summary["sum"] == pytest.approx(n * (n + 1) / 2)
    assert summary["min"] == 1.0
    assert summary["max"] == float(n)
    # ...and sampled percentiles stay representative.
    assert abs(summary["p50"] - n / 2) < n * 0.25
    assert summary["p95"] > summary["p50"]


def test_histogram_reservoir_is_deterministic():
    from repro.obs.metrics import Histogram

    def fill() -> list[float]:
        hist = Histogram(sample_cap=50)
        for v in range(1000):
            hist.observe(float(v))
        return list(hist.values)

    assert fill() == fill()


def test_histogram_exact_below_cap():
    from repro.obs.metrics import Histogram

    hist = Histogram(sample_cap=100)
    for v in range(1, 51):
        hist.observe(float(v))
    assert sorted(hist.values) == [float(v) for v in range(1, 51)]
    assert hist.summarize()["p50"] == pytest.approx(25.0, abs=1.0)


def test_histogram_rejects_non_positive_cap():
    from repro.obs.metrics import Histogram

    with pytest.raises(ValueError, match="sample_cap"):
        Histogram(sample_cap=0)


def test_registry_reset_and_export(tmp_path):
    registry = MetricsRegistry()
    registry.counter("x").inc()
    path = tmp_path / "metrics.json"
    registry.export(path)
    assert json.loads(path.read_text())["counters"]["x"] == 1.0
    registry.reset()
    assert registry.snapshot()["counters"] == {}


# ----------------------------------------------------------------------
# Logging
# ----------------------------------------------------------------------
def test_get_logger_namespacing():
    assert get_logger("cluster.cronjob").name == "repro.cluster.cronjob"
    assert get_logger("repro.cli").name == "repro.cli"
    assert get_logger().name == "repro"


def test_configure_logging_is_idempotent():
    root = configure_logging("DEBUG")
    configure_logging("INFO")
    marked = [h for h in root.handlers
              if getattr(h, "_repro_obs_handler", False)]
    assert len(marked) == 1
    assert root.level == logging.INFO
    root.removeHandler(marked[0])


def test_kv_renders_pairs_in_order():
    assert kv(a=1, b="x") == "a=1 b=x"


# ----------------------------------------------------------------------
# Pipeline integration
# ----------------------------------------------------------------------
def test_noop_and_enabled_tracer_produce_identical_results(small_cluster):
    problem = small_cluster.problem
    with use_metrics(MetricsRegistry()):
        baseline = RASAScheduler().schedule(problem, time_limit=None)
    with use_metrics(MetricsRegistry()), use_tracer(Tracer()) as tracer:
        traced = RASAScheduler().schedule(problem, time_limit=None)
    assert traced.gained_affinity == pytest.approx(baseline.gained_affinity)
    assert (traced.assignment.x == baseline.assignment.x).all()
    names = {span.name for span in tracer.finished_roots()}
    assert names == {"rasa.schedule"}


def test_schedule_records_phase_metrics(small_cluster):
    with use_metrics(MetricsRegistry()) as registry:
        result = RASAScheduler().schedule(small_cluster.problem, time_limit=6)
    assert not hasattr(result, "metrics")  # the registry is the one record
    snapshot = registry.snapshot()
    assert snapshot["counters"]["rasa.subproblems.solved"] >= 1
    histograms = snapshot["histograms"]
    for phase in ("partition", "select", "solve", "merge"):
        assert histograms[f"rasa.phase.{phase}.seconds"]["count"] >= 1


def test_schedule_spans_cover_all_phases(small_cluster):
    with use_metrics(MetricsRegistry()), use_tracer(Tracer()) as tracer:
        RASAScheduler().schedule(small_cluster.problem, time_limit=6)
    names = {e["name"] for e in tracer.to_chrome()["traceEvents"]}
    for required in ("rasa.schedule", "rasa.partition", "rasa.select",
                     "rasa.solve", "rasa.merge",
                     "partition.stage.master", "partition.stage.balanced"):
        assert required in names, required


def test_solve_spans_tagged_with_algorithm_and_status(small_cluster):
    with use_metrics(MetricsRegistry()), use_tracer(Tracer()) as tracer:
        RASAScheduler().schedule(small_cluster.problem, time_limit=6)
    root = tracer.finished_roots()[0]
    solves = [c for c in root.children if c.name == "rasa.solve"]
    assert solves
    for span in solves:
        assert span.tags["algorithm"] in ("cg", "mip")
        assert "status" in span.tags
        assert "objective" in span.tags
        assert span.tags["budget"] is None or span.tags["budget"] > 0


# ----------------------------------------------------------------------
# Budget renormalization (regression)
# ----------------------------------------------------------------------
def _fake_subproblems(weights):
    return [
        Subproblem(problem=None, service_names=[f"s{i}"], machine_names=[f"m{i}"],
                   total_affinity=w)
        for i, w in enumerate(weights)
    ]


def test_budgets_do_not_overcommit_with_many_shards():
    scheduler = RASAScheduler()
    # One dominant shard plus 19 tiny ones under a tight limit: the seed
    # implementation floored every tiny share at MIN_SUBPROBLEM_BUDGET
    # without renormalizing, overcommitting the overall limit.
    weights = [100.0] + [0.01] * 19
    budgets = scheduler._budgets(_fake_subproblems(weights), Stopwatch(12.0))
    floor = MIN_SUBPROBLEM_BUDGET
    assert len(budgets) == 20
    assert all(b >= floor - 1e-9 for b in budgets)
    assert sum(budgets) <= 12.0 + 1e-6
    # The dominant shard gets everything the floored shards left over
    # (modulo the microseconds elapsed since the stopwatch started).
    assert budgets[0] == pytest.approx(12.0 - 19 * floor, abs=1e-3)


def test_budgets_proportional_when_limit_is_loose():
    scheduler = RASAScheduler()
    budgets = scheduler._budgets(_fake_subproblems([3.0, 1.0]), Stopwatch(40.0))
    assert budgets[0] == pytest.approx(30.0, abs=1e-2)
    assert budgets[1] == pytest.approx(10.0, abs=1e-2)


def test_budgets_all_floor_when_limit_below_floors():
    scheduler = RASAScheduler()
    floor = MIN_SUBPROBLEM_BUDGET
    budgets = scheduler._budgets(_fake_subproblems([1.0] * 20), Stopwatch(1.0))
    assert budgets == [pytest.approx(floor)] * 20


def test_unbudgeted_schedule_never_splits_a_budget(small_cluster, monkeypatch):
    """Only a budgeted solve splits time, so ``_budgets`` has no
    unlimited case: an unbudgeted multi-shard schedule never calls it."""
    def refuse(*_args):
        raise AssertionError("an unbudgeted solve asked for a time budget")

    monkeypatch.setattr(RASAScheduler, "_budgets", refuse)
    scheduler = RASAScheduler(RASAConfig(max_subproblem_services=8))
    result = scheduler.schedule(small_cluster.problem, time_limit=None)
    assert len(result.reports) > 1


# ----------------------------------------------------------------------
# CLI smoke
# ----------------------------------------------------------------------
@pytest.fixture
def cli_trace(tmp_path):
    path = tmp_path / "trace.json"
    assert main(["generate", str(path), "--services", "20", "--containers", "90",
                 "--machines", "6", "--seed", "4", "--quiet"]) == 0
    return path


def test_cli_trace_out_writes_valid_chrome_trace(cli_trace, tmp_path):
    trace_out = tmp_path / "spans.json"
    metrics_out = tmp_path / "metrics.json"
    code = main(["optimize", str(cli_trace), "--time-limit", "5",
                 "--trace-out", str(trace_out),
                 "--metrics-out", str(metrics_out)])
    assert code == 0

    doc = json.loads(trace_out.read_text())
    events = doc["traceEvents"]
    assert isinstance(events, list) and events
    assert all({"name", "ph", "ts", "pid", "tid"} <= set(e) for e in events)
    names = {e["name"] for e in events}
    for phase in ("rasa.partition", "rasa.select", "rasa.solve", "rasa.merge"):
        assert phase in names, phase

    metrics = json.loads(metrics_out.read_text())
    counters = metrics["counters"]
    assert counters.get("solver.cg.columns", 0) + counters.get("solver.mip.nodes", 0) >= 0
    assert counters["rasa.subproblems.solved"] >= 1
    assert any(k.startswith("solver.") for k in counters)
    for phase in ("partition", "select", "solve", "merge"):
        assert f"rasa.phase.{phase}.seconds" in metrics["histograms"]


def test_cli_quiet_suppresses_stdout(cli_trace, capsys):
    code = main(["optimize", str(cli_trace), "--time-limit", "4", "--quiet"])
    assert code == 0
    assert capsys.readouterr().out == ""
