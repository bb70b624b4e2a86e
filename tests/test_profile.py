"""Tests for opt-in span profiling (repro.obs.profile) and its wiring."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.core import RASAConfig, RASAScheduler
from repro.obs import (
    MetricsRegistry,
    NullProfiler,
    SpanProfiler,
    Tracer,
    get_profiler,
    render_hotspots,
    set_profiler,
    use_metrics,
    use_profiler,
    use_tracer,
)
from repro.obs.profile import DEFAULT_TOP, HOTSPOTS_TAG, hotspot_table


def _busy(n: int = 20000) -> float:
    total = 0.0
    for i in range(n):
        total += i ** 0.5
    return total


# ----------------------------------------------------------------------
# SpanProfiler primitives
# ----------------------------------------------------------------------
def test_capture_attaches_hotspot_rows():
    tracer = Tracer()
    profiler = SpanProfiler(top=5)
    with tracer.span("profiled") as span:
        with profiler.capture(span):
            _busy()
    rows = tracer.finished_roots()[0].tags[HOTSPOTS_TAG]
    assert 0 < len(rows) <= 5
    for row in rows:
        assert set(row) == {"func", "calls", "tottime", "cumtime"}
        assert row["calls"] >= 1
        assert row["cumtime"] >= row["tottime"] >= 0.0
    # Sorted by cumulative time, descending.
    cums = [row["cumtime"] for row in rows]
    assert cums == sorted(cums, reverse=True)
    assert any("_busy" in row["func"] for row in rows)


def test_nested_capture_never_raises():
    """Some CPython versions reject a second active cProfile per thread;
    the inner capture must degrade to unprofiled execution instead of
    raising into the solve path (on versions that tolerate nesting, both
    spans simply get tables)."""
    tracer = Tracer()
    profiler = SpanProfiler()
    with tracer.span("outer") as outer:
        with profiler.capture(outer):
            with tracer.span("inner") as inner:
                with profiler.capture(inner):
                    _busy()
    root = tracer.finished_roots()[0]
    assert HOTSPOTS_TAG in root.tags


def test_null_profiler_is_inert():
    profiler = NullProfiler()
    assert not profiler.enabled

    class FailingSpan:
        def set_tag(self, key, value):  # pragma: no cover - must not run
            raise AssertionError("NullProfiler touched the span")

    with profiler.capture(FailingSpan()):
        pass


def test_profiler_global_install_and_restore():
    assert isinstance(get_profiler(), NullProfiler)
    profiler = SpanProfiler()
    with use_profiler(profiler) as active:
        assert get_profiler() is active is profiler
    assert isinstance(get_profiler(), NullProfiler)
    previous = set_profiler(profiler)
    assert set_profiler(previous) is profiler


def test_hotspot_table_respects_top():
    import cProfile

    profile = cProfile.Profile()
    profile.enable()
    _busy()
    profile.disable()
    assert len(hotspot_table(profile, top=1)) == 1


def test_render_hotspots_formats_tagged_spans():
    tracer = Tracer()
    with tracer.span("hot") as span:
        with SpanProfiler(top=3).capture(span):
            _busy()
        with tracer.span("cold"):
            pass
    text = render_hotspots(tracer.finished_roots())
    assert "hot" in text
    assert "cum" in text and "calls" in text
    assert "cold" not in text  # untagged spans are omitted
    assert render_hotspots([]) == ""


# ----------------------------------------------------------------------
# Pipeline wiring (config.profile)
# ----------------------------------------------------------------------
def _profiled_spans(root):
    found = []

    def walk(span):
        if HOTSPOTS_TAG in span.tags:
            found.append(span)
        for child in span.children:
            walk(child)

    walk(root)
    return found


def test_schedule_with_profile_tags_solver_and_partition_spans(small_cluster):
    config = RASAConfig(profile=True)
    with use_metrics(MetricsRegistry()), use_tracer(Tracer()) as tracer:
        RASAScheduler(config=config).schedule(small_cluster.problem,
                                              time_limit=6)
    root = tracer.finished_roots()[0]
    tagged = {span.name for span in _profiled_spans(root)}
    assert "rasa.partition" in tagged
    assert "rasa.solve" in tagged
    for span in _profiled_spans(root):
        assert len(span.tags[HOTSPOTS_TAG]) <= DEFAULT_TOP


@pytest.mark.slow
def test_profile_hotspots_fold_back_from_workers(small_cluster, monkeypatch):
    """A shard solved on a pool thread is profiled on that thread."""
    monkeypatch.setattr("repro.core.rasa.available_cpus", lambda: 2)
    config = RASAConfig(profile=True, max_subproblem_services=12)
    with use_metrics(MetricsRegistry()), use_tracer(Tracer()) as tracer:
        RASAScheduler(config=config).schedule(small_cluster.problem)
    root = tracer.finished_roots()[0]
    solves = [s for s in _profiled_spans(root) if s.name == "rasa.solve"]
    assert solves, "pool-thread solve spans must carry hotspot tables"
    assert all(s.thread_id != root.thread_id for s in solves)


def test_schedule_without_profile_leaves_spans_untagged(small_cluster):
    with use_metrics(MetricsRegistry()), use_tracer(Tracer()) as tracer:
        RASAScheduler().schedule(small_cluster.problem, time_limit=6)
    assert _profiled_spans(tracer.finished_roots()[0]) == []


def test_profile_off_and_on_produce_identical_assignments(small_cluster, monkeypatch):
    """Profiled threaded shards place exactly as unprofiled ones solved one
    at a time."""
    problem = small_cluster.problem
    monkeypatch.setattr("repro.core.rasa.available_cpus", lambda: 1)
    with use_metrics(MetricsRegistry()):
        baseline = RASAScheduler().schedule(problem, time_limit=None)
    monkeypatch.setattr("repro.core.rasa.available_cpus", lambda: 2)
    with use_metrics(MetricsRegistry()):
        profiled = RASAScheduler(config=RASAConfig(profile=True)).schedule(
            problem, time_limit=None)
    assert profiled.gained_affinity == pytest.approx(baseline.gained_affinity)
    assert (profiled.assignment.x == baseline.assignment.x).all()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_optimize_profile_prints_hotspots(tmp_path, capsys):
    path = tmp_path / "cluster.json"
    assert main(["generate", str(path), "--services", "20",
                 "--containers", "90", "--machines", "6", "--seed", "4",
                 "--quiet"]) == 0
    assert main(["optimize", str(path), "--time-limit", "4",
                 "--profile"]) == 0
    out = capsys.readouterr().out
    assert "rasa.solve" in out
    assert "cum" in out
