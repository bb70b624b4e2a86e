#!/usr/bin/env python3
"""The repository benchmark: four fixed-work workloads, measured from outside.

    python benchmarks/perf/run.py                      # every workload, untraced
    python benchmarks/perf/run.py --traced --out r.json
    python benchmarks/perf/run.py --workload replay_week --seed 3 --seconds 20 --trace 0
    python benchmarks/perf/run.py --selfcheck

With ``--workload`` one workload runs in this process and the last line of
stdout is one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1`` (an untraced pass followed by a pass under the timing
wrappers of ``tracing.py``; the spans are written next to ``--out`` or into
``.bench_work/``).  Without ``--workload`` every workload runs in a child
process of its own, so one workload's peak memory does not leak into the
next one's ``peak_rss_mb``.  A failed output check exits non-zero.

README.md in this directory is the metric catalog.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from catalog import END_TO_END, PER_LAYER, WRITE_ENDPOINTS
from catalog import WORKLOADS as WORKLOAD_NOTES
from harness import (
    ROOT,
    SRC,
    WORK_DIR,
    BenchError,
    peak_rss_mb,
    percentile,
    stdout_to_stderr,
)
from tracing import POOL_JOB_SPAN, TARGETS, Recorder, installed, resolve

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def measure(name: str, seed: int, seconds: float, trace: bool,
            spans_path: Path | None = None, delays: dict | None = None):
    """Run one workload; returns ``(metrics, attempted, failed, checks)``."""
    # Imports ``repro``, which ``main`` puts on the path first.
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    WORK_DIR.mkdir(exist_ok=True)
    workdir = str(WORK_DIR)
    checks: list[tuple[str, bool, str]] = []
    setups: list[float] = []
    repeats = 1 if trace else workload.setup_repeats
    with stdout_to_stderr():
        for i in range(repeats):
            started = time.perf_counter()
            inputs = workload.setup(seed, workdir)
            setups.append(time.perf_counter() - started)
            if i < repeats - 1:
                workload.teardown(inputs)
        try:
            plain = workload.run(inputs, seconds, workdir, ladder=trace)
        finally:
            checks += workload.teardown(inputs)
        checks += plain.checks
        if not trace:
            metrics = end_to_end_metrics(workload, plain, setups)
            return metrics, plain.attempted, plain.failed, checks

        recorder = Recorder()
        recorder.delays = dict(delays or {})
        recorder.run = "setup"
        with installed(recorder):
            inputs = workload.setup(seed, workdir, in_process=True)
            try:
                traced = workload.run(
                    inputs, seconds, workdir, recorder=recorder
                )
            finally:
                workload.teardown(inputs)
        checks += [(f"traced.{n}", ok, d) for n, ok, d in traced.checks]
        if "reports_sha" in plain.extra:
            checks.append((
                "traced.same_reports",
                plain.extra["reports_sha"] == traced.extra["reports_sha"],
                "report sequence of the traced pass vs the untraced pass",
            ))
        if spans_path is not None:
            recorder.dump(spans_path)
    metrics = layer_metrics(recorder, plain, traced)
    return (metrics, plain.attempted + traced.attempted,
            plain.failed + traced.failed, checks)


def end_to_end_metrics(workload, outcome, setups) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "work_s": outcome.work_s,
        "op_p50_ms": percentile(outcome.op_ms, 0.5),
        "op_tail_ms": percentile(outcome.op_ms, workload.tail_quantile),
        "gained_affinity": outcome.gained_affinity,
        "peak_rss_mb": peak_rss_mb(),
    }


def layer_metrics(recorder, plain, traced) -> dict[str, float]:
    """Every per-layer metric; a layer the workload never enters reads 0."""
    values = dict.fromkeys((metric for metric, _, _ in PER_LAYER), 0.0)
    totals = recorder.totals()
    nothing = (0, 0.0, 0.0)
    for metric in values:
        span, _, kind = metric.rpartition("_")
        if kind == "calls":
            values[metric] = totals.get(span, nothing)[0]
        elif kind == "s":
            values[metric] = totals.get(span, nothing)[1]
    for layer, span in (
        ("solvers.mip", "solvers.mip.solve"),
        ("solvers.column_generation", "solvers.column_generation.solve"),
        ("core.rasa", "core.rasa.schedule"),
        ("cluster.cronjob", "cluster.cronjob.run_once"),
    ):
        values[f"{layer}.self_s"] = totals.get(span, nothing)[2]

    mip = recorder.named("solvers.mip.solve")
    wins = sum(s.attrs["status"].endswith("+greedy") for s in mip if s.attrs)
    values["solvers.mip.greedy_wins"] = wins
    values["solvers.mip.useful_ratio"] = 1.0 - wins / len(mip) if mip else 0.0
    partitions = recorder.named("partitioning.partition")
    if partitions:
        values["partitioning.subproblems"] = sum(
            s.attrs["subproblems"] for s in partitions)
        values["partitioning.affinity_retained"] = statistics.fmean(
            s.attrs["affinity_retained"] for s in partitions)
    for label in ("mip", "cg"):
        values[f"selection.picked_{label}"] = sum(
            s.attrs["label"] == label
            for s in recorder.named("selection.select") if s.attrs)
    values["cluster.replay.events_applied"] = traced.extra.get("events_applied", 0)

    cycles = [s for s in recorder.named("cluster.cronjob.run_once") if s.attrs]
    values["cluster.cronjob.cycles"] = len(cycles)
    for action in ("executed", "dry_run"):
        walls = [s.seconds for s in cycles if s.attrs["action"] == action]
        values[f"cluster.cronjob.{action}_cycles"] = len(walls)
        if walls:
            values[f"cluster.cronjob.{action}_cycle_p50_s"] = statistics.median(walls)
    solves = recorder.named("core.rasa.schedule")
    in_cycles = [(s, s.ancestor("cluster.cronjob.run_once")) for s in solves]
    busy = sum(s.seconds for s, cycle in in_cycles if cycle is not None)
    if busy:
        values["cluster.cronjob.dry_run_solver_share"] = sum(
            s.seconds for s, cycle in in_cycles
            if cycle is not None and cycle.attrs
            and cycle.attrs["action"] == "dry_run"
        ) / busy

    plans = [s for s in recorder.named("migration.path.build") if s.attrs]
    values["migration.path.commands"] = sum(s.attrs["commands"] for s in plans)
    values["migration.path.steps"] = sum(s.attrs["steps"] for s in plans)

    appends = [s for s in recorder.named("durability.append_cycle") if s.attrs]
    if appends:
        # The WAL restarts at every compaction: a record's size is the growth
        # since the previous append, or the whole file right after a reset.
        sizes, previous = [], 0
        for span in appends:
            size = span.attrs["wal_size"]
            sizes.append(size - previous if size > previous else size)
            previous = size
        values["durability.wal_bytes_per_cycle"] = statistics.fmean(sizes)
    values["durability.snapshot_bytes"] = traced.extra.get("snapshot_bytes", 0)

    # Client-side numbers come from the untraced pass (server in a process
    # of its own); server-side ones from the traced, in-process pass.
    endpoints = plain.extra.get("endpoints", {})
    for endpoint, samples in endpoints.items():
        values[f"service.client.{endpoint}.count"] = len(samples)
        if samples:
            values[f"service.client.{endpoint}.p50_ms"] = percentile(samples, 0.5)
            values[f"service.client.{endpoint}.p99_ms"] = percentile(samples, 0.99)
    if endpoints:
        writes = [ms for e in WRITE_ENDPOINTS for ms in endpoints[e]]
        values["bench.req_per_s"] = plain.extra["req_per_s"]
        values["bench.read_p50_ms"] = percentile(plain.op_ms, 0.5)
        values["bench.read_p99_ms"] = percentile(plain.op_ms, 0.99)
        values["bench.write_p50_ms"] = percentile(writes, 0.5)
        values["bench.write_p99_ms"] = percentile(writes, 0.99)
        values["service.app.jobs_done"] = traced.extra["jobs_done"]
        values["service.app.jobs_failed"] = traced.extra["jobs_failed"]
        window = [
            s for s in recorder.named("service.tenant.run_cycles")
            if s.run != "setup"
        ]
        values["service.app.cycle_duty"] = (
            sum(s.seconds for s in window) / traced.extra["window_s"]
        )
    waits = [
        (s.start - s.attrs["submitted"]) * 1000.0
        for s in recorder.named(POOL_JOB_SPAN) if s.attrs
    ]
    if waits:
        values["service.pool.queue_wait_p50_ms"] = percentile(waits, 0.5)
        values["service.pool.queue_wait_p99_ms"] = percentile(waits, 0.99)

    cycle_ms = plain.extra.get("cycle_ms")
    if cycle_ms:
        values["bench.cycle_p50_ms"] = percentile(cycle_ms, 0.5)
        values["bench.cycle_p90_ms"] = percentile(cycle_ms, 0.9)
    values["bench.gained_at_1s"] = plain.extra.get("gained_at_1s", 0.0)
    values["bench.gained_at_4s"] = plain.extra.get("gained_at_4s", 0.0)
    if not endpoints:
        # Share of the traced wall that spans account for; the load
        # generator of service_mixed is not a layer, so it has none.
        measured = sum(
            s.seconds for s in recorder.spans
            if s.parent is None and s.run != "setup"
            and not s.run.endswith("#ladder")
            and s.thread == threading.get_ident()
        )
        values["bench.span_coverage"] = measured / traced.work_s
    values["bench.trace_overhead_ratio"] = traced.work_s / plain.work_s - 1.0
    return values


def report(name: str, metrics: dict, checks) -> None:
    """Human-readable table: every metric by name, with its unit."""
    print(f"== {name}")
    for metric, value in metrics.items():
        print(f"  {metric:<46} {value:>14.6g} {UNITS[metric]}")
    for check, ok, detail in checks:
        if not ok:
            print(f"  CHECK FAILED {check}: {detail}")


def run_single(args) -> int:
    spans_path = None
    if args.trace:
        base = Path(args.out) if args.out else WORK_DIR / "run.json"
        base.parent.mkdir(parents=True, exist_ok=True)
        spans_path = base.with_name(
            f"{base.stem}.{args.workload}.seed{args.seed}.spans.json")
    metrics, attempted, failed, checks = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), spans_path)
    correct = all(ok for _, ok, _ in checks)
    report(args.workload, metrics, checks)
    print(json.dumps({
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            metric: {"value": value, "unit": UNITS[metric]}
            for metric, value in metrics.items()
        },
    }))
    return 0 if correct and not failed else 1


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def run_all(args) -> int:
    """Every requested workload in a child process each; optional ``--out``."""
    names = [name for name, _ in WORKLOAD_NOTES]
    runs, status = [], 0
    for repeat in range(args.repeat):
        for name in names:
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed + repeat),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]
            if args.out:
                command += ["--out", args.out]
            child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            lines = child.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if child.returncode != 0:
                status = 1
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(f"== {name}: no result (exit {child.returncode})")
                status = 1
                continue
            runs.append({"workload": name, "seed": args.seed + repeat,
                         "trace": args.trace, **result})
    if args.out:
        document = {"schema": "rasa-perf-v1", "seconds": args.seconds,
                    "environment": environment(), "runs": runs}
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n",
                                  encoding="utf-8")
    return status


def selfcheck() -> int:
    """Guard the harness itself; see README.md, "Self-check"."""
    problems: list[str] = []
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if [(m["name"], m["unit"], m["better"], m["bound"])
            for m in manifest["end_to_end"]] != list(END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from catalog.py")
    if [(m["name"], m["unit"], m["better"])
            for m in manifest["per_layer"]] != list(PER_LAYER):
        problems.append("BENCHMARK.json per_layer differs from catalog.py")
    if [w["name"] for w in manifest["workloads"]] != [n for n, _ in WORKLOAD_NOTES]:
        problems.append("BENCHMARK.json workloads differ from catalog.py")
    for target in TARGETS:
        try:
            resolve(target)
        except (ImportError, AttributeError, KeyError) as exc:
            problems.append(f"wrap target {target.qualname} is gone: {exc!r}")
    if problems:
        print("\n".join(problems))
        return 1

    # Every target is called on the workload its catalog row names.
    WORK_DIR.mkdir(exist_ok=True)
    for name, _ in WORKLOAD_NOTES:
        spans = WORK_DIR / f"selfcheck.{name}.spans.json"
        _, _, _, checks = measure(name, 0, 6.0, True, spans)
        called = {span["name"] for span in
                  json.loads(spans.read_text(encoding="utf-8"))["spans"]}
        for target in TARGETS:
            if target.workload == name and target.span not in called:
                problems.append(f"{target.qualname} never ran on {name}")
        problems += [f"{name}: check {c} failed ({d})"
                     for c, ok, d in checks if not ok]
        print(f"selfcheck: {name} traced, {len(called)} span names")

    # A 50 ms sleep injected into one wrapper shows in that layer's busy
    # time and in the workload's end-to-end time.
    span, delay = "service.tenant.summary", 0.05
    clean, *_ = measure("service_mixed", 0, 4.0, True)
    slow, *_ = measure("service_mixed", 0, 4.0, True, delays={span: delay})
    # Only the traced pass sleeps, so the overhead ratio (traced work_s over
    # the untraced work_s of the same invocation) carries the end-to-end cost.
    gain_s = slow["service.tenant.summary_s"] - clean["service.tenant.summary_s"]
    print(f"selfcheck: {delay * 1000:.0f} ms injected into {span}: busy "
          f"+{gain_s:.2f} s, overhead ratio "
          f"{clean['bench.trace_overhead_ratio']:.2f} -> "
          f"{slow['bench.trace_overhead_ratio']:.2f}")
    if gain_s < delay:
        problems.append(f"injected sleep missing from {span}_s: +{gain_s:.3f} s")
    if slow["bench.trace_overhead_ratio"] < clean["bench.trace_overhead_ratio"] + 0.5:
        problems.append(
            "injected sleep missing from work_s: overhead ratio "
            f"{clean['bench.trace_overhead_ratio']:.3f} -> "
            f"{slow['bench.trace_overhead_ratio']:.3f}")
    print("\n".join(problems) if problems else "selfcheck passed")
    return 1 if problems else 0


def main(argv=None) -> int:
    seconds = json.loads(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[n for n, _ in WORKLOAD_NOTES])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(seconds))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--out", metavar="FILE",
                        help="write every run's result as JSON (all workloads)")
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="run each workload N times, seeds SEED..SEED+N-1")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    if not SRC.is_dir():
        print(f"error: {SRC} is missing; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        if args.selfcheck:
            return selfcheck()
        return run_single(args) if args.workload else run_all(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
