#!/usr/bin/env python
"""Closed-loop soak harness: 100+ control-loop cycles against a recorded
churn trace, with assertions that turn the replay into a pass/fail gate.

The harness replays the committed reference trace
(``benchmarks/traces/reference_week.jsonl.gz``) through the full CronJob
control plane — collect → solve → 3 % gate → migrate → rollback guard —
twice: once fault-free and once under a seeded chaos plan (skippable with
``--skip-faults``).  Each pass streams per-cycle JSONL reports through
the :class:`~repro.obs.server.TelemetryHub` and is checked against three
invariants, any of which failing exits nonzero (code 2):

* **SLA floor** — every cycle must keep every service's alive fraction at
  or above ``--sla-floor`` (the paper's 0.75 default).
* **Affinity recovery** — after every churn burst (a cycle that applied
  structural events: scaling, drains, reclaims, deploys, teardowns), the
  optimizer must pull normalized gained affinity back to at least
  ``--recovery-ratio`` of its pre-burst level within
  ``--recovery-cycles`` cycles.
* **Peak RSS** — the process (and its pool workers) must stay under
  ``--max-rss-mb`` for the whole soak.

A determinism self-check (``--determinism-cycles``, default 25; 0
disables) replays the head of the trace twice and requires bit-identical
report sequences — the same property tests/test_replay.py verifies
across worker counts.  Solver budgets are deliberately unlimited
(``time_limit=None``): finite budgets make solve progress wall-clock
dependent and break bit-determinism.

Usage::

    python benchmarks/run_soak.py                     # both passes, 100 cycles
    python benchmarks/run_soak.py --cycles 337        # the whole week
    python benchmarks/run_soak.py --skip-faults       # fault-free only
    python benchmarks/run_soak.py --fault-plan p.json # custom chaos plan
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # direct script invocation without install
    _src = Path(__file__).resolve().parent.parent / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from repro import api  # noqa: E402
from repro.faults import FaultPlan  # noqa: E402
from repro.workloads.trace_io import load_event_trace  # noqa: E402

DEFAULT_TRACE = Path(__file__).resolve().parent / "traces" / "reference_week.jsonl.gz"

#: The soak's built-in chaos plan: frequent-enough faults to exercise the
#: retry and degradation paths without drowning the optimizer.
DEFAULT_FAULT_PLAN = {
    "seed": 42,
    "command_failure_rate": 0.02,
    "command_timeout_rate": 0.02,
    "machine_failure_rate": 0.01,
    "machine_flap_cycles": 2,
    "stale_snapshot_rate": 0.05,
    "snapshot_drop_fraction": 0.05,
}

#: Event-description prefixes that count as a churn burst (structural
#: change) for the affinity-recovery assertion.  Traffic shifts and
#: machine additions only ever help or re-weight; they are background.
_CHURN_PREFIXES = ("scaled ", "drained ", "reclaimed ", "deployed ", "tore down ")


def _peak_rss_bytes() -> int:
    """Peak resident set size of this process and its pool workers."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    peak = 0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        rss = resource.getrusage(who).ru_maxrss
        # Linux reports kilobytes; macOS reports bytes.
        if sys.platform != "darwin":
            rss *= 1024
        peak = max(peak, rss)
    return int(peak)


def is_churn_cycle(report: dict) -> bool:
    """Whether the cycle applied structural (affinity-eroding) events."""
    return any(
        event.startswith(_CHURN_PREFIXES) for event in report.get("events", [])
    )


def check_sla(reports: list[dict]) -> list[str]:
    """SLA-floor violations, one message per offending cycle."""
    return [
        f"cycle {r['cycle']}: SLA floor violated "
        f"(min alive fraction {r['min_alive_fraction']:.3f})"
        for r in reports
        if not r["sla_ok"]
    ]


def check_recovery(
    reports: list[dict], *, ratio: float, window: int
) -> list[str]:
    """Affinity-recovery violations after each churn burst.

    For every cycle that applied structural events, gained affinity must
    return to at least ``ratio`` of its pre-burst level within ``window``
    cycles.  Bursts near the end of the run with no full window left are
    not judged (the soak would flag them on a longer run).
    """
    violations: list[str] = []
    for i, report in enumerate(reports):
        if not is_churn_cycle(report):
            continue
        pre = report["gained_before"]
        if pre <= 0:
            continue
        horizon = reports[i : i + window + 1]
        if len(horizon) < window + 1 and i + window >= len(reports):
            continue  # ran out of soak; nothing to judge
        best = max(r["gained_after"] for r in horizon)
        if best < ratio * pre:
            violations.append(
                f"cycle {report['cycle']}: no affinity recovery within "
                f"{window} cycles (pre-burst {pre:.4f}, best after "
                f"{best:.4f}, need {ratio:.0%})"
            )
    return violations


def run_pass(
    trace,
    *,
    label: str,
    cycles: int,
    faults,
    sla_floor: float,
    seed: int,
    jsonl_path: Path | None,
) -> list[dict]:
    """One closed-loop replay pass; returns the per-cycle report dicts."""
    start = time.monotonic()
    reports = api.replay_trace(
        trace,
        cycles=cycles,
        time_limit=None,
        faults=faults,
        sla_floor=sla_floor,
        seed=seed,
        cycle_stream=str(jsonl_path) if jsonl_path is not None else None,
    )
    wall = time.monotonic() - start
    dicts = [r.to_dict() for r in reports]
    executed = sum(1 for r in dicts if r["action"] == "executed")
    events = sum(len(r["events"]) for r in dicts)
    print(
        f"[{label}] {len(dicts)} cycles in {wall:.1f}s: "
        f"{executed} executed, {events} events applied, "
        f"final gained {dicts[-1]['gained_after']:.4f}",
        flush=True,
    )
    return dicts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="closed-loop soak: replay a churn trace with assertions"
    )
    parser.add_argument("--trace", type=Path, default=DEFAULT_TRACE,
                        help="v2 event trace to replay (default: the "
                             "committed reference week)")
    parser.add_argument("--cycles", type=int, default=100,
                        help="cycles per pass (default: 100)")
    parser.add_argument("--seed", type=int, default=0,
                        help="collector seed shared by all passes")
    parser.add_argument("--sla-floor", type=float, default=0.75,
                        help="alive-fraction floor (default: 0.75)")
    parser.add_argument("--recovery-ratio", type=float, default=0.85,
                        help="fraction of pre-burst gained affinity that "
                             "must return (default: 0.85)")
    parser.add_argument("--recovery-cycles", type=int, default=6,
                        help="cycles allowed for recovery after a churn "
                             "burst (default: 6)")
    parser.add_argument("--max-rss-mb", type=float, default=4096.0,
                        help="peak-RSS budget for the whole soak")
    parser.add_argument("--skip-faults", action="store_true",
                        help="run only the fault-free pass")
    parser.add_argument("--fault-plan", type=Path, default=None,
                        help="JSON FaultPlan overriding the built-in "
                             "chaos plan for the faulted pass")
    parser.add_argument("--determinism-cycles", type=int, default=25,
                        help="replay this many head cycles twice and "
                             "require bit-identical reports (0 disables)")
    parser.add_argument("--out-dir", type=Path, default=None,
                        help="directory for per-cycle SOAK_*.jsonl streams "
                             "(default: no files written)")
    args = parser.parse_args(argv)

    if args.cycles < 1:
        print("error: --cycles must be >= 1", file=sys.stderr)
        return 1
    try:
        trace = load_event_trace(args.trace)
    except Exception as exc:  # noqa: BLE001 - surface any load failure
        print(f"error: could not load trace {args.trace}: {exc}",
              file=sys.stderr)
        return 1
    print(
        f"trace {trace.name!r}: {len(trace.events)} events over "
        f"{trace.num_cycles()} cycles "
        f"({trace.base.num_services} services / "
        f"{trace.base.num_machines} machines)",
        flush=True,
    )

    if args.fault_plan is not None:
        try:
            fault_plan = FaultPlan.load(args.fault_plan)
        except Exception as exc:  # noqa: BLE001
            print(f"error: could not load fault plan: {exc}", file=sys.stderr)
            return 1
    else:
        fault_plan = FaultPlan.from_dict(DEFAULT_FAULT_PLAN)

    if args.out_dir is not None:
        args.out_dir.mkdir(parents=True, exist_ok=True)

    def stream_path(label: str) -> Path | None:
        if args.out_dir is None:
            return None
        return args.out_dir / f"SOAK_{label}.jsonl"

    passes: list[tuple[str, object]] = [("fault-free", None)]
    if not args.skip_faults:
        passes.append(("faulted", fault_plan))

    failures: list[str] = []
    for label, faults in passes:
        reports = run_pass(
            trace,
            label=label,
            cycles=args.cycles,
            faults=faults,
            sla_floor=args.sla_floor,
            seed=args.seed,
            jsonl_path=stream_path(label),
        )
        for message in check_sla(reports):
            failures.append(f"[{label}] {message}")
        for message in check_recovery(
            reports, ratio=args.recovery_ratio, window=args.recovery_cycles
        ):
            failures.append(f"[{label}] {message}")

    if args.determinism_cycles > 0:
        head = min(args.determinism_cycles, args.cycles)
        first = run_pass(
            trace, label="determinism-a", cycles=head, faults=None,
            sla_floor=args.sla_floor, seed=args.seed, jsonl_path=None,
        )
        second = run_pass(
            trace, label="determinism-b", cycles=head, faults=None,
            sla_floor=args.sla_floor, seed=args.seed, jsonl_path=None,
        )
        if first != second:
            failures.append(
                f"determinism: two replays of the first {head} cycles "
                f"with seed {args.seed} diverged"
            )

    peak_mb = _peak_rss_bytes() / 1e6
    print(f"peak RSS: {peak_mb:.0f}MB (budget {args.max_rss_mb:.0f}MB)",
          flush=True)
    if peak_mb > args.max_rss_mb:
        failures.append(
            f"peak RSS {peak_mb:.0f}MB exceeded budget "
            f"{args.max_rss_mb:.0f}MB"
        )

    if failures:
        print(f"\nSOAK FAILED: {len(failures)} violation(s)", file=sys.stderr)
        for message in failures:
            print(f"  {message}", file=sys.stderr)
        return 2
    print("soak passed: SLA floor held, affinity recovered after every "
          "burst, replay deterministic, RSS within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
