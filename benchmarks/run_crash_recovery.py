#!/usr/bin/env python
"""Crash-recovery gate: SIGKILL a checkpointed loop, resume, demand
bit-identical reports.

The durability acceptance bar (DESIGN §12), run end to end through the
real CLI in real processes:

1. Compute the uninterrupted reference: ``api.replay_trace`` over the
   first ``--cycles`` cycles of the reference trace.
2. Launch ``python -m repro.cli replay --checkpoint-dir ...`` as a child
   process and ``kill -9`` it once it has journaled a seeded-random
   number of cycles — the kill lands at an arbitrary point of the
   following cycle, exercising every crash window (mid-WAL-append,
   between append and compaction, mid-compaction).
3. Resume with the same CLI command and ``--report-out``; the resumed
   report sequence must be bit-identical to the reference.

Scenarios: fault-free, under a seeded chaos plan, and (unless
``--quick``) the chaos plan with the killed and the resumed child pinned
to one CPU, so their shards are solved one at a time while the in-process
reference solves them on a thread per CPU — resume must be bit-identical
across thread counts.  A separate case appends garbage to the WAL after
the kill — torn-tail truncation must recover it, never silently accept
it.  ``problem-churn`` does the same to ``rasa cron`` on a generated
cluster (partial schedulability mask) under machine flaps and stale
snapshots: its checkpoints carry the problem itself, as the snapshot's
``source`` and as each capture's ``last_problem``, with the churn-tagged
machines masked out.

Any mismatch exits 2 (the CI crash-recovery lane keys off this).

Usage::

    python benchmarks/run_crash_recovery.py            # all scenarios
    python benchmarks/run_crash_recovery.py --quick    # skip the one-CPU pass
    python benchmarks/run_crash_recovery.py --seed 7   # move the kill point
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # direct script invocation without install
    _src = Path(__file__).resolve().parent.parent / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from repro import api  # noqa: E402
from repro.core.parallel import available_cpus  # noqa: E402
from repro.faults import FaultPlan  # noqa: E402
from repro.workloads import ClusterSpec, generate_cluster  # noqa: E402
from repro.workloads.trace_io import load_event_trace, save_trace  # noqa: E402

DEFAULT_TRACE = Path(__file__).resolve().parent / "traces" / "reference_week.jsonl.gz"

#: Same chaos plan family as the soak harness: enough fault pressure to
#: exercise retries, degradation, and churn tags across the kill point.
FAULT_PLAN = {
    "seed": 42,
    "command_failure_rate": 0.05,
    "command_timeout_rate": 0.02,
    "machine_failure_rate": 0.02,
    "machine_flap_cycles": 2,
    "stale_snapshot_rate": 0.1,
    "snapshot_drop_fraction": 0.05,
}

#: The problem-mode scenario's plan: machines flap often enough that most
#: cycles collect a problem with churn-tagged machines masked out.
PROBLEM_FAULT_PLAN = {
    "seed": 7,
    "command_failure_rate": 0.05,
    "machine_failure_rate": 0.15,
    "machine_flap_cycles": 2,
    "stale_snapshot_rate": 0.2,
}

#: ``rasa cron``'s default per-cycle budget, which the reference matches.
CRON_TIME_LIMIT = 10.0

#: A cluster whose compatibility pools leave its ``schedulable`` mask partial.
PROBLEM_SPEC = ClusterSpec(
    name="crash-recovery", num_services=30, num_containers=120,
    num_machines=8, seed=8, compat_pools=3, compat_fraction=0.2,
)


def _completed_cycles(checkpoint_dir: Path) -> int:
    """Cycles durably recoverable right now: snapshot base + full WAL lines.

    Read-only and tear-tolerant — the child may be mid-append, so only
    newline-terminated WAL lines count and snapshot parse errors (a read
    racing the atomic replace) count as zero.
    """
    base = 0
    snapshot_path = checkpoint_dir / "snapshot.json"
    try:
        base = int(json.loads(snapshot_path.read_text("utf-8"))["cycles_completed"])
    except (OSError, ValueError, KeyError, TypeError):
        base = 0
    lines = 0
    try:
        raw = (checkpoint_dir / "wal.jsonl").read_bytes()
        lines = raw.count(b"\n")
    except OSError:
        lines = 0
    return base + lines


def _cli_argv(command: str, source: Path, cycles: int, checkpoint_dir: Path,
              plan_path: Path | None,
              report_out: Path | None = None) -> list[str]:
    argv = [
        sys.executable, "-m", "repro.cli", command, str(source),
        "--cycles", str(cycles),
        "--checkpoint-dir", str(checkpoint_dir),
        "--checkpoint-every", "2",
        "--quiet",
    ]
    if plan_path is not None:
        argv += ["--fault-plan", str(plan_path)]
    if report_out is not None:
        argv += ["--report-out", str(report_out)]
    return argv


def _pin_to_one_cpu() -> None:
    """``preexec_fn`` of a child that must solve on one thread."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _kill_child_mid_run(argv: list[str], checkpoint_dir: Path,
                        kill_after: int, preexec_fn=None,
                        timeout: float = 600.0) -> bool:
    """Run the CLI child and SIGKILL it once ``kill_after`` cycles are
    journaled.  Returns False when the child finished first."""
    child = subprocess.Popen(argv, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL, preexec_fn=preexec_fn)
    try:
        deadline = time.time() + timeout
        while time.time() < deadline:
            if child.poll() is not None:
                return False  # ran to completion before the kill landed
            if _completed_cycles(checkpoint_dir) >= kill_after:
                child.send_signal(signal.SIGKILL)
                child.wait(timeout=60)
                return True
            time.sleep(0.01)
        raise RuntimeError(f"child made no progress within {timeout}s")
    finally:
        if child.poll() is None:
            child.kill()
            child.wait(timeout=60)


def run_scenario(name: str, *, command: str, source: Path, reference: list,
                 cycles: int, plan_path: Path | None, work_dir: Path,
                 kill_after: int, corrupt_tail: bool = False,
                 one_cpu: bool = False) -> bool:
    """One kill -9 + resume round trip of ``rasa <command> <source>``;
    True when the resumed reports equal ``reference``."""
    print(f"--- scenario {name}: kill -9 after cycle {kill_after}"
          f"{', then corrupt WAL tail' if corrupt_tail else ''}")
    ref_payload = [r.to_dict() for r in reference]

    checkpoint_dir = work_dir / f"ck-{name}"
    preexec_fn = _pin_to_one_cpu if one_cpu else None
    killed = _kill_child_mid_run(
        _cli_argv(command, source, cycles, checkpoint_dir, plan_path),
        checkpoint_dir, kill_after, preexec_fn=preexec_fn,
    )
    if not killed:
        print("    note: child finished before the kill; resume is a no-op")
    if corrupt_tail:
        with open(checkpoint_dir / "wal.jsonl", "ab") as handle:
            handle.write(b'{"crc32": 0, "payl')  # torn mid-append garbage

    report_out = work_dir / f"reports-{name}.json"
    code = subprocess.call(
        _cli_argv(command, source, cycles, checkpoint_dir, plan_path,
                  report_out=report_out),
        preexec_fn=preexec_fn,
    )
    if code != 0:
        print(f"FAIL {name}: resume exited {code}")
        return False
    resumed = json.loads(report_out.read_text("utf-8"))
    if resumed != ref_payload:
        diverged = next(
            (i for i, (a, b) in enumerate(zip(resumed, ref_payload)) if a != b),
            min(len(resumed), len(ref_payload)),
        )
        print(f"FAIL {name}: resumed run diverges from the uninterrupted "
              f"reference at cycle {diverged} "
              f"({len(resumed)} vs {len(ref_payload)} reports)")
        return False
    print(f"    ok: {len(resumed)} reports bit-identical (killed={killed})")
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="SIGKILL a checkpointed replay and assert bit-identical resume"
    )
    parser.add_argument("--trace", type=Path, default=DEFAULT_TRACE,
                        help="event trace to replay (default: reference week)")
    parser.add_argument("--cycles", type=int, default=8,
                        help="total cycles per scenario (default: 8)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the random kill points (default: 0)")
    parser.add_argument("--quick", action="store_true",
                        help="skip the one-CPU scenario")
    parser.add_argument("--work-dir", type=Path, default=None,
                        help="checkpoint/report scratch dir (default: a tmp dir)")
    args = parser.parse_args(argv)

    if not args.trace.exists():
        print(f"error: trace {args.trace} not found", file=sys.stderr)
        return 2
    trace = load_event_trace(args.trace)

    if args.work_dir is not None:
        args.work_dir.mkdir(parents=True, exist_ok=True)
        work_dir = args.work_dir
    else:
        import tempfile

        work_dir = Path(tempfile.mkdtemp(prefix="crash-recovery-"))
    plan_path = work_dir / "fault-plan.json"
    FaultPlan.from_dict(FAULT_PLAN).save(plan_path)
    problem_plan_path = work_dir / "problem-fault-plan.json"
    FaultPlan.from_dict(PROBLEM_FAULT_PLAN).save(problem_plan_path)
    cluster_path = work_dir / "cluster.json"
    problem = generate_cluster(PROBLEM_SPEC).problem
    save_trace(problem, cluster_path)

    os.environ.setdefault("PYTHONPATH", "")
    src = str(Path(__file__).resolve().parent.parent / "src")
    if src not in os.environ["PYTHONPATH"].split(os.pathsep):
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ["PYTHONPATH"]) if p
        )

    def replay_reference(plan):
        faults = FaultPlan.from_dict(FAULT_PLAN) if plan is not None else None
        return api.replay_trace(trace, cycles=args.cycles, faults=faults)

    def cron_reference(_plan):
        return api.run_control_loop(
            problem, cycles=args.cycles,
            faults=FaultPlan.from_dict(PROBLEM_FAULT_PLAN),
            time_limit=CRON_TIME_LIMIT,
        )

    replay = ("replay", args.trace, replay_reference)
    cron = ("cron", cluster_path, cron_reference)
    rng = random.Random(args.seed)
    scenarios = [
        ("baseline", replay, None, False, False),
        ("faulted", replay, plan_path, False, False),
        ("torn-tail", replay, plan_path, True, False),
    ]
    if not args.quick and available_cpus() > 1:
        scenarios.append(("faulted-1cpu", replay, plan_path, False, True))
    elif not args.quick:
        print("note: skipping faulted-1cpu: only one CPU is available, so "
              "the reference would run on one thread too")
    scenarios.append(("problem-churn", cron, problem_plan_path, False, False))

    started = time.time()
    ok = True
    for name, (command, source, reference), plan, corrupt, one_cpu in scenarios:
        kill_after = rng.randint(1, max(1, args.cycles - 2))
        ok &= run_scenario(
            name, command=command, source=source, reference=reference(plan),
            cycles=args.cycles, plan_path=plan, work_dir=work_dir,
            kill_after=kill_after, corrupt_tail=corrupt, one_cpu=one_cpu,
        )
    elapsed = time.time() - started
    print(f"crash-recovery: {len(scenarios)} scenarios in {elapsed:.1f}s "
          f"-> {'OK' if ok else 'FAILED'}")
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
