"""Durability contract tests: WAL recovery, checkpoints, resume, supervision.

The promises pinned down here (see DESIGN §12):

* a torn or garbage WAL tail is detected by CRC and recovered by
  truncation — never silently accepted; mid-log corruption refuses,
* kill -9 anywhere (simulated in-process and with a real SIGKILL'd
  child) followed by resume yields a CycleReport sequence bit-identical
  to an uninterrupted run (modulo the process-local ``metrics`` field),
* graceful shutdown finishes the in-flight cycle and leaves a resumable
  final checkpoint,
* the supervisor restarts crashed/hung children with bounded backoff and
  gives up when the budget is spent.
"""

from __future__ import annotations

import json
import os
import runpy
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import api
from repro.cluster.replay import synthesize_trace
from repro.durability.checkpoint import CheckpointStore
from repro.durability.loop import prepare_resume
from repro.durability.supervisor import (
    EXIT_INTERRUPTED,
    GracefulShutdown,
    Supervisor,
    SupervisorPolicy,
    strip_supervisor_args,
)
from repro.durability.wal import WriteAheadLog, _canonical, _crc
from repro.exceptions import (
    CheckpointDivergenceError,
    ClusterStateError,
    DurabilityError,
    WALCorruptionError,
)
from repro.faults import FaultPlan
from repro.obs import MetricsRegistry, use_metrics
from repro.workloads import ClusterSpec, generate_cluster

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def _stripped(reports) -> list[dict]:
    """Report dicts with the process-local ``metrics`` field removed —
    the repo's established bit-determinism comparison."""
    out = []
    for report in reports:
        d = report.to_dict()
        d.pop("metrics", None)
        out.append(d)
    return out


@pytest.fixture(scope="module")
def demo_trace():
    spec = ClusterSpec(
        name="durability", num_services=6, num_containers=20,
        num_machines=3, affinity_beta=2.0, seed=5,
    )
    return synthesize_trace(
        spec, name="durability", seed=5,
        duration_seconds=8 * 1800.0, burst_every=3,
    )


# ----------------------------------------------------------------------
# Write-ahead log
# ----------------------------------------------------------------------
def _make_wal(tmp_path) -> WriteAheadLog:
    return WriteAheadLog(tmp_path / "wal.jsonl", fsync=False)


def _valid_line(payload: dict) -> bytes:
    return _canonical({"crc32": _crc(payload), "payload": payload}).encode() + b"\n"


def test_wal_append_replay_roundtrip(tmp_path):
    wal = _make_wal(tmp_path)
    records = [{"cycle": i, "value": i * 2} for i in range(3)]
    for record in records:
        wal.append(record)
    wal.close()
    replay = wal.replay()
    assert replay.records == records
    assert replay.truncated_records == 0
    assert replay.truncated_bytes == 0


def test_wal_missing_file_is_empty(tmp_path):
    assert _make_wal(tmp_path).replay().records == []


def test_wal_reset_truncates(tmp_path):
    wal = _make_wal(tmp_path)
    wal.append({"cycle": 0})
    wal.reset()
    assert wal.path.stat().st_size == 0
    assert wal.replay().records == []


def test_wal_recovers_torn_tail_by_truncation(tmp_path):
    wal = _make_wal(tmp_path)
    records = [{"cycle": i} for i in range(3)]
    for record in records:
        wal.append(record)
    wal.close()
    raw = wal.path.read_bytes()
    wal.path.write_bytes(raw[:-7])  # tear the final record mid-line

    replay = wal.replay(repair=True)
    assert replay.records == records[:2]
    assert replay.truncated_records == 1
    assert replay.truncated_bytes > 0
    # The file was physically repaired: a second replay is clean.
    again = wal.replay()
    assert again.records == records[:2]
    assert again.truncated_records == 0


def test_wal_recovers_garbage_and_bad_crc_tail(tmp_path):
    wal = _make_wal(tmp_path)
    wal.append({"cycle": 0})
    wal.close()
    with open(wal.path, "ab") as handle:
        handle.write(b"not json at all\n")
        handle.write(
            _canonical({"crc32": 1, "payload": {"cycle": 1}}).encode() + b"\n"
        )
    replay = wal.replay(repair=True)
    assert replay.records == [{"cycle": 0}]
    assert replay.truncated_records == 2
    assert wal.replay().truncated_records == 0


def test_wal_repair_false_reports_without_touching_file(tmp_path):
    wal = _make_wal(tmp_path)
    wal.append({"cycle": 0})
    wal.close()
    with open(wal.path, "ab") as handle:
        handle.write(b"garbage\n")
    size = wal.path.stat().st_size
    replay = wal.replay(repair=False)
    assert replay.truncated_records == 1
    assert wal.path.stat().st_size == size
    # Still torn on the next replay because nothing was repaired.
    assert wal.replay(repair=False).truncated_records == 1


def test_wal_mid_log_corruption_refuses(tmp_path):
    wal = _make_wal(tmp_path)
    lines = (
        _valid_line({"cycle": 0})
        + b"corrupted middle line\n"
        + _valid_line({"cycle": 1})
    )
    wal.path.write_bytes(lines)
    with pytest.raises(WALCorruptionError, match="mid-log"):
        wal.replay(repair=True)
    # Refusal must not destroy evidence.
    assert wal.path.read_bytes() == lines


# ----------------------------------------------------------------------
# Checkpoint store
# ----------------------------------------------------------------------
def _snapshot_payload(cycles_completed: int) -> dict:
    return {
        "run": {"mode": "cron", "cycles": 5},
        "source": {"problem": {}},
        "cycles_completed": cycles_completed,
        "reports": [],
        "live": None,
    }


def test_store_compaction_truncates_wal_and_roundtrips(tmp_path):
    store = CheckpointStore(tmp_path, fsync=False)
    store.append_cycle({"cycle": 0, "report": {}})
    store.write_snapshot(_snapshot_payload(1))
    assert store.wal_path.stat().st_size == 0
    state = store.load()
    assert state.snapshot["cycles_completed"] == 1
    assert state.snapshot["format_version"] == 1
    assert state.snapshot["kind"] == "control_loop_checkpoint"
    assert state.wal_records == []
    assert state.cycles_completed == 1


def test_store_filters_stale_pre_compaction_records(tmp_path):
    # A crash between snapshot rename and WAL truncate leaves records the
    # snapshot already covers; load() must drop exactly those.
    store = CheckpointStore(tmp_path, fsync=False)
    store.write_snapshot(_snapshot_payload(3))
    for cycle in (2, 3, 4):
        store.append_cycle({"cycle": cycle})
    state = store.load()
    assert state.stale_records == 1
    assert [r["cycle"] for r in state.wal_records] == [3, 4]
    assert state.cycles_completed == 5


def test_store_detects_cycle_sequence_gap(tmp_path):
    store = CheckpointStore(tmp_path, fsync=False)
    store.write_snapshot(_snapshot_payload(3))
    store.append_cycle({"cycle": 5})
    with pytest.raises(WALCorruptionError, match="gap"):
        store.load()


def test_store_rejects_bad_snapshot(tmp_path):
    store = CheckpointStore(tmp_path, fsync=False)
    store.snapshot_path.write_text("{not json")
    with pytest.raises(DurabilityError, match="not valid JSON"):
        store.load()
    store.snapshot_path.write_text(
        json.dumps({"format_version": 99, "kind": "control_loop_checkpoint"})
    )
    with pytest.raises(DurabilityError, match="format version"):
        store.load()
    store.snapshot_path.write_text(
        json.dumps({"format_version": 1, "kind": "something-else"})
    )
    with pytest.raises(DurabilityError, match="kind"):
        store.load()


def test_store_heartbeat_age(tmp_path):
    store = CheckpointStore(tmp_path, fsync=False)
    assert store.heartbeat_age() is None
    store.append_cycle({"cycle": 0})
    age = store.heartbeat_age()
    assert age is not None and 0 <= age < 60


# ----------------------------------------------------------------------
# Event-stream cursor fast-forward
# ----------------------------------------------------------------------
def test_cursor_seek_matches_timed_advance(demo_trace):
    timed = demo_trace.cursor()
    timed.advance_to(3 * demo_trace.interval_seconds)
    assert timed.position > 0

    sought = demo_trace.cursor()
    applied = sought.seek(timed.position)
    assert applied == timed.position
    assert sought.position == timed.position
    assert sought.state.named_placement() == timed.state.named_placement()


def test_cursor_seek_rejects_rewind_and_overrun(demo_trace):
    cursor = demo_trace.cursor()
    cursor.seek(2)
    with pytest.raises(ClusterStateError, match="fresh cursor"):
        cursor.seek(1)
    with pytest.raises(ClusterStateError):
        demo_trace.cursor().seek(len(demo_trace.events) + 1)


# ----------------------------------------------------------------------
# Crash / resume bit-determinism (in-process)
# ----------------------------------------------------------------------
def test_durable_replay_matches_plain_run(demo_trace, tmp_path):
    ref = api.replay_trace(demo_trace, cycles=5)
    durable = api.replay_trace(
        demo_trace, cycles=5,
        checkpoint_dir=tmp_path / "ck", checkpoint_every=2,
    )
    assert _stripped(durable) == _stripped(ref)


def test_storeless_loop_is_controller_run(demo_trace, monkeypatch):
    """``DurableControlLoop(store=None)`` — the facade's and a tenant's
    runner without a checkpoint directory — journals nothing: no live
    capture, no checkpoint callback, the reports of ``controller.run``."""
    from repro.cluster.cronjob import build_controller
    from repro.core.config import LoopSpec
    from repro.durability import loop as durable_loop

    monkeypatch.setattr(
        durable_loop, "capture_live", lambda c: pytest.fail("captured")
    )
    spec = LoopSpec()
    ref = build_controller(spec, demo_trace.cursor()).run(4)
    loop = durable_loop.DurableControlLoop(
        controller=build_controller(spec, demo_trace.cursor()),
        store=None, spec=spec, total_cycles=4,
    )
    loop.on_checkpoint = lambda: pytest.fail("checkpointed")
    loop.checkpoint()
    assert _stripped(loop.run()) == _stripped(ref)
    assert loop.source_payload is None and not loop.interrupted


def test_resume_after_partial_run_is_bit_identical(demo_trace, tmp_path):
    ck = tmp_path / "ck"
    ref = api.replay_trace(demo_trace, cycles=6)
    partial = api.replay_trace(
        demo_trace, cycles=3, checkpoint_dir=ck, checkpoint_every=2
    )
    assert len(partial) == 3
    with use_metrics(MetricsRegistry()):  # a restarted process counts from 0
        resumed = api.resume_control_loop(ck, cycles=6)
    assert [r.cycle for r in resumed] == list(range(6))
    assert _stripped(resumed) == _stripped(ref)
    # The one loop owning the process continues its counters from the
    # last journaled report.
    solved = [r.metrics["counters"]["rasa.subproblems.solved"] for r in resumed]
    assert solved[3] > solved[2] == partial[-1].metrics["counters"][
        "rasa.subproblems.solved"
    ]


def test_resume_with_faults_and_jitter_is_bit_identical(demo_trace, tmp_path):
    ck = tmp_path / "ck"
    plan = FaultPlan(
        seed=5, command_failure_rate=0.08, machine_failure_rate=0.05,
        stale_snapshot_rate=0.3, snapshot_drop_fraction=0.1,
    )
    ref = api.replay_trace(
        demo_trace, cycles=6, faults=plan, traffic_jitter_sigma=0.05, seed=3
    )
    api.replay_trace(
        demo_trace, cycles=2, faults=plan, traffic_jitter_sigma=0.05,
        seed=3, checkpoint_dir=ck, checkpoint_every=1,
    )
    # The fault plan and jitter config ride in the checkpoint itself.
    resumed = api.resume_control_loop(ck, cycles=6)
    assert _stripped(resumed) == _stripped(ref)


def test_resume_cron_mode_is_bit_identical(tmp_path):
    ck = tmp_path / "ck"
    dataset = generate_cluster(ClusterSpec(
        name="durability-cron", num_services=10, num_containers=50,
        num_machines=5, affinity_beta=2.0, seed=1,
    ))
    plan = FaultPlan(seed=5, command_failure_rate=0.1, machine_failure_rate=0.05)
    ref = api.run_control_loop(
        dataset.problem, cycles=4, faults=plan, time_limit=None
    )
    api.run_control_loop(
        dataset.problem, cycles=2, faults=plan, time_limit=None,
        checkpoint_dir=ck, checkpoint_every=1,
    )
    resumed = api.resume_control_loop(ck, cycles=4)
    assert _stripped(resumed) == _stripped(ref)


PARENT_FIXTURES = Path(__file__).parent / "data" / "checkpoint_parent"


def test_resume_of_parent_commit_cron_checkpoint(tmp_path):
    """A ``rasa cron`` checkpoint written before LoopSpec (``fault_plan``,
    ``improvement_gate`` in its run payload; killed 3 cycles into 5 with a
    WAL tail) resumes into the uninterrupted run's report sequence."""
    from repro.core.config import DegradationPolicy
    from repro.workloads.trace_io import load_trace

    ck = tmp_path / "cron"
    shutil.copytree(PARENT_FIXTURES / "cron", ck)
    ref = api.run_control_loop(
        load_trace(PARENT_FIXTURES / "cluster.json"), cycles=5,
        faults=FaultPlan.load(PARENT_FIXTURES / "chaos.json"),
        degradation=DegradationPolicy.parse("retry:2,greedy"),
        sla_floor=0.5, time_limit=10.0,
    )
    resumed = api.resume_control_loop(ck)
    assert [r.cycle for r in resumed] == list(range(5))
    assert _stripped(resumed) == _stripped(ref)


def test_resume_of_parent_commit_tenant_checkpoint(tmp_path):
    """A durable tenant checkpointed before LoopSpec (its whole spec inside
    ``run``) resumes bit-identically, and its next snapshot is slim."""
    from repro.service.tenant import Tenant, TenantSpec

    namespace = runpy.run_path(str(PARENT_FIXTURES / "make_fixtures.py"))
    spec = TenantSpec.from_dict({
        **namespace["TENANT_SPEC"],
        "problem": json.loads((PARENT_FIXTURES / "cluster.json").read_text()),
    })
    ck = tmp_path / "tenant"
    shutil.copytree(PARENT_FIXTURES / "tenant", ck)
    ref = Tenant(spec)
    ref.run_cycles(5)
    resumed = Tenant.resume(ck)
    assert resumed.spec == spec
    assert resumed.cycles_completed == 3
    resumed.run_cycles(2)
    assert _stripped(resumed.controller.history) == _stripped(
        ref.controller.history
    )
    snapshot = json.loads((ck / "snapshot.json").read_text())
    assert "tenant_spec" not in snapshot["run"]
    assert snapshot["extra"]["tenant_spec"] == {
        "name": "fixture", "schedule_seconds": 3600.0,
        "slo": {"sla_ok_target": 0.9}, "event_log_size": 64,
    }


def test_resume_from_empty_history_checkpoint(demo_trace, tmp_path):
    # A checkpoint written before any cycle completed (snapshot only, no
    # WAL records) must still resume into the full run.
    ck = tmp_path / "ck"
    ref = api.replay_trace(demo_trace, cycles=3)
    partial = api.replay_trace(demo_trace, cycles=0, checkpoint_dir=ck)
    assert partial == []
    resumed = api.resume_control_loop(ck, cycles=3)
    assert _stripped(resumed) == _stripped(ref)


def test_resume_recovers_torn_wal_tail(demo_trace, tmp_path):
    ck = tmp_path / "ck"
    ref = api.replay_trace(demo_trace, cycles=5)
    api.replay_trace(
        demo_trace, cycles=3, checkpoint_dir=ck, checkpoint_every=100
    )
    with open(Path(ck) / "wal.jsonl", "ab") as handle:
        handle.write(b'{"crc32": 0, "payload"')  # torn mid-append
    loop = prepare_resume(ck, cycles=5)
    assert loop.truncated_records == 1
    resumed = loop.run()
    assert _stripped(resumed) == _stripped(ref)


def test_resume_without_checkpoint_raises(tmp_path):
    with pytest.raises(DurabilityError, match="nothing to resume"):
        api.resume_control_loop(tmp_path / "empty")


def test_divergent_checkpoint_raises_unless_cold_start(demo_trace, tmp_path):
    ck = tmp_path / "ck"
    ref = api.replay_trace(demo_trace, cycles=3)
    api.replay_trace(demo_trace, cycles=2, checkpoint_dir=ck)

    snapshot_path = Path(ck) / "snapshot.json"
    snapshot = json.loads(snapshot_path.read_text())
    placement = snapshot["live"]["placement"]
    placement["ghost-service"] = placement.pop(sorted(placement)[0])
    snapshot_path.write_text(json.dumps(snapshot))

    with pytest.raises(CheckpointDivergenceError, match="ghost-service"):
        api.resume_control_loop(ck, cycles=3)

    loop = prepare_resume(ck, cycles=3, allow_cold_start=True)
    assert loop.cold_start
    assert loop.resumed_cycles == 0
    assert _stripped(loop.run()) == _stripped(ref)


# ----------------------------------------------------------------------
# Crash / resume with a real SIGKILL'd child process
# ----------------------------------------------------------------------
_CHILD_SCRIPT = """
import sys
from repro import api
api.replay_trace(sys.argv[1], cycles=8, checkpoint_dir=sys.argv[2],
                 checkpoint_every=2)
"""


@pytest.mark.slow
def test_sigkill_and_resume_is_bit_identical(demo_trace, tmp_path):
    trace_path = tmp_path / "trace.jsonl.gz"
    demo_trace.save(trace_path)
    ck = tmp_path / "ck"

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    child = subprocess.Popen(
        [sys.executable, "-c", _CHILD_SCRIPT, str(trace_path), str(ck)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        wal_path = ck / "wal.jsonl"
        deadline = time.time() + 120
        # Kill -9 as soon as the first cycle record hits the journal.
        while time.time() < deadline and child.poll() is None:
            if wal_path.exists() and wal_path.stat().st_size > 0:
                break
            time.sleep(0.005)
        child.kill()
        child.wait(timeout=30)
    finally:
        if child.poll() is None:
            child.kill()

    ref = api.replay_trace(demo_trace, cycles=8)
    resumed = api.resume_control_loop(ck)
    assert [r.cycle for r in resumed] == list(range(8))
    assert _stripped(resumed) == _stripped(ref)


# ----------------------------------------------------------------------
# Graceful shutdown
# ----------------------------------------------------------------------
def test_graceful_shutdown_turns_sigterm_into_flag():
    with GracefulShutdown() as shutdown:
        assert not shutdown.requested
        os.kill(os.getpid(), signal.SIGTERM)
        for _ in range(200):
            if shutdown.requested:
                break
            time.sleep(0.01)
        assert shutdown.requested
        assert shutdown.signal_name == "SIGTERM"
    assert not shutdown.interrupted  # only the loop sets this


class _CountdownShutdown:
    """Shutdown stub whose request flips true after N cycle checks."""

    def __init__(self, after: int) -> None:
        self._after = after
        self._checks = 0
        self.interrupted = False
        self.signal_name = "SIGTERM"

    @property
    def requested(self) -> bool:
        self._checks += 1
        return self._checks > self._after


def test_shutdown_finishes_cycle_writes_checkpoint_and_resumes(
    demo_trace, tmp_path
):
    ck = tmp_path / "ck"
    ref = api.replay_trace(demo_trace, cycles=5)
    shutdown = _CountdownShutdown(after=2)
    partial = api.replay_trace(
        demo_trace, cycles=5, checkpoint_dir=ck,
        checkpoint_every=100, shutdown=shutdown,
    )
    assert len(partial) == 2  # stopped between cycles, not mid-cycle
    assert shutdown.interrupted
    # The final checkpoint makes the interrupted run resumable.
    resumed = api.resume_control_loop(ck, cycles=5)
    assert _stripped(resumed) == _stripped(ref)


def test_shutdown_before_target_without_checkpoint_sets_interrupted(demo_trace):
    shutdown = _CountdownShutdown(after=1)
    partial = api.replay_trace(demo_trace, cycles=4, shutdown=shutdown)
    assert len(partial) == 1
    assert shutdown.interrupted


# ----------------------------------------------------------------------
# Supervisor
# ----------------------------------------------------------------------
def _policy(**overrides) -> SupervisorPolicy:
    base = dict(
        max_restarts=5, backoff_base=0.01, backoff_factor=1.0,
        backoff_max=0.05, poll_interval=0.02,
    )
    base.update(overrides)
    return SupervisorPolicy(**base)


def test_supervisor_restarts_crashing_child_until_clean_exit(tmp_path):
    marker = tmp_path / "attempts"
    script = (
        "import pathlib, sys\n"
        "p = pathlib.Path(sys.argv[1])\n"
        "n = int(p.read_text()) if p.exists() else 0\n"
        "p.write_text(str(n + 1))\n"
        "sys.exit(7 if n < 2 else 0)\n"
    )
    supervisor = Supervisor(
        [sys.executable, "-c", script, str(marker)],
        tmp_path / "ck", policy=_policy(),
    )
    assert supervisor.run() == 0
    assert supervisor.restarts == 2
    status = CheckpointStore(tmp_path / "ck").read_supervisor()
    assert status["status"] == "done"
    assert status["restarts"] == 2
    assert status["last_exit_code"] == 0


def test_supervisor_gives_up_when_budget_spent(tmp_path):
    supervisor = Supervisor(
        [sys.executable, "-c", "import sys; sys.exit(9)"],
        tmp_path / "ck", policy=_policy(max_restarts=1),
    )
    assert supervisor.run() == 9
    assert supervisor.restarts == 1
    status = CheckpointStore(tmp_path / "ck").read_supervisor()
    assert status["status"] == "gave-up"


def test_supervisor_treats_interrupted_exit_as_clean(tmp_path):
    supervisor = Supervisor(
        [sys.executable, "-c", f"import sys; sys.exit({EXIT_INTERRUPTED})"],
        tmp_path / "ck", policy=_policy(),
    )
    assert supervisor.run() == EXIT_INTERRUPTED
    assert supervisor.restarts == 0


def test_supervisor_kills_hung_child(tmp_path):
    supervisor = Supervisor(
        [sys.executable, "-c", "import time; time.sleep(60)"],
        tmp_path / "ck",
        policy=_policy(max_restarts=0, hang_timeout=0.3, poll_interval=0.05),
    )
    assert supervisor.run() == -signal.SIGKILL
    status = CheckpointStore(tmp_path / "ck").read_supervisor()
    assert status["status"] == "gave-up"
    assert "hung" in status["last_reason"]


def test_strip_supervisor_args():
    argv = [
        "replay", "t.gz", "--supervise", "--max-restarts", "3",
        "--hang-timeout=5", "--checkpoint-dir", "ck", "--cycles", "9",
    ]
    # option -> takes a value; the CLI derives this from its one
    # declaration of the supervisor options (tests/test_cli.py checks the
    # child argv it produces).
    flags = {"--supervise": False, "--max-restarts": True, "--hang-timeout": True}
    assert strip_supervisor_args(argv, flags) == [
        "replay", "t.gz", "--checkpoint-dir", "ck", "--cycles", "9",
    ]


# ----------------------------------------------------------------------
# Telemetry surface
# ----------------------------------------------------------------------
def test_health_payload_carries_recovery_status():
    from repro.obs.server import TelemetryHub

    hub = TelemetryHub()
    assert hub.health()["recovery"] is None
    info = {"resumed": True, "cold_start": False, "resumed_cycles": 4}
    hub.set_recovery(info)
    assert hub.health()["recovery"] == info
    hub.set_recovery(None)
    assert hub.health()["recovery"] is None
