"""Tests for the closed-loop soak harness (benchmarks/run_soak.py) and
the committed reference trace it replays."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.cluster.replay import synthesize_trace
from repro.workloads import ClusterSpec

_BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"

_spec = importlib.util.spec_from_file_location(
    "run_soak", _BENCH_DIR / "run_soak.py"
)
soak = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(soak)

_ref_spec = importlib.util.spec_from_file_location(
    "make_reference", _BENCH_DIR / "traces" / "make_reference.py"
)
make_reference = importlib.util.module_from_spec(_ref_spec)
_ref_spec.loader.exec_module(make_reference)


def _report(cycle=0, *, sla_ok=True, alive=1.0, before=0.9, after=0.9,
            events=()) -> dict:
    return {
        "cycle": cycle,
        "sla_ok": sla_ok,
        "min_alive_fraction": alive,
        "gained_before": before,
        "gained_after": after,
        "events": list(events),
        "action": "skipped",
    }


# ----------------------------------------------------------------------
# Pure helpers
# ----------------------------------------------------------------------
def test_is_churn_cycle_matches_structural_events_only():
    assert soak.is_churn_cycle(_report(events=["scaled a 3 -> 5"]))
    assert soak.is_churn_cycle(_report(events=["drained m0: evicted 2, re-placed 2"]))
    assert soak.is_churn_cycle(_report(events=["reclaimed m1: lost 1, re-placed 1"]))
    assert soak.is_churn_cycle(_report(events=["deployed d demand=2 (2 placed)"]))
    assert soak.is_churn_cycle(_report(events=["tore down d"]))
    assert not soak.is_churn_cycle(_report(events=["traffic a<->b x1.5"]))
    assert not soak.is_churn_cycle(_report(events=["added machine m9 (0 placed)"]))
    assert not soak.is_churn_cycle(_report())


def test_check_sla_flags_offending_cycles():
    reports = [
        _report(0),
        _report(1, sla_ok=False, alive=0.5),
        _report(2),
        _report(3, sla_ok=False, alive=0.0),
    ]
    messages = soak.check_sla(reports)
    assert len(messages) == 2
    assert "cycle 1" in messages[0] and "0.500" in messages[0]
    assert "cycle 3" in messages[1]


def test_check_recovery_passes_when_affinity_returns():
    reports = [
        _report(0, before=0.9, after=0.6, events=["scaled a 4 -> 8"]),
        _report(1, before=0.6, after=0.7),
        _report(2, before=0.7, after=0.88),
        _report(3, before=0.88, after=0.88),
    ]
    assert soak.check_recovery(reports, ratio=0.85, window=3) == []


def test_check_recovery_flags_persistent_erosion():
    reports = [
        _report(0, before=0.9, after=0.5, events=["scaled a 4 -> 8"]),
        _report(1, before=0.5, after=0.5),
        _report(2, before=0.5, after=0.5),
        _report(3, before=0.5, after=0.5),
    ]
    messages = soak.check_recovery(reports, ratio=0.85, window=2)
    assert len(messages) == 1
    assert "cycle 0" in messages[0]


def test_check_recovery_skips_bursts_without_full_window():
    reports = [
        _report(0),
        _report(1, before=0.9, after=0.4, events=["scaled a 4 -> 8"]),
    ]
    assert soak.check_recovery(reports, ratio=0.85, window=5) == []


def test_check_recovery_ignores_zero_baseline():
    reports = [
        _report(0, before=0.0, after=0.0, events=["scaled a 4 -> 8"]),
        _report(1),
    ]
    assert soak.check_recovery(reports, ratio=0.85, window=1) == []


# ----------------------------------------------------------------------
# main() plumbing
# ----------------------------------------------------------------------
def test_main_rejects_bad_cycles(capsys):
    assert soak.main(["--cycles", "0"]) == 1
    assert "--cycles" in capsys.readouterr().err


def test_main_rejects_missing_trace(tmp_path, capsys):
    code = soak.main(["--trace", str(tmp_path / "nope.jsonl.gz")])
    assert code == 1
    assert "could not load trace" in capsys.readouterr().err


def test_main_rejects_bad_fault_plan(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text("{broken")
    code = soak.main([
        "--trace", str(soak.DEFAULT_TRACE), "--fault-plan", str(plan)
    ])
    assert code == 1
    assert "could not load fault plan" in capsys.readouterr().err


def test_main_reports_violations(monkeypatch, capsys):
    """A run whose reports break the SLA floor must exit 2 and say why."""

    class FakeReport:
        def __init__(self, payload):
            self._payload = payload

        def to_dict(self):
            return dict(self._payload)

    bad = [
        _report(0),
        _report(1, sla_ok=False, alive=0.3),
    ]

    def fake_replay(trace, **kwargs):
        return [FakeReport(p) for p in bad]

    monkeypatch.setattr(soak.api, "replay_trace", fake_replay)
    code = soak.main([
        "--trace", str(soak.DEFAULT_TRACE), "--cycles", "2",
        "--skip-faults", "--determinism-cycles", "0",
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert "SOAK FAILED" in err
    assert "SLA floor violated" in err


def test_main_end_to_end_small_trace(tmp_path, capsys):
    """A real (tiny) soak: both passes, determinism check, JSONL streams."""
    spec = ClusterSpec(
        name="soak-test", num_services=6, num_containers=20,
        num_machines=3, affinity_beta=2.0, seed=5,
    )
    trace = synthesize_trace(
        spec, name="soak-test", seed=5,
        duration_seconds=4 * 1800.0, burst_every=2,
    )
    path = tmp_path / "soak.jsonl.gz"
    trace.save(path)
    out_dir = tmp_path / "out"
    code = soak.main([
        "--trace", str(path), "--cycles", "3",
        "--determinism-cycles", "2", "--out-dir", str(out_dir),
    ])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "soak passed" in out
    assert (out_dir / "SOAK_fault-free.jsonl").exists()
    assert (out_dir / "SOAK_faulted.jsonl").exists()


# ----------------------------------------------------------------------
# The committed reference trace
# ----------------------------------------------------------------------
def test_reference_trace_is_committed_and_loadable():
    trace = soak.load_event_trace(soak.DEFAULT_TRACE)
    assert trace.name == "reference-week"
    assert trace.num_cycles() >= 100  # a week at 30-min cadence
    assert len(trace.events) > 100
    kinds = {type(e).__name__ for e in trace.events}
    assert {"ServiceScale", "TrafficShift", "MachineAdd"} <= kinds
    assert kinds & {"MachineDrain", "SpotReclaim"}


def test_reference_trace_regenerates_bit_identically(tmp_path):
    """make_reference.py is the reproducible recipe for the committed file."""
    rebuilt = make_reference.build_trace()
    out = tmp_path / "rebuilt.jsonl.gz"
    rebuilt.save(out)
    assert out.read_bytes() == soak.DEFAULT_TRACE.read_bytes()


@pytest.mark.soak
def test_reference_soak_100_cycles(tmp_path):
    """The CI slow-lane gate: a full 100-cycle closed-loop soak of the
    committed reference trace — fault-free and faulted passes, the
    determinism self-check, and the RSS budget — must exit 0."""
    code = soak.main([
        "--cycles", "100", "--determinism-cycles", "25",
        "--out-dir", str(tmp_path),
    ])
    assert code == 0
    assert (tmp_path / "SOAK_fault-free.jsonl").exists()
    assert (tmp_path / "SOAK_faulted.jsonl").exists()
