"""Integration tests for the ``rasa`` command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.workloads.trace_io import load_trace


@pytest.fixture
def trace_path(tmp_path):
    path = tmp_path / "trace.json"
    code = main(
        [
            "generate",
            str(path),
            "--services", "20",
            "--containers", "90",
            "--machines", "6",
            "--seed", "4",
        ]
    )
    assert code == 0
    return path


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_generate_writes_loadable_trace(trace_path):
    problem = load_trace(trace_path)
    assert problem.num_services == 20
    assert problem.num_machines == 6
    assert problem.current_assignment is not None


def test_generate_from_registered_dataset(tmp_path):
    path = tmp_path / "m3.json"
    assert main(["generate", str(path), "--dataset", "M3"]) == 0
    problem = load_trace(path)
    assert problem.num_services == 68


def test_optimize_command(trace_path, capsys):
    code = main(["optimize", str(trace_path), "--time-limit", "6",
                 "--migration-plan"])
    assert code == 0
    out = capsys.readouterr().out
    assert "gained affinity:" in out
    assert "migration:" in out


def test_inspect_command(trace_path, capsys):
    code = main(["inspect", str(trace_path), "--top-pairs", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "gained affinity:" in out
    assert "top 3 pairs" in out


def test_inspect_without_current_assignment(tmp_path, capsys, tiny_problem):
    from repro.workloads.trace_io import save_trace

    path = tmp_path / "bare.json"
    save_trace(tiny_problem, path)
    assert main(["inspect", str(path)]) == 1
    assert "no current assignment" in capsys.readouterr().out


def test_compare_command(trace_path, capsys):
    code = main(["compare", str(trace_path), "--time-limit", "4"])
    assert code == 0
    out = capsys.readouterr().out
    for name in ("original", "k8s+", "pop", "applsci19", "rasa"):
        assert name in out


def test_cron_command(trace_path, capsys):
    code = main(["cron", str(trace_path), "--cycles", "2",
                 "--time-limit", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "cycle" in out and "action" in out
    assert "cycles: 2" in out


def test_cron_requires_current_assignment(tmp_path, capsys, tiny_problem):
    from repro.workloads.trace_io import save_trace

    path = tmp_path / "bare.json"
    save_trace(tiny_problem, path)
    assert main(["cron", str(path)]) == 1
    assert "no current assignment" in capsys.readouterr().out


def test_cron_with_fault_plan_and_report(trace_path, tmp_path, capsys):
    import json

    from repro.cluster.cronjob import CycleReport
    from repro.faults import FaultPlan

    plan_path = tmp_path / "plan.json"
    FaultPlan(seed=2, command_failure_rate=0.2).save(plan_path)
    report_path = tmp_path / "report.json"
    code = main([
        "cron", str(trace_path), "--cycles", "2", "--time-limit", "3",
        "--fault-plan", str(plan_path), "--report-out", str(report_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "fault plan:" in out
    payload = json.loads(report_path.read_text())
    reports = [CycleReport.from_dict(entry) for entry in payload]
    assert [r.cycle for r in reports] == [0, 1]
    assert all(r.sla_ok for r in reports)


def test_cron_rejects_bad_fault_plan(trace_path, tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text('{"command_failure_rate": 7}')
    code = main(["cron", str(trace_path), "--fault-plan", str(plan_path)])
    assert code == 1
    assert "could not load fault plan" in capsys.readouterr().err


def test_cron_rejects_bad_degradation_policy(trace_path, capsys):
    code = main(["cron", str(trace_path), "--degradation-policy", "retry,nope"])
    assert code == 1
    assert "invalid --degradation-policy" in capsys.readouterr().err


# ----------------------------------------------------------------------
# rasa replay
# ----------------------------------------------------------------------
@pytest.fixture
def event_trace_path(tmp_path):
    from repro.cluster.replay import synthesize_trace
    from repro.workloads import ClusterSpec

    spec = ClusterSpec(
        name="cli-replay", num_services=6, num_containers=20,
        num_machines=3, affinity_beta=2.0, seed=5,
    )
    trace = synthesize_trace(
        spec, name="cli-replay", seed=5,
        duration_seconds=4 * 1800.0, burst_every=2,
    )
    path = tmp_path / "events.jsonl.gz"
    trace.save(path)
    return path


def test_replay_command(event_trace_path, tmp_path, capsys):
    import json

    from repro.cluster.cronjob import CycleReport

    report_path = tmp_path / "replay-report.json"
    code = main([
        "replay", str(event_trace_path), "--cycles", "3",
        "--report-out", str(report_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "trace 'cli-replay'" in out
    assert "events applied" in out
    reports = [
        CycleReport.from_dict(entry)
        for entry in json.loads(report_path.read_text())
    ]
    assert [r.cycle for r in reports] == [0, 1, 2]
    assert all(r.sla_ok for r in reports)


def test_replay_defaults_to_whole_trace(event_trace_path, capsys):
    code = main(["replay", str(event_trace_path), "--time-limit", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "replaying 5 cycles" in out  # 4*1800s of events + cycle 0


def test_replay_rejects_missing_trace(tmp_path, capsys):
    code = main(["replay", str(tmp_path / "nope.jsonl.gz")])
    assert code == 1
    assert "could not load event trace" in capsys.readouterr().err


def test_replay_rejects_v1_snapshot(trace_path, capsys):
    code = main(["replay", str(trace_path)])
    assert code == 1
    assert "could not load event trace" in capsys.readouterr().err


def test_replay_with_fault_plan(event_trace_path, tmp_path, capsys):
    from repro.faults import FaultPlan

    plan_path = tmp_path / "plan.json"
    FaultPlan(seed=2, command_failure_rate=0.2).save(plan_path)
    code = main([
        "replay", str(event_trace_path), "--cycles", "2",
        "--fault-plan", str(plan_path),
    ])
    assert code == 0
    assert "fault plan:" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Durability: checkpoint / resume / supervise
# ----------------------------------------------------------------------
def test_replay_checkpoint_and_resume(event_trace_path, tmp_path, capsys):
    ck = tmp_path / "ck"
    ref_out = tmp_path / "ref.json"
    assert main([
        "replay", str(event_trace_path), "--cycles", "4",
        "--report-out", str(ref_out),
    ]) == 0
    assert main([
        "replay", str(event_trace_path), "--cycles", "2",
        "--checkpoint-dir", str(ck), "--checkpoint-every", "4",
    ]) == 0
    assert (ck / "snapshot.json").exists()
    capsys.readouterr()

    resumed_out = tmp_path / "resumed.json"
    assert main([
        "replay", str(event_trace_path), "--cycles", "4",
        "--checkpoint-dir", str(ck), "--report-out", str(resumed_out),
    ]) == 0
    assert "resuming from checkpoint" in capsys.readouterr().out
    # With no process-local field on the wire, the files are byte-equal.
    assert resumed_out.read_bytes() == ref_out.read_bytes()
    # Resuming without --checkpoint-every keeps the recorded cadence.
    import json

    snapshot = json.loads((ck / "snapshot.json").read_text())
    assert snapshot["run"]["checkpoint_every"] == 4


def test_cron_checkpoint_and_resume(trace_path, tmp_path, capsys):
    ck = tmp_path / "ck"
    assert main([
        "cron", str(trace_path), "--cycles", "2", "--time-limit", "6",
        "--checkpoint-dir", str(ck),
    ]) == 0
    capsys.readouterr()
    assert main([
        "cron", str(trace_path), "--cycles", "3", "--time-limit", "6",
        "--checkpoint-dir", str(ck),
    ]) == 0
    out = capsys.readouterr().out
    assert "resuming from checkpoint" in out
    assert "cycles: 3" in out  # 2 restored + 1 freshly run


def test_resume_divergence_hints_cold_start(event_trace_path, tmp_path, capsys):
    import json

    ck = tmp_path / "ck"
    assert main([
        "replay", str(event_trace_path), "--cycles", "2",
        "--checkpoint-dir", str(ck),
    ]) == 0
    snapshot_path = ck / "snapshot.json"
    snapshot = json.loads(snapshot_path.read_text())
    placement = snapshot["live"]["placement"]
    placement["ghost-service"] = placement.pop(sorted(placement)[0])
    snapshot_path.write_text(json.dumps(snapshot))
    capsys.readouterr()

    assert main([
        "replay", str(event_trace_path), "--cycles", "3",
        "--checkpoint-dir", str(ck),
    ]) == 1
    assert "--allow-cold-start" in capsys.readouterr().err

    assert main([
        "replay", str(event_trace_path), "--cycles", "3",
        "--checkpoint-dir", str(ck), "--allow-cold-start",
    ]) == 0


def test_supervise_requires_checkpoint_dir(event_trace_path, capsys):
    code = main(["replay", str(event_trace_path), "--supervise"])
    assert code == 1
    assert "--supervise requires --checkpoint-dir" in capsys.readouterr().err


# ----------------------------------------------------------------------
# One declaration per loop tunable: surface, flag table, error mapping
# ----------------------------------------------------------------------
def _load_data_module(name):
    import importlib.util
    from pathlib import Path

    path = Path(__file__).parent / "data" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_surface_matches_parent():
    """Flags, dests, types, choices, nargs, positional order and the
    effective ``LoopSpec`` of bare loop commands equal the parent's.

    ``cli_surface.json`` was written by ``make_cli_surface.py`` running on
    ac883fe, whose ``cli.py`` typed every loop flag three times by hand,
    less the since-removed solve-thread flags (``--workers``/``--parallel``
    of ``optimize``/``compare``/``cron``/``replay``).
    Its ``config`` objects also carry the nine since-retired
    ``RASAConfig`` keys, so both sides compare as the ``RASAConfig`` that
    ``LoopSpec`` loads from them (which refuses a retired key at any value
    but the one now hard-wired).
    """
    import json
    from dataclasses import asdict

    from repro.core.config import LoopSpec

    def loaded(surface: dict) -> dict:
        for effective in surface["effective"].values():
            spec = effective["loop_spec"]
            spec["config"] = asdict(LoopSpec(config=spec["config"]).typed("config"))
        return surface

    maker = _load_data_module("make_cli_surface")
    pinned = loaded(json.loads(maker.SURFACE.read_text()))
    current = loaded(json.loads(json.dumps(maker.compute_surface(), sort_keys=True)))
    assert current == pinned


def test_loop_flags_cover_loopspec():
    """A new ``LoopSpec`` field must be given a flag or named facade-only."""
    from dataclasses import fields

    from repro.cli import LOOP_FLAGS
    from repro.core.config import LoopSpec

    facade_only = {"config", "retry", "rollback_imbalance"}
    flagged = [flag.field for flag in LOOP_FLAGS]
    assert len(flagged) == len(set(flagged))
    assert set(flagged) | facade_only == {f.name for f in fields(LoopSpec)}
    assert not set(flagged) & facade_only


def test_design_field_table_lists_the_loop_flags():
    """DESIGN §12's "CLI flag" column is ``LOOP_FLAGS``, row for row."""
    import re
    from pathlib import Path

    from repro.cli import LOOP_FLAGS

    design = (Path(__file__).parents[1] / "DESIGN.md").read_text()
    documented = dict(
        re.findall(r"^\| `(\w+)` \| (?:`(--[\w-]+)`|—) \|", design, flags=re.M)
    )
    assert {f: o for f, o in documented.items() if o} == {
        flag.field: flag.option for flag in LOOP_FLAGS
    }
    assert sorted(f for f, o in documented.items() if not o) == [
        "config", "retry", "rollback_imbalance"
    ]


#: command line (TRACE = a generated cluster) -> what stderr must name.
#: Each row ended in a bare traceback (or, ``--checkpoint-every 0``, ran
#: with 16) on the parent commit.
BAD_INPUT = [
    (["cron", "TRACE", "--sla-floor", "2"], "sla_floor"),
    (["cron", "TRACE", "--time-limit", "-1"], "time_limit"),
    (["cron", "TRACE", "--checkpoint-every", "-3"], "checkpoint_every"),
    (["cron", "TRACE", "--checkpoint-every", "0"], "checkpoint_every"),
    (["tenant", "register", "t0", "TRACE", "--slo", "{bad"], "--slo"),
    (["tenant", "push", "t0", "nofile.json"], "nofile.json"),
    (["tenant", "schedule", "t0", "soon"], "seconds"),
]


@pytest.mark.parametrize("argv,named", BAD_INPUT, ids=lambda v: " ".join(v[:4]))
def test_bad_input_is_an_error_line_not_a_traceback(
    argv, named, trace_path, capsys, monkeypatch
):
    # No service is listening: input must be rejected before any request.
    monkeypatch.setattr(
        "repro.service.client.ServiceClient._request",
        lambda *a, **k: pytest.fail("reached the network"),
    )
    argv = [str(trace_path) if a == "TRACE" else a for a in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and named in captured.err
    assert "Traceback" not in captured.err



def test_abbreviated_supervisor_flag_is_a_usage_error(
    event_trace_path, tmp_path, capsys, monkeypatch
):
    """``--superv`` once re-executed itself without bound: argparse took it
    for ``--supervise`` while the child's argv kept the abbreviation."""
    from repro.durability.supervisor import Supervisor

    monkeypatch.setattr(
        Supervisor, "run", lambda self: pytest.fail("spawned a child")
    )
    argv = ["replay", str(event_trace_path), "--checkpoint-dir",
            str(tmp_path / "ck")]
    for abbreviated in (["--superv"], ["--supervise", "--max-rest", "1"],
                        ["--supervise", "--hang-t", "5"]):
        with pytest.raises(SystemExit) as usage:
            main(argv + abbreviated)
        assert usage.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_supervise_runs_one_child_without_the_supervisor_flags(
    event_trace_path, tmp_path, monkeypatch
):
    import sys

    from repro.durability.supervisor import Supervisor

    seen = []
    monkeypatch.setattr(
        Supervisor, "run", lambda self: seen.append(self) or 0
    )
    ck = str(tmp_path / "ck")
    assert main(["replay", str(event_trace_path), "--cycles", "2",
                 "--supervise", "--max-restarts", "0", "--hang-timeout=9",
                 "--checkpoint-dir", ck]) == 0
    (supervisor,) = seen
    assert supervisor.argv == [
        sys.executable, "-m", "repro.cli", "replay", str(event_trace_path),
        "--cycles", "2", "--checkpoint-dir", ck,
    ]
    assert supervisor.policy.max_restarts == 0
    assert supervisor.policy.hang_timeout == 9.0
