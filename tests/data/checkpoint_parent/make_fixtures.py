"""Regenerate the checkpoint fixtures in this directory.

Run it with the source tree of the commit whose on-disk format the
fixtures pin, never with the current tree.  Two commits wrote them::

    PYTHONPATH=<checkout of 082515e>/src python make_fixtures.py
    PYTHONPATH=<checkout of 2e45c8c>/src python make_fixtures.py problem

The first (082515e, the parent of the LoopSpec refactor) writes
``cluster.json`` and ``chaos.json`` (the inputs ``tests/test_durability.py``
replays uninterrupted) and two checkpoint directories, each 3 cycles into
a 5-cycle run:

* ``cron/`` — ``rasa cron`` killed right after the third WAL append, so
  it holds a 2-cycle snapshot plus a 1-record WAL tail;
* ``tenant/`` — a durable service tenant after a final checkpoint.

The second (2e45c8c, the last commit writing checkpoint format 1, whose
problem matrices are nested lists) writes ``problem_cluster.json``, a
cluster whose ``schedulable`` mask is partial, ``problem_chaos.json``, a
fault plan with stale snapshots and machine flaps (churn tags), and
``problem/``: an unbudgeted problem-mode loop killed right after the
fifth WAL append of a 6-cycle run, so it holds a 3-cycle snapshot plus a
2-record WAL tail whose ``last_problem`` carries the churn-masked matrix.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

CRASHING_CRON = """
import os, sys
from repro import cli
from repro.durability.checkpoint import CheckpointStore
append = CheckpointStore.append_cycle
def crash_after_third(self, record):
    append(self, record)
    if record["cycle"] == 2:
        os._exit(9)
CheckpointStore.append_cycle = crash_after_third
sys.exit(cli.main(sys.argv[1:]))
"""

#: Everything but the tenant's ``problem``; shared with the test.
TENANT_SPEC = {
    "name": "fixture",
    "config": {"max_subproblem_services": 4},
    "faults": {"seed": 3, "command_failure_rate": 0.2,
               "stale_snapshot_rate": 0.2},
    "degradation": {"cycle_retries": 2},
    "retry": {"max_attempts": 2},
    "sla_floor": 0.5,
    "traffic_jitter_sigma": 0.1,
    "seed": 11,
    "schedule_seconds": 3600.0,
    "checkpoint_every": 2,
    "slo": {"sla_ok_target": 0.9},
    "event_log_size": 64,
}


def main() -> None:
    from repro import cli
    from repro.service.tenant import Tenant, TenantSpec

    cluster = HERE / "cluster.json"
    chaos = HERE / "chaos.json"
    cli.main(["generate", str(cluster), "--services", "6", "--containers",
              "18", "--machines", "3", "--seed", "3", "--quiet"])
    chaos.write_text(json.dumps(TENANT_SPEC["faults"]) + "\n")

    crashed = subprocess.run(
        [sys.executable, "-c", CRASHING_CRON, "cron", str(cluster),
         "--cycles", "5", "--fault-plan", str(chaos),
         "--degradation-policy", "retry:2,greedy", "--sla-floor", "0.5",
         "--checkpoint-dir", str(HERE / "cron"), "--checkpoint-every", "2",
         "--quiet"],
    )
    assert crashed.returncode == 9, crashed.returncode

    problem = json.loads(cluster.read_text())
    tenant = Tenant(
        TenantSpec.from_dict({**TENANT_SPEC, "problem": problem}),
        checkpoint_dir=HERE / "tenant",
    )
    tenant.run_cycles(3)
    tenant.checkpoint()


#: The problem-mode fixture's fault plan; shared with the test.
PROBLEM_FAULTS = {
    "seed": 5, "command_failure_rate": 0.1, "machine_failure_rate": 0.15,
    "machine_flap_cycles": 2, "stale_snapshot_rate": 0.3,
}

CRASHING_PROBLEM_LOOP = """
import os, sys
from repro import api
from repro.durability.checkpoint import CheckpointStore
from repro.faults import FaultPlan
from repro.workloads.trace_io import load_trace
append = CheckpointStore.append_cycle
def crash_after_fifth(self, record):
    append(self, record)
    if record["cycle"] == 4:
        os._exit(9)
CheckpointStore.append_cycle = crash_after_fifth
api.run_control_loop(
    load_trace(sys.argv[1]), cycles=6, faults=FaultPlan.load(sys.argv[2]),
    time_limit=None, checkpoint_dir=sys.argv[3], checkpoint_every=3,
)
"""


def main_problem() -> None:
    from repro import cli

    cluster = HERE / "problem_cluster.json"
    chaos = HERE / "problem_chaos.json"
    cli.main(["generate", str(cluster), "--services", "10", "--containers",
              "36", "--machines", "4", "--seed", "5", "--quiet"])
    chaos.write_text(json.dumps(PROBLEM_FAULTS) + "\n")
    crashed = subprocess.run(
        [sys.executable, "-c", CRASHING_PROBLEM_LOOP, str(cluster), str(chaos),
         str(HERE / "problem")],
    )
    assert crashed.returncode == 9, crashed.returncode


if __name__ == "__main__":
    main_problem() if sys.argv[1:] == ["problem"] else main()
