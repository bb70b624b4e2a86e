"""Regenerate the checkpoint fixtures in this directory.

Run it with the source tree of the commit whose on-disk format the
fixtures pin (they were written by 082515e, the parent of the LoopSpec
refactor), never with the current tree::

    PYTHONPATH=<checkout of 082515e>/src python make_fixtures.py

It writes ``cluster.json`` and ``chaos.json`` (the inputs
``tests/test_durability.py`` replays uninterrupted) and two checkpoint
directories, each 3 cycles into a 5-cycle run:

* ``cron/`` — ``rasa cron`` killed right after the third WAL append, so
  it holds a 2-cycle snapshot plus a 1-record WAL tail;
* ``tenant/`` — a durable service tenant after a final checkpoint.
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


if __name__ == "__main__":
    main()
