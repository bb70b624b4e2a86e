"""Regenerate ``service_tenant_reports.json`` in this directory.

The committed file pins the wire report sequences of two
``service_mixed``-style tenants as f5f6317 wrote them — the parent of the
cron gate's placement-blind memo, which re-solved the cycle after every
execution.  Every later tree must reproduce the same bytes; run this to
check (``git diff`` stays empty), never to move the pin::

    PYTHONPATH=src python tests/data/make_service_tenant_reports.py

Each tenant is a generated 12-service, 60-container, 5-machine cluster
(the shape of the benchmark's ``service_mixed`` tenants) run for
:data:`CYCLES` one-cycle triggers with no solver budget: ``clean`` is
fault-free, ``chaos`` fails 20 % of migration commands, so some
executions are cut short and re-executed.  ``tests/test_cronjob.py``
imports :func:`compute_reports` from here and recomputes them with
whatever control loop the current tree has.
"""

import json
from pathlib import Path

from repro.service.tenant import Tenant, TenantSpec
from repro.workloads import ClusterSpec, generate_cluster
from repro.workloads.trace_io import problem_to_dict

HERE = Path(__file__).resolve().parent
REPORTS = HERE / "service_tenant_reports.json"
CYCLES = 6

#: Variant -> (problem seed, ``TenantSpec`` keyword arguments).
VARIANTS = {
    "clean": (4, {}),
    "chaos": (19, {"faults": {"seed": 5, "command_failure_rate": 0.2}}),
}


def build_tenant(name: str) -> Tenant:
    """A fresh tenant of the variant ``name``."""
    seed, kwargs = VARIANTS[name]
    spec = ClusterSpec(
        name=f"svc-{seed}", num_services=12, num_containers=60,
        num_machines=5, seed=seed,
    )
    problem = problem_to_dict(generate_cluster(spec).problem)
    return Tenant(TenantSpec(name=name, problem=problem, time_limit=None, **kwargs))


def compute_reports() -> dict[str, list[dict]]:
    """``CycleReport.to_dict()`` of every cycle of every variant."""
    documents = {}
    for name in VARIANTS:
        tenant = build_tenant(name)
        reports = [
            report for _ in range(CYCLES) for report in tenant.run_cycles(1)
        ]
        documents[name] = [report.to_dict() for report in reports]
    return documents


if __name__ == "__main__":
    REPORTS.write_text(json.dumps(compute_reports(), indent=1, sort_keys=True) + "\n")
