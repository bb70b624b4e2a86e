"""Chaos sweep — control-loop resilience vs command-fault rate.

Runs the CronJob control loop on the M3 evaluation cluster under seeded
:class:`~repro.faults.FaultPlan` chaos at increasing per-command failure
rates.  The headline claim mirrors the acceptance bar of the
fault-tolerant control plane: at every swept rate (up to well past the
guaranteed 20 %), all cycles complete, the SLA floor holds at every
migration step boundary, and faulted cycles resolve through retries or a
recorded degradation-ladder rung — never by crashing the loop.

Recorded per rate: cycles completed, retry volume, accrued backoff,
degraded-cycle count (with rungs), and the gained affinity the loop still
achieves despite the chaos.
"""

from __future__ import annotations

from conftest import TIME_LIMIT, record_result

from repro import api
from repro.cluster import ClusterState, DataCollector
from repro.faults import FaultPlan
from repro.workloads import load_cluster

CLUSTER = "M3"
CYCLES = 4
FAILURE_RATES = (0.0, 0.1, 0.2, 0.3)


def test_chaos_sweep(benchmark):
    cluster = load_cluster(CLUSTER)

    def run(rate: float):
        faults = (
            FaultPlan(seed=17, command_failure_rate=rate) if rate > 0 else None
        )
        reports = api.run_control_loop(
            ClusterState(cluster.problem),
            cycles=CYCLES,
            collector=DataCollector(cluster.qps),
            time_limit=TIME_LIMIT,
            faults=faults,
        )
        return reports

    def sweep():
        return {rate: run(rate) for rate in FAILURE_RATES}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    print(f"\nChaos sweep — {CLUSTER}, {CYCLES} cycles per rate")
    print(f"{'fail rate':>9s} {'gained':>8s} {'retries':>8s} "
          f"{'backoff s':>9s} {'degraded':>8s} {'sla':>4s}")
    rows = {}
    for rate, reports in results.items():
        gained = reports[-1].gained_after
        retries = sum(r.command_retries for r in reports)
        backoff = sum(r.retry_delay_seconds for r in reports)
        degraded = [r for r in reports if r.rungs]
        sla = all(r.sla_ok for r in reports)
        print(f"{rate:>9.0%} {gained:>8.3f} {retries:>8d} {backoff:>9.2f} "
              f"{len(degraded):>8d} {'ok' if sla else 'VIOL':>4s}")
        rows[f"{rate:.2f}"] = {
            "gained_after": gained,
            "command_retries": retries,
            "retry_delay_seconds": backoff,
            "degraded_cycles": len(degraded),
            "rungs": [r.rungs for r in degraded],
            "sla_ok": sla,
        }

        # Resilience bar: every cycle completes and honors the SLA floor.
        assert len(reports) == CYCLES
        assert sla, f"SLA floor violated at rate {rate:.0%}"
        if rate == 0.0:
            assert retries == 0 and not degraded
        else:
            assert retries > 0, f"rate {rate:.0%} injected nothing"

    # Inside the guaranteed envelope (<= 20 % per-command failures) chaos
    # must cost affinity at most marginally: retries and later cycles
    # re-optimize, so the final placement stays within 10 % of fault-free.
    # Beyond it (30 %) the bar is survival only — a cycle may end on a
    # degraded greedy placement.
    baseline = results[0.0][-1].gained_after
    for rate, reports in results.items():
        if rate <= 0.2:
            assert reports[-1].gained_after >= 0.9 * baseline

    record_result(
        "chaos_sweep",
        {"cluster": CLUSTER, "cycles": CYCLES, "rates": rows},
    )
