"""Continuous cluster optimization with the CronJob control loop.

Simulates the paper's production deployment (Section III): a cluster starts
from an affinity-oblivious placement; the half-hourly CronJob collects
traffic metrics, runs RASA, gates on a 3 % improvement (dry-run churn
control), and reallocates containers through SLA-safe migration plans.
After the loop converges, the IPC-vs-RPC network model reports the latency
and error-rate improvements the optimization bought.

Run with: ``python examples/continuous_optimization.py``
"""

from __future__ import annotations

from repro.cluster import (
    ClusterState,
    CronJobController,
    DataCollector,
    NetworkSimulator,
    relative_improvement,
)
from repro.core import Assignment
from repro.core.config import LoopSpec
from repro.workloads import ClusterSpec, generate_cluster


def main() -> None:
    cluster = generate_cluster(
        ClusterSpec(
            name="prod-sim",
            num_services=80,
            num_containers=400,
            num_machines=16,
            affinity_beta=2.0,
            seed=20,
        )
    )
    problem = cluster.problem
    baseline = Assignment(problem, problem.current_assignment)
    print(f"cluster: {problem}")
    print(f"initial gained affinity: {baseline.gained_affinity(normalized=True):.2%}")

    state = ClusterState(problem)
    # The loop's tunables are one LoopSpec; the cycle period defaults to
    # the paper's half hour.
    controller = CronJobController(
        state=state,
        collector=DataCollector(cluster.qps, traffic_jitter_sigma=0.05),
        spec=LoopSpec(time_limit=10.0),
    )

    print("\nrunning 6 half-hourly CronJob cycles:")
    for report in controller.run(cycles=6):
        print(
            f"  cycle {report.cycle}: {report.action:11s} "
            f"gained {report.gained_before:.2%} -> {report.gained_after:.2%} "
            f"moved={report.moved_containers}"
        )

    optimized = state.assignment()
    executed = [r for r in controller.history if r.action == "executed"]
    print(f"\nexecutions: {len(executed)} of {len(controller.history)} cycles")
    print(f"final gained affinity: {optimized.gained_affinity(normalized=True):.2%}")

    # What did collocation buy in network terms?
    simulator = NetworkSimulator(seed=0)
    without = simulator.report("without_rasa", baseline, cluster.qps, num_windows=48)
    with_rasa = simulator.report("with_rasa", optimized, cluster.qps, num_windows=48)
    latency_gain = relative_improvement(
        float(without.weighted_latency_ms.mean()),
        float(with_rasa.weighted_latency_ms.mean()),
    )
    error_gain = relative_improvement(
        float(without.weighted_error_rate.mean()),
        float(with_rasa.weighted_error_rate.mean()),
    )
    print(f"weighted end-to-end latency improvement: {latency_gain:.2%}")
    print(f"weighted request error-rate improvement: {error_gain:.2%}")


if __name__ == "__main__":
    main()
