"""Closed-loop operations on a dynamic cluster.

Demonstrates why the paper runs RASA *continuously* (Section III): a
cluster under churn — autoscaling, a machine drain, traffic shifts —
gradually loses gained affinity unless the half-hourly CronJob keeps
re-optimizing.  The script records the churn as an event trace, replays
it twice (through the control loop every cycle, and after a single
up-front optimization) and prints the gained-affinity time series side
by side.  The trace is saved, so ``rasa replay`` reproduces the
continuous column.

Run with: ``python examples/dynamic_cluster_operations.py``
"""

from __future__ import annotations

from repro import api
from repro.cluster import EventTrace, MachineDrain, ServiceScale, TrafficShift
from repro.workloads import ClusterSpec, generate_cluster

TRACE_PATH = "dynamic_churn.jsonl.gz"
CYCLES = 8
TIME_LIMIT = 8.0


def build_trace(problem, qps) -> EventTrace:
    """A day of typical churn: rollout scale-up, hot pair, maintenance."""
    busiest = problem.affinity.services_by_total_affinity()[0][0]
    busiest_demand = problem.services[problem.service_index(busiest)].demand
    pairs = sorted(qps, key=qps.get, reverse=True)
    loads = problem.current_assignment.sum(axis=0)
    busy_machine = problem.machines[int(loads.argmax())].name
    return EventTrace(
        base=problem,
        events=[
            ServiceScale(1800.0 * 2, busiest, busiest_demand + 6),
            TrafficShift(1800.0 * 3, *pairs[1], 4.0),
            MachineDrain(1800.0 * 4, busy_machine),
            TrafficShift(1800.0 * 6, *pairs[0], 0.3),
        ],
        name="dynamic-demo",
    )


def optimize_once(trace: EventTrace) -> list[float]:
    """One control-loop cycle up front, then the events alone."""
    cursor = trace.cursor()
    (first,) = api.run_control_loop(cursor, cycles=1, time_limit=TIME_LIMIT)
    series = [first.gained_after]
    for _ in range(CYCLES - 1):
        cursor.advance_to(cursor.state.clock)
        series.append(cursor.state.assignment().gained_affinity(normalized=True))
        cursor.state.advance(trace.interval_seconds)
    return series


def main() -> None:
    cluster = generate_cluster(
        ClusterSpec(
            name="dynamic-demo",
            num_services=60,
            num_containers=280,
            num_machines=12,
            affinity_beta=2.0,
            seed=33,
        )
    )
    problem = cluster.problem
    print(f"cluster: {problem}\n")

    trace = build_trace(problem, cluster.qps)
    trace.save(TRACE_PATH)
    continuous = api.replay_trace(trace, cycles=CYCLES, time_limit=TIME_LIMIT)
    static = optimize_once(trace)

    print(f"{'cycle':>5s} {'time':>6s} {'continuous':>11s} {'once':>7s}  events / cron action")
    for report, once in zip(continuous, static):
        note = "; ".join(report.events) or report.action
        print(
            f"{report.cycle:>5d} {report.cycle * trace.interval_seconds / 3600:>5.1f}h "
            f"{report.gained_after:>11.3f} {once:>7.3f}  {note}"
        )

    moved = sum(r.moved_containers for r in continuous)
    print(
        f"\ncontinuous loop moved {moved} containers across "
        f"{sum(1 for r in continuous if r.action == 'executed')} executions; "
        f"final gained affinity {continuous[-1].gained_after:.3f} vs "
        f"{static[-1]:.3f} without the loop"
    )
    print(
        f"saved the churn to {TRACE_PATH}; reproduce the continuous column with\n"
        f"  rasa replay {TRACE_PATH} --cycles {CYCLES} --time-limit {TIME_LIMIT:g}"
    )


if __name__ == "__main__":
    main()
