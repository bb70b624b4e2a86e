"""Extension benchmark: continuous-vs-once under churn.

Backs the extension system DESIGN.md adds beyond the paper's core
pipeline:

* **Continuous optimization under churn** (Section III motivation): an
  :class:`~repro.cluster.replay.EventTrace` of scale/drain/traffic events,
  replayed through the CronJob closed loop against optimize-once.  The
  paper's rationale for the half-hourly loop is exactly that churn decays
  a one-shot optimum.
"""

from __future__ import annotations

from conftest import TIME_LIMIT, record_result

from repro import api
from repro.cluster import EventTrace, MachineDrain, ServiceScale, TrafficShift


def test_extension_dynamic_churn(benchmark, datasets):
    """Continuous CronJob optimization vs optimize-once under churn."""
    cluster = datasets["M3"]
    problem = cluster.problem
    busiest = problem.affinity.services_by_total_affinity()[0][0]
    busiest_demand = problem.services[problem.service_index(busiest)].demand
    pairs = sorted(cluster.qps, key=cluster.qps.get, reverse=True)
    loads = problem.current_assignment.sum(axis=0)
    busy_machine = problem.machines[int(loads.argmax())].name

    trace = EventTrace(
        base=problem,
        events=[
            ServiceScale(1800.0 * 2, busiest, busiest_demand + 6),
            TrafficShift(1800.0 * 3, *pairs[1], 4.0),
            MachineDrain(1800.0 * 4, busy_machine),
            TrafficShift(1800.0 * 5, *pairs[0], 0.25),
        ],
        name="ext-2-churn",
    )

    def run():
        continuous = api.replay_trace(trace, cycles=7, time_limit=TIME_LIMIT)
        # Optimize once: one control-loop cycle, then the events alone.
        cursor = trace.cursor()
        once = [
            report.gained_after
            for report in api.run_control_loop(cursor, cycles=1, time_limit=TIME_LIMIT)
        ]
        for _ in range(6):
            cursor.advance_to(cursor.state.clock)
            once.append(cursor.state.assignment().gained_affinity(normalized=True))
            cursor.state.advance(trace.interval_seconds)
        return {
            "continuous": [round(r.gained_after, 4) for r in continuous],
            "optimize_once": [round(g, 4) for g in once],
        }

    series = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nExtension — gained affinity under churn (7 half-hour ticks)")
    for label, values in series.items():
        print(f"  {label:14s} {values}")
    final_continuous = series["continuous"][-1]
    final_once = series["optimize_once"][-1]
    print(f"  final: continuous={final_continuous:.3f} once={final_once:.3f}")
    # The closed loop ends at least as well-optimized as optimize-once.
    assert final_continuous >= final_once - 0.02
    record_result("extension_dynamic_churn", series)
