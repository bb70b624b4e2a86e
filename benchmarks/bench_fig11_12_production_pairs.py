"""Figures 11 & 12 — per-pair production latency and error rate.

Reproduces the production experiment's mechanism in simulation: pick the
four highest-traffic service pairs, measure normalized end-to-end latency
(Fig. 11) and request error rate (Fig. 12) time series under three
placements — WITHOUT RASA (the first-fit ORIGINAL layout), WITH RASA, and
the ONLY COLLOCATED upper bound.  Expected shape: WITH RASA lands between
WITHOUT and the upper bound, with per-pair latency improvements in the
paper's 16–72 % band, and the gap to ONLY COLLOCATED small.
"""

from __future__ import annotations

from conftest import TIME_LIMIT, record_result

from repro.cluster import NetworkSimulator, relative_improvement
from repro.core import Assignment, RASAScheduler

NUM_PAIRS = 4
NUM_WINDOWS = 48


def test_fig11_12_production_pairs(benchmark, datasets):
    cluster = datasets["M3"]  # the paper's production cluster stand-in
    problem = cluster.problem

    def run():
        without = Assignment(problem, problem.current_assignment)
        with_rasa = RASAScheduler().schedule(problem, time_limit=TIME_LIMIT).assignment
        hot_pairs = sorted(cluster.qps, key=cluster.qps.get, reverse=True)[:NUM_PAIRS]
        qps = {pair: cluster.qps[pair] for pair in hot_pairs}
        simulator = NetworkSimulator(seed=0)
        return {
            "without_rasa": simulator.report("without_rasa", without, qps, NUM_WINDOWS),
            "with_rasa": simulator.report("with_rasa", with_rasa, qps, NUM_WINDOWS),
            "only_collocated": simulator.report(
                "only_collocated", with_rasa, qps, NUM_WINDOWS, only_collocated=True
            ),
        }

    reports = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = {}
    print("\nFigs. 11-12 — four hottest service pairs (normalized means)")
    print(f"{'pair':28s} {'metric':8s} {'without':>9s} {'with':>9s} "
          f"{'collocated':>11s} {'improvement':>12s}")
    for i, series in enumerate(reports["without_rasa"].pairs):
        pair = series.pair
        with_series = reports["with_rasa"].pairs[i]
        upper_series = reports["only_collocated"].pairs[i]
        pair_label = f"{pair[0]}<->{pair[1]}"
        entry = {}
        for metric, getter in (
            ("latency", lambda s: s.mean_latency()),
            ("error", lambda s: s.mean_error_rate()),
        ):
            base = getter(series)
            improved = getter(with_series)
            upper = getter(upper_series)
            peak = max(base, improved, upper, 1e-12)
            improvement = relative_improvement(base, improved)
            entry[metric] = {
                "without": base / peak,
                "with": improved / peak,
                "only_collocated": upper / peak,
                "improvement": improvement,
            }
            print(
                f"{pair_label:28s} {metric:8s} {base/peak:>9.3f} "
                f"{improved/peak:>9.3f} {upper/peak:>11.3f} {improvement:>12.2%}"
            )
            # WITH RASA sits between WITHOUT and the collocated bound.
            assert improved <= base + 1e-12
            assert upper <= improved + 1e-9
        rows[pair_label] = entry

    improvements = [rows[p]["latency"]["improvement"] for p in rows]
    print(f"\nper-pair latency improvements: "
          f"{min(improvements):.1%} .. {max(improvements):.1%} "
          f"(paper: 16.8% .. 72.2%)")
    assert max(improvements) > 0.15
    record_result("fig11_12_production_pairs", rows)
