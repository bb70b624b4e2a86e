"""Parallel subproblem engine — wall-clock speedup over one-at-a-time solving.

Runs the full RASA pipeline on the Fig. 6 evaluation workload's M3
cluster, partitioned into 4 independent subproblems
(``max_subproblem_services=12``), without an overall time limit: once
with the solve phase's CPU count pinned to 1, which solves the shards one
at a time, and once as shipped, one pool thread per CPU.  Both solve every
shard to completion, so the merged placements are bit-identical (the
engine's determinism guarantee).

The headline number is the wall-clock ratio.  HiGHS releases the GIL
while it searches, so the shards' solver time overlaps on threads; the
Python around it does not.  The speedup assertion is armed only when the
process may use >= 2 CPUs — on one the pool does not start, and the
benchmark instead checks that the two runs cost the same.
"""

from __future__ import annotations

import time
from unittest import mock

from conftest import record_result

from repro.core import RASAConfig, RASAScheduler
from repro.core.parallel import available_cpus
from repro.workloads import load_cluster

CLUSTER = "M3"
#: Shard size that splits M3's 68 services into 4 subproblems.
SHARD_SERVICES = 12
#: Least speedup accepted with two or more CPUs (1.66x measured on 2;
#: the largest shard bounds it, whatever the thread count).
MIN_SPEEDUP = 1.25


def test_parallel_speedup(benchmark):
    problem = load_cluster(CLUSTER).problem
    cpus = available_cpus()

    def run(threads: int):
        config = RASAConfig(max_subproblem_services=SHARD_SERVICES)
        scheduler = RASAScheduler(config=config)
        with mock.patch("repro.core.rasa.available_cpus", return_value=threads):
            start = time.monotonic()
            result = scheduler.schedule(problem)
            return result, time.monotonic() - start

    def run_both():
        sequential, seq_seconds = run(1)
        parallel, par_seconds = run(cpus)
        return sequential, seq_seconds, parallel, par_seconds

    sequential, seq_seconds, parallel, par_seconds = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )

    shards = len(sequential.partition.subproblems)
    speedup = seq_seconds / par_seconds if par_seconds > 0 else float("inf")
    print(f"\nParallel engine speedup — {CLUSTER}, {shards} subproblems, "
          f"{cpus} threads on {cpus} CPUs")
    print(f"{'mode':12s} {'seconds':>9s} {'gained':>8s}")
    print(f"{'one at once':12s} {seq_seconds:>9.2f} {sequential.gained_affinity:>8.3f}")
    print(f"{'threaded':12s} {par_seconds:>9.2f} {parallel.gained_affinity:>8.3f}")
    print(f"speedup: {speedup:.2f}x")

    # Determinism guarantee: identical placement bits and objective.
    assert shards >= 4
    assert sequential.assignment.x.tobytes() == parallel.assignment.x.tobytes()
    assert parallel.gained_affinity == sequential.gained_affinity

    if cpus >= 2:
        assert speedup >= MIN_SPEEDUP, (
            f"expected >= {MIN_SPEEDUP}x speedup on {cpus} CPUs, got {speedup:.2f}x"
        )
    else:
        # One CPU: no pool starts, so both runs are the same solve.
        assert par_seconds <= seq_seconds * 1.5

    record_result(
        "parallel_speedup",
        {
            "cluster": CLUSTER,
            "subproblems": shards,
            "threads": cpus,
            "cpus": cpus,
            "sequential_seconds": seq_seconds,
            "parallel_seconds": par_seconds,
            "speedup": speedup,
            "identical": True,
        },
    )
