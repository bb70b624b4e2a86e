"""The benchmark's metric catalog: every name, unit, direction and bound.

``BENCHMARK.json`` at the repository root lists the same metrics in the
same order; ``run.py --selfcheck`` fails when the two disagree.
"""

from __future__ import annotations

WORKLOADS: tuple[tuple[str, str], ...] = (
    ("optimize_m3",
     "cold one-shot solve of M3: one large MILP in HiGHS does ~90 % of the "
     "work, so a solver-core change shows here and a service change must not"),
    ("replay_week",
     "steady-state loop on the reference week: hundreds of tiny pricing "
     "MILPs and LPs per dry-run cycle plus a WAL append each cycle"),
    ("loop_m1_large",
     "one executed cycle on M1 at 0.6 of paper scale with 12-service shards: "
     "the Python layers (scheduler, state, merge, durability) do ~65 %"),
    ("service_mixed",
     "closed loop of 2 clients on a served subprocess with 8 tenants, 80/20 "
     "read/push mix and rare cycle triggers: the request path does the work"),
)

#: (name, unit, better, bound). Every workload reports every one of them;
#: the README says what each means on each workload.
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("work_s", "s", "lower", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_tail_ms", "ms", "lower", 0.25),
    ("gained_affinity", "ratio", "higher", 0.01),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: Service endpoints the load generator calls, reads first.
READ_ENDPOINTS = ("reports", "health", "metrics", "events", "tenant")
WRITE_ENDPOINTS = ("push_snapshot", "trigger_cycles")


def _timed(layer: str, *labels: str) -> list[tuple[str, str, str]]:
    out = []
    for label in labels:
        out.append((f"{layer}.{label}_calls", "count", "lower"))
        out.append((f"{layer}.{label}_s", "s", "lower"))
    return out


#: (name, unit, better). ``_s`` is inclusive busy time, ``self_s`` is busy
#: time minus child spans, ``_calls`` is a count; all from the traced pass
#: unless the README says otherwise.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    *_timed("solvers.milp_backend", "solve_milp"),
    *_timed("solvers.mip", "solve", "build_model"),
    ("solvers.mip.self_s", "s", "lower"),
    ("solvers.mip.greedy_wins", "count", "lower"),
    ("solvers.mip.useful_ratio", "ratio", "higher"),
    *_timed("solvers.column_generation", "solve"),
    ("solvers.column_generation.self_s", "s", "lower"),
    *_timed("solvers.patterns", "price_mip"),
    *_timed("solvers.lp", "solve_lp"),
    *_timed("solvers.greedy", "solve", "repair"),
    *_timed("partitioning", "partition"),
    ("partitioning.subproblems", "count", "lower"),
    ("partitioning.affinity_retained", "ratio", "higher"),
    *_timed("selection", "select"),
    ("selection.picked_mip", "count", "higher"),
    ("selection.picked_cg", "count", "higher"),
    *_timed("core.rasa", "schedule"),
    ("core.rasa.self_s", "s", "lower"),
    *_timed("core.solution", "assignment_init", "gained_affinity", "merge"),
    *_timed("cluster.scheduler", "place_missing"),
    *_timed("cluster.state", "placement"),
    ("cluster.state.named_placement_s", "s", "lower"),
    ("cluster.state.create_container_s", "s", "lower"),
    *_timed("cluster.collector", "collect"),
    ("cluster.replay.load_s", "s", "lower"),
    ("cluster.replay.advance_s", "s", "lower"),
    ("cluster.replay.events_applied", "count", "higher"),
    ("cluster.cronjob.cycles", "count", "higher"),
    ("cluster.cronjob.executed_cycles", "count", "higher"),
    ("cluster.cronjob.dry_run_cycles", "count", "lower"),
    ("cluster.cronjob.executed_cycle_p50_s", "s", "lower"),
    ("cluster.cronjob.dry_run_cycle_p50_s", "s", "lower"),
    ("cluster.cronjob.self_s", "s", "lower"),
    ("cluster.cronjob.dry_run_solver_share", "ratio", "lower"),
    *_timed("migration.path", "build"),
    ("migration.path.commands", "count", "lower"),
    ("migration.path.steps", "count", "lower"),
    *_timed("migration.executor", "execute"),
    *_timed("durability", "append_cycle", "write_snapshot"),
    ("durability.capture_live_s", "s", "lower"),
    ("durability.wal_bytes_per_cycle", "bytes", "lower"),
    ("durability.snapshot_bytes", "bytes", "lower"),
    *(
        metric
        for endpoint in READ_ENDPOINTS + WRITE_ENDPOINTS
        for metric in (
            (f"service.client.{endpoint}.count", "count", "higher"),
            (f"service.client.{endpoint}.p50_ms", "ms", "lower"),
            (f"service.client.{endpoint}.p99_ms", "ms", "lower"),
        )
    ),
    *_timed("service.tenant", "run_cycles"),
    ("service.tenant.push_snapshot_s", "s", "lower"),
    ("service.tenant.summary_s", "s", "lower"),
    ("service.tenant.events_since_s", "s", "lower"),
    ("service.pool.submit_calls", "count", "lower"),
    ("service.pool.queue_wait_p50_ms", "ms", "lower"),
    ("service.pool.queue_wait_p99_ms", "ms", "lower"),
    ("service.app.jobs_done", "count", "higher"),
    ("service.app.jobs_failed", "count", "lower"),
    ("service.app.cycle_duty", "ratio", "lower"),
    ("workloads.generate_s", "s", "lower"),
    ("bench.gained_at_1s", "ratio", "higher"),
    ("bench.gained_at_4s", "ratio", "higher"),
    ("bench.cycle_p50_ms", "ms", "lower"),
    ("bench.cycle_p90_ms", "ms", "lower"),
    ("bench.req_per_s", "1/s", "higher"),
    ("bench.read_p50_ms", "ms", "lower"),
    ("bench.read_p99_ms", "ms", "lower"),
    ("bench.write_p50_ms", "ms", "lower"),
    ("bench.write_p99_ms", "ms", "lower"),
    ("bench.span_coverage", "ratio", "higher"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
)
