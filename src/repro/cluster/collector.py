"""Data collector: turns live cluster state into RASA algorithm input.

The paper's collector gathers the service list, machine list, current
deployments, and traffic metrics per cluster (Section III-A).  Here the
traffic metrics come from the simulated monitoring system: the generator's
ground-truth QPS jittered per collection window, so consecutive CronJob
cycles see realistically drifting affinity weights.

With a :class:`~repro.faults.FaultInjector`, the collector can also model a
monitoring plane that misbehaves: a *stale* snapshot (the previous cycle's
problem is served again, deployments and all) or a *partial* one (a
fraction of traffic edges is missing).  Both are downstream-survivable: a
stale deployment map produces migration commands the CronJob skips and
repairs, and missing edges merely under-inform the optimizer.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.state import ClusterState
from repro.core.affinity import AffinityGraph
from repro.core.config import LoopSpec
from repro.core.problem import RASAProblem
from repro.faults import SNAPSHOT_FAULT_STALE, FaultInjector
from repro.obs import get_logger, kv


class DataCollector:
    """Produces RASA input problems from cluster state and traffic metrics.

    Args:
        qps: Ground-truth traffic per service pair (the monitoring system's
            source of affinity weights).  May be None when ``stream`` is
            given.
        traffic_jitter_sigma: Lognormal sigma of per-window measurement
            drift; 0 disables jitter.
        seed: RNG seed for the jitter stream.
        stream: Optional replay cursor
            (:class:`~repro.cluster.replay.EventStreamCursor`).  When set,
            each collection window reads the cursor's *live* traffic map —
            which trace events mutate between cycles — instead of the
            static ``qps`` snapshot.
    """

    def __init__(
        self,
        qps: dict[tuple[str, str], float] | None = None,
        traffic_jitter_sigma: float = LoopSpec.traffic_jitter_sigma,
        seed: int = LoopSpec.seed,
        stream=None,
    ) -> None:
        if qps is None and stream is None:
            raise ValueError("DataCollector needs a qps map or a stream")
        self.qps = dict(qps) if qps is not None else {}
        self.stream = stream
        self.traffic_jitter_sigma = traffic_jitter_sigma
        self._rng = np.random.default_rng(seed)
        self._last_problem: RASAProblem | None = None

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def state_payload(self, encode_problem) -> dict:
        """JSON-safe capture of the collector's evolving state.

        Two things advance as cycles run: the jitter RNG and the memory of
        the last collected problem (which gates the stale-snapshot fault
        draw — see :meth:`collect`).  Both must survive a restart for a
        resumed run to stay bit-identical to an uninterrupted one.

        Args:
            encode_problem: Serializes the last problem in the caller's
                format (the checkpoint's); :meth:`restore_state` takes it
                back decoded to :func:`~repro.workloads.trace_io.problem_to_dict`'s
                form.
        """
        return {
            "rng": self._rng.bit_generator.state,
            "last_problem": (
                encode_problem(self._last_problem)
                if self._last_problem is not None
                else None
            ),
        }

    def restore_state(self, payload: dict) -> None:
        """Restore a capture of :meth:`state_payload`, its last problem in
        :func:`~repro.workloads.trace_io.problem_to_dict`'s form."""
        from repro.workloads.trace_io import problem_from_dict

        self._rng = np.random.default_rng()
        self._rng.bit_generator.state = payload["rng"]
        last = payload.get("last_problem")
        self._last_problem = (
            problem_from_dict(last) if last is not None else None
        )

    def collect(
        self,
        state: ClusterState,
        *,
        injector: FaultInjector | None = None,
    ) -> RASAProblem:
        """Snapshot the cluster into a fresh :class:`RASAProblem`.

        The returned problem carries the current placement as
        ``current_assignment``, jittered traffic as affinity weights, and a
        schedulability matrix with churn-tagged machines masked out (so the
        optimizer cannot re-populate machines under the 3-day rollback tag).

        Args:
            injector: Optional fault source.  A *stale* fault replays the
                previous collection verbatim; a non-zero drop fraction
                removes traffic edges from this window's snapshot.  None
                (the default) always collects fresh, exactly as before.
        """
        if injector is not None and self._last_problem is not None:
            if injector.snapshot_fault() == SNAPSHOT_FAULT_STALE:
                stale = self._last_problem
                # Under structural churn (replay deploys/reclaims) the
                # previous window may describe a different cluster; serving
                # it would hand the optimizer a phantom world.  The fault
                # draw above still consumed its RNG, so determinism with
                # and without this guard tripping is preserved.
                if (
                    stale.service_names() == state.problem.service_names()
                    and stale.machine_names() == state.problem.machine_names()
                ):
                    get_logger("cluster.collector").warning(
                        "stale snapshot %s",
                        kv(services=stale.num_services),
                    )
                    return stale
                get_logger("cluster.collector").warning(
                    "stale snapshot discarded %s",
                    kv(reason="cluster structure changed"),
                )

        base = state.problem
        live_qps = self.stream.qps if self.stream is not None else self.qps
        weights: dict[tuple[str, str], float] = {}
        for pair, volume in live_qps.items():
            jitter = (
                float(self._rng.lognormal(0.0, self.traffic_jitter_sigma))
                if self.traffic_jitter_sigma > 0
                else 1.0
            )
            weights[pair] = volume * jitter

        if injector is not None and weights:
            dropped = injector.dropped_edges(sorted(weights))
            if dropped:
                get_logger("cluster.collector").warning(
                    "partial snapshot %s",
                    kv(dropped_edges=len(dropped), total_edges=len(weights)),
                )
                for pair in dropped:
                    del weights[pair]

        schedulable = base.schedulable.copy()
        for m, machine in enumerate(base.machines):
            if not state.is_schedulable_machine(machine.name):
                schedulable[:, m] = False

        problem = RASAProblem(
            services=base.services,
            machines=base.machines,
            affinity=AffinityGraph(weights),
            anti_affinity=base.anti_affinity,
            schedulable=schedulable,
            resource_types=base.resource_types,
            current_assignment=state.placement,
        )
        self._last_problem = problem
        return problem
