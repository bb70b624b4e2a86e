"""Cluster simulator and control plane: state, scheduler, collector, CronJob,
and the IPC-vs-RPC network performance model."""

from repro.cluster.collector import DataCollector
from repro.cluster.cronjob import CronJobController, CycleReport
from repro.cluster.replay import (
    EventStreamCursor,
    EventTrace,
    MachineAdd,
    MachineDrain,
    ReplayWorld,
    ServiceDeploy,
    ServiceScale,
    ServiceTeardown,
    SpotReclaim,
    TrafficShift,
    event_from_dict,
    synthesize_trace,
)
from repro.cluster.network import (
    NetworkParameters,
    NetworkSimulator,
    PairSeries,
    ProductionReport,
    normalize_series,
    relative_improvement,
)
from repro.cluster.scheduler import (
    DefaultScheduler,
    affinity_score,
    binpack_score,
    least_allocated_score,
    spread_score,
)
from repro.cluster.state import ClusterState

__all__ = [
    "ClusterState",
    "CronJobController",
    "CycleReport",
    "DataCollector",
    "DefaultScheduler",
    "EventStreamCursor",
    "EventTrace",
    "MachineAdd",
    "MachineDrain",
    "ReplayWorld",
    "ServiceDeploy",
    "ServiceScale",
    "ServiceTeardown",
    "SpotReclaim",
    "TrafficShift",
    "event_from_dict",
    "synthesize_trace",
    "NetworkParameters",
    "NetworkSimulator",
    "PairSeries",
    "ProductionReport",
    "affinity_score",
    "binpack_score",
    "least_allocated_score",
    "normalize_series",
    "relative_improvement",
    "spread_score",
]
