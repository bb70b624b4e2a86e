"""Long-horizon dynamic simulation: churn events + the CronJob optimizer.

Drives a :class:`~repro.cluster.events.DynamicCluster` through an event
schedule while the half-hourly CronJob keeps re-optimizing — the full
closed loop of the paper's production system.  Records a gained-affinity
time series so the value of *continuous* optimization (vs. optimize-once)
can be measured; the ``bench_dynamic_churn`` ablation does exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.collector import DataCollector
from repro.cluster.cronjob import build_controller
from repro.cluster.events import DynamicCluster, EventSchedule
from repro.cluster.state import ClusterState
from repro.core.config import LoopSpec


@dataclass
class SimulationTick:
    """State of the world after one simulation interval.

    Attributes:
        at_seconds: Simulated timestamp.
        gained_affinity: Normalized gained affinity of the live placement.
        events: Descriptions of churn events applied during the interval.
        cron_action: What the CronJob did (``"executed"``/``"dry_run"``/
            ``"rolled_back"``/``"disabled"``).
        moved_containers: Containers the CronJob relocated this tick.
    """

    at_seconds: float
    gained_affinity: float
    events: list[str] = field(default_factory=list)
    cron_action: str = "disabled"
    moved_containers: int = 0


class DynamicSimulation:
    """Closed-loop simulation of churn plus periodic optimization.

    Args:
        world: The dynamic cluster under test.
        schedule: Churn events to apply over time.
        optimize: Whether the CronJob runs each interval (False gives the
            optimize-never baseline for the churn ablation).
        interval_seconds: Tick length; matches the CronJob period.
        time_limit: Per-cycle solver budget.
    """

    def __init__(
        self,
        world: DynamicCluster,
        schedule: EventSchedule,
        optimize: bool = True,
        interval_seconds: float = 1800.0,
        time_limit: float = 6.0,
    ) -> None:
        self.world = world
        self.schedule = schedule
        self.optimize = optimize
        self.interval_seconds = interval_seconds
        self.time_limit = time_limit
        self.ticks: list[SimulationTick] = []

    def run(self, intervals: int) -> list[SimulationTick]:
        """Advance the world ``intervals`` ticks and return the series."""
        for _ in range(intervals):
            now = self.world.state.clock + self.interval_seconds
            self.world.state.advance(self.interval_seconds)

            descriptions = []
            for event in self.schedule.due(now):
                descriptions.append(event.apply(self.world))

            action = "disabled"
            moved = 0
            if self.optimize:
                controller = build_controller(
                    LoopSpec(time_limit=self.time_limit),
                    self.world.state,
                    collector=DataCollector(self.world.qps, traffic_jitter_sigma=0.0),
                )
                report = controller.run_once()
                action = report.action
                moved = report.moved_containers
                # CronJob may rebuild nothing, but the state object is shared.
                self.world.state = controller.state

            gained = self.world.state.assignment().gained_affinity(normalized=True)
            self.ticks.append(
                SimulationTick(
                    at_seconds=now,
                    gained_affinity=gained,
                    events=descriptions,
                    cron_action=action,
                    moved_containers=moved,
                )
            )
        return self.ticks


def make_world(problem, qps) -> DynamicCluster:
    """Convenience constructor wrapping a generated cluster."""
    return DynamicCluster(state=ClusterState(problem), qps=dict(qps))
