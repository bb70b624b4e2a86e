"""Replayable event streams: recorded churn driving the closed control loop.

The paper's premise (Section III-A) is *continuous* re-optimization: the
half-hourly CronJob exists because deploys, autoscaling, traffic shifts,
and hardware churn erode gained affinity between cycles.  The simulator's
synthetic snapshots cannot exercise that regime, so this module supplies a
recorded-trace plane:

* **Events** — seven serializable churn records
  (:class:`ServiceDeploy`, :class:`ServiceTeardown`, :class:`ServiceScale`,
  :class:`TrafficShift`, :class:`MachineAdd`, :class:`MachineDrain`,
  :class:`SpotReclaim`), each a frozen dataclass sharing one
  ``to_dict``/``from_dict`` codec (:class:`ReplayEvent`) whose payload is
  keyed by ``kind``.
* :class:`ReplayWorld` — a mutable cluster the events apply to, including
  *structural* churn: services and machines enter and leave, and the
  placement matrix is carried across rebuilds by name.  The wrapped
  :class:`~repro.cluster.state.ClusterState` keeps its identity via
  :meth:`~repro.cluster.state.ClusterState.rebind`, so a CronJob
  controller holding the state sees every change in place.
* :class:`EventStreamCursor` — the stream interface the
  :class:`~repro.cluster.collector.DataCollector` and
  :class:`~repro.cluster.cronjob.CronJobController` consume: it applies
  all events due at the current simulated time and exposes the live
  traffic map.
* :class:`EventTrace` — a named, seeded trace (base problem + events)
  serialized by :mod:`repro.workloads.trace_io` as gzip-compressed JSONL
  (format v2), and :func:`synthesize_trace`, the seeded generator behind
  the committed reference traces under ``benchmarks/traces/``.

Determinism contract: replaying the same trace with the same collector
seed and fault plan produces a bit-identical :class:`CycleReport`
sequence, for any worker count — events consume no randomness at apply
time, and every random choice was burned into the trace when it was
recorded.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from typing import ClassVar, Mapping

import numpy as np

from repro.cluster.scheduler import DefaultScheduler
from repro.cluster.state import ClusterState
from repro.core.affinity import AffinityGraph
from repro.core.config import CYCLE_SECONDS
from repro.core.problem import AntiAffinityRule, Machine, RASAProblem, Service
from repro.exceptions import ClusterStateError, ProblemValidationError
from repro.obs import get_metrics
from repro.workloads.trace_io import problem_from_dict, problem_to_dict


def _pair(u: str, v: str) -> tuple[str, str]:
    """Canonical unordered service-pair key (matches AffinityGraph)."""
    return (u, v) if u <= v else (v, u)


# ----------------------------------------------------------------------
# Event records
# ----------------------------------------------------------------------
#: Annotation aliases: declared as a field's type they select the stricter
#: wire check (``> 0``) in :data:`_FIELD_CODECS`.
PositiveInt = int
PositiveFloat = float


def _finite(value) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"must be finite, got {number}")
    return number


def _positive_float(value) -> float:
    number = float(value)
    if not 0.0 < number < math.inf:
        raise ValueError(f"must be positive and finite, got {number}")
    return number


def _positive_int(value) -> int:
    number = int(value)
    if number <= 0:
        raise ValueError(f"must be positive, got {number}")
    return number


#: Declared field type -> ``(encode, decode)``.  The encoders fix the wire
#: form; the decoders are the one place a number from outside the program
#: (a trace file, a checkpoint, an HTTP body, an event built in code) is
#: checked, and they raise ``ValueError`` on a value the world cannot use.
_FIELD_CODECS: dict[str, tuple] = {
    "str": (str, str),
    "float": (float, _finite),
    "PositiveFloat": (float, _positive_float),
    "PositiveInt": (int, _positive_int),
    "Mapping[str, float]": (
        lambda amounts: {str(k): float(v) for k, v in amounts.items()},
        lambda amounts: {str(k): _finite(v) for k, v in amounts.items()},
    ),
    "tuple[tuple[str, float], ...]": (
        lambda edges: [[peer, float(w)] for peer, w in edges],
        lambda edges: tuple((str(peer), _positive_float(w)) for peer, w in edges),
    ),
}

#: What a decoder raises on a value of the wrong shape or range.
_DECODE_ERRORS = (AttributeError, KeyError, OverflowError, TypeError, ValueError)


class ReplayEvent:
    """Base of the seven churn records: one wire codec for all of them.

    Each subclass is a frozen dataclass whose declared fields *are* its
    wire keys, in order, after the ``kind`` tag; :data:`EVENT_TYPES` turns
    them into the per-kind ``(key, encode, decode, default)`` table that
    drives :meth:`to_dict`, :meth:`from_dict`, and :meth:`check`.
    """

    #: Serialized tag selecting the event class.
    kind: ClassVar[str]
    _wire: ClassVar[tuple]

    def to_dict(self) -> dict:
        """The event's JSON payload: ``kind`` plus one key per field."""
        payload = {"kind": self.kind}
        for key, encode, _, _ in self._wire:
            payload[key] = encode(getattr(self, key))
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ReplayEvent":
        """Deserialize a payload written by :meth:`to_dict`.

        Raises:
            ProblemValidationError: Naming the kind and the field, on a
                missing key, a wrong-typed value, a non-finite number, or
                a non-positive demand or factor.
        """
        # Filling ``__dict__`` directly skips the frozen dataclass's
        # per-field ``object.__setattr__``, which is over half of what
        # constructing an event costs; a trace load decodes hundreds.
        event = object.__new__(cls)
        values = event.__dict__
        try:
            for key, _, decode, default in cls._wire:
                values[key] = decode(
                    payload[key] if default is MISSING else payload.get(key, default)
                )
        except _DECODE_ERRORS as exc:
            reason = "is missing" if isinstance(exc, KeyError) else exc
            raise ProblemValidationError(
                f"malformed {cls.kind!r} event payload: {key} {reason}"
            ) from exc
        return event

    def check(self) -> None:
        """Validate an event built in code with the wire decoders.

        Raises:
            ClusterStateError: Naming the kind and the offending field.
        """
        for key, _, decode, _ in self._wire:
            try:
                decode(getattr(self, key))
            except _DECODE_ERRORS as exc:
                raise ClusterStateError(
                    f"{self.kind} event: {key} {exc}"
                ) from exc


@dataclass(frozen=True)
class ServiceDeploy(ReplayEvent):
    """A new service enters the cluster with traffic to existing peers.

    Attributes:
        at_seconds: Simulated time at which the deploy lands.
        service: Name of the new service (must be unused).
        demand: Container count the service requires.
        requests: Per-container resource requests.
        priority: Network-performance priority (1.0 neutral).
        edges: Affinity edges to existing services as ``(peer, qps)``.
    """

    kind: ClassVar[str] = "service_deploy"
    at_seconds: float
    service: str
    demand: PositiveInt
    requests: Mapping[str, float]
    priority: float = 1.0
    edges: tuple[tuple[str, float], ...] = ()


@dataclass(frozen=True)
class ServiceTeardown(ReplayEvent):
    """A service is decommissioned; its containers and traffic vanish."""

    kind: ClassVar[str] = "service_teardown"
    at_seconds: float
    service: str


@dataclass(frozen=True)
class ServiceScale(ReplayEvent):
    """A service's demand changes (autoscaling, rollout).

    Scale-ups land via the default scheduler; scale-downs remove the
    least-affine replicas first (:func:`least_affine_host`).
    """

    kind: ClassVar[str] = "service_scale"
    at_seconds: float
    service: str
    new_demand: PositiveInt


@dataclass(frozen=True)
class TrafficShift(ReplayEvent):
    """Traffic between one service pair is multiplied by ``factor``."""

    kind: ClassVar[str] = "traffic_shift"
    at_seconds: float
    u: str
    v: str
    factor: PositiveFloat


@dataclass(frozen=True)
class MachineAdd(ReplayEvent):
    """A machine joins the cluster (capacity expansion, spot replacement)."""

    kind: ClassVar[str] = "machine_add"
    at_seconds: float
    machine: str
    capacity: Mapping[str, float]
    spec: str = "default"


@dataclass(frozen=True)
class MachineDrain(ReplayEvent):
    """Graceful drain: containers are evicted and re-placed, the machine
    stays in the cluster at zero capacity (maintenance)."""

    kind: ClassVar[str] = "machine_drain"
    at_seconds: float
    machine: str


@dataclass(frozen=True)
class SpotReclaim(ReplayEvent):
    """Abrupt reclaim: the machine leaves the cluster and its containers
    are lost; the default scheduler re-places the shortfall elsewhere."""

    kind: ClassVar[str] = "spot_reclaim"
    at_seconds: float
    machine: str


#: Registry mapping the serialized ``kind`` tag to its event class.
EVENT_TYPES: dict[str, type[ReplayEvent]] = {
    cls.kind: cls
    for cls in (
        ServiceDeploy,
        ServiceTeardown,
        ServiceScale,
        TrafficShift,
        MachineAdd,
        MachineDrain,
        SpotReclaim,
    )
}
for _cls in EVENT_TYPES.values():
    _cls._wire = tuple(
        (f.name, *_FIELD_CODECS[f.type], f.default) for f in fields(_cls)
    )


def event_from_dict(payload: dict) -> ReplayEvent:
    """Deserialize one event payload written by an event's ``to_dict``.

    Raises:
        ProblemValidationError: On unknown kinds or malformed payloads (a
            typoed trace must fail loudly, not replay a different world).
    """
    if not isinstance(payload, dict):
        raise ProblemValidationError(
            f"replay event must be an object, got {type(payload).__name__}"
        )
    kind = payload.get("kind")
    cls = EVENT_TYPES.get(kind)
    if cls is None:
        raise ProblemValidationError(
            f"unknown replay event kind {kind!r} "
            f"(known: {sorted(EVENT_TYPES)})"
        )
    return cls.from_dict(payload)


# ----------------------------------------------------------------------
# The replayable world
# ----------------------------------------------------------------------
class ReplayWorld:
    """A cluster whose membership, demands, and traffic change over time.

    Holds the authoritative books — services, current demands, machines,
    drained set, schedulability bans, anti-affinity rules, and the live
    QPS map — and re-materializes the :class:`RASAProblem` after each
    structural event, carrying the placement over *by name* so events may
    add and remove services and machines freely.

    Args:
        base: The starting cluster.  Its recorded current assignment seeds
            the placement; without one, the default scheduler fills the
            cluster first.
        scheduler: Scheduler used for self-healing placements after churn.
    """

    def __init__(
        self, base: RASAProblem, scheduler: DefaultScheduler | None = None
    ) -> None:
        self._services: dict[str, Service] = {s.name: s for s in base.services}
        self._demands: dict[str, int] = {s.name: s.demand for s in base.services}
        self._machines: dict[str, Machine] = {m.name: m for m in base.machines}
        self._drained: set[str] = set()
        self._rules: list[AntiAffinityRule] = list(base.anti_affinity)
        self._resource_types = base.resource_types
        self._banned: dict[str, set[str]] = {}
        for i, svc in enumerate(base.services):
            banned = {
                base.machines[j].name for j in np.nonzero(~base.schedulable[i])[0]
            }
            if banned:
                self._banned[svc.name] = banned
        #: Live traffic map the collector reads; traffic shifts mutate it.
        self.qps: dict[tuple[str, str], float] = {
            _pair(u, v): float(w) for (u, v), w in base.affinity.items()
        }
        self.scheduler = scheduler or DefaultScheduler()
        self.state = ClusterState(base)
        # The base assignment may be partial (e.g. the generator's first-fit
        # leaves overflow unplaced); start the replay from a healed cluster
        # so cycle 0 measures churn, not leftover generator debt.
        self.scheduler.place_missing(self.state)

    # ------------------------------------------------------------------
    def apply(self, event: ReplayEvent) -> str:
        """Apply one event; returns a human-readable description.

        Raises:
            ClusterStateError: When the event carries a number the world
                cannot use (non-finite, or a non-positive demand, factor,
                or edge weight) or is inconsistent with the current world
                (unknown service, duplicate machine, ...).
        """
        handler = self._HANDLERS.get(event.kind)
        if handler is None:
            raise ClusterStateError(f"no handler for event kind {event.kind!r}")
        event.check()
        description = handler(self, event)
        get_metrics().counter(f"replay.events.{event.kind}").inc()
        return description

    # ------------------------------------------------------------------
    def _rebuild(self) -> RASAProblem:
        """Re-materialize the problem from the books, carrying placement
        over by name, and rebind the live state in place."""
        old = self.state.problem
        old_x = self.state.placement
        old_snames = set(old.service_names())
        old_mnames = set(old.machine_names())

        services = [
            Service(
                name=name,
                demand=self._demands[name],
                requests=dict(svc.requests),
                priority=svc.priority,
            )
            for name, svc in self._services.items()
        ]
        machines = []
        for name, mach in self._machines.items():
            if name in self._drained:
                machines.append(
                    Machine(name, {r: 0.0 for r in mach.capacity}, mach.spec)
                )
            else:
                machines.append(mach)

        n, m = len(services), len(machines)
        machine_pos = {mach.name: j for j, mach in enumerate(machines)}
        schedulable = np.ones((n, m), dtype=bool)
        for i, svc in enumerate(services):
            for banned in self._banned.get(svc.name, ()):
                j = machine_pos.get(banned)
                if j is not None:
                    schedulable[i, j] = False

        live = set(self._services)
        weights = {
            pair: w
            for pair, w in self.qps.items()
            if pair[0] in live and pair[1] in live
        }
        rules = []
        for rule in self._rules:
            members = rule.services & live
            if members:
                rules.append(AntiAffinityRule(frozenset(members), rule.limit))

        x = np.zeros((n, m), dtype=np.int64)
        rows_new = [i for i, svc in enumerate(services) if svc.name in old_snames]
        cols_new = [j for j, mach in enumerate(machines) if mach.name in old_mnames]
        if rows_new and cols_new:
            rows_old = [old.service_index(services[i].name) for i in rows_new]
            cols_old = [old.machine_index(machines[j].name) for j in cols_new]
            x[np.ix_(rows_new, cols_new)] = old_x[np.ix_(rows_old, cols_old)]

        problem = RASAProblem(
            services=services,
            machines=machines,
            affinity=AffinityGraph(weights),
            anti_affinity=rules,
            schedulable=schedulable,
            resource_types=self._resource_types,
            current_assignment=x,
        )
        self.state.rebind(problem)
        return problem

    # ------------------------------------------------------------------
    # Handlers (one per event kind)
    # ------------------------------------------------------------------
    def _apply_deploy(self, ev: ServiceDeploy) -> str:
        if ev.service in self._services:
            raise ClusterStateError(f"service {ev.service!r} already exists")
        for peer, weight in ev.edges:
            if peer not in self._services:
                raise ClusterStateError(
                    f"deploy of {ev.service!r} references unknown peer {peer!r}"
                )
        svc = Service(
            name=ev.service,
            demand=int(ev.demand),
            requests=dict(ev.requests),
            priority=float(ev.priority),
        )
        self._services[ev.service] = svc
        self._demands[ev.service] = int(ev.demand)
        for peer, weight in ev.edges:
            key = _pair(ev.service, peer)
            self.qps[key] = self.qps.get(key, 0.0) + float(weight)
        self._rebuild()
        placed = self.scheduler.place_missing(self.state)
        return f"deployed {ev.service} demand={ev.demand} ({placed} placed)"

    def _apply_teardown(self, ev: ServiceTeardown) -> str:
        if ev.service not in self._services:
            raise ClusterStateError(f"unknown service {ev.service!r}")
        if len(self._services) <= 1:
            raise ClusterStateError("cannot tear down the last service")
        del self._services[ev.service]
        del self._demands[ev.service]
        self._banned.pop(ev.service, None)
        for key in [p for p in self.qps if ev.service in p]:
            del self.qps[key]
        self._rules = [
            AntiAffinityRule(frozenset(members), rule.limit)
            for rule in self._rules
            if (members := rule.services - {ev.service})
        ]
        self._rebuild()
        return f"tore down {ev.service}"

    def _apply_scale(self, ev: ServiceScale) -> str:
        if ev.service not in self._services:
            raise ClusterStateError(f"unknown service {ev.service!r}")
        old_demand = self._demands[ev.service]
        self._demands[ev.service] = int(ev.new_demand)
        problem = self._rebuild()
        state = self.state
        s = problem.service_index(ev.service)
        placed = int(state.placement[s].sum())
        if ev.new_demand > placed:
            for _ in range(ev.new_demand - placed):
                if self.scheduler.place_one(state, ev.service) is None:
                    break
        elif ev.new_demand < placed:
            for _ in range(placed - ev.new_demand):
                machine = least_affine_host(state, s)
                if machine is None:
                    break
                state.delete_container(ev.service, machine)
        return f"scaled {ev.service} {old_demand} -> {ev.new_demand}"

    def _apply_traffic(self, ev: TrafficShift) -> str:
        key = _pair(ev.u, ev.v)
        if key not in self.qps or key[0] not in self._services \
                or key[1] not in self._services:
            raise ClusterStateError(f"no traffic recorded between {key}")
        self.qps[key] *= float(ev.factor)
        self._rebuild()
        return f"traffic {key[0]}<->{key[1]} x{ev.factor:g}"

    def _apply_machine_add(self, ev: MachineAdd) -> str:
        if ev.machine in self._machines:
            raise ClusterStateError(f"machine {ev.machine!r} already exists")
        self._machines[ev.machine] = Machine(
            name=ev.machine, capacity=dict(ev.capacity), spec=ev.spec
        )
        self._rebuild()
        placed = self.scheduler.place_missing(self.state)
        return f"added machine {ev.machine} ({placed} placed)"

    def _apply_drain(self, ev: MachineDrain) -> str:
        if ev.machine not in self._machines:
            raise ClusterStateError(f"unknown machine {ev.machine!r}")
        if ev.machine in self._drained:
            raise ClusterStateError(f"machine {ev.machine!r} already drained")
        state = self.state
        problem = state.problem
        m = problem.machine_index(ev.machine)
        evicted = 0
        for s in np.nonzero(state.placement[:, m])[0]:
            for _ in range(int(state.placement[int(s), m])):
                state.delete_container(problem.services[int(s)].name, ev.machine)
                evicted += 1
        self._drained.add(ev.machine)
        self._rebuild()
        replaced = self.scheduler.place_missing(state)
        return f"drained {ev.machine}: evicted {evicted}, re-placed {replaced}"

    def _apply_reclaim(self, ev: SpotReclaim) -> str:
        if ev.machine not in self._machines:
            raise ClusterStateError(f"unknown machine {ev.machine!r}")
        if len(self._machines) <= 1:
            raise ClusterStateError("cannot reclaim the last machine")
        state = self.state
        m = state.problem.machine_index(ev.machine)
        lost = int(state.placement[:, m].sum())
        del self._machines[ev.machine]
        self._drained.discard(ev.machine)
        self._rebuild()
        replaced = self.scheduler.place_missing(state)
        return f"reclaimed {ev.machine}: lost {lost}, re-placed {replaced}"

    _HANDLERS: ClassVar[dict] = {
        ServiceDeploy.kind: _apply_deploy,
        ServiceTeardown.kind: _apply_teardown,
        ServiceScale.kind: _apply_scale,
        TrafficShift.kind: _apply_traffic,
        MachineAdd.kind: _apply_machine_add,
        MachineDrain.kind: _apply_drain,
        SpotReclaim.kind: _apply_reclaim,
    }


def least_affine_host(state: ClusterState, service: int) -> str | None:
    """Host machine whose replica of ``service`` contributes the least
    gained affinity (the natural scale-down victim)."""
    problem = state.problem
    hosts = np.nonzero(state.placement[service])[0]
    if hosts.size == 0:
        return None
    name = problem.services[service].name
    neighbors = problem.affinity.neighbors(name)
    demands = problem.demands.astype(float)
    x = state.placement

    def contribution(m: int) -> float:
        total = 0.0
        for other, w in neighbors.items():
            t = problem.service_index(other)
            before = min(x[service, m] / demands[service], x[t, m] / demands[t])
            after = min((x[service, m] - 1) / demands[service], x[t, m] / demands[t])
            total += w * (before - after)
        return total

    worst = min(hosts, key=lambda m: contribution(int(m)))
    return problem.machines[int(worst)].name


# ----------------------------------------------------------------------
# Trace + cursor
# ----------------------------------------------------------------------
@dataclass
class EventTrace:
    """A recorded event stream over a base cluster.

    Attributes:
        base: The cluster at recording start (with its placement).
        events: Churn events, kept sorted by ``at_seconds`` (stable).
        name: Trace label (e.g. ``"reference-week"``).
        seed: Seed the trace was synthesized from (0 for recorded traces).
        interval_seconds: The CronJob period the trace was recorded
            against; replay defaults to the same cadence.
        description: Free-form provenance notes.
    """

    base: RASAProblem
    events: list[ReplayEvent] = field(default_factory=list)
    name: str = "trace"
    seed: int = 0
    interval_seconds: float = CYCLE_SECONDS
    description: str = ""

    def __post_init__(self) -> None:
        self.events = sorted(self.events, key=lambda e: e.at_seconds)

    # ------------------------------------------------------------------
    @property
    def duration_seconds(self) -> float:
        """Timestamp of the last event (0 for an empty stream)."""
        return self.events[-1].at_seconds if self.events else 0.0

    def num_cycles(self, interval_seconds: float | None = None) -> int:
        """Control-loop cycles needed to replay the stream end to end."""
        interval = interval_seconds or self.interval_seconds
        return int(np.ceil(self.duration_seconds / interval)) + 1

    def cursor(self) -> "EventStreamCursor":
        """A fresh cursor over a fresh world built from the base problem."""
        return EventStreamCursor(self)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """The trace payload: metadata, ``base`` problem, and ``events``.

        The one wire form of a trace — v2 trace files, checkpoint
        ``source`` payloads, and replay-tenant registrations all carry it.
        """
        return {
            "name": self.name,
            "seed": int(self.seed),
            "interval_seconds": float(self.interval_seconds),
            "description": self.description,
            "base": problem_to_dict(self.base),
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "EventTrace":
        """Deserialize a payload written by :meth:`to_dict`.

        Raises:
            ProblemValidationError: On a missing ``base``, a malformed
                event, or wrong-typed metadata.
        """
        if not isinstance(payload, dict) or "base" not in payload:
            raise ProblemValidationError(
                "event-trace payload must be an object with a 'base' problem"
            )
        try:
            return cls(
                base=problem_from_dict(payload["base"]),
                events=[event_from_dict(e) for e in payload.get("events", [])],
                name=str(payload.get("name", "trace")),
                seed=int(payload.get("seed", 0)),
                interval_seconds=float(payload.get("interval_seconds", CYCLE_SECONDS)),
                description=str(payload.get("description", "")),
            )
        except (AttributeError, TypeError, ValueError) as exc:
            raise ProblemValidationError(
                f"malformed event-trace payload: {exc}"
            ) from exc

    def save(self, path) -> None:
        """Write the trace as a (gzip-compressed) v2 JSONL file."""
        from repro.workloads.trace_io import save_event_trace

        save_event_trace(self, path)

    @classmethod
    def load(cls, path) -> "EventTrace":
        """Read a trace written by :meth:`save`."""
        from repro.workloads.trace_io import load_event_trace

        return load_event_trace(path)


class EventStreamCursor:
    """Replay cursor binding an :class:`EventTrace` to a live world.

    The control loop advances the cursor once per cycle
    (:meth:`advance_to`), which applies every event due at the current
    simulated time to the world; the data collector reads the live
    traffic map through :attr:`qps`.  The cursor never rewinds — build a
    fresh one via :meth:`EventTrace.cursor` to replay from the start.
    """

    def __init__(self, trace: EventTrace, world: ReplayWorld | None = None) -> None:
        self.trace = trace
        self.world = world if world is not None else ReplayWorld(trace.base)
        self._pos = 0

    # ------------------------------------------------------------------
    @property
    def state(self) -> ClusterState:
        """The live cluster state (identity-stable across events)."""
        return self.world.state

    @property
    def qps(self) -> dict[tuple[str, str], float]:
        """The live traffic map (mutated in place by traffic shifts)."""
        return self.world.qps

    @property
    def position(self) -> int:
        """Number of events applied so far."""
        return self._pos

    @property
    def pending(self) -> int:
        """Number of events not yet applied."""
        return len(self.trace.events) - self._pos

    @property
    def exhausted(self) -> bool:
        """Whether every event has been applied."""
        return self.pending == 0

    # ------------------------------------------------------------------
    def advance_to(self, now_seconds: float) -> list[str]:
        """Apply every event with ``at_seconds <= now_seconds``.

        Returns the applied events' descriptions, in order.
        """
        applied: list[str] = []
        events = self.trace.events
        while self._pos < len(events) and events[self._pos].at_seconds <= now_seconds:
            # Step only past an event that applied: a raising one must
            # fail the same way on retry and on checkpoint resume.
            applied.append(self.world.apply(events[self._pos]))
            self._pos += 1
        return applied

    def seek(self, position: int) -> int:
        """Fast-forward to an absolute event position (checkpoint resume).

        Applies events ``[position_now, position)`` regardless of their
        timestamps — the world's books after N events depend only on the
        events themselves, so a fresh cursor sought to a checkpoint's
        recorded position rebuilds the same world the crashed process had.

        Returns the number of events applied.

        Raises:
            ClusterStateError: On a rewind (cursors never go backwards) or
                a position beyond the end of the trace.
        """
        events = self.trace.events
        if position < self._pos:
            raise ClusterStateError(
                f"cannot seek cursor backwards ({self._pos} -> {position}); "
                f"build a fresh cursor from the trace"
            )
        if position > len(events):
            raise ClusterStateError(
                f"seek target {position} beyond end of trace "
                f"({len(events)} events)"
            )
        applied = 0
        while self._pos < position:
            self.world.apply(events[self._pos])
            self._pos += 1
            applied += 1
        return applied


# ----------------------------------------------------------------------
# Seeded trace synthesis (the reference-trace recorder)
# ----------------------------------------------------------------------
def synthesize_trace(
    spec=None,
    *,
    name: str = "synthetic",
    seed: int = 0,
    duration_seconds: float = 7 * 86400.0,
    interval_seconds: float = CYCLE_SECONDS,
    burst_every: int = 24,
    utilization_ceiling: float = 0.85,
    description: str = "",
) -> EventTrace:
    """Synthesize a seeded churn trace over a generated cluster.

    The stream mimics a production week: periodic *churn bursts* (a batch
    of scale events plus a machine drain or spot reclaim, with replacement
    hardware arriving two cycles later) over a background of traffic
    shifts and occasional service deploys/teardowns.  A utilization guard
    keeps every sampled event feasible — aggregate requested resources
    never exceed ``utilization_ceiling`` of active capacity, so the SLA
    floor remains attainable throughout and affinity recovery between
    bursts is measurable.

    Args:
        spec: :class:`~repro.workloads.generator.ClusterSpec` for the base
            cluster; None uses a soak-sized default (12 services / 6
            machines) derived from ``seed``.
        name: Trace label.
        seed: Seed for both the base cluster (when ``spec`` is None) and
            the event sampler; the same seed always yields the same trace.
        duration_seconds: Stream length (default one week).
        interval_seconds: CronJob period the stream is recorded against.
        burst_every: Cycles between churn bursts (default 24 = every 12h).
        utilization_ceiling: Feasibility guard on sampled events.
        description: Provenance note stored in the trace header.
    """
    from repro.workloads.generator import ClusterSpec, generate_cluster

    if spec is None:
        # Soak-sized default: small enough that an unlimited (and therefore
        # bit-deterministic) per-cycle solve stays around a second, so a
        # full-week replay fits in a CI slow lane.
        spec = ClusterSpec(
            name=name,
            num_services=12,
            num_containers=60,
            num_machines=6,
            affinity_beta=2.0,
            seed=seed,
        )
    cluster = generate_cluster(spec)
    base = cluster.problem
    # The generator's first-fit can strand constrained services: it fills
    # machines in order, so a service banned from the early machines may
    # find its allowed subset already full.  Re-place from an empty cluster
    # (the default scheduler is constraint-aware) so the soak starts from a
    # fully-placed world and cycle 0 measures churn, not generator debt.
    heal = ClusterState(
        base,
        placement=np.zeros((base.num_services, base.num_machines), dtype=np.int64),
    )
    heal_scheduler = DefaultScheduler()
    # Most-constrained (fewest allowed machines), largest-demand first, so
    # picky services claim their subset before flexible ones fill it.
    order = sorted(
        range(base.num_services),
        key=lambda i: (int(base.schedulable[i].sum()), -int(base.demands[i])),
    )
    for i in order:
        for _ in range(int(base.demands[i])):
            heal_scheduler.place_one(heal, base.services[i].name)
    if (heal.placement.sum(axis=1) < base.demands).any():
        short = [
            base.services[i].name
            for i in np.nonzero(heal.placement.sum(axis=1) < base.demands)[0]
        ]
        raise ClusterStateError(
            f"generated base cluster cannot be fully placed "
            f"(short: {short}); pick another seed or a roomier spec"
        )
    base = RASAProblem(
        services=base.services,
        machines=base.machines,
        affinity=base.affinity,
        anti_affinity=base.anti_affinity,
        schedulable=base.schedulable,
        resource_types=base.resource_types,
        current_assignment=heal.placement,
    )
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0x7E,)))
    resources = base.resource_types

    def req_vector(requests: Mapping[str, float]) -> np.ndarray:
        return np.array([requests.get(r, 0.0) for r in resources])

    def cap_vector(capacity: Mapping[str, float]) -> np.ndarray:
        return np.array([capacity.get(r, 0.0) for r in resources])

    demands = {s.name: s.demand for s in base.services}
    requests = {s.name: req_vector(s.requests) for s in base.services}
    machine_caps = {m.name: cap_vector(m.capacity) for m in base.machines}
    active_machines = list(machine_caps)
    used = sum(
        (demands[s] * requests[s] for s in demands), np.zeros(len(resources))
    )
    capacity = sum(machine_caps.values(), np.zeros(len(resources)))
    pairs = sorted(_pair(u, v) for (u, v) in base.affinity.edges())
    live_services = [s.name for s in base.services]
    deployed: list[str] = []
    pending_adds: list[tuple[int, MachineAdd]] = []
    events: list[ReplayEvent] = []

    def utilization_after(used_delta: np.ndarray, cap_delta: np.ndarray) -> float:
        cap = capacity + cap_delta
        with np.errstate(divide="ignore", invalid="ignore"):
            util = np.where(cap > 0, (used + used_delta) / cap, np.inf)
        return float(util.max())

    cycles = int(duration_seconds // interval_seconds)
    for k in range(1, cycles + 1):
        t = k * interval_seconds

        for due_cycle, add in [p for p in pending_adds if p[0] <= k]:
            events.append(add)
            machine_caps[add.machine] = cap_vector(add.capacity)
            active_machines.append(add.machine)
            capacity = capacity + machine_caps[add.machine]
        pending_adds = [p for p in pending_adds if p[0] > k]

        if k % burst_every == 0:
            # Churn burst: several scale events plus machine churn.
            for _ in range(int(rng.integers(2, 5))):
                svc = live_services[int(rng.integers(len(live_services)))]
                factor = float(rng.uniform(0.6, 1.7))
                new_demand = max(1, int(round(demands[svc] * factor)))
                delta = (new_demand - demands[svc]) * requests[svc]
                if new_demand == demands[svc]:
                    continue
                if utilization_after(delta, 0.0) > utilization_ceiling:
                    continue
                events.append(ServiceScale(t, svc, new_demand))
                demands[svc] = new_demand
                used = used + delta
            if rng.random() < 0.6 and len(active_machines) > 4:
                victim = active_machines[int(rng.integers(len(active_machines)))]
                lost = machine_caps[victim]
                if utilization_after(0.0, -lost) <= utilization_ceiling:
                    if rng.random() < 0.5:
                        events.append(SpotReclaim(t, victim))
                    else:
                        events.append(MachineDrain(t, victim))
                    active_machines.remove(victim)
                    capacity = capacity - lost
                    # Replacement hardware lands two cycles later.
                    replacement = MachineAdd(
                        at_seconds=t + 2 * interval_seconds,
                        machine=f"node-x{k:04d}",
                        capacity={
                            r: float(c) for r, c in zip(resources, lost)
                        },
                        spec="replacement",
                    )
                    pending_adds.append((k + 2, replacement))

        # Background churn.
        if pairs and rng.random() < 0.6:
            u, v = pairs[int(rng.integers(len(pairs)))]
            factor = float(np.clip(rng.lognormal(0.0, 0.45), 0.35, 2.8))
            events.append(TrafficShift(t, u, v, factor))
        if rng.random() < 0.04:
            svc_name = f"svc-x{k:04d}"
            demand = int(rng.integers(2, 5))
            req = {"cpu": 1.0, "memory": 2.0}
            delta = demand * req_vector(req)
            if utilization_after(delta, 0.0) <= utilization_ceiling:
                peers = [
                    live_services[int(i)]
                    for i in rng.choice(
                        len(live_services),
                        size=min(2, len(live_services)),
                        replace=False,
                    )
                ]
                edges = tuple(
                    (peer, float(rng.lognormal(3.0, 0.5))) for peer in peers
                )
                events.append(
                    ServiceDeploy(t, svc_name, demand, req, 1.0, edges)
                )
                live_services.append(svc_name)
                deployed.append(svc_name)
                demands[svc_name] = demand
                requests[svc_name] = req_vector(req)
                used = used + delta
                pairs = sorted(
                    set(pairs) | {_pair(svc_name, peer) for peer, _ in edges}
                )
        if deployed and rng.random() < 0.05:
            victim = deployed.pop(0)
            events.append(ServiceTeardown(t, victim))
            live_services.remove(victim)
            used = used - demands.pop(victim) * requests.pop(victim)
            pairs = [p for p in pairs if victim not in p]

    return EventTrace(
        base=base,
        events=events,
        name=name,
        seed=seed,
        interval_seconds=interval_seconds,
        description=description
        or f"synthesized {cycles}-cycle churn stream (seed {seed})",
    )
