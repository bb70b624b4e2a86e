"""Configuration objects: scheduler tunables and control-plane policies.

:class:`RASAConfig` parameterizes the three-phase optimization pipeline;
:class:`RetryPolicy` and :class:`DegradationPolicy` parameterize the
fault-tolerant control plane (per-command retry with exponential backoff,
and the cycle-level degradation ladder); :class:`LoopSpec` gathers every
tunable of one control loop into the single record the facade, the
service's tenant payload, and the durable checkpoint all share.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, is_dataclass
from numbers import Integral, Real

from repro.exceptions import ProblemValidationError
from repro.faults.plan import FaultPlan

#: The paper's CronJob period: one cycle every half hour (seconds).
CYCLE_SECONDS = 1800.0

#: The paper's churn guard: a machine skewed by a rolled-back cycle (or
#: behind a skipped one) is unschedulable for three days (seconds).
UNSCHEDULABLE_SECONDS = 3 * 24 * 3600.0


@dataclass
class RASAConfig:
    """Tunables of the three-phase RASA pipeline.

    Attributes:
        master_ratio: Override for the master-affinity ratio ``alpha``;
            None selects the paper's ``45 * ln^0.66(N) / N``.
        max_subproblem_services: Size threshold that triggers balanced
            partitioning of a crucial service set.
        local_search_seconds: Budget for an optional local-search polish of
            the merged placement (0 disables it).  An extension beyond the
            paper's pipeline; see DESIGN.md ablations.
        seed: Seed for partitioning randomness.
        profile: Opt-in per-span cProfile capture (CLI ``--profile``):
            partitioning and subproblem-solve spans gain a top-N
            cumulative-time hotspot table (see :mod:`repro.obs.profile`).
            Off by default — cProfile instruments every Python call, so
            expect 1.3–2x overhead on solver-heavy spans when enabled.
    """

    master_ratio: float | None = None
    max_subproblem_services: int = 48
    local_search_seconds: float = 0.0
    seed: int = 0
    profile: bool = False


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter for faulted migration commands.

    Attributes:
        max_attempts: Total attempts per command (1 disables retries).
        base_delay: Backoff delay (seconds) before the first retry.
        backoff_factor: Multiplier applied per subsequent retry.
        max_delay: Cap on any single backoff delay.
        jitter: Fraction of the delay added as seeded random jitter
            (``delay * (1 + jitter * u)`` with ``u`` uniform in [0, 1)).
    """

    max_attempts: int = 3
    base_delay: float = 0.1
    backoff_factor: float = 2.0
    max_delay: float = 5.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        _check_fields(vars(self), _RULES[RetryPolicy], "RetryPolicy")

    def delay(self, retry_index: int, jitter_draw: float = 0.0) -> float:
        """Backoff delay before retry ``retry_index`` (0-based)."""
        delay = min(
            self.max_delay, self.base_delay * self.backoff_factor**retry_index
        )
        return delay * (1.0 + self.jitter * jitter_draw)


@dataclass(frozen=True)
class DegradationPolicy:
    """The CronJob's degradation ladder for cycles that fault mid-apply.

    Rungs fire in order until one resolves the cycle:

    1. **retry** — revert to the pre-cycle placement and re-run the whole
       cycle (collect → solve → apply), up to ``cycle_retries`` times.
    2. **greedy** — keep the partial migration up to the last SLA-safe
       step boundary and let the greedy default scheduler re-solve the
       residual (place the still-missing containers).
    3. **skip** — revert to the pre-cycle placement, tag the machines
       involved in permanently failed commands unschedulable for
       ``tag_seconds``, and skip the cycle.

    Attributes:
        cycle_retries: Full-cycle retries before degrading further.
        greedy_residual: Whether rung 2 is enabled.
        skip_and_tag: Whether rung 3 tags offending machines (the cycle is
            skipped either way when rung 2 cannot restore the SLA floor).
        tag_seconds: Unschedulable-tag duration for rung 3 (default: the
            paper's 3-day churn guard).
    """

    cycle_retries: int = 1
    greedy_residual: bool = True
    skip_and_tag: bool = True
    tag_seconds: float = UNSCHEDULABLE_SECONDS

    def __post_init__(self) -> None:
        _check_fields(vars(self), _RULES[DegradationPolicy], "DegradationPolicy")

    @classmethod
    def parse(cls, spec: str) -> "DegradationPolicy":
        """Build a policy from a ladder spec like ``"retry:2,greedy,skip"``.

        Each comma-separated rung enables one ladder stage; ``retry`` takes
        an optional ``:N`` count.  Omitted rungs are disabled, so
        ``"greedy"`` means no cycle retries and no machine tagging.
        """
        retries = 0
        greedy = False
        skip = False
        for raw in spec.split(","):
            rung = raw.strip().lower()
            if not rung:
                continue
            if rung.startswith("retry"):
                _, _, count = rung.partition(":")
                retries = int(count) if count else 1
            elif rung == "greedy":
                greedy = True
            elif rung == "skip":
                skip = True
            else:
                raise ProblemValidationError(
                    f"unknown degradation rung {rung!r} "
                    f"(expected retry[:N], greedy, or skip)"
                )
        return cls(cycle_retries=retries, greedy_residual=greedy, skip_and_tag=skip)

    def ladder(self) -> str:
        """Canonical spec string (inverse of :meth:`parse`)."""
        rungs = []
        if self.cycle_retries > 0:
            rungs.append(f"retry:{self.cycle_retries}")
        if self.greedy_residual:
            rungs.append("greedy")
        if self.skip_and_tag:
            rungs.append("skip")
        return ",".join(rungs) or "none"


#: The scalar :class:`LoopSpec` fields, each with its rule: type, lowest
#: value, whether the lowest value itself is allowed, highest value,
#: whether None is allowed.  A finite highest value is allowed itself; an
#: infinite one is not, so no field takes infinity (``time_limit=inf``
#: would count as a budget no clock can spend).
_SCALARS = {
    "time_limit": (Real, 0.0, False, math.inf, True),
    "interval_seconds": (Real, 0.0, False, math.inf, True),
    "sla_floor": (Real, 0.0, False, 1.0, False),
    "rollback_imbalance": (Real, 0.0, True, math.inf, True),
    "traffic_jitter_sigma": (Real, 0.0, True, math.inf, False),
    "seed": (Integral, 0, True, math.inf, False),
    "checkpoint_every": (Integral, 1, True, math.inf, False),
}

#: The rule of a boolean field.
_FLAG = (bool, False, True, True, False)

#: The field rules of the typed objects behind the structured
#: :class:`LoopSpec` fields (the fault plan checks itself).
_RULES = {
    RASAConfig: {
        "master_ratio": (Real, 0.0, False, 1.0, True),
        "max_subproblem_services": (Integral, 1, True, math.inf, False),
        "local_search_seconds": (Real, 0.0, True, math.inf, False),
        "seed": (Integral, 0, True, math.inf, False),
        "profile": _FLAG,
    },
    RetryPolicy: {
        "max_attempts": (Integral, 1, True, math.inf, False),
        "base_delay": (Real, 0.0, True, math.inf, False),
        "backoff_factor": (Real, 0.0, True, math.inf, False),
        "max_delay": (Real, 0.0, True, math.inf, False),
        "jitter": (Real, 0.0, True, math.inf, False),
    },
    DegradationPolicy: {
        "cycle_retries": (Integral, 0, True, math.inf, False),
        "greedy_residual": _FLAG,
        "skip_and_tag": _FLAG,
        "tag_seconds": (Real, 0.0, True, math.inf, False),
    },
}

#: Retired :class:`RASAConfig` fields that older checkpoints and clients
#: still send, with the value the pipeline now always uses: a retired key
#: holding it is ignored, any other value is refused.  The thread-pool
#: keys are ignored at any value (``_ANY``): a thread count never changes a
#: report, and pooled solves have no deadline.
_ANY = object()
_RETIRED_CONFIG = {
    "backend": "highs",
    "partition_samples": 32,
    "min_subproblem_budget": 0.5,
    "repair_unplaced": True,
    "parallel": _ANY,
    "workers": _ANY,
    "worker_timeout_factor": _ANY,
    "worker_timeout_margin": _ANY,
    "profile_top": 10,
}

#: The typed object behind each structured :class:`LoopSpec` field.
_STRUCTURED = {
    "config": RASAConfig,
    "faults": FaultPlan,
    "degradation": DegradationPolicy,
    "retry": RetryPolicy,
}


def _check_fields(values: dict, rules: dict, owner: str) -> None:
    """Raise, naming ``owner.field``, unless every value meets its rule."""
    for name, value in values.items():
        kind, low, low_ok, high, optional = rules[name]
        if value is None and optional:
            continue
        if kind is bool:
            if isinstance(value, bool):
                continue
            expected = "a boolean"
        elif (
            not isinstance(value, bool)
            and isinstance(value, kind)
            and (low <= value if low_ok else low < value)
            and (value <= high if high < math.inf else value < high)
        ):
            continue
        else:
            expected = (
                f"{'an integer' if kind is Integral else 'a number'} in "
                f"{'[' if low_ok else '('}{low}, {high}{']' if high < math.inf else ')'}"
            )
        raise ProblemValidationError(
            f"{owner}.{name} must be {expected}"
            f"{' or null' if optional else ''}, got {value!r}"
        )


@dataclass(frozen=True, kw_only=True)
class LoopSpec:
    """Every tunable of one control loop, as strictly validated plain data.

    This is *the* representation of the loop's configuration: the
    :mod:`repro.api` facade builds one from its keyword arguments, a
    :class:`~repro.service.tenant.TenantSpec` is one plus the tenant's
    identity and world, a durable checkpoint's ``run`` payload is
    :meth:`to_dict` plus ``mode``/``cycles``, and
    :func:`repro.cluster.cronjob.build_controller` turns one into a live
    controller.  Fields hold JSON-compatible values exactly as given, so
    :meth:`to_dict` round-trips byte for byte; the four structured fields
    also accept their typed object (e.g. a :class:`RASAConfig`), which is
    stored as its plain-data form.

    Attributes:
        config: :class:`RASAConfig` fields for the per-cycle RASA solve;
            None uses the defaults.
        faults: :class:`~repro.faults.FaultPlan` fields enabling seeded
            chaos; None runs the exact fault-free path.
        degradation: :class:`DegradationPolicy` fields — the ladder walked
            by faulted cycles; None uses the defaults (retry once, then
            greedy residual, then skip-and-tag).
        retry: :class:`RetryPolicy` fields — backoff for faulted migration
            commands; None uses the defaults.
        time_limit: Per-cycle solver budget (seconds).  None — unlimited —
            is what keeps report sequences machine-independent.
        interval_seconds: Simulated time between cycles; None uses the
            replayed trace's recorded cadence, or the paper's half hour
            (:data:`CYCLE_SECONDS`).
        sla_floor: Alive-fraction floor enforced during migrations, in
            (0, 1].
        rollback_imbalance: Utilization-skew rollback threshold; None
            disables the guard.
        traffic_jitter_sigma: Lognormal measurement drift of the default
            collector; 0 disables jitter.
        seed: Seed of the default collector's jitter stream.
        checkpoint_every: Cycles between WAL compactions into a snapshot
            (durable loops only).
    """

    config: dict | None = None
    faults: dict | None = None
    degradation: dict | None = None
    retry: dict | None = None
    time_limit: float | None = None
    interval_seconds: float | None = None
    sla_floor: float = 0.75
    rollback_imbalance: float | None = None
    traffic_jitter_sigma: float = 0.0
    seed: int = 0
    checkpoint_every: int = 16

    def __post_init__(self) -> None:
        for name in _STRUCTURED:
            value = getattr(self, name)
            if is_dataclass(value):
                object.__setattr__(self, name, asdict(value))
            self.typed(name)
        _check_fields(
            {name: getattr(self, name) for name in _SCALARS}, _SCALARS, "LoopSpec"
        )

    def typed(self, name: str):
        """The typed object behind a structured field, built from its plain data.

        ``typed("config")`` is a :class:`RASAConfig`, ``"degradation"`` a
        :class:`DegradationPolicy`, ``"retry"`` a :class:`RetryPolicy` —
        the defaults where the field is None — and ``"faults"`` a
        :class:`~repro.faults.FaultPlan`, or None for the fault-free path.
        Every value is checked against its field's rule, and a retired
        ``config`` key is dropped if it holds the value now hard-wired.
        """
        cls, payload = _STRUCTURED[name], getattr(self, name)
        if payload is None:
            return None if cls is FaultPlan else cls()
        if not isinstance(payload, dict):
            raise ProblemValidationError(
                f"LoopSpec.{name} must be an object, got {type(payload).__name__}"
            )
        if cls is FaultPlan:
            try:
                return FaultPlan.from_dict(payload)  # strict about keys itself
            except (TypeError, ValueError) as exc:
                raise ProblemValidationError(f"invalid LoopSpec.faults: {exc}") from exc
        rules = _RULES[cls]
        retired = _RETIRED_CONFIG if cls is RASAConfig else {}
        unknown = set(payload) - set(rules) - set(retired)
        if unknown:
            raise ProblemValidationError(
                f"unknown LoopSpec.{name} fields: {sorted(unknown)}"
            )
        for key in set(payload) & set(retired):
            if retired[key] is not _ANY and payload[key] != retired[key]:
                raise ProblemValidationError(
                    f"LoopSpec.config.{key} is retired: only "
                    f"{retired[key]!r} is accepted, got {payload[key]!r}"
                )
        kept = {key: value for key, value in payload.items() if key in rules}
        _check_fields(kept, rules, f"LoopSpec.{name}")
        return cls(**kept)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """The loop tunables as plain data (also of a subclass instance)."""
        return {f.name: getattr(self, f.name) for f in fields(LoopSpec)}

    @classmethod
    def from_dict(cls, payload: dict) -> "LoopSpec":
        """Deserialize a payload written by :meth:`to_dict` (or a client).

        Raises:
            ProblemValidationError: On unknown keys, wrong types, or
                out-of-range values — naming the offending field, so a
                typoed tunable cannot silently fall back to a default.
        """
        unknown = set(payload) - {f.name for f in fields(cls)}
        if unknown:
            raise ProblemValidationError(
                f"unknown {cls.__name__} fields: {sorted(unknown)}"
            )
        return cls(**payload)
