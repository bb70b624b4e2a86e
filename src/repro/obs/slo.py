"""Per-tenant SLOs with multi-window burn-rate alerting.

An :class:`SLOSpec` declares what "healthy" means for one tenant's
control loop, over three objectives evaluated per finished cycle:

* ``sla_ok`` — the cycle respected the migration SLA floor
  (``CycleReport.sla_ok``); target compliance ratio ``sla_ok_target``.
* ``cycle_latency`` — the cycle's wall time stayed within
  ``cycle_p95_seconds`` (disabled when None).
* ``gained_affinity`` — the cycle ended at or above
  ``gained_affinity_floor`` normalized gained affinity (disabled when
  None).

The :class:`SLOEngine` folds each finished ``CycleReport`` into
a sliding window of per-objective compliance bits and evaluates
**burn rate** — the classic SRE error-budget math, counted in cycles
rather than wall time because the control plane's unit of work is a
cycle:

    error budget = 1 - target
    burn rate    = (bad cycles / window cycles) / error budget

A burn rate of 1.0 spends the budget exactly at the tolerated pace;
``N`` means ``N``-times too fast.  Two windows fire alerts:

* **fast** (default 5 cycles, threshold 6.0) — pages on sharp
  regressions: a tenant driven fully below its SLA floor with the
  default 0.95 target burns at 20x and alerts within its first bad
  cycles;
* **slow** (default 30 cycles, threshold 1.0) — catches sustained
  low-grade burn that the fast window forgives.

A target of 1.0 has zero budget: any bad cycle is an infinite burn rate
(rendered ``+Inf`` in the Prometheus exposition), which is the idiom for
"alert on the first violation".

The engine is a pure observer over report history — it never feeds back
into the solve path, and it can be rebuilt from replayed reports after a
restart (latencies of restored cycles are unknown and count as
compliant), so it adds no checkpoint state of its own.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.cronjob import CycleReport

#: Alert severities, strongest first.
FAST_BURN = "fast_burn"
SLOW_BURN = "slow_burn"


@dataclass(frozen=True)
class SLOSpec:
    """Per-tenant SLO declaration (the ``slo`` block of a TenantSpec).

    Attributes:
        sla_ok_target: Target fraction of cycles with ``sla_ok`` True.
        cycle_p95_seconds: Per-cycle wall-time bound; None disables the
            latency objective.
        gained_affinity_floor: Minimum acceptable ``gained_after``; None
            disables the affinity objective.
        compliance_target: Target compliance ratio shared by the latency
            and affinity objectives.
        fast_window: Cycles in the fast (paging) window.
        slow_window: Cycles in the slow (ticket) window — also the
            engine's total memory.
        fast_burn_threshold: Fast-window burn rate at or above which a
            ``fast_burn`` alert fires.
        slow_burn_threshold: Slow-window burn rate at or above which a
            ``slow_burn`` alert fires.
    """

    sla_ok_target: float = 0.95
    cycle_p95_seconds: float | None = None
    gained_affinity_floor: float | None = None
    compliance_target: float = 0.95
    fast_window: int = 5
    slow_window: int = 30
    fast_burn_threshold: float = 6.0
    slow_burn_threshold: float = 1.0

    def __post_init__(self) -> None:
        for name in ("sla_ok_target", "compliance_target"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"SLOSpec.{name} must be in (0, 1], got {value}")
        if self.fast_window < 1 or self.slow_window < 1:
            raise ValueError("SLOSpec windows must be >= 1 cycle")
        if self.fast_window > self.slow_window:
            raise ValueError(
                "SLOSpec.fast_window must not exceed slow_window, got "
                f"{self.fast_window} > {self.slow_window}"
            )
        for name in ("fast_burn_threshold", "slow_burn_threshold"):
            if getattr(self, name) <= 0:
                raise ValueError(f"SLOSpec.{name} must be positive")
        if self.cycle_p95_seconds is not None and self.cycle_p95_seconds <= 0:
            raise ValueError("SLOSpec.cycle_p95_seconds must be positive")

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Plain JSON-safe field dict."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: dict[str, Any] | None) -> "SLOSpec":
        """Build from a (possibly empty) payload; unknown keys raise."""
        payload = dict(payload or {})
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown SLOSpec fields: {sorted(unknown)}")
        return cls(**payload)


def _burn(entries: list[bool], target: float) -> tuple[float, float]:
    """``(error_rate, burn_rate)`` for one objective over one window."""
    if not entries:
        return 0.0, 0.0
    error_rate = sum(1 for good in entries if not good) / len(entries)
    budget = 1.0 - target
    if budget <= 0.0:
        return error_rate, (float("inf") if error_rate > 0.0 else 0.0)
    return error_rate, error_rate / budget


class SLOEngine:
    """Sliding-window burn-rate evaluator over one tenant's cycles."""

    def __init__(self, spec: SLOSpec | None = None, *, tenant: str = "") -> None:
        self.spec = spec or SLOSpec()
        self.tenant = tenant
        self._lock = threading.Lock()
        #: One entry per observed cycle: objective name → compliant bool.
        self._window: deque[dict[str, bool]] = deque(
            maxlen=self.spec.slow_window
        )
        self._observed = 0

    # ------------------------------------------------------------------
    def objectives(self) -> list[tuple[str, float]]:
        """Enabled ``(objective, target)`` pairs for this spec."""
        spec = self.spec
        enabled = [("sla_ok", spec.sla_ok_target)]
        if spec.cycle_p95_seconds is not None:
            enabled.append(("cycle_latency", spec.compliance_target))
        if spec.gained_affinity_floor is not None:
            enabled.append(("gained_affinity", spec.compliance_target))
        return enabled

    def observe(self, report: "CycleReport") -> None:
        """Fold one finished cycle into the windows.

        The latency objective reads ``report.duration_seconds``; 0.0 (a
        cycle restored from a checkpoint, whose wall time was not
        recorded) always counts as latency-compliant.
        """
        spec = self.spec
        entry = {"sla_ok": bool(report.sla_ok)}
        if spec.cycle_p95_seconds is not None:
            entry["cycle_latency"] = (
                float(report.duration_seconds) <= spec.cycle_p95_seconds
            )
        if spec.gained_affinity_floor is not None:
            entry["gained_affinity"] = (
                float(report.gained_after) >= spec.gained_affinity_floor
            )
        with self._lock:
            self._window.append(entry)
            self._observed += 1

    @property
    def cycles_observed(self) -> int:
        """Total cycles folded in (window evictions included)."""
        with self._lock:
            return self._observed

    # ------------------------------------------------------------------
    def _windows(self) -> tuple[list[dict[str, bool]], list[dict[str, bool]]]:
        with self._lock:
            slow = list(self._window)
        return slow[-self.spec.fast_window:], slow

    def burn_rates(self) -> dict[str, dict[str, float]]:
        """Per-objective ``{"fast": burn, "slow": burn}`` burn rates."""
        fast, slow = self._windows()
        out: dict[str, dict[str, float]] = {}
        for objective, target in self.objectives():
            _, fast_burn = _burn([e[objective] for e in fast if objective in e],
                                 target)
            _, slow_burn = _burn([e[objective] for e in slow if objective in e],
                                 target)
            out[objective] = {"fast": fast_burn, "slow": slow_burn}
        return out

    def alerts(self) -> list[dict[str, Any]]:
        """Active alerts, at most one (the strongest) per objective."""
        fast, slow = self._windows()
        spec = self.spec
        alerts: list[dict[str, Any]] = []
        for objective, target in self.objectives():
            fast_rate, fast_burn = _burn(
                [e[objective] for e in fast if objective in e], target
            )
            slow_rate, slow_burn = _burn(
                [e[objective] for e in slow if objective in e], target
            )
            if fast_burn >= spec.fast_burn_threshold:
                severity, burn, rate = FAST_BURN, fast_burn, fast_rate
                window, threshold = spec.fast_window, spec.fast_burn_threshold
            elif slow_burn >= spec.slow_burn_threshold:
                severity, burn, rate = SLOW_BURN, slow_burn, slow_rate
                window, threshold = spec.slow_window, spec.slow_burn_threshold
            else:
                continue
            alerts.append(
                {
                    "tenant": self.tenant,
                    "objective": objective,
                    "severity": severity,
                    "burn_rate": burn,
                    "threshold": threshold,
                    "window_cycles": window,
                    "error_rate": rate,
                    "target": target,
                    "budget": max(0.0, 1.0 - target),
                    "cycles_observed": len(slow),
                }
            )
        return alerts

    def status(self) -> dict[str, Any]:
        """Full SLO document (the tenant ``/alerts`` endpoint body)."""
        fast, slow = self._windows()
        active = {alert["objective"]: alert for alert in self.alerts()}
        objectives: dict[str, Any] = {}
        for objective, target in self.objectives():
            fast_rate, fast_burn = _burn(
                [e[objective] for e in fast if objective in e], target
            )
            slow_rate, slow_burn = _burn(
                [e[objective] for e in slow if objective in e], target
            )
            alert = active.get(objective)
            objectives[objective] = {
                "target": target,
                "fast": {"burn_rate": fast_burn, "error_rate": fast_rate,
                         "window_cycles": self.spec.fast_window},
                "slow": {"burn_rate": slow_burn, "error_rate": slow_rate,
                         "window_cycles": self.spec.slow_window},
                "alert": None if alert is None else alert["severity"],
            }
        return {
            "tenant": self.tenant,
            "spec": self.spec.to_dict(),
            "cycles_observed": len(slow),
            "objectives": objectives,
        }
