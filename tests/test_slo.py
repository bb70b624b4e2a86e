"""SLO burn-rate math: spec validation, window semantics, and the
fast/slow alerting contract."""

from __future__ import annotations

import math
from types import SimpleNamespace

import pytest

from repro.obs.slo import FAST_BURN, SLOW_BURN, SLOEngine, SLOSpec


def _report(
    *, sla_ok: bool = True, gained: float = 0.5, duration: float = 0.0
) -> SimpleNamespace:
    """The slice of a CycleReport the engine reads."""
    return SimpleNamespace(
        sla_ok=sla_ok, gained_after=gained, duration_seconds=duration
    )


# ----------------------------------------------------------------------
# Spec validation and round-trip
# ----------------------------------------------------------------------
def test_spec_roundtrips_through_dict():
    spec = SLOSpec(sla_ok_target=0.9, cycle_p95_seconds=2.0,
                   gained_affinity_floor=0.3)
    assert SLOSpec.from_dict(spec.to_dict()) == spec
    assert SLOSpec.from_dict(None) == SLOSpec()
    assert SLOSpec.from_dict({}) == SLOSpec()


@pytest.mark.parametrize("payload", [
    {"sla_ok_target": 0.0},
    {"sla_ok_target": 1.5},
    {"compliance_target": -0.1},
    {"fast_window": 0},
    {"fast_window": 10, "slow_window": 5},
    {"fast_burn_threshold": 0.0},
    {"cycle_p95_seconds": -1.0},
    {"typo_field": 1},
])
def test_spec_rejects_bad_payloads(payload):
    with pytest.raises(ValueError):
        SLOSpec.from_dict(payload)


def test_objectives_enabled_by_spec_fields():
    assert [o for o, _ in SLOEngine(SLOSpec()).objectives()] == ["sla_ok"]
    full = SLOEngine(
        SLOSpec(cycle_p95_seconds=1.0, gained_affinity_floor=0.2)
    )
    assert [o for o, _ in full.objectives()] == [
        "sla_ok", "cycle_latency", "gained_affinity"
    ]


# ----------------------------------------------------------------------
# Burn-rate math
# ----------------------------------------------------------------------
def test_healthy_cycles_never_alert():
    engine = SLOEngine(SLOSpec(cycle_p95_seconds=10.0,
                               gained_affinity_floor=0.1))
    for _ in range(40):
        engine.observe(_report(duration=0.01))
    assert engine.alerts() == []
    rates = engine.burn_rates()
    assert all(v == {"fast": 0.0, "slow": 0.0} for v in rates.values())


def test_full_violation_burns_at_inverse_budget():
    # target 0.95 -> budget 0.05 -> every-cycle violation burns at 20x.
    engine = SLOEngine(SLOSpec(sla_ok_target=0.95), tenant="t")
    for _ in range(5):
        engine.observe(_report(sla_ok=False))
    rates = engine.burn_rates()["sla_ok"]
    assert rates["fast"] == pytest.approx(20.0)
    (alert,) = engine.alerts()
    assert alert["tenant"] == "t"
    assert alert["severity"] == FAST_BURN
    assert alert["burn_rate"] == pytest.approx(20.0)
    assert alert["error_rate"] == pytest.approx(1.0)


def test_fast_burn_fires_within_default_window():
    engine = SLOEngine()
    engine.observe(_report())
    engine.observe(_report(sla_ok=False))
    engine.observe(_report(sla_ok=False))
    # 2 bad of 3 in the fast window: burn = (2/3)/0.05 = 13.3x >= 6.
    (alert,) = engine.alerts()
    assert alert["severity"] == FAST_BURN
    assert alert["window_cycles"] == 5


def test_slow_burn_catches_sustained_low_grade_violation():
    # One bad cycle in every ten: fast window forgives it once the bad
    # cycle ages out, but the slow window burns at (3/30)/0.05 = 2x.
    engine = SLOEngine(SLOSpec(fast_burn_threshold=50.0))
    for i in range(30):
        engine.observe(_report(sla_ok=(i % 10 != 0)))
    (alert,) = engine.alerts()
    assert alert["severity"] == SLOW_BURN
    assert alert["burn_rate"] == pytest.approx(2.0)
    assert alert["window_cycles"] == 30


def test_zero_budget_target_alerts_on_first_violation():
    engine = SLOEngine(SLOSpec(sla_ok_target=1.0))
    engine.observe(_report())
    assert engine.alerts() == []
    engine.observe(_report(sla_ok=False))
    (alert,) = engine.alerts()
    assert math.isinf(alert["burn_rate"])
    assert alert["budget"] == 0.0


def test_latency_objective_uses_duration_and_forgives_restored_cycles():
    engine = SLOEngine(SLOSpec(cycle_p95_seconds=1.0,
                               compliance_target=0.95))
    for _ in range(5):
        engine.observe(_report(duration=5.0))
    assert {a["objective"] for a in engine.alerts()} == {"cycle_latency"}
    # Restored cycles carry duration 0.0 and count as compliant.
    fresh = SLOEngine(SLOSpec(cycle_p95_seconds=1.0))
    for _ in range(5):
        fresh.observe(_report(duration=0.0))
    assert fresh.alerts() == []


def test_gained_affinity_floor_objective():
    engine = SLOEngine(SLOSpec(gained_affinity_floor=0.4))
    for _ in range(5):
        engine.observe(_report(gained=0.1))
    assert {a["objective"] for a in engine.alerts()} == {"gained_affinity"}


def test_window_eviction_lets_alerts_clear():
    engine = SLOEngine(SLOSpec(fast_window=3, slow_window=5))
    for _ in range(3):
        engine.observe(_report(sla_ok=False))
    assert engine.alerts()
    for _ in range(5):
        engine.observe(_report())
    assert engine.alerts() == []
    assert engine.cycles_observed == 8


def test_status_document_shape():
    engine = SLOEngine(SLOSpec(), tenant="acme")
    engine.observe(_report(sla_ok=False))
    status = engine.status()
    assert status["tenant"] == "acme"
    assert status["cycles_observed"] == 1
    sla = status["objectives"]["sla_ok"]
    assert sla["target"] == 0.95
    assert sla["alert"] == FAST_BURN
    assert sla["fast"]["burn_rate"] == pytest.approx(20.0)
    assert status["spec"] == SLOSpec().to_dict()
