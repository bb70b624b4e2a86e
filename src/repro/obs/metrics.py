"""Metrics registry: counters, gauges, and percentile histograms.

The :class:`MetricsRegistry` is the pipeline's numeric flight recorder:
solvers bump counters (MIP nodes explored, CG columns generated), the
scheduler observes per-phase duration histograms, and the migration and
CronJob layers set gauges.  A snapshot is a plain JSON-safe dict,
exportable from the CLI via ``rasa optimize --metrics-out``; the live
telemetry server (:mod:`repro.obs.server`) scrapes the same registry as
Prometheus text.

Unlike tracing (off by default), metrics are always on: every instrument
is a couple of Python-level operations on the hot path, which is
negligible next to the LP/MILP solves they count.  Instruments are safe
to write and read from several threads — the solve phase's pool threads
record into the one process registry, and the telemetry server's scrape
thread calls :meth:`MetricsRegistry.snapshot` while solvers are writing —
so :class:`Counter` and :class:`Histogram` guard their read-modify-write
updates with a per-instrument lock, and :class:`Gauge` relies on plain
attribute assignment being an atomic swap.
"""

from __future__ import annotations

import random
import threading
from typing import Any, Iterator
from contextlib import contextmanager


class Counter:
    """Monotonically increasing counter.

    ``inc`` is a read-modify-write, so it takes a per-instrument lock to
    stay exact when the telemetry scrape thread (or a tracer thread)
    observes the counter concurrently with hot-path increments.
    """

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (default 1) to the counter."""
        with self._lock:
            self.value += amount


class Gauge:
    """Last-value-wins instantaneous measurement.

    A single attribute store is an atomic swap under CPython, so ``set``
    needs no lock: a concurrent scrape sees either the old or the new
    value, never a torn one.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = float(value)


class Histogram:
    """Sample distribution summarized as count/sum/min/max/p50/p95/p99.

    ``count``/``sum``/``min``/``max`` are tracked exactly for every
    observation.  Raw samples are kept in ``values`` up to ``sample_cap``;
    beyond the cap the list becomes a seeded reservoir (Vitter's
    algorithm R), so long-running control loops keep bounded memory while
    percentiles stay statistically representative.  Percentiles are exact
    while the sample count is within the cap and approximate after it.
    """

    __slots__ = ("values", "count", "sum", "min", "max", "sample_cap",
                 "_rng", "_lock")

    #: Default raw-sample bound; ~32 KiB of floats per histogram.
    DEFAULT_SAMPLE_CAP = 4096

    def __init__(self, sample_cap: int | None = None) -> None:
        self.values: list[float] = []
        self.count = 0
        self.sum = 0.0
        self.min = 0.0
        self.max = 0.0
        self.sample_cap = (
            self.DEFAULT_SAMPLE_CAP if sample_cap is None else int(sample_cap)
        )
        if self.sample_cap < 1:
            raise ValueError(f"sample_cap must be >= 1, got {self.sample_cap}")
        # Seeded so reruns keep identical reservoirs (and thus identical
        # percentile summaries) for identical observation sequences.
        self._rng = random.Random(0x5EED)
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one sample."""
        value = float(value)
        with self._lock:
            self._track(value)
            self._sample(value)

    def _track(self, value: float) -> None:
        """Fold one observation into the exact count/sum/min/max."""
        if self.count == 0:
            self.min = value
            self.max = value
        else:
            self.min = min(self.min, value)
            self.max = max(self.max, value)
        self.count += 1
        self.sum += value

    def _sample(self, value: float) -> None:
        """Reservoir step: keep the sample with probability cap/count."""
        if len(self.values) < self.sample_cap:
            self.values.append(value)
            return
        slot = self._rng.randrange(self.count)
        if slot < self.sample_cap:
            self.values[slot] = value

    def percentile(self, q: float) -> float:
        """The ``q``-quantile (``q`` in [0, 1]) by nearest-rank; 0.0 if empty."""
        with self._lock:
            ordered = sorted(self.values)
        if not ordered:
            return 0.0
        rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[rank]

    def summarize(self) -> dict[str, float]:
        """JSON-safe summary: exact count/sum/min/max, sampled percentiles."""
        with self._lock:
            if self.count == 0:
                return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                        "p50": 0.0, "p95": 0.0, "p99": 0.0}
            ordered = sorted(self.values)
            count, total = self.count, self.sum
            low, high = self.min, self.max
        n = len(ordered)
        return {
            "count": count,
            "sum": float(total),
            "min": low,
            "max": high,
            "p50": ordered[min(n - 1, round(0.50 * (n - 1)))],
            "p95": ordered[min(n - 1, round(0.95 * (n - 1)))],
            "p99": ordered[min(n - 1, round(0.99 * (n - 1)))],
        }


class MetricsRegistry:
    """Thread-safe, name-addressed collection of instruments.

    Instruments are created on first use and live for the registry's
    lifetime; values accumulate across pipeline runs until :meth:`reset`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created on first use)."""
        counter = self._counters.get(name)
        if counter is None:
            with self._lock:
                counter = self._counters.setdefault(name, Counter())
        return counter

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name`` (created on first use)."""
        gauge = self._gauges.get(name)
        if gauge is None:
            with self._lock:
                gauge = self._gauges.setdefault(name, Gauge())
        return gauge

    def histogram(self, name: str) -> Histogram:
        """The histogram registered under ``name`` (created on first use)."""
        histogram = self._histograms.get(name)
        if histogram is None:
            with self._lock:
                histogram = self._histograms.setdefault(name, Histogram())
        return histogram

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """JSON-safe dump of every instrument's current state."""
        with self._lock:
            return {
                "counters": {k: v.value for k, v in sorted(self._counters.items())},
                "gauges": {k: v.value for k, v in sorted(self._gauges.items())},
                "histograms": {
                    k: v.summarize() for k, v in sorted(self._histograms.items())
                },
            }

    def export(self, path) -> None:
        """Write :meth:`snapshot` as JSON to ``path`` (atomic replace)."""
        from repro.durability.atomic import atomic_write_json

        atomic_write_json(path, self.snapshot(), indent=1)

    def reset(self) -> None:
        """Drop every instrument (fresh accounting for a new run)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


# ----------------------------------------------------------------------
# Process-wide default registry
# ----------------------------------------------------------------------
_metrics = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _metrics


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` globally; returns the previous one."""
    global _metrics
    previous = _metrics
    _metrics = registry
    return previous


@contextmanager
def use_metrics(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Temporarily install ``registry`` (restores the previous on exit)."""
    previous = set_metrics(registry)
    try:
        yield registry
    finally:
        set_metrics(previous)
