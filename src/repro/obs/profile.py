"""Opt-in per-span cProfile capture with hotspot attribution.

POP-style partitioned solvers need per-subproblem runtime accounting to
know where time goes; spans give the *what* (this shard took 3.1 s) but
not the *why* (2.4 s of it was LP pivoting).  A :class:`SpanProfiler`
closes that gap: wrapping a span body in :meth:`SpanProfiler.capture`
runs it under :mod:`cProfile` and attaches a top-N cumulative-time
hotspot table to the span's tags (key ``"hotspots"``), where it rides the
existing export paths — the plain-text summary and the Chrome trace
``args``.  cProfile profiles one thread, so a shard solved on a pool
thread is profiled there, on its own span.

Strictly opt-in, mirroring the tracer's design: the process-wide default
is a :class:`NullProfiler` whose ``capture`` is a shared no-op context
manager, so instrumented call sites cost one attribute lookup when
profiling is off.  Enable with :class:`~repro.core.config.RASAConfig`
``profile=True`` or the CLI ``--profile`` flag.  Expect meaningful
overhead when on — cProfile instruments every Python call, typically
1.3–2x on solver-heavy spans — which is why it never defaults on.
"""

from __future__ import annotations

import cProfile
import pstats
from typing import Any, Iterator
from contextlib import contextmanager

#: Rows kept in a span's hotspot table.
DEFAULT_TOP = 10

#: Tag key the hotspot table is attached under.
HOTSPOTS_TAG = "hotspots"


def hotspot_table(
    profile: cProfile.Profile, top: int = DEFAULT_TOP
) -> list[dict[str, Any]]:
    """Top-``top`` functions by cumulative time, as JSON-safe rows.

    Each row carries ``func`` (``file:line(name)``), ``calls``,
    ``tottime`` (self seconds), and ``cumtime`` (inclusive seconds),
    sorted by cumulative time descending.
    """
    stats = pstats.Stats(profile)
    rows: list[dict[str, Any]] = []
    for (filename, line, name), (_cc, ncalls, tottime, cumtime, _callers) in (
        stats.stats.items()  # type: ignore[attr-defined]
    ):
        rows.append(
            {
                "func": f"{filename}:{line}({name})",
                "calls": int(ncalls),
                "tottime": round(float(tottime), 6),
                "cumtime": round(float(cumtime), 6),
            }
        )
    rows.sort(key=lambda row: (-row["cumtime"], row["func"]))
    return rows[:top]


class NullProfiler:
    """Disabled profiler: ``capture`` is a shared no-op context manager."""

    enabled = False

    @contextmanager
    def capture(self, span) -> Iterator[None]:
        """Run the block unprofiled."""
        yield


class SpanProfiler:
    """Profiles span bodies and attaches hotspot tables to their spans.

    Args:
        top: Rows kept per span's hotspot table.

    Only one cProfile can be active per thread; nested or concurrent
    captures in the same process degrade gracefully to unprofiled
    execution instead of raising into the solve path.
    """

    enabled = True

    def __init__(self, top: int = DEFAULT_TOP) -> None:
        self.top = top

    @contextmanager
    def capture(self, span) -> Iterator[None]:
        """Profile the block and tag ``span`` with its hotspot table."""
        profile = cProfile.Profile()
        try:
            profile.enable()
        except (ValueError, RuntimeError):
            # Another profiler (an outer capture, a test harness) is
            # already active on this thread; run unprofiled.
            yield
            return
        try:
            yield
        finally:
            profile.disable()
            span.set_tag(HOTSPOTS_TAG, hotspot_table(profile, self.top))


def render_hotspots(spans, *, limit_per_span: int = 5) -> str:
    """Plain-text hotspot report over a span forest.

    Walks the trees collecting every span carrying a ``hotspots`` tag and
    formats its top rows — the ``--profile`` CLI report.
    """
    lines: list[str] = []

    def walk(span) -> None:
        rows = span.tags.get(HOTSPOTS_TAG)
        if rows:
            lines.append(f"{span.name}  ({span.duration * 1e3:.1f}ms)")
            for row in rows[:limit_per_span]:
                lines.append(
                    f"  {row['cumtime']:8.3f}s cum  {row['tottime']:8.3f}s self"
                    f"  {row['calls']:>8d} calls  {row['func']}"
                )
        for child in span.children:
            walk(child)

    for root in spans:
        walk(root)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Process-wide default profiler (mirrors the tracer/metrics pattern)
# ----------------------------------------------------------------------
_profiler: SpanProfiler | NullProfiler = NullProfiler()


def get_profiler() -> SpanProfiler | NullProfiler:
    """The process-wide profiler (a no-op :class:`NullProfiler` by default)."""
    return _profiler


def set_profiler(profiler: SpanProfiler | NullProfiler):
    """Install ``profiler`` globally; returns the previous one."""
    global _profiler
    previous = _profiler
    _profiler = profiler
    return previous


@contextmanager
def use_profiler(profiler: SpanProfiler | NullProfiler) -> Iterator[Any]:
    """Temporarily install ``profiler`` (restores the previous on exit)."""
    previous = set_profiler(profiler)
    try:
        yield profiler
    finally:
        set_profiler(previous)
