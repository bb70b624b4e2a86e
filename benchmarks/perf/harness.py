"""Shared plumbing of the benchmark: paths, stdout routing, clocks, pins."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parents[1]
SRC = ROOT / "src"
REFERENCE_TRACE = ROOT / "benchmarks" / "traces" / "reference_week.jsonl.gz"
#: Scratch space inside the checkout (git-ignored); runs clean up after
#: themselves, so only span files of traced runs stay behind.
WORK_DIR = ROOT / ".bench_work"
PINS = json.loads((PERF_DIR / "pins.json").read_text(encoding="utf-8"))


class BenchError(Exception):
    """The benchmark cannot produce a valid result (bad input, dead server)."""


@contextmanager
def stdout_to_stderr():
    """Send file descriptor 1 to stderr for the duration of the block.

    HiGHS prints C-level lines to fd 1 during some solves; the report must
    be the only thing on stdout.
    """
    sys.stdout.flush()
    saved = os.dup(1)
    os.dup2(2, 1)
    try:
        yield
    finally:
        sys.stdout.flush()
        os.dup2(saved, 1)
        os.close(saved)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child."""
    kilobytes = sum(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return kilobytes / 1024.0


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-quantile (``q`` in [0, 1]) of ``values``."""
    return float(np.percentile(values, 100.0 * q))


class CycleClock:
    """Times control-loop cycles from outside, through the public facade.

    Passed as ``shutdown=`` to ``api.run_control_loop`` / ``replay_trace``:
    the loop reads ``requested`` once before every cycle and, in durable
    mode, once more after the last, so N cycles leave N + 1 ticks and cycle
    ``i`` took ``ticks[i + 1] - ticks[i]`` (its journal append included).
    It never asks the loop to stop.
    """

    def __init__(self) -> None:
        self.ticks: list[float] = []
        self.interrupted = False

    @property
    def requested(self) -> bool:
        self.ticks.append(time.perf_counter())
        return False

    def cycle_seconds(self, cycles: int) -> list[float]:
        if len(self.ticks) != cycles + 1:
            raise BenchError(
                f"expected {cycles + 1} shutdown polls for {cycles} cycles, "
                f"saw {len(self.ticks)}: the loop's poll points changed"
            )
        return [b - a for a, b in zip(self.ticks, self.ticks[1:])]


def sha256_json(document) -> str:
    """SHA-256 of the canonical (sorted, compact) JSON of ``document``."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_pin(key: str, digest: str) -> None:
    """Fail the run when a pinned input no longer hashes to its pin."""
    if PINS.get(key) != digest:
        raise BenchError(
            f"input {key!r} hashes to {digest}, pinned {PINS.get(key)}: a "
            "generator or trace change moved this workload"
        )
