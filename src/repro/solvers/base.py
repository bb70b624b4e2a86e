"""Common interface for scheduling algorithms in the algorithm pool.

Every algorithm that maps a :class:`~repro.core.problem.RASAProblem` to an
:class:`~repro.core.solution.Assignment` — MIP, column generation, the
greedy packer, and all paper baselines — implements
:class:`SchedulingAlgorithm` and returns a :class:`SolveResult`, so the
selection layer and the benchmarks can treat them uniformly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from repro.core.problem import RASAProblem
from repro.core.solution import Assignment


@dataclass
class SolveResult:
    """Outcome of running a scheduling algorithm on a RASA instance.

    Attributes:
        assignment: The computed placement (possibly partial for algorithms
            that tolerate failed deployments, per paper Section IV-B5).
        algorithm: Human-readable algorithm name (e.g. ``"mip"``, ``"cg"``).
        status: Backend status string (``"optimal"``, ``"feasible"``, ...).
        runtime_seconds: Wall-clock time the solve took.
        objective: Gained affinity of ``assignment`` (unnormalized).
        trajectory: Optional ``(elapsed_seconds, objective)`` incumbent
            history for quality-vs-runtime plots (paper Fig. 10).
        bound: Proven upper bound on the objective any placement of this
            solve could reach (same scale as ``objective``), or None for
            algorithms that prove none.
    """

    assignment: Assignment
    algorithm: str
    status: str
    runtime_seconds: float
    objective: float
    trajectory: list[tuple[float, float]] = field(default_factory=list)
    bound: float | None = None


@runtime_checkable
class SchedulingAlgorithm(Protocol):
    """Anything that can compute a placement for a RASA instance."""

    #: Stable identifier used by the selection layer and reports.
    name: str

    def solve(self, problem: RASAProblem, time_limit: float | None = None) -> SolveResult:
        """Compute a placement within an optional wall-clock budget."""
        ...  # pragma: no cover - protocol


class Stopwatch:
    """Tiny helper measuring elapsed wall-clock time and remaining budget."""

    def __init__(self, time_limit: float | None = None) -> None:
        self._start = time.monotonic()
        self.time_limit = time_limit

    @property
    def start_monotonic(self) -> float:
        """``time.monotonic()`` timestamp of construction.

        Lets callers translate monotonic timestamps taken elsewhere (e.g.
        on a pool thread) into this stopwatch's elapsed-seconds timebase.
        """
        return self._start

    @property
    def elapsed(self) -> float:
        """Seconds since construction."""
        return time.monotonic() - self._start

    @property
    def remaining(self) -> float | None:
        """Seconds left in the budget; None when unlimited."""
        if self.time_limit is None:
            return None
        return max(0.0, self.time_limit - self.elapsed)

    @property
    def expired(self) -> bool:
        """True once the budget has been spent."""
        return self.time_limit is not None and self.elapsed >= self.time_limit
