"""Process supervision: graceful shutdown and crash/hang-restarting runner.

Two cooperating pieces:

* :class:`GracefulShutdown` — installed inside ``rasa cron`` / ``rasa
  replay``.  The first SIGTERM/SIGINT only sets a flag; the durable loop
  notices it between cycles, finishes the in-flight cycle, writes a final
  checkpoint, flushes telemetry, and exits with :data:`EXIT_INTERRUPTED`.
  The handler un-installs itself after the first signal so a second
  signal interrupts hard (the checkpoint makes that safe too).
* :class:`Supervisor` — ``rasa cron --supervise``.  Runs the loop in a
  child process, watches for crashes (unclean exit codes) and hangs
  (checkpoint heartbeat older than ``hang_timeout``), restarts the child
  with bounded exponential backoff, and records restart bookkeeping in
  ``supervisor.json`` + metrics.  The child auto-resumes from the
  checkpoint directory, so every restart continues instead of restarting
  the run.
"""

from __future__ import annotations

import signal
import subprocess
import time
from dataclasses import dataclass

from repro.durability.checkpoint import CheckpointStore
from repro.obs import get_logger, get_metrics, kv

#: Exit code for a graceful, checkpointed shutdown on SIGTERM/SIGINT.
#: Distinct from 0 (complete), 1 (SLA violation), 2 (bench/soak failure).
EXIT_INTERRUPTED = 3


class GracefulShutdown:
    """Context manager turning SIGTERM/SIGINT into a cooperative flag.

    Usage::

        with GracefulShutdown() as shutdown:
            loop = DurableControlLoop(..., shutdown=shutdown)
            loop.run()          # stops between cycles once requested
            if loop.interrupted:
                return EXIT_INTERRUPTED

    Signal handlers only work on the main thread; elsewhere this degrades
    to an inert flag the caller may still set programmatically.
    """

    def __init__(self) -> None:
        self.requested = False
        #: Set by the loop when the request actually cut a run short.
        self.interrupted = False
        self.signal_name: str | None = None
        self._previous: dict[int, object] = {}

    def __enter__(self) -> "GracefulShutdown":
        self._previous = {}
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._previous[signum] = signal.signal(signum, self._handle)
            except ValueError:  # not on the main thread
                pass
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _handle(self, signum, frame) -> None:
        self.requested = True
        self.signal_name = signal.Signals(signum).name
        get_logger("durability.shutdown").info(
            "graceful shutdown requested %s", kv(signal=self.signal_name)
        )
        # One graceful chance: restore the previous handlers so a second
        # signal interrupts hard instead of being swallowed.
        self._restore()

    def _restore(self) -> None:
        for signum, previous in self._previous.items():
            try:
                signal.signal(signum, previous)
            except (ValueError, TypeError):
                pass
        self._previous = {}


@dataclass
class SupervisorPolicy:
    """Restart/backoff/hang-detection knobs for :class:`Supervisor`.

    Attributes:
        max_restarts: Give up after this many restarts (the final exit
            code is the child's last).
        backoff_base: First restart delay in seconds.
        backoff_factor: Multiplier applied per successive restart.
        backoff_max: Ceiling on the restart delay.
        hang_timeout: Kill the child when the checkpoint heartbeat (WAL
            or snapshot mtime) is older than this many seconds; None
            disables hang detection.
        poll_interval: Seconds between child liveness checks.
    """

    max_restarts: int = 5
    backoff_base: float = 0.5
    backoff_factor: float = 2.0
    backoff_max: float = 30.0
    hang_timeout: float | None = None
    poll_interval: float = 0.2

    def backoff(self, restart_index: int) -> float:
        return min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor**restart_index,
        )


class Supervisor:
    """Run a control-loop command in a child process and keep it alive.

    Args:
        argv: Child command line (e.g. ``[sys.executable, "-m",
            "repro.cli", "replay", ...]`` with supervisor flags removed).
        checkpoint_dir: The child's checkpoint directory — the heartbeat
            source for hang detection and home of ``supervisor.json``.
        policy: Restart/backoff/hang knobs.
        clean_exit_codes: Exit codes that end supervision (the run is
            over): complete, SLA-violation, graceful shutdown.
    """

    def __init__(
        self,
        argv: list[str],
        checkpoint_dir,
        *,
        policy: SupervisorPolicy | None = None,
        clean_exit_codes: tuple[int, ...] = (0, 1, EXIT_INTERRUPTED),
    ) -> None:
        self.argv = list(argv)
        self.store = CheckpointStore(checkpoint_dir)
        self.policy = policy or SupervisorPolicy()
        self.clean_exit_codes = clean_exit_codes
        self.restarts = 0
        self.logger = get_logger("durability.supervisor")
        self._child: subprocess.Popen | None = None

    # ------------------------------------------------------------------
    def _record(self, status: str, *, exit_code: int | None, reason: str) -> None:
        self.store.write_supervisor(
            {
                "status": status,
                "restarts": self.restarts,
                "max_restarts": self.policy.max_restarts,
                "last_exit_code": exit_code,
                "last_reason": reason,
                "argv": self.argv,
                "updated_at": time.time(),
            }
        )

    def _forward(self, signum, frame) -> None:
        if self._child is not None and self._child.poll() is None:
            self._child.send_signal(signum)

    def _run_child_once(self) -> tuple[int, str]:
        """One child lifetime -> (exit code, reason: exited|hung)."""
        started = time.time()
        self._child = subprocess.Popen(self.argv)
        try:
            while True:
                code = self._child.poll()
                if code is not None:
                    return code, "exited"
                if self.policy.hang_timeout is not None:
                    age = self.store.heartbeat_age()
                    # Before the child's first persisted record, measure
                    # from its start time instead of a stale mtime.
                    if age is None or age > time.time() - started:
                        age = time.time() - started
                    if age > self.policy.hang_timeout:
                        self.logger.warning(
                            "child hang detected %s",
                            kv(age=round(age, 2), timeout=self.policy.hang_timeout),
                        )
                        self._child.kill()
                        self._child.wait()
                        return -signal.SIGKILL, "hung"
                time.sleep(self.policy.poll_interval)
        finally:
            self._child = None

    def run(self) -> int:
        """Supervise until a clean exit or the restart budget is spent.

        Returns the child's final exit code.
        """
        metrics = get_metrics()
        previous = {}
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                previous[signum] = signal.signal(signum, self._forward)
            except ValueError:
                pass
        try:
            self._record("running", exit_code=None, reason="started")
            while True:
                code, reason = self._run_child_once()
                if reason == "exited" and code in self.clean_exit_codes:
                    self._record("done", exit_code=code, reason="clean exit")
                    self.logger.info(
                        "supervised run finished %s",
                        kv(exit_code=code, restarts=self.restarts),
                    )
                    return code
                if self.restarts >= self.policy.max_restarts:
                    self._record(
                        "gave-up", exit_code=code, reason=f"{reason}; budget spent"
                    )
                    self.logger.error(
                        "restart budget spent %s",
                        kv(exit_code=code, restarts=self.restarts),
                    )
                    return code
                delay = self.policy.backoff(self.restarts)
                self.restarts += 1
                metrics.counter("durability.supervisor.restarts").inc()
                if reason == "hung":
                    metrics.counter("durability.supervisor.hangs").inc()
                self._record("restarting", exit_code=code, reason=reason)
                self.logger.warning(
                    "restarting child %s",
                    kv(
                        exit_code=code,
                        reason=reason,
                        restart=self.restarts,
                        backoff_seconds=round(delay, 3),
                    ),
                )
                time.sleep(delay)
        finally:
            for signum, handler in previous.items():
                try:
                    signal.signal(signum, handler)
                except (ValueError, TypeError):
                    pass


def strip_supervisor_args(argv: list[str], flags: dict[str, bool]) -> list[str]:
    """Remove supervisor-only flags from a CLI argv for the child process.

    ``flags`` maps each supervisor-only option string to whether it takes
    a value; the CLI derives it from its one declaration of those options.
    """
    out: list[str] = []
    skip = False
    for arg in argv:
        if skip:
            skip = False
            continue
        name, inline_value, _ = arg.partition("=")
        if name in flags:
            skip = flags[name] and not inline_value
            continue
        out.append(arg)
    return out
