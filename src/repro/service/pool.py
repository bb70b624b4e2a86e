"""Bounded worker pool pinning each tenant to one worker slot.

The service may host far more tenants than it can run threads, so tenant
work is sharded onto a fixed worker set.  Two disciplines matter:

* **per-tenant serialization** — all jobs for one tenant run on one slot,
  FIFO, so a tenant's control loop never interleaves with itself (cycle
  N+1 starts only after cycle N committed — the same discipline the
  parallel subproblem engine uses for its deterministic merge: concurrency
  between independent units, strict order within one).
* **tenant → slot stability** — the slot is ``crc32(name) % workers``, a
  pure function of the name: the same in every process and across
  restarts.  Nothing resizes a live pool, so nothing is ever remapped (a
  consistent-hash ring belongs with shard handoff, which ROADMAP parks).

Jobs are plain callables; results travel through
:class:`concurrent.futures.Future`, so callers can fire-and-forget
(trigger endpoints return 202) or block (``?wait=1``, the CLI).
"""

from __future__ import annotations

import queue
import threading
import zlib
from concurrent.futures import Future
from typing import Any, Callable

from repro.obs import get_logger, get_metrics, kv
from repro.obs.context import current_context, use_context

#: Sentinel telling a worker thread to drain out.
_STOP = object()


class ControllerPool:
    """Fixed set of worker threads, one FIFO queue per slot.

    Args:
        workers: Worker-thread count (the concurrency ceiling for tenant
            control loops).
        name: Thread-name prefix (shows up in stack dumps and profilers).
    """

    def __init__(self, workers: int = 4, *, name: str = "rasa-pool") -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self._queues: list[queue.Queue] = [queue.Queue() for _ in range(self.workers)]
        self._threads = [
            threading.Thread(
                target=self._worker, args=(slot,),
                name=f"{name}-{slot}", daemon=True,
            )
            for slot in range(self.workers)
        ]
        self._started = False
        self._stopped = False
        self._lock = threading.Lock()
        self._logger = get_logger("service.pool")

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spin the worker threads up (idempotent)."""
        with self._lock:
            if self._started:
                return
            self._started = True
        for thread in self._threads:
            thread.start()

    def slot_for(self, tenant: str) -> int:
        """The worker slot a tenant's jobs are pinned to."""
        return zlib.crc32(tenant.encode("utf-8")) % self.workers

    def submit(self, tenant: str, fn: Callable[[], Any]) -> "Future[Any]":
        """Enqueue ``fn`` on the tenant's slot; returns its future.

        Jobs for one tenant run in submission order on one thread; jobs
        for tenants on different slots run concurrently.  The submitter's
        request :class:`~repro.obs.context.TraceContext` (when one is
        current) is captured here and reinstalled around the job on the
        worker thread — ``ContextVar`` state does not cross threads by
        itself, and this is what keeps one trace id flowing from the HTTP
        handler through the pool into the cycle spans.
        """
        if not self._started or self._stopped:
            raise RuntimeError("ControllerPool is not running")
        future: Future = Future()
        ctx = current_context()
        self._queues[self.slot_for(tenant)].put((tenant, fn, future, ctx))
        get_metrics().counter("service.pool.submitted").inc()
        return future

    def drain(self, timeout: float | None = None) -> bool:
        """Block until every queued job has finished.

        Returns False when ``timeout`` elapsed first.  New submissions
        racing a drain are allowed (the drain just waits longer).
        """
        import time

        deadline = None if timeout is None else time.monotonic() + timeout
        for q in self._queues:
            while q.unfinished_tasks:
                if deadline is not None and time.monotonic() >= deadline:
                    return False
                time.sleep(0.01)
        return True

    def stop(self, *, drain: bool = True, timeout: float | None = None) -> None:
        """Stop the workers (optionally after draining queued jobs)."""
        with self._lock:
            if not self._started or self._stopped:
                self._stopped = True
                return
            self._stopped = True
        if drain:
            self.drain(timeout=timeout)
        for q in self._queues:
            q.put(_STOP)
        for thread in self._threads:
            thread.join(timeout=5.0)

    # ------------------------------------------------------------------
    def _worker(self, slot: int) -> None:
        q = self._queues[slot]
        while True:
            item = q.get()
            try:
                if item is _STOP:
                    return
                tenant, fn, future, ctx = item
                if not future.set_running_or_notify_cancel():
                    continue
                try:
                    with use_context(ctx):
                        future.set_result(fn())
                    get_metrics().counter("service.pool.completed").inc()
                except BaseException as exc:  # noqa: BLE001 - future carries it
                    get_metrics().counter("service.pool.failed").inc()
                    self._logger.warning(
                        "tenant job failed %s",
                        kv(tenant=tenant, slot=slot, error=str(exc)),
                    )
                    future.set_exception(exc)
            finally:
                q.task_done()

    # ------------------------------------------------------------------
    def __enter__(self) -> "ControllerPool":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
