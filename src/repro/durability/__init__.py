"""Durable control-loop state: atomic writes, WAL, checkpoints, supervision.

Only the dependency-free :mod:`~repro.durability.atomic` helpers are
imported eagerly — low-level modules (``repro.obs``,
``repro.workloads.trace_io``) import them for atomic artifact writes, and
the heavier durability modules import those packages back.  Everything
else resolves lazily through :func:`__getattr__` (PEP 562) to keep the
import graph acyclic.
"""

from __future__ import annotations

from repro.durability.atomic import atomic_write, atomic_write_json, fsync_directory

__all__ = [
    "atomic_write",
    "atomic_write_json",
    "fsync_directory",
    "WriteAheadLog",
    "WALReplay",
    "CheckpointStore",
    "CheckpointState",
    "CHECKPOINT_FORMAT_VERSION",
    "DurableControlLoop",
    "prepare_resume",
    "capture_live",
    "GracefulShutdown",
    "Supervisor",
    "SupervisorPolicy",
    "strip_supervisor_args",
    "EXIT_INTERRUPTED",
]

_LAZY = {
    "WriteAheadLog": "repro.durability.wal",
    "WALReplay": "repro.durability.wal",
    "CheckpointStore": "repro.durability.checkpoint",
    "CheckpointState": "repro.durability.checkpoint",
    "CHECKPOINT_FORMAT_VERSION": "repro.durability.checkpoint",
    "DurableControlLoop": "repro.durability.loop",
    "prepare_resume": "repro.durability.loop",
    "capture_live": "repro.durability.loop",
    "GracefulShutdown": "repro.durability.supervisor",
    "Supervisor": "repro.durability.supervisor",
    "SupervisorPolicy": "repro.durability.supervisor",
    "strip_supervisor_args": "repro.durability.supervisor",
    "EXIT_INTERRUPTED": "repro.durability.supervisor",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
