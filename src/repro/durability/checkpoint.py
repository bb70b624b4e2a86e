"""Checkpoint directory layout: atomic snapshot + WAL tail + supervisor state.

A checkpoint directory holds the durable state of one control loop:

* ``snapshot.json`` — the latest compaction: run configuration, the
  serialized run *source* (event trace or problem), every completed
  cycle's report, and the live-state capture at compaction time.  Written
  atomically (temp file + rename) and format-versioned like trace v2.
* ``wal.jsonl`` — one CRC-guarded record per cycle completed since the
  snapshot (see :mod:`repro.durability.wal`).  Compaction absorbs the
  records into a fresh snapshot and truncates the log.
* ``supervisor.json`` — restart bookkeeping written by the
  :mod:`repro.durability.supervisor` (absent for unsupervised runs).

Crash windows are closed by ordering: the snapshot is renamed into place
*before* the WAL is truncated, so a crash in between leaves stale WAL
records for cycles the snapshot already covers — :meth:`CheckpointStore.load`
drops them (``cycle < cycles_completed``) and verifies the survivors form
a contiguous continuation.

Format 2 stores a problem's two dense matrices compactly.  A serialized
:class:`~repro.core.problem.RASAProblem`
(:func:`~repro.workloads.trace_io.problem_to_dict`) carries two
``services x machines`` matrices as nested lists.  A checkpoint stores
one problem in every snapshot's ``source`` (problem mode) and one per
capture as the collector's ``last_problem``, so on a large cluster those
lists are nearly all of a snapshot's and a WAL record's bytes.  Format 2
stores:

* ``current_assignment`` as its nonzero cells,
  ``{"shape": [N, M], "cells": [[service, machine, count], ...]}``, in
  row-major order;
* ``schedulable`` bit-packed, ``{"shape": [N, M], "bits": <base64>}``,
  the base64 of ``np.packbits`` over the row-major mask.  Its False cells
  are spread over every row, so a cell list would not be smaller.

Format 1 wrote both as nested lists.  :func:`decode_problem` accepts
either per matrix (a list is format 1, an object format 2) and returns
``problem_to_dict``'s own form, so everything past the checkpoint reader
sees one shape.
"""

from __future__ import annotations

import base64
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.problem import RASAProblem
from repro.durability.atomic import atomic_write_json
from repro.durability.wal import WALReplay, WriteAheadLog
from repro.exceptions import DurabilityError, WALCorruptionError
from repro.obs import get_metrics
from repro.workloads.trace_io import problem_to_dict

#: Format version written into every checkpoint snapshot.  Version 2
#: stores a problem's dense matrices compactly (see the module docstring);
#: version 1 snapshots, and the WAL records written beside them, still load.
CHECKPOINT_FORMAT_VERSION = 2

#: Every snapshot format version :meth:`CheckpointStore.load` reads.
READABLE_FORMAT_VERSIONS = (1, 2)

SNAPSHOT_FILE = "snapshot.json"
WAL_FILE = "wal.jsonl"
SUPERVISOR_FILE = "supervisor.json"


# ----------------------------------------------------------------------
# Format 2's problem matrices
# ----------------------------------------------------------------------
def encode_counts(matrix: np.ndarray) -> dict:
    """A non-negative integer matrix as its nonzero ``[row, col, count]`` cells."""
    rows, cols = np.nonzero(matrix != 0)
    counts = matrix[rows, cols]
    return {
        "shape": list(matrix.shape),
        "cells": np.stack([rows, cols, counts], axis=1).tolist(),
    }


def decode_counts(payload: dict) -> np.ndarray:
    """Invert :func:`encode_counts` into an ``int64`` matrix."""
    shape = _shape(payload)
    try:
        cells = np.asarray(payload["cells"], dtype=np.int64).reshape(-1, 3)
    except (KeyError, TypeError, ValueError) as exc:
        raise DurabilityError(f"checkpoint count cells are malformed: {exc}") from exc
    rows, cols, counts = cells.T
    if ((rows < 0) | (rows >= shape[0]) | (cols < 0) | (cols >= shape[1])).any():
        raise DurabilityError(f"checkpoint count cell outside shape {shape}")
    matrix = np.zeros(shape, dtype=np.int64)
    matrix[rows, cols] = counts
    return matrix


def encode_mask(mask: np.ndarray) -> dict:
    """A boolean matrix as base64 of its row-major ``np.packbits``."""
    bits = np.packbits(np.asarray(mask, dtype=bool).ravel())
    return {
        "shape": list(mask.shape),
        "bits": base64.b64encode(bits.tobytes()).decode("ascii"),
    }


def decode_mask(payload: dict) -> np.ndarray:
    """Invert :func:`encode_mask` into a boolean matrix."""
    shape = _shape(payload)
    size = shape[0] * shape[1]
    try:
        packed = np.frombuffer(base64.b64decode(payload["bits"], validate=True), np.uint8)
    except (KeyError, TypeError, ValueError) as exc:
        raise DurabilityError(f"checkpoint mask has no valid base64 bits: {exc}") from exc
    if packed.size != (size + 7) // 8:
        raise DurabilityError(
            f"checkpoint mask holds {packed.size} bytes, shape {shape} needs "
            f"{(size + 7) // 8}"
        )
    return np.unpackbits(packed, count=size).astype(bool).reshape(shape)


def encode_problem(problem: RASAProblem) -> dict:
    """``problem_to_dict(problem)`` with its dense matrices in format 2."""
    payload = problem_to_dict(problem, matrices=False)
    if not problem.schedulable.all():
        payload["schedulable"] = encode_mask(problem.schedulable)
    if problem.current_assignment is not None:
        payload["current_assignment"] = encode_counts(problem.current_assignment)
    return payload


def upgrade_problem(payload: dict) -> dict:
    """A problem payload of either format, with its matrices in format 2."""
    out = dict(payload)
    if isinstance(out.get("schedulable"), list):
        out["schedulable"] = encode_mask(np.asarray(out["schedulable"], dtype=bool))
    if isinstance(out.get("current_assignment"), list):
        out["current_assignment"] = encode_counts(
            np.asarray(out["current_assignment"], dtype=np.int64)
        )
    return out


def decode_problem(payload: dict) -> dict:
    """A problem payload of either format in ``problem_to_dict``'s form."""
    out = dict(payload)
    if isinstance(out.get("schedulable"), dict):
        out["schedulable"] = decode_mask(out["schedulable"]).astype(int).tolist()
    if isinstance(out.get("current_assignment"), dict):
        out["current_assignment"] = decode_counts(out["current_assignment"]).tolist()
    return out


def _shape(payload: dict) -> tuple[int, int]:
    shape = payload.get("shape") if isinstance(payload, dict) else None
    if (
        not isinstance(shape, list)
        or len(shape) != 2
        or not all(isinstance(n, int) and n >= 0 for n in shape)
    ):
        raise DurabilityError(f"checkpoint matrix has no valid shape: {shape!r}")
    return shape[0], shape[1]


@dataclass
class CheckpointState:
    """Everything :meth:`CheckpointStore.load` recovered from disk.

    Attributes:
        snapshot: The parsed snapshot document (None when none exists).
        wal_records: Cycle records appended after the snapshot, stale
            pre-compaction leftovers already filtered out.
        truncated_records: Torn trailing WAL lines discarded by recovery.
        stale_records: WAL records dropped because the snapshot already
            covered their cycles (crash between snapshot and truncate).
    """

    snapshot: dict | None = None
    wal_records: list[dict] = field(default_factory=list)
    truncated_records: int = 0
    stale_records: int = 0

    @property
    def cycles_completed(self) -> int:
        """Completed cycles recoverable from snapshot + WAL tail."""
        base = int(self.snapshot["cycles_completed"]) if self.snapshot else 0
        return base + len(self.wal_records)


class CheckpointStore:
    """One control loop's durable home directory.

    Args:
        directory: Checkpoint directory; created if missing.
        fsync: Flush writes to stable storage (see :class:`WriteAheadLog`).
    """

    def __init__(self, directory: str | Path, *, fsync: bool = True) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.wal = WriteAheadLog(self.directory / WAL_FILE, fsync=fsync)

    # ------------------------------------------------------------------
    @property
    def snapshot_path(self) -> Path:
        return self.directory / SNAPSHOT_FILE

    @property
    def wal_path(self) -> Path:
        return self.directory / WAL_FILE

    @property
    def supervisor_path(self) -> Path:
        return self.directory / SUPERVISOR_FILE

    def exists(self) -> bool:
        """Whether any durable state (snapshot or WAL records) is present."""
        if self.snapshot_path.exists():
            return True
        return self.wal_path.exists() and self.wal_path.stat().st_size > 0

    # ------------------------------------------------------------------
    def append_cycle(self, record: dict) -> None:
        """Durably journal one committed cycle."""
        self.wal.append(record)

    def write_snapshot(self, payload: dict) -> None:
        """Compact: atomically write a snapshot, then truncate the WAL.

        The payload gains ``format_version``/``kind`` headers; the caller
        supplies ``run``/``source``/``cycles_completed``/``reports``/
        ``live`` (see :mod:`repro.durability.loop`).
        """
        document = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "kind": "control_loop_checkpoint",
            **payload,
        }
        atomic_write_json(
            self.snapshot_path, document, sort_keys=True, fsync=self.fsync
        )
        self.wal.reset()
        get_metrics().counter("durability.checkpoint.compactions").inc()

    # ------------------------------------------------------------------
    def load(self) -> CheckpointState:
        """Recover snapshot + WAL tail, validating format and continuity.

        Raises:
            DurabilityError: On an unreadable or wrong-format snapshot.
            WALCorruptionError: On mid-log WAL damage or a gap in the
                surviving cycle sequence.
        """
        state = CheckpointState()
        if self.snapshot_path.exists():
            try:
                snapshot = json.loads(self.snapshot_path.read_text("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise DurabilityError(
                    f"checkpoint snapshot {self.snapshot_path} is not valid "
                    f"JSON: {exc}"
                ) from exc
            if not isinstance(snapshot, dict):
                raise DurabilityError("checkpoint snapshot must be an object")
            version = snapshot.get("format_version")
            if version not in READABLE_FORMAT_VERSIONS:
                raise DurabilityError(
                    f"unsupported checkpoint format version {version!r} "
                    f"(expected one of {READABLE_FORMAT_VERSIONS})"
                )
            if snapshot.get("kind") != "control_loop_checkpoint":
                raise DurabilityError(
                    f"unexpected checkpoint kind {snapshot.get('kind')!r}"
                )
            state.snapshot = snapshot

        replay: WALReplay = self.wal.replay(repair=True)
        state.truncated_records = replay.truncated_records
        base = (
            int(state.snapshot["cycles_completed"]) if state.snapshot else 0
        )
        expected = base
        for record in replay.records:
            cycle = record.get("cycle")
            if not isinstance(cycle, int):
                raise WALCorruptionError(
                    f"WAL record without an integer cycle in {self.wal_path}"
                )
            if cycle < base:
                # Crash landed between snapshot rename and WAL truncate;
                # the snapshot already covers this cycle.
                state.stale_records += 1
                continue
            if cycle != expected:
                raise WALCorruptionError(
                    f"WAL cycle sequence gap in {self.wal_path}: expected "
                    f"cycle {expected}, found {cycle}"
                )
            state.wal_records.append(record)
            expected += 1
        return state

    # ------------------------------------------------------------------
    def heartbeat_age(self, now: float | None = None) -> float | None:
        """Seconds since the loop last persisted anything (None: never).

        The supervisor's hang detector: every committed cycle touches the
        WAL (or, at a compaction, the snapshot), so a stuck loop shows up
        as a growing heartbeat age.
        """
        latest = None
        for path in (self.wal_path, self.snapshot_path):
            try:
                mtime = path.stat().st_mtime
            except OSError:
                continue
            latest = mtime if latest is None else max(latest, mtime)
        if latest is None:
            return None
        return (now if now is not None else time.time()) - latest

    def read_supervisor(self) -> dict | None:
        """The supervisor's restart bookkeeping, if any."""
        try:
            payload = json.loads(self.supervisor_path.read_text("utf-8"))
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        return payload if isinstance(payload, dict) else None

    def write_supervisor(self, payload: dict) -> None:
        atomic_write_json(
            self.supervisor_path, payload, indent=1, fsync=self.fsync
        )
