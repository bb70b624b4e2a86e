"""CRC-guarded, fsync'd JSONL write-ahead log for the control loop.

One line per committed control-loop cycle.  Each line is a canonical-JSON
envelope ``{"crc32": <crc>, "payload": {...}}`` where the CRC covers the
canonical encoding of the payload alone, so any torn or bit-flipped
record is detected on replay.

Recovery semantics (the contract ``tests/test_durability.py`` pins down):

* A bad record at the **tail** of the log — a torn final line from a
  crash mid-append, or trailing garbage — is recovered by physically
  truncating the file back to the last good record.  This is the normal
  kill -9 case and is logged + counted, never silently accepted.
* A bad record in the **middle** of the log (valid records follow it)
  means real corruption, not a torn write; replay raises
  :class:`~repro.exceptions.WALCorruptionError` instead of guessing.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.exceptions import WALCorruptionError
from repro.obs import get_logger, get_metrics, kv


def _canonical(payload: dict) -> str:
    """Canonical JSON encoding (matches the trace-v2 byte-stability idiom)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _crc(payload: dict) -> int:
    return zlib.crc32(_canonical(payload).encode("utf-8")) & 0xFFFFFFFF


@dataclass
class WALReplay:
    """Result of replaying a write-ahead log from disk.

    Attributes:
        records: The surviving record payloads, in append order.
        truncated_records: Bad trailing lines discarded during recovery
            (0 for a clean log).
        truncated_bytes: Bytes cut from the file by that recovery.
    """

    records: list[dict] = field(default_factory=list)
    truncated_records: int = 0
    truncated_bytes: int = 0


class WriteAheadLog:
    """Append-only JSONL journal with per-record CRC and fsync.

    Args:
        path: The log file; created on first append.
        fsync: Flush each appended record to stable storage.  The whole
            point of a WAL — leave on outside of throwaway tests.
    """

    def __init__(self, path: str | Path, *, fsync: bool = True) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self._handle = None

    # ------------------------------------------------------------------
    def append(self, payload: dict) -> None:
        """Durably append one record; returns after it is on disk."""
        # The envelope's canonical form, with the payload encoded once.
        data = _canonical(payload).encode("utf-8")
        crc = zlib.crc32(data) & 0xFFFFFFFF
        if self._handle is None:
            self._handle = open(self.path, "ab")
        self._handle.write(b'{"crc32":%d,"payload":%s}\n' % (crc, data))
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())
        get_metrics().counter("durability.wal.appends").inc()

    def close(self) -> None:
        """Close the append handle (reopened lazily by the next append)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def reset(self) -> None:
        """Truncate the log to empty (records absorbed into a snapshot)."""
        self.close()
        with open(self.path, "wb") as handle:
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())

    # ------------------------------------------------------------------
    def replay(self, *, repair: bool = True) -> WALReplay:
        """Parse the log, recovering from a torn tail.

        Args:
            repair: Physically truncate the file back to the last good
                record when the tail is torn (the resume path wants this);
                False only reports what would be cut.

        Raises:
            WALCorruptionError: On a bad record that is *followed* by
                valid records — mid-log damage truncation cannot fix.
        """
        result = WALReplay()
        if not self.path.exists():
            return result
        self.close()
        raw = self.path.read_bytes()
        offset = 0
        bad_offset: int | None = None
        bad_reason = ""
        bad_lines = 0
        for line in raw.split(b"\n"):
            line_start = offset
            offset += len(line) + 1
            if not line.strip():
                continue
            record, reason = self._parse(line)
            if record is None:
                if bad_offset is None:
                    bad_offset = line_start
                    bad_reason = reason
                bad_lines += 1
                continue
            if bad_offset is not None:
                raise WALCorruptionError(
                    f"corrupt record mid-log at byte {bad_offset} of "
                    f"{self.path} ({bad_reason}) with valid records after "
                    f"it; refusing to guess — restore from a snapshot"
                )
            result.records.append(record)
        if bad_offset is not None:
            result.truncated_records = bad_lines
            result.truncated_bytes = len(raw) - bad_offset
            get_logger("durability.wal").warning(
                "torn WAL tail truncated %s",
                kv(
                    path=str(self.path),
                    records=bad_lines,
                    bytes=result.truncated_bytes,
                    reason=bad_reason,
                ),
            )
            get_metrics().counter("durability.wal.truncated_records").inc(bad_lines)
            if repair:
                with open(self.path, "r+b") as handle:
                    handle.truncate(bad_offset)
                    handle.flush()
                    if self.fsync:
                        os.fsync(handle.fileno())
        return result

    @staticmethod
    def _parse(line: bytes) -> tuple[dict | None, str]:
        """One envelope line -> (payload, "") or (None, reason)."""
        try:
            envelope = json.loads(line.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            return None, f"not valid JSON: {exc}"
        if not isinstance(envelope, dict) or "payload" not in envelope:
            return None, "not a crc32/payload envelope"
        payload = envelope["payload"]
        if not isinstance(payload, dict):
            return None, "payload is not an object"
        if envelope.get("crc32") != _crc(payload):
            return None, "crc32 mismatch"
        return payload, ""
