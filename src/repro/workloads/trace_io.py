"""Cluster trace serialization: save and load RASA instances and event
streams as versioned JSON.

The paper's datasets come from a metrics-monitoring system; downstream
users of this library will have their own.  This module defines two
stable, explicitly versioned trace formats:

* **v1** — a single-JSON point-in-time problem snapshot (services,
  machines, traffic/affinity, constraints, current placement), handled by
  :func:`save_trace`/:func:`load_trace`.
* **v2** — a gzip-compressed JSONL *event trace*: a header line (format
  version, trace metadata, and the embedded base problem) followed by one
  :mod:`repro.cluster.replay` event per line, handled by
  :func:`save_event_trace`/:func:`load_event_trace`.  Serialization is
  byte-stable (sorted keys, compact separators, zeroed gzip metadata) so
  committed traces round-trip load→save→load to identical bytes.

Both loaders gate on ``format_version`` and raise a clear
:class:`~repro.exceptions.ProblemValidationError` on unknown versions or
cross-format confusion instead of best-effort parsing.
"""

from __future__ import annotations

import gzip
import io
import json
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core.affinity import AffinityGraph
from repro.core.problem import AntiAffinityRule, Machine, RASAProblem, Service
from repro.durability.atomic import atomic_write
from repro.exceptions import ProblemValidationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (replay uses us)
    from repro.cluster.replay import EventTrace

#: Format version written into every v1 (problem snapshot) trace file.
TRACE_FORMAT_VERSION = 1

#: Format version written into every v2 (event stream) trace file.
EVENT_TRACE_FORMAT_VERSION = 2

#: Magic bytes identifying a gzip-compressed trace.
_GZIP_MAGIC = b"\x1f\x8b"


def problem_to_dict(problem: RASAProblem) -> dict:
    """Serialize a problem (and its current placement, if any) to plain data."""
    payload: dict = {
        "format_version": TRACE_FORMAT_VERSION,
        "resource_types": list(problem.resource_types),
        "services": [
            {
                "name": svc.name,
                "demand": svc.demand,
                "requests": dict(svc.requests),
                "priority": svc.priority,
            }
            for svc in problem.services
        ],
        "machines": [
            {
                "name": machine.name,
                "capacity": dict(machine.capacity),
                "spec": machine.spec,
            }
            for machine in problem.machines
        ],
        "affinity": [
            {"u": u, "v": v, "weight": w} for (u, v), w in problem.affinity.items()
        ],
        "anti_affinity": [
            {"services": sorted(rule.services), "limit": rule.limit}
            for rule in problem.anti_affinity
        ],
    }
    if not problem.schedulable.all():
        payload["schedulable"] = problem.schedulable.astype(int).tolist()
    if problem.current_assignment is not None:
        payload["current_assignment"] = problem.current_assignment.tolist()
    return payload


def problem_from_dict(payload: dict) -> RASAProblem:
    """Deserialize a problem written by :func:`problem_to_dict`.

    Raises:
        ProblemValidationError: On unknown format versions or malformed data.
    """
    version = payload.get("format_version")
    if version == EVENT_TRACE_FORMAT_VERSION:
        raise ProblemValidationError(
            f"format version {version} is an event trace, not a problem "
            f"snapshot; use load_event_trace()"
        )
    if version != TRACE_FORMAT_VERSION:
        raise ProblemValidationError(
            f"unsupported trace format version {version!r} "
            f"(expected {TRACE_FORMAT_VERSION})"
        )
    try:
        services = [
            Service(
                name=entry["name"],
                demand=int(entry["demand"]),
                requests=dict(entry["requests"]),
                priority=float(entry.get("priority", 1.0)),
            )
            for entry in payload["services"]
        ]
        machines = [
            Machine(
                name=entry["name"],
                capacity=dict(entry["capacity"]),
                spec=entry.get("spec", "default"),
            )
            for entry in payload["machines"]
        ]
        affinity = AffinityGraph(
            {(e["u"], e["v"]): float(e["weight"]) for e in payload.get("affinity", [])}
        )
        rules = [
            AntiAffinityRule(
                services=frozenset(entry["services"]), limit=int(entry["limit"])
            )
            for entry in payload.get("anti_affinity", [])
        ]
    except (KeyError, TypeError) as exc:
        raise ProblemValidationError(f"malformed trace payload: {exc}") from exc

    schedulable = None
    if "schedulable" in payload:
        schedulable = np.asarray(payload["schedulable"], dtype=bool)
    current = None
    if "current_assignment" in payload:
        current = np.asarray(payload["current_assignment"], dtype=np.int64)

    return RASAProblem(
        services=services,
        machines=machines,
        affinity=affinity,
        anti_affinity=rules,
        schedulable=schedulable,
        resource_types=payload.get("resource_types"),
        current_assignment=current,
    )


def save_trace(problem: RASAProblem, path: str | Path) -> None:
    """Write a problem to a JSON trace file (atomic replace)."""
    atomic_write(Path(path), json.dumps(problem_to_dict(problem), indent=2))


def load_trace(path: str | Path) -> RASAProblem:
    """Read a problem from a JSON trace file.

    Raises:
        ProblemValidationError: On malformed content.
    """
    raw = Path(path).read_bytes()
    if raw[:2] == _GZIP_MAGIC:
        raise ProblemValidationError(
            f"{path} is gzip-compressed (an event trace?); "
            f"use load_event_trace()"
        )
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProblemValidationError(f"trace file is not valid JSON: {exc}") from exc
    return problem_from_dict(payload)


# ----------------------------------------------------------------------
# Format v2: event traces (gzip-compressed JSONL)
# ----------------------------------------------------------------------
def _dumps(payload: dict) -> str:
    """Canonical JSON encoding — the byte-stability contract of v2."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def save_event_trace(trace: "EventTrace", path: str | Path) -> None:
    """Write an event trace as format-v2 JSONL.

    Paths ending in ``.gz`` are gzip-compressed with zeroed metadata
    (mtime, filename) so identical traces produce identical bytes.
    """
    payload = trace.to_dict()
    events = payload.pop("events")
    header = {
        "format_version": EVENT_TRACE_FORMAT_VERSION,
        "kind": "event_trace",
        **payload,
    }
    lines = [_dumps(header), *(_dumps(event) for event in events)]
    data = ("\n".join(lines) + "\n").encode("utf-8")
    path = Path(path)
    if path.suffix == ".gz":
        buf = io.BytesIO()
        with gzip.GzipFile(filename="", mode="wb", fileobj=buf, mtime=0) as gz:
            gz.write(data)
        atomic_write(path, buf.getvalue())
    else:
        atomic_write(path, data)


def load_event_trace(path: str | Path) -> "EventTrace":
    """Read an event trace written by :func:`save_event_trace`.

    Raises:
        ProblemValidationError: On unknown format versions, cross-format
            confusion (a v1 snapshot fed to the v2 loader), or malformed
            header/event lines.
    """
    from repro.cluster.replay import EventTrace

    raw = Path(path).read_bytes()
    if raw[:2] == _GZIP_MAGIC:
        try:
            raw = gzip.decompress(raw)
        except (OSError, EOFError) as exc:
            raise ProblemValidationError(
                f"corrupt gzip stream in event trace {path}: {exc}"
            ) from exc
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProblemValidationError(
            f"event trace {path} is not UTF-8 text: {exc}"
        ) from exc
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ProblemValidationError(f"event trace {path} is empty")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        # A v1 snapshot is pretty-printed multi-line JSON, so its first
        # line alone never parses; detect that before complaining.
        try:
            whole = json.loads(text)
        except json.JSONDecodeError:
            whole = None
        if isinstance(whole, dict) and whole.get("format_version") == TRACE_FORMAT_VERSION:
            raise ProblemValidationError(
                f"{path} is a format-version {TRACE_FORMAT_VERSION} problem "
                f"snapshot, not an event trace; use load_trace()"
            ) from exc
        raise ProblemValidationError(
            f"event trace header is not valid JSON: {exc}"
        ) from exc
    if not isinstance(header, dict):
        raise ProblemValidationError("event trace header must be an object")
    version = header.get("format_version")
    if version == TRACE_FORMAT_VERSION:
        raise ProblemValidationError(
            f"format version {version} is a problem snapshot, not an event "
            f"trace; use load_trace()"
        )
    if version != EVENT_TRACE_FORMAT_VERSION:
        raise ProblemValidationError(
            f"unsupported event-trace format version {version!r} "
            f"(expected {EVENT_TRACE_FORMAT_VERSION})"
        )
    if header.get("kind") != "event_trace":
        raise ProblemValidationError(
            f"unexpected trace kind {header.get('kind')!r} "
            f"(expected 'event_trace')"
        )
    events = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ProblemValidationError(
                f"event trace line {lineno} is not valid JSON: {exc}"
            ) from exc
    return EventTrace.from_dict({**header, "events": events})
