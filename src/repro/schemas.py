"""Versioned wire schemas: one ``schema_version`` key for every payload.

Every serializable artifact the system hands across a process boundary —
:class:`~repro.cluster.cronjob.CycleReport`,
:class:`~repro.migration.plan.MigrationPlan`,
:class:`~repro.migration.executor.ExecutionTrace` and
:class:`~repro.faults.plan.FaultPlan` — tags its
``to_dict`` payload with the shared :data:`SCHEMA_VERSION` and validates it
in ``from_dict``.  The multi-tenant optimizer service
(:mod:`repro.service`) speaks *only* these tagged payloads, so a client
from a different build fails loudly on a version skew instead of silently
misreading fields.

Versioning policy: additive, defaulted fields do not bump the version
(``from_dict`` implementations read unknown-key-tolerant with defaults);
renames, removals, or semantic changes do.  Payloads written before this
key existed carry no ``schema_version`` and are accepted as version 1 —
the key was introduced without changing any field.
"""

from __future__ import annotations

from repro.exceptions import ProblemValidationError

#: The current wire-schema version, shared by every tagged payload type.
SCHEMA_VERSION = 1

#: Payload key carrying the version tag.
SCHEMA_KEY = "schema_version"


def tag_schema(payload: dict) -> dict:
    """Return ``payload`` with the current :data:`SCHEMA_VERSION` tag added.

    Mutates and returns the same dict (payloads are freshly built by the
    ``to_dict`` caller).  The tag is inserted first so serialized JSON
    leads with the version.
    """
    tagged = {SCHEMA_KEY: SCHEMA_VERSION}
    tagged.update(payload)
    return tagged


def check_schema(payload: dict, kind: str) -> dict:
    """Validate a payload's ``schema_version`` tag; returns the payload.

    A missing tag is accepted as version 1 (artifacts written before the
    tag existed); a present tag must equal :data:`SCHEMA_VERSION`.

    Args:
        payload: The dict handed to a ``from_dict``.
        kind: Human-readable payload type for the error message
            (e.g. ``"CycleReport"``).

    Raises:
        ProblemValidationError: When the tag is present but not the
            supported version, or is not an integer.
    """
    version = payload.get(SCHEMA_KEY, SCHEMA_VERSION)
    if not isinstance(version, int) or isinstance(version, bool):
        raise ProblemValidationError(
            f"{kind} payload has a non-integer {SCHEMA_KEY}: {version!r}"
        )
    if version != SCHEMA_VERSION:
        raise ProblemValidationError(
            f"{kind} payload has {SCHEMA_KEY}={version}, but this build "
            f"speaks version {SCHEMA_VERSION}"
        )
    return payload


def strip_schema(payload: dict) -> dict:
    """A copy of ``payload`` without the version tag.

    For ``from_dict`` implementations that feed the payload to a strict
    constructor (e.g. :class:`~repro.faults.plan.FaultPlan`, which rejects
    unknown keys so a typoed rate cannot silently disable chaos).
    """
    return {k: v for k, v in payload.items() if k != SCHEMA_KEY}
