"""Regenerate ``reference_week_digests.json`` in this directory.

The committed digests pin the 24-cycle report sequences of the reference
week as 39b0b74 wrote them — the parent of the solver-free cycle
decisions, which solved every cycle before gating it.  Every later tree
must replay to the same bytes; run this to check (``git diff`` stays
empty), never to move the pin::

    PYTHONPATH=src python tests/data/make_reference_week_digests.py

Two variants of ``api.replay_trace(reference_week, cycles=24,
time_limit=None)``: ``clean`` (fault-free, no traffic jitter) and
``chaos`` (20 % command failures, 5 % machine flaps that kill their
containers, 5 % traffic jitter).  A digest is the SHA-256 of the canonical
(sorted, compact) JSON of the ``CycleReport.to_dict()`` list.
``tests/test_cronjob.py`` imports :func:`compute_digests` from here and
recomputes them with whatever control loop the current tree has.
"""

import hashlib
import json
from pathlib import Path

from repro import api
from repro.faults import FaultPlan

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "reference_week_digests.json"
REFERENCE_TRACE = HERE.parents[1] / "benchmarks" / "traces" / "reference_week.jsonl.gz"
CYCLES = 24

#: Variant -> the ``replay_trace`` keyword arguments beyond the common ones.
VARIANTS = {
    "clean": {},
    "chaos": {
        "faults": FaultPlan(
            seed=2, command_failure_rate=0.2, machine_failure_rate=0.05,
            kill_containers=True,
        ),
        "traffic_jitter_sigma": 0.05,
        "seed": 3,
    },
}


def report_digest(reports) -> str:
    """SHA-256 of the canonical JSON of a report sequence."""
    documents = [report.to_dict() for report in reports]
    text = json.dumps(documents, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def compute_digests() -> dict[str, str]:
    """Digest of the 24-cycle report sequence of every variant."""
    return {
        name: report_digest(
            api.replay_trace(
                REFERENCE_TRACE, cycles=CYCLES, time_limit=None, **kwargs
            )
        )
        for name, kwargs in VARIANTS.items()
    }


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(compute_digests(), indent=1) + "\n")
