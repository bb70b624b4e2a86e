"""Regenerate ``model_digests.json`` in this directory.

The committed digests pin the Eq. 2–9 models of bdf4fd7, the parent of the
one-builder refactor, which still had three builders.  Every tree since has
the one ``build_rasa_model`` and must regenerate the same bytes — run it to
check (``git diff`` stays empty), never to move the pin::

    PYTHONPATH=src python tests/data/make_model_digests.py

For M3 and T3 whole (both have unschedulable cells and anti-affinity
rules) and every ``MultiStagePartitioner(max_subproblem_services=12)`` shard
of M3 and M1 it digests the flat model, the group-aggregated model and one
pricing model per machine group (``default_rng(7)`` duals), over every byte
HiGHS is handed: ``c``, ``lb``, ``ub``, ``integrality``, ``b_ub``, ``b_eq``
and the ``data``/``indices``/``indptr`` of both CSR matrices.
``tests/test_mip_algorithm.py`` imports :func:`compute_digests` from here
and recomputes them with whatever builder the current tree has.
"""

import hashlib
import json
from pathlib import Path
from unittest import mock

import numpy as np

from repro.partitioning.multistage import MultiStagePartitioner
from repro.solvers import patterns
from repro.solvers.branch_and_bound import MILPResult
from repro.solvers.mip import build_rasa_model
from repro.workloads.datasets import load_cluster

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "model_digests.json"


def model_digest(model) -> str:
    """SHA-256 over every array of a ``LinearModel``, shapes included."""
    sha = hashlib.sha256()
    for name in ("c", "lb", "ub", "integrality", "b_ub", "b_eq"):
        array = getattr(model, name)
        sha.update(f"{name}:{None if array is None else (array.dtype, array.shape)}".encode())
        if array is not None:
            sha.update(np.ascontiguousarray(array).tobytes())
    for name in ("a_ub", "a_eq"):
        matrix = getattr(model, name)
        sha.update(f"{name}:{None if matrix is None else matrix.shape}".encode())
        if matrix is not None:
            for part in (matrix.data, matrix.indices, matrix.indptr):
                sha.update(f"{part.dtype}".encode())
                sha.update(part.tobytes())
    return sha.hexdigest()


def instances():
    """``(label, problem)`` for every pinned instance."""
    for name in ("M3", "T3"):
        yield name, load_cluster(name).problem
    for name in ("M3", "M1"):
        partition = MultiStagePartitioner(max_subproblem_services=12).partition(
            load_cluster(name).problem
        )
        for i, shard in enumerate(partition.subproblems):
            yield f"{name}/shard{i}", shard.problem


def pricing_digests(problem, groups) -> list[str]:
    """Digest of the model ``price_pattern_mip`` hands the backend, per group."""
    duals = np.random.default_rng(7).uniform(0.0, 2.0, problem.num_services)
    seen: list[str] = []

    def capture(model, **_kwargs):
        seen.append(model_digest(model))
        return MILPResult("no_incumbent", None, float("inf"), bound=float("-inf"))

    with mock.patch.object(patterns, "solve_milp", capture):
        for group in groups:
            patterns.price_pattern_mip(problem, group, duals)
    return seen


def compute_digests() -> dict[str, dict]:
    """Digests of the flat, aggregated and pricing models of every instance."""
    digests = {}
    for label, problem in instances():
        groups = patterns.group_machines(problem)
        digests[label] = {
            "flat": model_digest(build_rasa_model(problem)[0]),
            "aggregated": model_digest(build_rasa_model(problem, groups)[0]),
            "pricing": pricing_digests(problem, groups),
        }
    return digests


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(compute_digests(), indent=1) + "\n")
