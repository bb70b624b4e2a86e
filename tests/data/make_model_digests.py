"""Regenerate ``model_digests.json`` in this directory.

The digests come in two halves.  ``structure`` covers every byte HiGHS is
handed except the column upper bounds: ``c``, ``lb``, ``integrality``,
``b_ub``, ``b_eq`` and the ``data``/``indices``/``indptr`` of both CSR
matrices.  It was written by this script at 23d536c, whose models were
still byte-for-byte those of bdf4fd7, the parent of the one-builder
refactor that had three builders; no tree since moves a column, a row or
the emission order, so it must not move.  ``ub`` covers the column upper
bounds alone.  It moves only with a deliberate change to the bounds
``build_rasa_model`` derives (``container_fit`` / ``best_pair_fill``),
and that change rewrites it and says so.  Run it to check (``git diff``
stays empty)::

    PYTHONPATH=src python tests/data/make_model_digests.py

For M3 and T3 whole (both have unschedulable cells and anti-affinity
rules) and every ``MultiStagePartitioner(max_subproblem_services=12)`` shard
of M3 and M1 it digests the flat model, the group-aggregated model and one
pricing model per machine group (``default_rng(7)`` duals).
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


def model_digest(model, arrays=("c", "lb", "integrality", "b_ub", "b_eq"),
                 matrices=("a_ub", "a_eq")) -> str:
    """SHA-256 over the named arrays of a ``LinearModel``, shapes included."""
    sha = hashlib.sha256()
    for name in arrays:
        array = getattr(model, name)
        sha.update(f"{name}:{None if array is None else (array.dtype, array.shape)}".encode())
        if array is not None:
            sha.update(np.ascontiguousarray(array).tobytes())
    for name in matrices:
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


def pricing_models(problem, groups) -> list:
    """The model ``price_pattern_mip`` hands the backend, per group, priced
    on its own fresh ``pricing_model``."""
    duals = np.random.default_rng(7).uniform(0.0, 2.0, problem.num_services)
    seen: list = []

    def capture(model, **_kwargs):
        seen.append(model)
        return MILPResult("no_incumbent", None, float("inf"), bound=float("-inf"))

    with mock.patch.object(patterns, "solve_milp", capture):
        for group in groups:
            model = patterns.pricing_model(problem, group)
            patterns.price_pattern_mip(problem, group, model, duals)
    return seen


def compute_digests() -> dict[str, dict]:
    """``structure`` and ``ub`` digests of the flat, aggregated and pricing
    models of every instance."""
    halves = {
        "structure": model_digest,
        "ub": lambda model: model_digest(model, arrays=("ub",), matrices=()),
    }
    digests: dict[str, dict] = {half: {} for half in halves}
    for label, problem in instances():
        groups = patterns.group_machines(problem)
        flat = build_rasa_model(problem)[0]
        aggregated = build_rasa_model(problem, groups)[0]
        pricing = pricing_models(problem, groups)
        for half, digest in halves.items():
            digests[half][label] = {
                "flat": digest(flat),
                "aggregated": digest(aggregated),
                "pricing": [digest(model) for model in pricing],
            }
    return digests


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(compute_digests(), indent=1) + "\n")
