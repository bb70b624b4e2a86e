"""Shared fixtures and result recording for the benchmark suite.

Each benchmark regenerates one table or figure of the paper.  Results are
printed as paper-style rows *and* appended to ``benchmarks/results/*.json``
so EXPERIMENTS.md can be assembled from a benchmark run.

Conventions:

* ``TIME_LIMIT`` is the per-solve budget standing in for the paper's
  one-minute cap (our datasets are ~1/40 scale, see DESIGN.md).
* Expensive pipelines use ``benchmark.pedantic(rounds=1)`` — the interesting
  output is the *quality* series, and pytest-benchmark records the runtime.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.selection import GCNSelector, MLPSelector, label_subproblem, sample_subproblems
from repro.workloads import evaluation_clusters, training_clusters

#: Stand-in for the paper's one-minute time-out at our reduced scale.
TIME_LIMIT = 8.0

RESULTS_DIR = Path(__file__).parent / "results"


def record_result(name: str, payload: dict) -> None:
    """Persist one benchmark's rows for EXPERIMENTS.md assembly."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))


@pytest.fixture(scope="session")
def datasets():
    """The four scaled evaluation clusters, keyed by name."""
    return {cluster.spec.name: cluster for cluster in evaluation_clusters()}


@pytest.fixture(scope="session")
def labeled_training_set():
    """Labeled subproblems from T1-T4 for training the selectors."""
    subs = sample_subproblems(training_clusters(), per_cluster=8, seed=0)
    examples = [label_subproblem(s, time_limit=1.5) for s in subs]
    return subs, examples


@pytest.fixture(scope="session")
def trained_selectors(labeled_training_set):
    """GCN and MLP selectors trained once per session."""
    _subs, examples = labeled_training_set
    gcn = GCNSelector.train(examples, epochs=200, seed=0)
    mlp = MLPSelector.train(examples, epochs=250, seed=0)
    return {"gcn": gcn, "mlp": mlp}
