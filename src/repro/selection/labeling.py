"""Label generation for the algorithm-selection classifiers.

Paper Section IV-D: "To label a subproblem, we attempt each subproblem with
the two candidate algorithms and choose the one that returns better
objective within [a] time limit."  This module runs exactly that race and
assembles training sets from the T1–T4 clusters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.features import FeatureGraph, build_feature_graph
from repro.partitioning.base import Subproblem
from repro.partitioning.multistage import MultiStagePartitioner
from repro.solvers.column_generation import ColumnGenerationAlgorithm
from repro.solvers.mip import MIPAlgorithm
from repro.workloads.generator import GeneratedCluster

#: Objective margin below which the faster algorithm wins the race.
TIE_MARGIN = 1e-9


@dataclass
class LabeledExample:
    """One training example: a subproblem's feature graph and its label.

    Attributes:
        graph: The feature graph.
        label: ``"cg"`` or ``"mip"`` — the race winner.
        cg_objective: Gained affinity achieved by column generation.
        mip_objective: Gained affinity achieved by the MIP algorithm.
    """

    graph: FeatureGraph
    label: str
    cg_objective: float
    mip_objective: float


def label_subproblem(
    subproblem: Subproblem,
    time_limit: float = 5.0,
) -> LabeledExample:
    """Race CG and MIP on one subproblem and label it with the winner.

    Ties on objective go to CG (the cheaper algorithm at scale), mirroring
    the paper's preference for efficiency when quality is equal.
    """
    cg = ColumnGenerationAlgorithm().solve(subproblem.problem, time_limit=time_limit)
    mip = MIPAlgorithm().solve(subproblem.problem, time_limit=time_limit)
    label = "mip" if mip.objective > cg.objective + TIE_MARGIN else "cg"
    return LabeledExample(
        graph=build_feature_graph(subproblem),
        label=label,
        cg_objective=cg.objective,
        mip_objective=mip.objective,
    )


def sample_subproblems(
    clusters: list[GeneratedCluster],
    per_cluster: int = 8,
    seed: int = 0,
) -> list[Subproblem]:
    """Sample diverse subproblems from training clusters.

    Runs the multi-stage partitioner with several subproblem-size settings
    per cluster (the paper samples 1000 subproblems from four production
    clusters; diversity of scale is what the classifier must learn from).
    """
    rng = np.random.default_rng(seed)
    subproblems: list[Subproblem] = []
    size_options = (12, 24, 48)
    for cluster in clusters:
        for size in size_options:
            partitioner = MultiStagePartitioner(
                max_subproblem_services=size,
                seed=int(rng.integers(0, 2**31)),
            )
            result = partitioner.partition(cluster.problem)
            subproblems.extend(result.subproblems)
    rng.shuffle(subproblems)
    per_total = per_cluster * len(clusters)
    return subproblems[:per_total] if per_total < len(subproblems) else subproblems


def build_training_set(
    clusters: list[GeneratedCluster],
    per_cluster: int = 8,
    time_limit: float = 3.0,
    seed: int = 0,
) -> list[LabeledExample]:
    """Sample subproblems from ``clusters`` and label them by racing.

    Returns:
        Labeled examples ready for classifier training.
    """
    subproblems = sample_subproblems(clusters, per_cluster=per_cluster, seed=seed)
    return [label_subproblem(sp, time_limit=time_limit) for sp in subproblems]
