"""Analytics: placement metrics and the Lemma 1 partition-loss checks."""

from repro.analysis.lemma1 import (
    Lemma1Check,
    check_ideal,
    check_problem,
    constant_sweep,
    lemma1_bound,
    master_head_size,
    tail_share,
)
from repro.analysis.metrics import (
    PlacementMetrics,
    affinity_cdf,
    churn_between,
    pair_localization_table,
    placement_metrics,
)

__all__ = [
    "Lemma1Check",
    "PlacementMetrics",
    "affinity_cdf",
    "check_ideal",
    "check_problem",
    "churn_between",
    "constant_sweep",
    "lemma1_bound",
    "master_head_size",
    "tail_share",
    "pair_localization_table",
    "placement_metrics",
]
