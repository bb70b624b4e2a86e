"""Scheduling algorithm pool and optimization substrates.

Public surface:

* :class:`~repro.solvers.mip.MIPAlgorithm` — exact MIP-based algorithm.
* :class:`~repro.solvers.column_generation.ColumnGenerationAlgorithm` — CG.
* :class:`~repro.solvers.greedy.GreedyAlgorithm` — fast feasible packer.
* :func:`~repro.solvers.milp_backend.solve_milp` — the pipeline's MILP engine (HiGHS).
* :class:`~repro.solvers.branch_and_bound.BranchAndBoundSolver` — own B&B,
  the independent oracle tests check HiGHS against.
"""

from repro.solvers.base import SchedulingAlgorithm, SolveResult, Stopwatch
from repro.solvers.branch_and_bound import BranchAndBoundSolver, MILPResult
from repro.solvers.column_generation import ColumnGenerationAlgorithm
from repro.solvers.greedy import GreedyAlgorithm, repair_unplaced
from repro.solvers.local_search import LocalSearchImprover
from repro.solvers.lp import LinearModel, LPResult, solve_lp
from repro.solvers.milp_backend import solve_milp
from repro.solvers.mip import MIPAlgorithm, build_rasa_model

__all__ = [
    "BranchAndBoundSolver",
    "ColumnGenerationAlgorithm",
    "GreedyAlgorithm",
    "LPResult",
    "LinearModel",
    "LocalSearchImprover",
    "MILPResult",
    "MIPAlgorithm",
    "SchedulingAlgorithm",
    "SolveResult",
    "Stopwatch",
    "build_rasa_model",
    "repair_unplaced",
    "solve_lp",
    "solve_milp",
]
