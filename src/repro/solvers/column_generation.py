"""Column generation algorithm for RASA (paper Section IV-C2, Algorithm 1).

Solves the *cutting stock* reformulation: pick one feasible pattern per
machine so the pattern multiplicities cover container demands and the summed
pattern affinity values are maximized.  The loop alternates

1. ``SolveCuttingStock`` — LP relaxation of the restricted master over the
   patterns generated so far,
2. ``GenPattern`` — per machine-group pricing that searches for a pattern
   with positive reduced cost under the master's dual prices,

until no improving pattern exists or the time budget runs out, then rounds
the master to integrality (``Round``) and repairs any dropped containers
with the affinity-aware greedy packer.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.core.problem import RASAProblem
from repro.core.solution import Assignment
from repro.obs import get_metrics, get_tracer
from repro.solvers.base import SolveResult, Stopwatch
from repro.solvers.greedy import GreedyAlgorithm, repair_unplaced
from repro.solvers.lp import LinearModel, solve_lp
from repro.solvers.milp_backend import GAP_TOLERANCE, solve_milp
from repro.solvers.patterns import (
    MachineGroup,
    Pattern,
    group_machines,
    patterns_from_assignment,
    price_pattern_greedy,
    price_pattern_mip,
    pricing_model,
)

#: Minimum reduced cost treated as an actual improvement.
REDUCED_COST_TOLERANCE = 1e-7

#: Cap on master/pricing rounds.
MAX_ITERATIONS = 40

#: Share of the time budget reserved for the final integral rounding MILP.
ROUNDING_FRACTION = 0.35


class ColumnGenerationAlgorithm:
    """Solver-based RASA algorithm with sub-optimal quality but good scaling.

    Args:
        pricing: ``"mip"`` for exact pricing, ``"greedy"`` for the fast
            heuristic pricer (ablation point).
    """

    name = "cg"

    def __init__(self, pricing: str = "mip") -> None:
        if pricing not in ("mip", "greedy"):
            raise ValueError(f"pricing must be 'mip' or 'greedy', got {pricing!r}")
        self.pricing = pricing

    # ------------------------------------------------------------------
    def solve(self, problem: RASAProblem, time_limit: float | None = None) -> SolveResult:
        """Run Algorithm 1 and return the best integral placement found.

        Each machine group's pricing model is built at the group's first
        exact pricing call and re-priced with every later round's duals.
        """
        watch = Stopwatch(time_limit)
        metrics = get_metrics()
        tracer = get_tracer()
        metrics.counter("solver.cg.solves").inc()

        groups = group_machines(problem)
        models: dict[int, LinearModel] = {}
        seed = GreedyAlgorithm().solve(problem)
        incumbent = seed.assignment
        incumbent_obj = seed.objective

        columns = patterns_from_assignment(problem, incumbent.x, groups)
        seen: set[tuple[int, bytes]] = {
            (g, p.key()) for g, patterns in columns.items() for p in patterns
        }

        cg_budget = None
        if time_limit is not None:
            cg_budget = time_limit * (1.0 - ROUNDING_FRACTION)

        iterations = 0
        columns_added = 0
        for iteration in range(MAX_ITERATIONS):
            if cg_budget is not None and watch.elapsed >= cg_budget:
                break
            with tracer.span("cg.iteration", index=iteration) as span:
                iterations += 1
                master = _build_master(problem, groups, columns)
                lp = solve_lp(master.model)
                if not lp.is_optimal or lp.duals_ub is None:
                    break
                # scipy reports marginals of a minimization; negate to obtain
                # the conventional non-negative Lagrange multipliers.
                lam = -lp.duals_ub
                coverage_duals = lam[: problem.num_services]
                convexity_duals = lam[problem.num_services :]

                added = 0
                for g, group in enumerate(groups):
                    left = None if cg_budget is None else cg_budget - watch.elapsed
                    if left is not None and left <= 0:
                        break
                    pattern = self._price(problem, g, group, models, coverage_duals, left)
                    if pattern is None:
                        continue
                    reduced = pattern.value - float(coverage_duals @ pattern.counts)
                    if reduced <= convexity_duals[g] + REDUCED_COST_TOLERANCE:
                        continue
                    key = (g, pattern.key())
                    if key in seen:
                        continue
                    seen.add(key)
                    columns[g].append(pattern)
                    added += 1
                columns_added += added
                span.set_tag("columns_added", added)
                if not added:
                    break
        metrics.counter("solver.cg.iterations").inc(iterations)
        metrics.counter("solver.cg.columns").inc(columns_added)

        rounding_limit = watch.remaining
        with tracer.span("cg.rounding"):
            rounded = _round_master(
                problem, groups, columns, time_limit=rounding_limit
            )
        if rounded is not None:
            repaired = repair_unplaced(problem, rounded)
            candidate = Assignment(problem, repaired)
            candidate_obj = candidate.gained_affinity()
            if candidate_obj > incumbent_obj:
                incumbent, incumbent_obj = candidate, candidate_obj
                tracer.event(
                    "cg.incumbent", elapsed=watch.elapsed, objective=incumbent_obj
                )
        metrics.histogram("solver.cg.seconds").observe(watch.elapsed)

        return SolveResult(
            assignment=incumbent,
            algorithm=self.name,
            status="feasible",
            runtime_seconds=watch.elapsed,
            objective=incumbent_obj,
        )

    def _price(
        self,
        problem: RASAProblem,
        g: int,
        group: MachineGroup,
        models: dict[int, LinearModel],
        duals: np.ndarray,
        time_limit: float | None,
    ) -> Pattern | None:
        """Group ``g``'s pricing pattern, within what is left of the CG
        budget; exact pricing builds the group's model into ``models`` on
        first use."""
        if self.pricing == "greedy":
            return price_pattern_greedy(problem, group, duals)
        if g not in models:
            models[g] = pricing_model(problem, group)
        return price_pattern_mip(problem, group, models[g], duals, time_limit=time_limit)


class _Master:
    """Restricted master model plus the column order used to decode it."""

    def __init__(
        self,
        model: LinearModel,
        column_order: list[tuple[int, Pattern]],
    ) -> None:
        self.model = model
        self.column_order = column_order


def _build_master(
    problem: RASAProblem,
    groups: list[MachineGroup],
    columns: dict[int, list[Pattern]],
    integral: bool = False,
) -> _Master:
    """Build the restricted master (LP by default, MILP when ``integral``).

    Rows: ``N`` coverage rows (``sum p_s * y <= d_s``) followed by one
    convexity row per group (``sum_l y_{g,l} <= |group|``).
    """
    column_order: list[tuple[int, Pattern]] = []
    for g in range(len(groups)):
        for pattern in columns.get(g, []):
            column_order.append((g, pattern))
    n_cols = len(column_order)
    n = problem.num_services

    c = np.array([-pattern.value for _g, pattern in column_order])

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for j, (g, pattern) in enumerate(column_order):
        for s in np.nonzero(pattern.counts)[0]:
            rows.append(int(s))
            cols.append(j)
            vals.append(float(pattern.counts[s]))
        rows.append(n + g)
        cols.append(j)
        vals.append(1.0)

    b_ub = np.concatenate(
        [
            problem.demands.astype(float),
            np.array([float(group.count) for group in groups]),
        ]
    )
    a_ub = sparse.csr_matrix((vals, (rows, cols)), shape=(n + len(groups), n_cols))

    ub = np.array([float(groups[g].count) for g, _pattern in column_order])
    model = LinearModel(
        c=c,
        a_ub=a_ub,
        b_ub=b_ub,
        lb=np.zeros(n_cols),
        ub=ub,
        integrality=np.full(n_cols, integral, dtype=bool),
    )
    return _Master(model, column_order)


def _round_master(
    problem: RASAProblem,
    groups: list[MachineGroup],
    columns: dict[int, list[Pattern]],
    time_limit: float | None,
) -> np.ndarray | None:
    """Solve the integral restricted master and decode it to machines.

    Returns:
        An assignment matrix (possibly leaving some demand unplaced — the
        caller repairs it), or None when the MILP produced no incumbent.
    """
    master = _build_master(problem, groups, columns, integral=True)
    if master.model.num_variables == 0:
        return None
    result = solve_milp(
        master.model, time_limit=time_limit, gap_tolerance=GAP_TOLERANCE
    )
    if result.x is None:
        return None

    x = np.zeros((problem.num_services, problem.num_machines), dtype=np.int64)
    next_slot = {g: 0 for g in range(len(groups))}
    for j, (g, pattern) in enumerate(master.column_order):
        multiplicity = int(round(result.x[j]))
        group = groups[g]
        for _ in range(multiplicity):
            slot = next_slot[g]
            if slot >= group.count:
                break
            if pattern.counts.sum() > 0:
                machine = group.machine_indices[slot]
                x[:, machine] += pattern.counts
                next_slot[g] = slot + 1
    return x
