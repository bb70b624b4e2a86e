"""MIP-based RASA algorithm (paper Section IV-C1) and the Eq. 2–9 builder.

:func:`build_rasa_model` is the only place the paper's formulation turns
into a :class:`~repro.solvers.lp.LinearModel`.  It is written over *bins*:
one per machine (the flat model solved here), one per machine group (the
group-aggregated model, a relaxation of the flat one), or the single
machine a column-generation pricing call fills
(:func:`repro.solvers.patterns.price_pattern_mip`).  Decision variables:

* ``x[s, b]`` — integer count of service ``s`` containers in bin ``b``
  (only materialized where the bin is schedulable for the service).
* ``a[e, b]`` — continuous gained affinity of edge ``e`` in bin ``b``,
  linearizing ``min(x[s,b]/d_s, x[s',b]/d_s')`` via the two upper-bounding
  constraints Eq. 7–8.

The objective maximizes total gained affinity; internally the model is
negated into scipy's minimization convention.

The ``a`` column bounds carry what one machine can hold, which the
Eq. 7–8 LP relaxation does not see: ``ub[a[e, b]] = w_e · min(1, count_b ·
ρ(e, b))`` with ``ρ`` from :func:`best_pair_fill`.  It holds for every
integral solution, so the optimum does not move; only the LP relaxation
the search bounds with gets tighter.  ``ub[x[s, b]]`` stays ``d_s``: the
matching capacity cap (:func:`container_fit`) left HiGHS's search
unchanged on most shards and, together with the ``a`` bound, lengthened
it on some.  Pricing applies it, where a single machine is the bin.

The emission order is a contract — HiGHS breaks ties by it, so reordering
moves solutions: ``x`` cells service-major then ``a`` cells edge-major;
Eq. 4 rows bin-major/resource-minor, Eq. 5 rule-major/bin-minor, Eq. 7–8
in ``a_index`` order with endpoint ``s`` before ``t`` and the ``a`` entry
before the ``x`` entry.  ``tests/data/model_digests.json`` pins the bytes:
the structure (every array but ``ub``) and the bounds separately.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
from scipy import sparse

from repro.core.problem import RASAProblem
from repro.core.solution import Assignment
from repro.obs import get_metrics, get_tracer
from repro.solvers.base import SolveResult, Stopwatch
from repro.solvers.branch_and_bound import MILPResult
from repro.solvers.greedy import GreedyAlgorithm
from repro.solvers.lp import LinearModel
from repro.solvers.milp_backend import GAP_TOLERANCE, solve_milp

#: Slack added to ``capacity / request`` before flooring it to a container
#: count, so a request that divides the capacity exactly still fits.
FIT_SLACK = 1e-9


class MIPAlgorithm:
    """Exact solver-based RASA algorithm.

    Guarantees optimality (within :data:`GAP_TOLERANCE`) but has
    exponential worst-case runtime, so the selection layer routes it toward
    small subproblems with significant total affinity.
    """

    name = "mip"

    def solve(self, problem: RASAProblem, time_limit: float | None = None) -> SolveResult:
        """Solve the instance; falls back to an empty placement on failure.

        If HiGHS cannot produce any incumbent inside the budget, the
        result carries a zero assignment with status ``"no_incumbent"`` —
        the caller (partition pipeline) treats those containers as handled
        by the cluster's default scheduler.
        """
        watch = Stopwatch(time_limit)
        metrics = get_metrics()
        tracer = get_tracer()
        metrics.counter("solver.mip.solves").inc()
        model, layout = build_rasa_model(problem)
        metrics.histogram("solver.mip.variables").observe(layout.num_variables)
        if layout.num_variables == 0:
            # Nothing is schedulable anywhere: return the empty placement.
            empty = Assignment.empty(problem)
            return SolveResult(
                assignment=empty,
                algorithm=self.name,
                status="no_variables",
                runtime_seconds=watch.elapsed,
                objective=0.0,
                bound=0.0,
            )
        solve_start = watch.elapsed
        milp_result = solve_milp(
            model, time_limit=time_limit, gap_tolerance=GAP_TOLERANCE
        )
        metrics.counter("solver.mip.nodes").inc(milp_result.nodes_explored)
        # Incumbents on this solve's clock, which started before the model build.
        trajectory = [
            (solve_start + r.elapsed_seconds, -r.objective)
            for r in milp_result.incumbents
        ]
        for elapsed, objective in trajectory:
            tracer.event("mip.incumbent", elapsed=elapsed, objective=objective)
        assignment = extract_assignment(problem, layout, milp_result)
        objective = assignment.gained_affinity()
        status = milp_result.status
        # A timed-out solve can return an incumbent worse than the cheap
        # affinity-aware packer; keep whichever placement gains more.
        greedy = GreedyAlgorithm().solve(problem)
        if greedy.objective > objective:
            assignment = greedy.assignment
            objective = greedy.objective
            status = f"{status}+greedy"
        # The solver's dual bound covers every placement of the model; the
        # greedy floor may return one outside it (a partial placement).
        bound = max(-milp_result.bound, objective)
        if milp_result.has_solution:
            gap = (bound - objective) / max(abs(objective), 1e-12)
            metrics.histogram("solver.mip.gap").observe(gap)
        metrics.histogram("solver.mip.seconds").observe(watch.elapsed)
        return SolveResult(
            assignment=assignment,
            algorithm=self.name,
            status=status,
            runtime_seconds=watch.elapsed,
            objective=objective,
            trajectory=trajectory,
            bound=bound,
        )


class ModelLayout:
    """Index bookkeeping for the flat variable vector of the RASA MIP.

    A *bin* is anything with a ``capacity`` vector, a ``schedulable`` column
    and a ``count`` of interchangeable machines it stands for (a
    :class:`~repro.solvers.patterns.MachineGroup`); ``groups=None`` means one
    bin per machine, read straight from the problem's matrices.

    Variables are laid out as all ``x`` variables (one per schedulable
    ``(service, bin)`` cell, service-major) followed by all ``a`` variables
    (one per affinity-edge/bin pair whose both endpoints are schedulable
    there, edge-major).
    """

    def __init__(self, problem: RASAProblem, groups: Sequence | None = None) -> None:
        self.problem = problem
        if groups is None:
            self.schedulable = problem.schedulable
            self.capacities = problem.capacities_matrix
            self.counts = [1] * problem.num_machines
        else:
            self.schedulable = np.array([group.schedulable for group in groups], dtype=bool).T
            self.capacities = np.array([group.capacity for group in groups], dtype=float)
            self.counts = [group.count for group in groups]
        self.num_bins = len(self.counts)

        self.x_index: dict[tuple[int, int], int] = {}
        for s in range(problem.num_services):
            for b in range(self.num_bins):
                if self.schedulable[s, b]:
                    self.x_index[(s, b)] = len(self.x_index)
        self.num_x = len(self.x_index)

        self.a_index: dict[tuple[int, int], int] = {}
        self.edges = problem.edges
        for e, (s, t, _w) in enumerate(self.edges):
            for b in range(self.num_bins):
                if self.schedulable[s, b] and self.schedulable[t, b]:
                    self.a_index[(e, b)] = self.num_x + len(self.a_index)
        self.num_a = len(self.a_index)
        self.num_variables = self.num_x + self.num_a


def build_rasa_model(
    problem: RASAProblem,
    groups: Sequence | None = None,
    sla: bool = True,
) -> tuple[LinearModel, ModelLayout]:
    """Build the Eq. 2–9 MILP (minimization form) for a RASA instance.

    Args:
        problem: The instance.
        groups: Bins (see :class:`ModelLayout`).  A group of ``count``
            machines gets ``count x`` its capacity / each rule limit on the
            Eq. 4–5 right-hand sides — the group-level relaxation.
        sla: False omits the Eq. 3 demand rows (pricing fills one machine,
            it does not place every container).

    Returns:
        The model and the variable layout needed to decode solutions.
    """
    layout = ModelLayout(problem, groups)
    n_vars = layout.num_variables
    demands = problem.demands.astype(float)

    # Objective: maximize sum of a variables -> minimize -sum.
    c = np.zeros(n_vars)
    for idx in layout.a_index.values():
        c[idx] = -1.0

    lb = np.zeros(n_vars)
    ub = np.full(n_vars, np.inf)
    integrality = np.zeros(n_vars, dtype=bool)
    for (s, _b), idx in layout.x_index.items():
        ub[idx] = float(problem.demands[s])
        integrality[idx] = True
    if layout.num_a:
        e, b = np.array(list(layout.a_index), dtype=np.int64).T
        ends = np.array([edge[:2] for edge in layout.edges], dtype=np.int64)
        weights = np.array([edge[2] for edge in layout.edges], dtype=float)
        fit = container_fit(problem, layout.capacities)
        rho = best_pair_fill(problem, ends[e, 0], ends[e, 1], b, layout.capacities, fit)
        counts = np.asarray(layout.counts, dtype=float)
        ub[layout.num_x:] = weights[e] * np.minimum(1.0, counts[b] * rho)

    rows_eq: list[int] = []
    cols_eq: list[int] = []
    vals_eq: list[float] = []
    b_eq: list[float] = []

    # Eq. 3 — SLA: sum_b x[s, b] == d_s.  Services with no schedulable
    # bin get an (infeasible) 0 == d_s row only if d_s > 0; we instead
    # relax them to "place nowhere" by skipping the row, matching the
    # paper's tolerance for failed deployments handled by the default
    # scheduler.
    row = 0
    for s in range(problem.num_services if sla else 0):
        cells = [layout.x_index[(s, b)] for b in range(layout.num_bins)
                 if (s, b) in layout.x_index]
        if not cells:
            continue
        for idx in cells:
            rows_eq.append(row)
            cols_eq.append(idx)
            vals_eq.append(1.0)
        b_eq.append(float(problem.demands[s]))
        row += 1
    n_eq = row

    rows_ub: list[int] = []
    cols_ub: list[int] = []
    vals_ub: list[float] = []
    b_ub: list[float] = []
    row = 0

    # Eq. 4 — resources: sum_s x[s, b] * R[r, s] <= count_b * R[r, b].
    requests = problem.requests_matrix
    for b in range(layout.num_bins):
        for r in range(len(problem.resource_types)):
            touched = False
            for s in range(problem.num_services):
                idx = layout.x_index.get((s, b))
                if idx is None or requests[s, r] == 0.0:
                    continue
                rows_ub.append(row)
                cols_ub.append(idx)
                vals_ub.append(float(requests[s, r]))
                touched = True
            if touched:
                b_ub.append(float(layout.counts[b] * layout.capacities[b, r]))
                row += 1

    # Eq. 5 — anti-affinity: sum_{s in A_k} x[s, b] <= count_b * h_k.
    for rule in problem.anti_affinity:
        members = [problem.service_index(s) for s in rule.services]
        for b in range(layout.num_bins):
            touched = False
            for s in members:
                idx = layout.x_index.get((s, b))
                if idx is None:
                    continue
                rows_ub.append(row)
                cols_ub.append(idx)
                vals_ub.append(1.0)
                touched = True
            if touched:
                b_ub.append(float(layout.counts[b] * rule.limit))
                row += 1

    # Eq. 7–8 — affinity linearization: a[e, b] <= (w/d) * x[endpoint, b].
    for (e, b), a_idx in layout.a_index.items():
        s, t, w = layout.edges[e]
        for endpoint in (s, t):
            x_idx = layout.x_index[(endpoint, b)]
            rows_ub.append(row)
            cols_ub.append(a_idx)
            vals_ub.append(1.0)
            rows_ub.append(row)
            cols_ub.append(x_idx)
            vals_ub.append(-w / demands[endpoint])
            b_ub.append(0.0)
            row += 1

    a_eq = sparse.csr_matrix(
        (vals_eq, (rows_eq, cols_eq)), shape=(n_eq, n_vars)
    ) if n_eq else None
    a_ub = sparse.csr_matrix(
        (vals_ub, (rows_ub, cols_ub)), shape=(row, n_vars)
    ) if row else None

    model = LinearModel(
        c=c,
        a_ub=a_ub,
        b_ub=np.asarray(b_ub) if row else None,
        a_eq=a_eq,
        b_eq=np.asarray(b_eq) if n_eq else None,
        lb=lb,
        ub=ub,
        integrality=integrality,
    )
    return model, layout


def container_fit(problem: RASAProblem, capacities: np.ndarray) -> np.ndarray:
    """How many containers of each service one machine of each bin holds.

    ``fit[s, b]`` is the largest ``k`` with ``k · R[s] <= capacity[b]`` on
    every resource (Eq. 4) and ``k <= h`` for every anti-affinity rule that
    contains ``s`` (Eq. 5); ``inf`` when nothing limits it.  Schedulability
    is not applied here: the layout only makes cells where it holds.

    Args:
        problem: The instance.
        capacities: Per-machine capacity of each bin, shape ``(B, R)``.

    Returns:
        Array of shape ``(N, B)``.
    """
    fit = np.maximum(_whole_fits(capacities[None, :, :], problem.requests_matrix[:, None, :]), 0.0)
    for rule in problem.anti_affinity:
        for name in rule.services:
            s = problem.service_index(name)
            fit[s] = np.minimum(fit[s], rule.limit)
    return fit


def best_pair_fill(
    problem: RASAProblem,
    s: np.ndarray,
    t: np.ndarray,
    b: np.ndarray,
    capacities: np.ndarray,
    fit: np.ndarray,
) -> np.ndarray:
    """``ρ``: the best ``min(x_s/d_s, x_t/d_t)`` one machine of a bin holds.

    For every cell ``i`` — services ``s[i]`` and ``t[i]`` on bin ``b[i]`` —
    an exact scan over the count of ``s``: each count leaves room for at
    most so many ``t`` containers under capacity, both services'
    :func:`container_fit` and the joint limit of every anti-affinity rule
    containing both.  All cells are scanned at once.

    Args:
        problem: The instance.
        s: First endpoint per cell, shape ``(P,)``.
        t: Second endpoint per cell.
        b: Bin per cell.
        capacities: Per-machine capacity of each bin, shape ``(B, R)``.
        fit: :func:`container_fit` of the same bins.

    Returns:
        Array of shape ``(P,)`` with values in ``[0, 1]``.
    """
    demands = problem.demands.astype(float)
    requests = problem.requests_matrix
    joint = np.full(len(s), np.inf)
    for rule in problem.anti_affinity:
        members = np.zeros(problem.num_services, dtype=bool)
        members[[problem.service_index(name) for name in rule.services]] = True
        both = members[s] & members[t]
        joint[both] = np.minimum(joint[both], rule.limit)
    most_s = np.minimum(fit[s, b], demands[s])[:, None]
    xs = np.arange(most_s.max(initial=0.0) + 1.0)[None, :]
    room = capacities[b][:, None, :] - xs[:, :, None] * requests[s][:, None, :]
    xt = np.minimum(np.minimum(fit[t, b], demands[t])[:, None], joint[:, None] - xs)
    xt = np.minimum(xt, _whole_fits(room, requests[t][:, None, :]))
    fill = np.minimum(xs / demands[s][:, None], np.maximum(xt, 0.0) / demands[t][:, None])
    return np.where(xs <= most_s, fill, 0.0).max(axis=1, initial=0.0)


def _whole_fits(room: np.ndarray, requests: np.ndarray) -> np.ndarray:
    """Whole containers of ``requests`` that fit in ``room`` on every
    resource they use (last axis); ``inf`` when they use none."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(requests > 0, room / requests, np.inf)
    return np.floor(ratio.min(axis=-1, initial=np.inf) + FIT_SLACK)


def extract_assignment(
    problem: RASAProblem,
    layout: ModelLayout,
    result: MILPResult,
) -> Assignment:
    """Decode a MILP solution vector back into an assignment matrix.

    Returns an empty assignment when the solve produced no incumbent.
    """
    x = np.zeros((problem.num_services, problem.num_machines), dtype=np.int64)
    if result.x is not None:
        for (s, m), idx in layout.x_index.items():
            x[s, m] = int(round(result.x[idx]))
    return Assignment(problem, x)
