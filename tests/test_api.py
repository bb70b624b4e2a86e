"""The ``repro.api`` facade returns exactly what the class-based calls do."""

from __future__ import annotations

import numpy as np

import repro
from repro import api
from repro.cluster import ClusterState, CronJobController, DataCollector
from repro.core import Assignment, RASAConfig, RASAScheduler
from repro.core.config import LoopSpec
from repro.faults import FaultPlan
from repro.migration import MigrationExecutor, MigrationPathBuilder


def test_facade_is_reexported_at_top_level():
    assert repro.optimize is api.optimize
    assert repro.plan_migration is api.plan_migration
    assert repro.execute_plan is api.execute_plan
    assert repro.run_control_loop is api.run_control_loop
    assert repro.api is api


def test_optimize_matches_scheduler(small_cluster):
    # No time limit: solver output is bit-deterministic only when every
    # solve finishes within its budget, and this compares two full solves.
    problem = small_cluster.problem
    config = RASAConfig()
    via_facade = api.optimize(problem, config=config, time_limit=None)
    via_class = RASAScheduler(config=RASAConfig()).schedule(
        problem, time_limit=None
    )
    assert via_facade.gained_affinity == via_class.gained_affinity
    assert np.array_equal(via_facade.assignment.x, via_class.assignment.x)


def test_plan_migration_matches_builder(small_cluster):
    problem = small_cluster.problem
    start = Assignment(problem, problem.current_assignment)
    target = api.optimize(problem, time_limit=6.0).assignment
    via_facade = api.plan_migration(problem, start, target, sla_floor=0.75)
    via_class = MigrationPathBuilder(sla_floor=0.75).build(problem, start, target)
    assert via_facade.to_dict() == via_class.to_dict()


def test_plan_migration_accepts_raw_matrices(small_cluster):
    problem = small_cluster.problem
    target = api.optimize(problem, time_limit=6.0).assignment
    # Raw ndarrays coerce the same as Assignment wrappers.
    plan = api.plan_migration(problem, problem.current_assignment, target.x)
    assert plan.steps


def test_execute_plan_matches_executor(small_cluster):
    problem = small_cluster.problem
    start = Assignment(problem, problem.current_assignment)
    target = api.optimize(problem, time_limit=6.0).assignment
    plan = api.plan_migration(problem, start, target)
    via_facade = api.execute_plan(problem, start, plan)
    via_class = MigrationExecutor(strict=True).execute(problem, start, plan)
    assert via_facade.to_dict() == via_class.to_dict()


def test_execute_plan_accepts_fault_dict(small_cluster):
    problem = small_cluster.problem
    start = Assignment(problem, problem.current_assignment)
    target = api.optimize(problem, time_limit=6.0).assignment
    plan = api.plan_migration(problem, start, target)
    direct = api.execute_plan(
        problem, start, plan, faults=FaultPlan(seed=1, command_failure_rate=0.3)
    )
    from_dict = api.execute_plan(
        problem, start, plan, faults={"seed": 1, "command_failure_rate": 0.3}
    )
    assert direct.to_dict() == from_dict.to_dict()


def test_run_control_loop_matches_controller(small_cluster):
    # time_limit=None on both sides: run-vs-run equality needs every solve
    # to finish within budget (see test_faults._run_loop).
    via_facade = api.run_control_loop(
        ClusterState(small_cluster.problem),
        cycles=2,
        config=RASAConfig(),
        collector=DataCollector(small_cluster.qps),
        time_limit=None,
    )
    controller = CronJobController(
        state=ClusterState(small_cluster.problem),
        collector=DataCollector(small_cluster.qps),
    )
    via_class = controller.run(2)
    assert via_facade == via_class


def test_run_control_loop_accepts_bare_problem(small_cluster):
    """A RASAProblem with a current assignment wraps into a ClusterState and
    a default collector built from its own affinity weights."""
    reports = api.run_control_loop(
        small_cluster.problem, cycles=1, time_limit=6.0
    )
    assert len(reports) == 1
    assert reports[0].action in ("executed", "dry_run")


def test_run_control_loop_with_faults_matches_controller(small_cluster):
    plan = FaultPlan(seed=3, command_failure_rate=0.2)
    via_facade = api.run_control_loop(
        ClusterState(small_cluster.problem),
        cycles=2,
        collector=DataCollector(small_cluster.qps),
        time_limit=None,
        faults=plan,
    )
    controller = CronJobController(
        state=ClusterState(small_cluster.problem),
        collector=DataCollector(small_cluster.qps),
        spec=LoopSpec(faults=plan),
    )
    via_class = controller.run(2)
    assert via_facade == via_class


# ----------------------------------------------------------------------
# Facade hygiene: the supported surface is exactly what is documented,
# every tunable is keyword-only, and the class layer warns when used
# where the facade should be.
# ----------------------------------------------------------------------

#: The documented public surface of ``import repro`` — update this list
#: and the module docstrings together, deliberately.
DOCUMENTED_SURFACE = {
    # facade
    "api", "optimize", "plan_migration", "execute_plan", "run_control_loop",
    "replay_trace", "resume_control_loop", "start_service", "ServiceClient",
    # modeling
    "AffinityGraph", "AntiAffinityRule", "Assignment", "FeasibilityReport",
    "Machine", "RASAProblem", "Service",
    # configuration + results
    "DegradationPolicy", "RASAConfig", "RASAResult", "RASAScheduler",
    "RetryPolicy", "SubproblemReport",
    # migration + faults
    "ExecutionTrace", "FaultInjector", "FaultPlan", "MigrationExecutor",
    "MigrationPathBuilder", "MigrationPlan",
    # exceptions
    "CheckpointDivergenceError", "ClusterStateError", "DurabilityError",
    "InfeasibleProblemError", "MigrationError", "ProblemValidationError",
    "ReproError", "SolverError", "SolverTimeoutError", "TrainingError",
    "WALCorruptionError",
    "__version__",
}


def test_top_level_all_matches_documented_surface():
    assert set(repro.__all__) == DOCUMENTED_SURFACE
    assert repro.__all__ == sorted(repro.__all__)
    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_service_surface_is_reexported():
    from repro.service.client import ServiceClient

    assert repro.start_service is api.start_service
    assert repro.ServiceClient is ServiceClient
    assert api.ServiceClient is ServiceClient


def test_facade_functions_take_tunables_keyword_only():
    """Uniform calling convention: data subjects positional and required,
    every tunable keyword-only — enforced over the whole facade."""
    import inspect

    for name in api.__all__:
        entry = getattr(api, name)
        if not inspect.isfunction(entry):
            continue  # re-exported classes (ServiceClient)
        for parameter in inspect.signature(entry).parameters.values():
            assert parameter.kind in (
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
                inspect.Parameter.KEYWORD_ONLY,
            ), f"{name}({parameter.name}) must not be positional-only/varargs"
            if parameter.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD:
                assert parameter.default is inspect.Parameter.empty, (
                    f"{name}({parameter.name}): tunables with defaults must "
                    f"be keyword-only"
                )


def test_loop_tunables_have_one_spelling(small_cluster, tmp_path):
    """``LoopSpec`` is the single encoding of the loop tunables: the
    facade's keyword arguments, the tenant wire keys and the durable
    ``run`` payload are all exactly its fields, and one call site under
    ``src/repro`` turns a spec into a controller."""
    import ast
    import inspect
    import json
    from dataclasses import fields
    from pathlib import Path

    from repro.core.config import LoopSpec
    from repro.service.tenant import TenantSpec
    from repro.workloads.trace_io import problem_to_dict

    tunables = {f.name for f in fields(LoopSpec)}
    runtime = {
        "cycles", "collector", "shutdown", "checkpoint_dir",
        "telemetry_port", "telemetry_host", "cycle_stream",
        "on_telemetry_start",
    }
    for entry in (api.run_control_loop, api.replay_trace):
        keyword_only = {
            p.name for p in inspect.signature(entry).parameters.values()
            if p.kind is inspect.Parameter.KEYWORD_ONLY
        }
        assert keyword_only - runtime == tunables, entry.__name__

    problem = small_cluster.problem
    wire = set(TenantSpec(name="t", problem=problem_to_dict(problem)).to_dict())
    assert wire - {
        "schema_version", "name", "problem", "trace", "schedule_seconds",
        "slo", "event_log_size",
    } == tunables

    api.run_control_loop(problem, cycles=0, checkpoint_dir=tmp_path)
    run = json.loads((tmp_path / "snapshot.json").read_text())["run"]
    assert set(run) - {"mode", "cycles"} == tunables

    constructions = [
        f"{path.name}:{node.lineno}"
        for path in Path(api.__file__).parent.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None))
        == "CronJobController"
    ]
    assert len(constructions) == 1, constructions


#: Modules only the paper-figure benchmarks (``benchmarks/bench_*.py``) and
#: their tests import; everything else must be reachable from the facade.
BENCHMARK_ONLY_MODULES = {
    "repro.analysis.lemma1",
    "repro.cluster.network",
    "repro.partitioning.kahip_like",
    "repro.workloads.powerlaw",
}


def test_every_module_is_reachable_from_the_facade():
    """North-star rule: a ``src/repro`` module is imported, directly or
    transitively, by ``repro.api`` or ``repro.cli`` — or it is deleted.

    ``from package import name`` reaches only the submodule the package's
    ``__init__`` takes ``name`` from: a blanket re-export keeps nothing
    alive on its own.
    """
    import ast
    from pathlib import Path

    root = Path(repro.__file__).parent
    files = {}
    for path in root.rglob("*.py"):
        parts = path.relative_to(root.parent).with_suffix("").parts
        files[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path

    def imports(module):
        return [
            (node.module, alias.name)
            for node in ast.walk(ast.parse(files[module].read_text()))
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        ]

    reached, todo = set(), ["repro.api", "repro.cli"]
    while todo:
        module = todo.pop()
        if module in reached or module not in files:
            continue
        reached.add(module)
        if files[module].name == "__init__.py":
            continue
        for source, name in imports(module):
            todo.append(f"{source}.{name}")  # ``from package import submodule``
            todo.append(source)
            if source in files and files[source].name == "__init__.py":
                todo += [src for src, alias in imports(source) if alias == name]

    unreachable = {
        module for module, path in files.items()
        if path.name != "__init__.py" and module not in reached
    }
    assert unreachable == BENCHMARK_ONLY_MODULES
