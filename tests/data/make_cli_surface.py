"""Regenerate ``cli_surface.json`` in this directory.

The committed surface pins the ``rasa`` command line of ac883fe, the parent
of the one-declaration-per-loop-tunable refactor, whose ``cli.py`` still
typed every loop flag by hand.  Run it with that commit's source tree,
never with the current one (the ``checkpoint_parent`` way)::

    PYTHONPATH=<checkout of ac883fe>/src python tests/data/make_cli_surface.py

and then delete the ``--workers`` and ``--parallel`` rows of ``optimize``,
``compare``, ``cron`` and ``replay``: the solve phase's thread count
stopped being an option after ac883fe (``rasa serve --workers``, the
service's controller pool, stays).

For every sub-command and ``rasa tenant`` action it records each argument's
option strings, dest, type, choices, nargs and required flag plus the
positional order — not the argparse defaults, which are free to move into
``LoopSpec`` — and, for a bare ``cron`` / ``replay`` / ``tenant register``
command line, the *effective* ``LoopSpec`` (and ``cycles``) the command
hands to the facade or the service.  ``tests/test_cli.py`` imports
:func:`compute_surface` from here and recomputes it from the current tree.
"""

import argparse
import contextlib
import inspect
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

from repro import api, cli
from repro.cluster.replay import synthesize_trace
from repro.core.config import LoopSpec
from repro.faults import coerce_injector
from repro.service.client import ServiceClient
from repro.service.tenant import TenantSpec
from repro.workloads import ClusterSpec

HERE = Path(__file__).resolve().parent
SURFACE = HERE / "cli_surface.json"


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def parser_surface(parser: argparse.ArgumentParser) -> dict:
    """The arguments of one (sub-)parser, defaults and help left out."""
    options, positionals = {}, []
    for action in parser._actions:
        if isinstance(action, (argparse._HelpAction, argparse._SubParsersAction)):
            continue
        if not action.option_strings:
            positionals.append(action.dest)
        options[" ".join(action.option_strings) or action.dest] = {
            "dest": action.dest,
            "type": getattr(action.type, "__qualname__", None),
            "choices": None if action.choices is None else list(action.choices),
            "nargs": action.nargs,
            "required": action.required,
        }
    surface = {"positionals": positionals, "arguments": dict(sorted(options.items()))}
    nested = _subcommands(parser)
    if nested:
        surface["actions"] = {
            name: parser_surface(sub) for name, sub in sorted(nested.items())
        }
    return surface


def _facade_capture(real, seen: dict):
    """A stand-in for a loop facade function recording its effective spec."""

    def fake(*args, **kwargs):
        bound = inspect.signature(real).bind(*args, **kwargs)
        bound.apply_defaults()
        given = bound.arguments
        injector = coerce_injector(given["faults"])
        tunables = {
            name: given[name]
            for name in LoopSpec.__dataclass_fields__
            if name != "faults"
        }
        spec = LoopSpec(
            faults=None if injector is None else injector.plan, **tunables
        )
        seen.update(loop_spec=spec.to_dict(), cycles=given["cycles"])
        return []

    return fake


def effective_specs() -> dict:
    """What a bare ``cron`` / ``replay`` / ``tenant register`` asks for."""
    effective = {}
    with tempfile.TemporaryDirectory() as scratch:
        cluster = Path(scratch) / "cluster.json"
        events = Path(scratch) / "events.jsonl.gz"
        cli.main(["generate", str(cluster), "--services", "6", "--containers",
                  "18", "--machines", "3", "--seed", "3", "--quiet"])
        synthesize_trace(
            ClusterSpec(name="surface", num_services=6, num_containers=20,
                        num_machines=3, affinity_beta=2.0, seed=5),
            name="surface", seed=5, duration_seconds=4 * 1800.0, burst_every=2,
        ).save(events)

        for command, path, facade in [
            ("cron", cluster, "run_control_loop"),
            ("replay", events, "replay_trace"),
        ]:
            seen: dict = {}
            fake = _facade_capture(getattr(api, facade), seen)
            with mock.patch.object(api, facade, fake):
                assert cli.main([command, str(path), "--quiet"]) == 0
            effective[command] = seen

        def register(self, payload):
            spec = TenantSpec.from_dict(payload)
            effective["tenant register"] = {
                "loop_spec": LoopSpec.to_dict(spec),
                "schedule_seconds": spec.schedule_seconds,
                "slo": spec.slo,
            }
            return {}

        with mock.patch.object(ServiceClient, "register_tenant", register), \
                contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["tenant", "register", "t0", str(cluster)]) == 0
    return effective


def compute_surface() -> dict:
    """The argument surface of every command plus the effective loop specs."""
    return {
        "commands": parser_surface(cli.build_parser())["actions"],
        "effective": effective_specs(),
    }


if __name__ == "__main__":
    SURFACE.write_text(json.dumps(compute_surface(), indent=1, sort_keys=True) + "\n")
