"""The benchmark's span wrappers still find every callable they wrap.

``benchmarks/perf/tracing.py`` rebinds a fixed list of ``repro`` callables
by module and qualified name.  A refactor that moves or renames one breaks
the benchmark's traced pass; this test fails on it in seconds.  The module
imports only the standard library, so it is loaded by path.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "perf" / "tracing.py"
_spec = importlib.util.spec_from_file_location("perf_tracing", _PATH)
tracing = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = tracing  # dataclasses look their module up here
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("target", tracing.TARGETS, ids=lambda t: t.span)
def test_every_wrapped_callable_resolves(target):
    owner, name, raw = tracing.resolve(target)
    assert callable(raw) or isinstance(raw, (property, classmethod))
    assert name == target.qualname.rsplit(".", 1)[-1]
