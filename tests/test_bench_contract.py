"""The benchmark's tracer (bench/tracing.py) wraps program functions looked
up by name; every name in its TRACED list must still resolve, or
`python3 bench/run.py --trace 1` fails when it installs the wrappers.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _traced() -> tuple[tuple[str, str], ...]:
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("module, attr", _traced(), ids=lambda v: v)
def test_traced_name_resolves(module, attr):
    target = importlib.import_module(f"invmean.{module}")
    for part in attr.split("."):  # "Class.method" or a module attribute
        assert hasattr(target, part), f"invmean.{module} has no {attr}"
        target = getattr(target, part)
    assert callable(target)
