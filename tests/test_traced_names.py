"""The benchmark's tracer patches ``duality_lab`` functions by name; each name it lists must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, name) for module, names in tracer.TRACED.items() for name in names]


@pytest.mark.parametrize("module, name", _traced())
def test_traced_name_is_a_callable(module, name):
    # a deleted or renamed function would otherwise surface only in a traced benchmark run
    assert callable(getattr(importlib.import_module(f"duality_lab.{module}"), name, None))
