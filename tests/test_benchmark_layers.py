"""Every per-layer function that BENCHMARK.json names must exist in upcube.

The benchmark's tracer reports a layer line only for public functions it
can wrap, so deleting or renaming one of them breaks the traced run; this
guard makes such a change fail the unit tests as well.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
LAYER_FUNCTIONS = sorted(
    {
        m["name"].rsplit(".", 1)[0]
        for m in SPEC["per_layer"]
        if m["name"].count(".") == 2 and m["name"].endswith((".calls", ".self_s"))
    }
)


def test_benchmark_names_layer_functions():
    assert "setcube.level_counts" in LAYER_FUNCTIONS and "cli.main" in LAYER_FUNCTIONS


@pytest.mark.parametrize("qualname", LAYER_FUNCTIONS)
def test_layer_function_is_public(qualname):
    module_name, name = qualname.split(".")
    module = importlib.import_module(f"upcube.{module_name}")
    func = getattr(module, name, None)
    assert not name.startswith("_")
    assert inspect.isfunction(func) and func.__module__ == module.__name__, qualname
    assert not inspect.isgeneratorfunction(func), f"{qualname} is a generator; it is not traced"
