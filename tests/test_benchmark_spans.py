"""The traced benchmark wraps gpk functions by name; a name that no longer
resolves is only a warning there and its metrics read 0, so check every
name here. Its scripts also import gpk names directly; a name that no
longer resolves would stop the benchmark at import time."""

import ast
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
SPANS = [m["name"].removesuffix(".calls")
         for m in json.loads(BENCHMARK.read_text())["per_layer"]
         if m["name"].endswith(".calls")]


def test_spans_declared():
    assert SPANS


@pytest.mark.parametrize("span", SPANS)
def test_span_names_a_gpk_function(span):
    module, fn = span.split(".")
    assert callable(getattr(importlib.import_module(f"gpk.{module}"), fn, None))


def gpk_imports():
    """(module, name) for each name the benchmark's scripts take from gpk:
    `from gpk[.module] import name`, and `alias.name` attributes read off a
    gpk module imported as `alias`. The scripts are only read, not run."""
    found = set()
    for path in sorted((BENCHMARK.parent / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules = {}  # local alias -> gpk module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                    node.module == "gpk" or node.module.startswith("gpk.")):
                for a in node.names:
                    found.add((node.module, a.name))
                    if node.module == "gpk":
                        modules[a.asname or a.name] = f"gpk.{a.name}"
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                found.add((modules[node.value.id], node.attr))
    return sorted(found)


IMPORTS = gpk_imports()


def test_benchmark_imports_found():
    assert ("gpk.geometry", "bottom_center") in IMPORTS
    assert ("gpk.mapfile", "load_denorm_map") in IMPORTS


@pytest.mark.parametrize("module,name", IMPORTS,
                         ids=[f"{m}.{n}" for m, n in IMPORTS])
def test_benchmark_import_resolves(module, name):
    mod = importlib.import_module(module)
    assert hasattr(mod, name) or importlib.util.find_spec(f"{module}.{name}")
