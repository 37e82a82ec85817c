"""The traced benchmark wraps gpk functions by name; a name that no longer
resolves is only a warning there and its metrics read 0, so check every
name here."""

import importlib
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
