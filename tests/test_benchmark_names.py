"""The benchmark's per-layer call counts name callables that still exist.

`perfbench/spans.py` wraps every public function and every public method
of a public class in the layer modules, and reports `<layer>.<name>.calls`
for each.  A metric whose callable was renamed or deleted would make a
traced run fail, so each name in `BENCHMARK.json` must resolve here.
"""

import importlib
import inspect
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _call_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["per_layer"]]
    return [n.rsplit(".", 1)[0] for n in names if n.count(".") == 2 and n.endswith(".calls")]


def _is_function(value):
    if isinstance(value, staticmethod):
        value = value.__func__
    return inspect.isfunction(inspect.unwrap(value))


def _traced_names(module):
    names = set()
    for attr, value in vars(module).items():
        if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(value):
            names |= {
                name for name, member in vars(value).items()
                if not name.startswith("_") and _is_function(member)
            }
        elif _is_function(value):
            names.add(attr)
    return names


def test_there_are_call_metrics():
    assert len(_call_metrics()) >= 10


@pytest.mark.parametrize("metric", _call_metrics())
def test_call_metric_names_a_public_callable(metric):
    layer, name = metric.split(".")
    module = importlib.import_module(f"polydouble.{layer}")
    assert name in _traced_names(module), f"{metric}.calls names no public callable"
