"""The names the traced benchmark run reads from the library.

`perfbench/tracing.py` wraps the public functions of each layer module
and keys solver results by class name; `BENCHMARK.json` names per-layer
metrics as `<layer>.<function>.<metric>`.  A rename in the library would
silently turn those metrics into zeros, so these tests pin the names.
"""

import importlib
import inspect
import json
import os

import pytest

BENCHMARK = os.path.join(os.path.dirname(__file__), os.pardir, "BENCHMARK.json")


def _traced_functions():
    with open(BENCHMARK) as f:
        metrics = json.load(f)["per_layer"]
    out = set()
    for m in metrics:
        parts = m["name"].split(".")
        if len(parts) == 3:
            out.add((parts[0], parts[1]))
    return sorted(out)


@pytest.mark.parametrize("layer,name", _traced_functions())
def test_per_layer_metric_names_a_public_function(layer, name):
    mod = importlib.import_module("ontofocus." + layer)
    fn = getattr(mod, name, None)
    assert inspect.isfunction(fn), "%s.%s is not a function" % (layer, name)
    assert fn.__module__ == mod.__name__ and not name.startswith("_")


def test_solver_result_classes_keep_their_names():
    ineq = importlib.import_module("ontofocus.ineq")
    for name in ("Solution", "NoSolution", "UnknownAtCap"):
        assert inspect.isclass(getattr(ineq, name, None)), name
