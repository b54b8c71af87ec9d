"""The benchmark's layer boundaries name attributes that exist.

``perfbench/layers.json`` lists, per layer, the module and the functions,
methods and classes the tracer wraps.  A rename in the package would
otherwise surface only as an error of the benchmark run.
"""

import importlib
import json
from pathlib import Path

import pytest

import speclab

LAYERS = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "layers.json").read_text()
)["layers"]

BOUNDARIES = [
    (layer["module"], boundary)
    for layer in LAYERS
    if layer["module"]
    for boundary in layer["boundaries"]
]


@pytest.mark.parametrize("module,boundary", BOUNDARIES, ids=[f"{m}:{b}" for m, b in BOUNDARIES])
def test_boundary_resolves(module, boundary):
    target = importlib.import_module(module)
    for part in boundary.split("."):
        target = getattr(target, part)
    assert callable(target)


def test_kernel_backend_is_pure_python():
    assert speclab.kernel_backend == "python"
