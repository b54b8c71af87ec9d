"""The benchmark's layer boundaries name attributes that exist.

``perfbench/layers.json`` lists, per layer, the module and the functions,
methods and classes the tracer wraps.  A rename in the package would
otherwise surface only as an error of the benchmark run.
"""

import importlib
import json
import os
import subprocess
import sys
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


def test_traced_verify_cold_reaches_every_boundary():
    # the benchmark's traced self-check on verify-cold, in a fresh process:
    # a deletion that leaves a boundary uncalled, drops the last CRat kernel
    # input or hides an original from the tracer fails here first
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    code = (
        "import contextlib, io, json\n"
        "import clireq\n"
        "from tracer import Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "from speclab.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = main(clireq.VERIFY_COLD_ARGV)\n"
        "print(json.dumps(dict(tracer.stats(), rc=rc)))\n"
    )
    src = str(Path(speclab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(perfbench), src]))
    # one BLAS thread, as the benchmark runs; no bytecode left in perfbench/
    env.update(OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    stats = json.loads(proc.stdout.splitlines()[-1])
    assert stats["rc"] == 0
    expected = [
        f"{layer['layer']}.{boundary}"
        for layer in LAYERS
        if layer["module"]
        for boundary, workloads in layer["boundaries"].items()
        if "verify-cold" in workloads
    ]
    assert expected
    assert [name for name in expected if stats["calls"][name] < 1] == []
    assert stats["counters"]["crat_calls"] > 0
    assert stats["leftovers"] == []
