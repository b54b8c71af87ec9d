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


def _traced_stats(body: str) -> dict:
    """The tracer's stats after ``body`` runs under it in a fresh process,
    with perfbench/ and this checkout's speclab on the path."""
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    code = (
        "import json\n"
        "from tracer import Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        f"{body}"
        "print(json.dumps(dict(tracer.stats(), result=result)))\n"
    )
    src = str(Path(speclab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(perfbench), src]))
    # one BLAS thread, as the benchmark runs; no bytecode left in perfbench/
    env.update(OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _uncalled(stats: dict, workload: str) -> list:
    """The boundaries listed for ``workload`` that the traced run never
    entered."""
    expected = [
        f"{layer['layer']}.{boundary}"
        for layer in LAYERS
        if layer["module"]
        for boundary, workloads in layer["boundaries"].items()
        if workload in workloads
    ]
    assert expected
    return [name for name in expected if stats["calls"][name] < 1]


def test_traced_verify_cold_reaches_every_boundary():
    # the benchmark's traced self-check on verify-cold, in a fresh process:
    # a deletion that leaves a boundary uncalled, drops the last CRat kernel
    # input or hides an original from the tracer fails here first
    stats = _traced_stats(
        "import contextlib, io\n"
        "import clireq\n"
        "from speclab.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    result = main(clireq.VERIFY_COLD_ARGV)\n"
    )
    assert stats["result"] == 0
    assert _uncalled(stats, "verify-cold") == []
    assert stats["counters"]["crat_calls"] > 0
    assert stats["leftovers"] == []


def test_traced_scalar_sweep_reaches_every_boundary():
    # one scalar-sweep pass at a fixed seed, as the benchmark's worker runs
    # it (the sweep imported under the tracer), with every answer checked:
    # a deletion that leaves a boundary uncalled fails here first
    stats = _traced_stats(
        "import sweep\n"
        "result = []\n"
        "for key, call, check in sweep.requests(1):\n"
        "    error, _ = check(call())\n"
        "    result += [f'{key}: {error}'] if error else []\n"
    )
    assert stats["result"] == []
    assert _uncalled(stats, "scalar-sweep") == []
    assert stats["leftovers"] == []
