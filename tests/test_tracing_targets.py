"""The benchmark's tracer wraps package callables by name; each of those
names must still exist, so that renaming or moving one fails here and not
only in a traced benchmark run.  The tracer module is loaded read-only: no
bytecode is written next to it and nothing is installed in this process.
A traced run of each workload, in a subprocess, must pass the tracer's own
self-check."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "qfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    name = "_qfbench_tracing"
    spec = importlib.util.spec_from_file_location(name, TRACING)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]
        sys.dont_write_bytecode = saved


def test_every_traced_name_resolves(tracing):
    missing = []
    for metric, owner, attr in tracing._targets():
        # methods are wrapped from the class's own namespace, functions
        # wherever the module binds them
        found = (attr in owner.__dict__ if isinstance(owner, type)
                 else callable(getattr(owner, attr, None)))
        if not found:
            missing.append(f"{metric}: {owner.__name__}.{attr}")
    assert missing == []



@pytest.mark.parametrize("workload", ["algebra-line", "algebra-circle",
                                      "bimodule", "point-queries"])
def test_traced_run_passes_its_self_check(workload):
    # The traced benchmark checks its own call pattern (every wrapped name
    # reached, every expected layer active) and every output; a refactor
    # that drops a wrapped call fails here, not only in a traced benchmark
    # run.  It runs in a subprocess because the tracer's wrappers stay
    # installed, and writes only its result file under qfbench/out/.
    root = TRACING.parents[1]
    run = subprocess.run(
        [sys.executable, "-B", "qfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=root, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, run.stderr
