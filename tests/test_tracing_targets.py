"""The benchmark's tracer wraps package callables by name; each of those
names must still exist, so that renaming or moving one fails here and not
only in a traced benchmark run.  The tracer module is loaded read-only: no
bytecode is written next to it and nothing is installed."""

import importlib.util
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

