"""The benchmark's span tracer patches library attributes by name; every
name it hooks must still exist, or a refactor silently breaks
``perfbench/run.py --trace 1``."""

import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # Leave no bytecode cache behind in perfbench/.
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


tracer = load_tracer()


@pytest.mark.parametrize(
    "module_name, path",
    sorted({(m, p) for m, p, _ in tracer.SPANS + tracer.COUNTERS}),
)
def test_hooked_name_resolves(module_name, path):
    owner, attr = tracer._resolve(module_name, path)
    assert callable(getattr(owner, attr))
