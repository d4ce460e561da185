"""``tools/report_diff.py`` names what differs between two commands'
results, and how far a table that differs only in its numbers moved."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_diff.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("report_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    # Leave no bytecode cache behind in tools/.
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


report_diff = load_tool()


def result(map_csv):
    """A `run` result: exit 0, one stdout line, no stderr, one map.csv."""
    return 0, "wrote <out>/map.csv\n", "", {"map.csv": map_csv.encode()}


def test_one_ulp_gives_its_relative_difference():
    moved = repr(float(np.nextafter(0.5, 1.0)))
    old = result("vertex,x,y\n0,0.5,0.25\n1,-0.25,0.125\n")
    new = result(f"vertex,x,y\n0,{moved},0.25\n1,-0.25,0.125\n")
    assert report_diff.differences(old, new) == [
        "map.csv differs (largest relative difference 2.2e-16)"
    ]


def test_different_headers_give_no_relative_difference():
    old = result("vertex,x,y\n0,0.5,0.25\n")
    new = result("vertex,u,v\n0,0.5,0.25\n")
    assert report_diff.differences(old, new) == ["map.csv differs"]
