#!/usr/bin/env python3
"""Self-test of the benchmark's failure accounting.

    python3 perfbench/selftest.py

Runs the hemi-dense ``solve`` and ``bounds`` commands twice each through
the benchmark's own runner: once as they are, and once with the output
damaged before it is checked (every interior vertex of map.csv moved by
about 1e-4; bounds.csv cut in half).  The clean commands must pass, the
damaged ones must fail, and ``failed_frac`` must come out at 0.5.
Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import numpy as np

import checks
import run

BOUNDARY = range(1, checks.meridians(96, float(run.R_DENSE)) + 1)  # hemi-dense equator


def perturb_map(out_dir):
    path = os.path.join(out_dir, "map.csv")
    with open(path, encoding="utf-8") as fh:
        header, *rows = fh.read().splitlines()
    rng = np.random.default_rng(0)
    lines = [header]
    for row in rows:
        v, x, y = row.split(",")
        if int(v) not in BOUNDARY:
            x, y = (float(c) + 1e-4 * rng.standard_normal() for c in (x, y))
        lines.append(f"{v},{x},{y}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def truncate_bounds(out_dir):
    path = os.path.join(out_dir, "bounds.csv")
    with open(path, "r+b") as fh:
        fh.truncate(os.path.getsize(path) // 2)


def damaged(op, damage):
    def check(out_dir, rc, output):
        damage(out_dir)
        return op.check(out_dir, rc, output)

    return run.Op(op.kind, op.argv, check, op.faces)


def main() -> int:
    cli = run.import_cli()
    refs = json.loads((run.HERE / "reference.json").read_text())
    work = run.ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        solve, bounds = run.build_workload("hemi-dense", 0, str(work / "inputs"), refs)[:2]
        ops = [solve, damaged(solve, perturb_map), bounds, damaged(bounds, truncate_bounds)]
        results = [run.run_op(cli, op, str(work)) for op in ops]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for label, result in zip(("solve", "perturbed map", "bounds", "truncated bounds.csv"), results):
        print(f"{label:22s} failures: {result.outcome.failures or 'none'}")
    expected = [False, True, False, True]
    failed = [bool(r.outcome.failures) for r in results]
    shares = run.outcome_shares(results)
    print(f"failed_frac = {shares['failed_frac']}")
    ok = failed == expected and shares["failed_frac"] == 0.5
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
