#!/usr/bin/env python3
"""Median, quartiles and spread of benchmark runs.

    python3 perfbench/summarize.py [--out FILE] [RESULT.json ...]

Reads the result records run.py writes to ``.perfbench_out/`` (all of
them by default).  For each workload and end-to-end metric it prints the
median and quartiles over the untraced runs and their quartile spread as
a share of the median, next to the metric's bound from BENCHMARK.json;
for traced runs it prints the median of each per-layer metric.  With
``--out`` the same figures are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(records, declared):
    bounds = {d["name"]: d["bound"] for d in declared["end_to_end"]}
    by_workload = defaultdict(lambda: {"untraced": [], "traced": []})
    for rec in records:
        by_workload[rec["workload"]]["traced" if rec["trace"] else "untraced"].append(rec)
    out = {}
    for workload, runs in sorted(by_workload.items()):
        entry = {"runs": len(runs["untraced"]), "traced_runs": len(runs["traced"])}
        entry["seeds"] = sorted(r["meta"]["seed"] for r in runs["untraced"])
        e2e = {}
        for name, bound in bounds.items():
            values = [r["end_to_end"][name] for r in runs["untraced"]]
            if not values:
                continue
            q1, median, q3 = quartiles(values)
            e2e[name] = {
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median if median else 0.0,
                "bound": bound,
            }
        entry["end_to_end"] = e2e
        layers = defaultdict(list)
        for r in runs["traced"]:
            for k, v in r["per_layer"].items():
                layers[k].append(v)
        entry["per_layer"] = {k: statistics.median(v) for k, v in sorted(layers.items())}
        out[workload] = entry
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("results", nargs="*", type=Path)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    paths = args.results or sorted((ROOT / ".perfbench_out").glob("*-seed*-trace*.json"))
    records = [json.loads(path.read_text()) for path in paths]
    if not records:
        sys.exit("no result records found")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = summarize(records, declared)
    for workload, entry in summary.items():
        print(f"{workload}: {entry['runs']} runs, {entry['traced_runs']} traced")
        for name, s in entry["end_to_end"].items():
            flag = "" if name == "setup_s" or s["spread"] <= s["bound"] else "  OVER BOUND"
            print(
                f"  {name:14s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                f"q3 {s['q3']:<12.6g} spread {s['spread']:.3f} (bound {s['bound']}){flag}"
            )
        for name, value in entry["per_layer"].items():
            print(f"  {name:48s} {value:.6g}")
    if args.out:
        meta = {k: v for k, v in records[0]["meta"].items() if k != "seed"}
        args.out.write_text(
            json.dumps({"meta": meta, "workloads": summary}, indent=1) + "\n"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
