#!/usr/bin/env python3
"""diskmap benchmark.

    python3 perfbench/run.py --workload hemi-dense --seed 1 --seconds 30 --trace 0

Runs ``diskmap`` commands in-process through ``diskmap.cli.main(argv)``,
the code path of a user's ``diskmap <command>`` minus interpreter start
(measured separately as ``setup_s``), in a closed loop: one process, one
command at a time, repeated until ``--seconds`` is used up.  Untraced
command times are corrected for the host's speed (see speed.py).  Every output
is checked against the stereographic ground truth, an independent
Beltrami oracle and the seed commit's values in ``reference.json``.

With ``--trace 0`` the last line reports the end-to-end metrics declared
in BENCHMARK.json; with ``--trace 1`` half the time runs untraced and
half traced (see tracer.py), and the last line reports the per-layer
metrics.  Earlier lines print every metric by name; the full result, run
metadata and (traced) the span list go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np
import scipy

import checks
from speed import Probe
from tracer import SPLU_PARENTS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

R_DENSE = "0.9166667"  # r = 11/12 as typed on the command line
SWEEP_N = (8, 12, 16, 24, 32, 48, 64)  # the converge command's default n list
SETUP_SAMPLES = (6, 10)  # fewest and most interpreter starts per run
OP_KINDS = ("solve", "bounds", "quality", "beltrami", "converge")
OP_METRIC = {k: f"{k}_s" for k in OP_KINDS} | {"converge": "sweep_s"}


@dataclass
class Op:
    """One CLI invocation of a workload repetition."""

    kind: str
    argv: list
    check: Callable  # (out_dir, exit code, captured output) -> checks.Outcome
    faces: int  # faces of the mesh(es) the command processes


@dataclass
class OpResult:
    kind: str
    wall_s: float  # wall time, minus the speed probe's own time
    factor: float | None  # reference over measured host speed; None when traced
    outcome: checks.Outcome
    files: dict  # relative path -> bytes
    root: int  # root span index when traced, else -1

    @property
    def seconds(self) -> float:
        """The command's time at the reference host speed (untraced), else wall time."""
        return self.wall_s * (self.factor or 1.0)


def import_cli():
    """diskmap.cli from this checkout's src/, never from an installed copy."""
    if not (SRC / "diskmap" / "cli.py").is_file():
        sys.exit(f"perfbench: {SRC / 'diskmap'} not found; run from a diskmap checkout")
    sys.path.insert(0, str(SRC))
    import diskmap.cli

    if Path(diskmap.cli.__file__).resolve().parent != SRC / "diskmap":
        sys.exit(f"perfbench: imported diskmap from {diskmap.cli.__file__}, not {SRC}")
    return diskmap.cli


def build_workload(name, seed, inputs_dir, refs) -> list[Op]:
    """The commands of one repetition, with their inputs written and checks bound."""
    if name == "hemi-dense":
        n = 96
        hemi = checks.hemisphere(n, checks.meridians(n, float(R_DENSE)))
        faces = len(hemi.faces)
        grid = ["--n", str(n), "--r", R_DENSE]
        ref = refs[name]
        belt = checks.write_beltrami_inputs(hemi, seed, inputs_dir)
        oracle = checks.beltrami_oracle(belt)
        return [
            Op(
                "solve",
                ["solve", *grid, "--rho", "quadrature"],
                lambda d, rc, out: checks.check_solve(d, rc, out, hemi, ref["solve"]),
                faces,
            ),
            Op(
                "bounds",
                ["bounds", *grid, "--rho", "quadrature"],
                lambda d, rc, out: checks.check_bounds(d, rc, out, faces, ref["bounds"]),
                faces,
            ),
            Op(
                "quality",
                ["quality", *grid],
                lambda d, rc, out: checks.check_quality(d, rc, out, faces, ref["quality"]),
                faces,
            ),
            Op(
                "beltrami",
                ["beltrami", "--mesh", belt.mesh_path, "--mu", belt.mu_path,
                 "--boundary", belt.boundary_path],
                lambda d, rc, out: checks.check_beltrami(d, rc, out, belt, oracle),
                faces,
            ),
        ]
    if name == "hemi-thin":
        n = 256
        hemi = checks.hemisphere(n, checks.meridians(n, 0.25))
        ref = refs[name]
        return [
            Op(
                "solve",
                ["solve", "--n", str(n), "--r", "0.25", "--rho", "quadrature"],
                lambda d, rc, out: checks.check_solve(d, rc, out, hemi, ref["solve"]),
                len(hemi.faces),
            )
        ]
    if name == "sweep":
        digests: dict = {}
        faces = sum(checks.meridians(n, float(R_DENSE)) * (2 * n - 1) for n in SWEEP_N)
        return [
            Op(
                "converge",
                ["converge", "--r", R_DENSE, "--rho", "quadrature"],
                lambda d, rc, out: checks.check_sweep(d, rc, out, refs[name], digests),
                faces,
            )
        ]
    raise ValueError(f"unknown workload {name!r}")


def _files(directory):
    return {
        os.path.relpath(os.path.join(base, f), directory): os.path.getsize(os.path.join(base, f))
        for base, _, names in os.walk(directory)
        for f in names
    }


def run_op(cli, op: Op, work_dir, tracer: Tracer | None = None) -> OpResult:
    """Run one command in a fresh output directory, then check its output.

    Untraced, a speed probe samples the host's speed while the command
    runs; traced, the probe would land in the spans, so it is off."""
    out_dir = tempfile.mkdtemp(prefix=f"{op.kind}-", dir=work_dir)
    argv = ["--out-dir", out_dir, *op.argv]
    captured = io.StringIO()
    span = tracer.span(f"op.{op.kind}") if tracer else contextlib.nullcontext(-1)
    probe = None if tracer else Probe()
    rc = None
    error = None
    with (
        contextlib.redirect_stdout(captured),
        contextlib.redirect_stderr(captured),
        probe or contextlib.nullcontext(),
    ):
        start = perf_counter()
        try:
            with span as root:
                rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        except Exception:  # a crash is a failed command, not a benchmark crash
            error = traceback.format_exc()
    wall = perf_counter() - start - (probe.spent if probe else 0.0)
    outcome = checks.Outcome([f"{op.kind} raised:\n{error}"]) if error else op.check(
        out_dir, rc, captured.getvalue()
    )
    factor = probe.factor() if probe else None
    result = OpResult(op.kind, wall, factor, outcome, _files(out_dir), root)
    shutil.rmtree(out_dir)
    return result


def run_reps(cli, ops, work_dir, budget, tracer=None, between=None) -> list[list[OpResult]]:
    """Closed loop: repeat the workload's commands until `budget` seconds
    would be exceeded by one more repetition (at least one).  `between`
    runs after each command; its time is not counted in the budget."""
    reps = []
    start = perf_counter()
    paused = 0.0
    while True:
        rep_start = perf_counter()
        rep_paused = 0.0
        rep = []
        for op in ops:
            rep.append(run_op(cli, op, work_dir, tracer))
            if between:
                pause = perf_counter()
                between()
                rep_paused += perf_counter() - pause
        reps.append(rep)
        paused += rep_paused
        last = perf_counter() - rep_start - rep_paused
        if perf_counter() - start - paused + last > budget:
            return reps


def measure_setup() -> float:
    """One fresh interpreter until `import diskmap.cli` is done."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import diskmap.cli"], env=env, cwd=ROOT, check=True)
    return perf_counter() - start


def run_metadata(seed) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "platform": platform.platform(),
        "seed": seed,
    }


# ---------------------------------------------------------------- metrics


def op_metrics(reps) -> dict:
    """Median wall time per command kind over `reps`; 0 for kinds not run."""
    metrics = {}
    for kind in OP_KINDS:
        times = [r.seconds for rep in reps for r in rep if r.kind == kind]
        metrics[OP_METRIC[kind]] = statistics.median(times) if times else 0.0
    return metrics


def outcome_shares(results) -> dict:
    solves = sum(r.outcome.solves for r in results)
    unconverged = sum(r.outcome.unconverged for r in results)
    failed = sum(bool(r.outcome.failures) for r in results)
    return {
        "unconverged_frac": unconverged / solves if solves else 0.0,
        "failed_frac": failed / len(results),
    }


def _productive(report) -> int:
    """Iterations up to the last one that lowers the conformal energy by
    more than 1e-12 relative."""
    c = np.array([e.conformal for e in report.energy_trace])
    drops = np.nonzero(c[:-1] - c[1:] > 1e-12 * np.abs(c[:-1]))[0]
    return int(drops[-1]) + 1 if drops.size else 0


def layer_metrics(tracer: Tracer, rep: list[OpResult], ops: list[Op]) -> dict:
    """Per-layer self times and counts of one traced repetition."""
    names, duration, self_time, root = tracer.arrays()
    in_rep = np.isin(root, [r.root for r in rep])
    m = defaultdict(float)
    for name in set(names[in_rep]):
        sel = in_rep & (names == name)
        key = "cli.self_s" if name.startswith("op.") else f"{name}_s"
        if name != "splu":
            m[key] += float(self_time[sel].sum())
    for idx in np.nonzero(in_rep & (names == "splu"))[0]:
        owner = SPLU_PARENTS.get(tracer.enclosing(idx, SPLU_PARENTS), "other")
        lu = tracer.results[idx]
        m[f"splu.{owner}.calls"] += 1
        m[f"splu.{owner}.time_s"] += float(duration[idx])
        m[f"splu.{owner}.fill_nnz"] += lu.L.nnz + lu.U.nnz
    for idx in np.nonzero(in_rep & (names == "laplacian.assemble"))[0]:
        m["laplacian.nnz"] += tracer.results[idx].matrix.nnz
    minimize = np.nonzero(in_rep & (names == "minimizer.minimize"))[0]
    reports = [tracer.results[i] for i in minimize]
    if reports:
        iterations = sum(r.iterations for r in reports)
        m["minimizer.iterations"] = iterations
        m["minimizer.s_per_iteration"] = float(duration[minimize].sum()) / max(iterations, 1)
        m["minimizer.converged"] = sum(r.converged for r in reports) / len(reports)
        m["minimizer.productive_frac"] = (
            sum(_productive(r) for r in reports) / iterations if iterations else 1.0
        )
    cases = in_rep & (names == "experiments.case")
    if cases.any():  # inclusive time per sweep row, unlike the other *_s self times
        m["experiments.case_s"] = float(duration[cases].sum()) / int(cases.sum())
    for r, op in zip(rep, ops):
        calls = int(np.sum((root == r.root) & (names == "mesh.triangle_metrics")))
        m["mesh.triangle_metrics_calls"] += calls
        if op.kind != "beltrami":
            m[f"mesh.triangle_metrics_calls_per_face.{op.kind}"] = calls / op.faces
        m["surface.area_element_calls"] += tracer.counts[r.root]["surface.area_element_calls"]
        m["cli.output_bytes"] += sum(r.files.values())
        m["bounds.csv_bytes"] += sum(
            b for f, b in r.files.items() if f in ("bounds.csv", "quality.csv")
        )
        if op.kind == "converge":
            m["experiments.report_bytes"] += sum(r.files.values())
        m["trace.wall_s"] += r.wall_s
        total = sum(self_time[root == r.root])
        if abs(total - float(duration[r.root])) > 1e-6 * max(float(duration[r.root]), 1.0):
            raise RuntimeError(f"self times of {op.kind} do not add up to its wall time")
    return m


def fill_missing_factors(reps):
    """A command too short for the probe takes the run's median speed factor."""
    factors = [r.factor for rep in reps for r in rep if r.factor is not None]
    for r in (r for rep in reps for r in rep if r.factor is None):
        r.factor = statistics.median(factors) if factors else 1.0


def median_of(dicts) -> dict:
    keys = {k for d in dicts for k in d}
    return {k: statistics.median(d.get(k, 0.0) for d in dicts) for k in keys}


# ---------------------------------------------------------------- main


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("hemi-dense", "hemi-thin", "sweep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_cli()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    refs = json.loads((HERE / "reference.json").read_text())
    out_root = ROOT / ".perfbench_out"
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = None
    try:
        ops = build_workload(args.workload, args.seed, str(work / "inputs"), refs)
        budget = args.seconds / 2 if args.trace else args.seconds
        # Interpreter starts go between the untraced commands, so that they
        # sample the host's speed over the whole run, not one moment of it.
        setup = []

        def sample_setup():
            if len(setup) < SETUP_SAMPLES[1]:
                setup.append(measure_setup())

        untraced = run_reps(cli, ops, work, budget, between=sample_setup)
        while len(setup) < SETUP_SAMPLES[0]:
            sample_setup()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        fill_missing_factors(untraced)
        traced = []
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_reps(cli, ops, work, budget, tracer)
            finally:
                tracer.restore()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".perfbench_work").rmdir()

    results = [r for rep in untraced + traced for r in rep]
    failures = [(r.kind, msg) for r in results for msg in r.outcome.failures]
    rep_times = [sum(r.seconds for r in rep) for rep in untraced]
    untraced_walls = [sum(r.wall_s for r in rep) for rep in untraced]
    traced_times = [sum(r.wall_s for r in rep) for rep in traced]
    errors = [r.outcome.rel_error for rep in untraced for r in rep
              if r.outcome.rel_error is not None]
    end_to_end = {
        "setup_s": statistics.median(setup),
        "rep_s": statistics.median(rep_times),
        "rel_error": statistics.median(errors) if errors else float("nan"),
        "peak_rss_mb": peak_rss_mb,
    }
    commands = {**op_metrics(untraced), **outcome_shares(results)}
    per_layer = {}
    if args.trace:
        per_layer = median_of([layer_metrics(tracer, rep, ops) for rep in traced])
        per_layer["trace.overhead_frac"] = (
            statistics.median(traced_times) / statistics.median(untraced_walls) - 1.0
        )
        per_layer.update(commands)

    # A layer that did not run reports 0; every end-to-end metric is measured.
    section, values = ("per_layer", per_layer) if args.trace else ("end_to_end", end_to_end)
    metrics = {
        d["name"]: {"value": float(values.get(d["name"], 0.0)), "unit": d["unit"]}
        for d in declared[section]
    }

    meta = run_metadata(args.seed)
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "meta": meta,
        "setup_samples_s": setup,
        "rep_s": rep_times,
        "rep_wall_s": untraced_walls,
        "traced_rep_wall_s": traced_times,
        "ops": [[(r.kind, r.seconds, r.wall_s, r.factor) for r in rep] for rep in untraced],
        "end_to_end": end_to_end,
        "commands": commands,
        "per_layer": per_layer,
        "failures": failures,
    }
    out_root.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_root / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(out_root / f"{stem}-spans.csv.gz")

    for kind, msg in failures:
        print(f"FAILED {kind}: {msg}", file=sys.stderr)
    print(
        f"# {args.workload} seed={args.seed} trace={args.trace}: {len(untraced)} untraced "
        f"and {len(traced)} traced repetitions, {len(results)} commands, "
        f"{len(failures)} check failures"
    )
    print(f"# meta {json.dumps(meta, sort_keys=True)}")
    units = {d["name"]: d["unit"] for s in ("end_to_end", "per_layer") for d in declared[s]}
    ran = {OP_METRIC[op.kind] for op in ops}
    shown = end_to_end | {k: v for k, v in commands.items() if k in ran or k.endswith("_frac")}
    if args.trace:
        shown |= {d["name"]: metrics[d["name"]]["value"] for d in declared["per_layer"]}
    for k, v in shown.items():
        print(f"{k:48s} {v:14.6g} {units[k]}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": len(results),
                "failed": sum(bool(r.outcome.failures) for r in results),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
