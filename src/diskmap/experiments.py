"""Hemisphere convergence studies: sweep mesh resolutions, solve for the
disk map, compare against the exact stereographic flatten, and fit the
error-versus-mesh-size exponent of the nodal error.

The solver's gauge is arbitrary up to a rotation or reflection, so the
recorded relative error is measured after the optimal orthogonal
alignment.  Report files are byte-stable for fixed inputs; wall times are
kept on the rows but never written into the deterministic outputs.
"""

from __future__ import annotations

import contextlib
import functools
import math
import multiprocessing
import os
import time
from dataclasses import dataclass, fields

import numpy as np

from .bounds import quality_report
from .errors import DiskmapError, InsufficientData
from .harmonic import disk_initial_guess, face_nearest
from .hemisphere import HemisphereMesh, HemisphereSpec, gen_hemisphere
from .laplacian import assemble_laplacian, conformal_energy
from .mesh import write_rows
from .minimizer import MinimizerOptions, SolveReport, minimize, normalize_map, relative_error

SOUTH_POLE = np.array([0.0, 0.0, -1.0])


@dataclass(frozen=True)
class ConvergenceRow:
    """One resolution of a sweep.

    ``rel_error`` is the nodal error of :func:`relative_error`: the
    aligned solution against the stereographic map at the vertices.  For
    piecewise-linear maps it converges at about h^1.7 to h^2 on the
    hemisphere, a full order faster than the gradient error that the
    energy analysis controls (see
    :meth:`~diskmap.hemisphere.HemisphereMesh.gradient_error`).
    """

    n: int
    m: int
    h: float
    max_diam_over_sin: float
    energy_solution: float
    energy_reference: float
    rel_error: float
    iterations: int
    fold_count: int
    converged: bool
    wall_time: float


@dataclass(frozen=True)
class FitResult:
    """Least-squares line through (log h, log error)."""

    exponent: float
    coefficient: float
    residual: float
    rows_used: int


@dataclass
class CaseResult:
    """Full artifacts of one hemisphere solve (row plus raw objects)."""

    row: ConvergenceRow
    hemisphere: HemisphereMesh
    report: SolveReport
    solution: np.ndarray
    reference: np.ndarray


def hemisphere_laplacian(hemi: HemisphereMesh, rho_mode="quadrature", quad_order=3):
    """The Laplacian of a generated hemisphere, `rho_mode` area ratios over its chart."""
    return assemble_laplacian(
        hemi.mesh, rho_mode, hemi.surface, param_cells=hemi.param_cells, quad_order=quad_order
    )


def solve_hemisphere_case(
    spec: HemisphereSpec,
    options: MinimizerOptions | None = None,
    rho_mode: str = "quadrature",
    quad_order: int = 3,
    source_face: int | None = None,
) -> CaseResult:
    """Generate, assemble, initialize, minimize, and compare one mesh: the
    one solve of a generated hemisphere, which ``diskmap solve`` and each
    :func:`run_sweep` row call.  The harmonic init's source is
    `source_face`, by default the face nearest the south pole."""
    start = time.perf_counter()
    hemi = gen_hemisphere(spec)
    mesh = hemi.mesh
    laplacian = hemisphere_laplacian(hemi, rho_mode, quad_order)
    source = face_nearest(mesh, SOUTH_POLE) if source_face is None else source_face
    init = disk_initial_guess(mesh, laplacian, source)
    report = minimize(mesh, laplacian, init, options)
    reference = hemi.reference_map()
    aligned = normalize_map(report.final_map, reference)
    err = relative_error(aligned, reference)
    quality = quality_report(mesh)
    energy_ref = conformal_energy(mesh, laplacian, reference).conformal
    elapsed = time.perf_counter() - start
    row = ConvergenceRow(
        n=spec.n,
        m=spec.m,
        h=quality.max_diam,
        max_diam_over_sin=quality.max_diam_over_sin,
        energy_solution=report.energy_trace[-1].conformal,
        energy_reference=energy_ref,
        rel_error=err,
        iterations=report.iterations,
        fold_count=report.fold_count,
        converged=report.converged,
        wall_time=elapsed,
    )
    return CaseResult(
        row=row, hemisphere=hemi, report=report, solution=aligned, reference=reference
    )


def sweep_workers(row_count: int) -> int:
    """Number of processes that solve a sweep of `row_count` rows: one per
    CPU this process may use (``os.sched_getaffinity``, else
    ``os.cpu_count``), at most one per row, and 1 where ``fork`` is
    unavailable."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, row_count))


def _sweep_row(spec, options, rho_mode, quad_order) -> ConvergenceRow:
    """One sweep row; a DiskmapError becomes a NaN row with ``converged``
    False."""
    try:
        return solve_hemisphere_case(spec, options, rho_mode, quad_order).row
    except DiskmapError:
        return ConvergenceRow(
            n=spec.n,
            m=spec.m,
            h=math.nan,
            max_diam_over_sin=math.nan,
            energy_solution=math.nan,
            energy_reference=math.nan,
            rel_error=math.nan,
            iterations=0,
            fold_count=0,
            converged=False,
            wall_time=0.0,
        )


def run_sweep(
    r: float,
    n_values,
    options: MinimizerOptions | None = None,
    rho_mode: str = "quadrature",
    quad_order: int = 3,
) -> list[ConvergenceRow]:
    """Solve the m = max(3, floor(n^r)) family over increasing n.

    Every row's spec is built first, so an invalid one raises before any
    row is solved.  With :func:`sweep_workers` k > 1, the largest row is
    solved in this process while a forked pool of k - 1 workers solves the
    others, largest first; the rows are independent, so the results do
    not depend on k.  A failed solve records its row with ``converged``
    False instead of aborting the sweep.  Rows come back in input order.
    """
    n_values = [int(n) for n in n_values]
    if any(n < 4 for n in n_values):
        raise ValueError("sweep requires n >= 4")
    if any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise ValueError("sweep requires strictly increasing n values")
    specs = [HemisphereSpec.from_exponent(n, r) for n in n_values]
    solve = functools.partial(
        _sweep_row, options=options, rho_mode=rho_mode, quad_order=quad_order
    )
    workers = sweep_workers(len(specs))
    if workers == 1:
        return [solve(spec) for spec in specs]
    # fork, not spawn: a spawned worker imports numpy and scipy again, which
    # takes about as long as the whole default sweep.  Leaving the block
    # terminates and joins the workers, also when a row raises, so no
    # process outlives the sweep.
    running = set(multiprocessing.active_children())
    with multiprocessing.get_context("fork").Pool(workers - 1) as pool:
        pool_workers = set(multiprocessing.active_children()) - running
        others = pool.map_async(solve, specs[-2::-1], chunksize=1)
        largest = solve(specs[-1])
        # A pool replaces a worker that dies (killed, out of memory) but
        # never finishes that worker's row, so waiting alone would hang.
        while not others.ready():
            for worker in pool_workers:
                if worker.exitcode is not None:
                    raise ChildProcessError(
                        f"sweep worker {worker.pid} exited with code "
                        f"{worker.exitcode} before its rows were solved"
                    )
            others.wait(0.05)
        return others.get()[::-1] + [largest]


DEFAULT_N_GRID = (8, 12, 16, 24, 32, 48, 64)


def fit_exponent(rows) -> FitResult:
    """Ordinary least squares on (log h, log rel_error).

    ``rel_error`` is the nodal error, so on the hemisphere the exponent is
    about 1.7 to 2, and that is the exponent ``diskmap converge`` writes
    to ``fit.txt``; the gradient error converges at about first order.

    Rows with folds, without convergence or with zero error are dropped;
    at least 3 must survive, with at least two distinct h, or
    InsufficientData is raised.
    """
    pts = []
    for row in rows:
        if not row.converged or row.fold_count > 0:
            continue
        if not math.isfinite(row.rel_error) or row.rel_error <= 0:
            continue
        pts.append((math.log(row.h), math.log(row.rel_error)))
    if len(pts) < 3:
        raise InsufficientData(f"only {len(pts)} usable rows for the fit")
    if len({x for x, _ in pts}) < 2:
        raise InsufficientData(f"all {len(pts)} usable rows have the same h")
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    return FitResult(
        exponent=float(slope),
        coefficient=float(math.exp(intercept)),
        residual=float(np.sqrt(np.mean(resid**2))),
        rows_used=len(pts),
    )


def emit_report(rows, fit: FitResult | None, out_dir) -> dict[str, str]:
    """Write the sweep CSV and plot-data files into `out_dir`, and
    ``fit.txt`` if `fit` is given (else remove one an earlier run left).

    Outputs are byte-stable for fixed row values: the volatile wall times
    are written to a separate timing log that is excluded from the
    deterministic set.  Returns the written paths keyed by kind.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {}

    def table(kind, name, names, sep=" ", end="\n", header=False):
        paths[kind] = os.path.join(out_dir, name)
        with open(paths[kind], "w", encoding="utf-8", newline="") as fh:
            if header:
                fh.write(sep.join(names) + end)
            write_rows(fh, [[getattr(row, n) for row in rows] for n in names], sep, end)

    sweep_fields = [f.name for f in fields(ConvergenceRow) if f.name != "wall_time"]
    table("sweep", "sweep.csv", sweep_fields, ",", "\r\n", header=True)
    table("error", "error_vs_h.dat", ["h", "rel_error"])
    table("energy", "energy_vs_h.dat", ["h", "energy_solution", "energy_reference"])

    fit_path = os.path.join(out_dir, "fit.txt")
    if fit is None:  # a previous run's fit does not describe these rows
        with contextlib.suppress(FileNotFoundError):
            os.remove(fit_path)
    else:
        with open(fit_path, "w", encoding="utf-8") as fh:
            fh.write(
                f"exponent {fit.exponent:.17g}\ncoefficient {fit.coefficient:.17g}\n"
                f"residual {fit.residual:.17g}\nrows_used {fit.rows_used}\n"
            )
        paths["fit"] = fit_path

    timing_path = os.path.join(out_dir, "timing.log")
    with open(timing_path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(f"n={row.n} m={row.m} wall_time={row.wall_time:.3f}s\n")
    paths["timing"] = timing_path
    return paths
