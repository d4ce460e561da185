"""Command-line front end.

Exit codes: 0 success, 1 numerical failure (a report is still written
when possible) or an input file that cannot be used, 2 usage or I/O
errors, flag values outside their domain and flags the run would not
read (``--quad-order`` off quadrature weights, ``--r`` with ``--m``)
included.  ``solve`` exits 1 when its final map folds a face or puts
the boundary out of cyclic order, even where the gradient test passed.
Any ``DiskmapError`` raised while reading an input file (OFF mesh,
``mu.csv``, ``boundary.csv``), a degenerate face of a ``--mesh`` file
and a ``beltrami`` mesh vertex in no face included, prints as ``input
error: ...`` and every other one as ``numerical failure: ...``; both
exit 1.  An argument ``@path`` is a run manifest: argparse replaces it
by the file's lines, one argument per line (``--r=0.9166667``; the
subcommand may be one of them), and converts and checks them like the
command line's.  A later argument overrides an earlier one.  Reports go
to ``--out-dir``, by default the working directory.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import __version__
from .beltrami import planar_vertices, read_boundary_csv, read_mu_csv, solve_beltrami
from .bounds import build_bound_report, quality_csv, quality_report, scan_degraded_faces
from .errors import DiskmapError, ParseError
from .experiments import (
    DEFAULT_N_GRID,
    emit_report,
    fit_exponent,
    hemisphere_laplacian,
    run_sweep,
    solve_hemisphere_case,
    sweep_workers,
)
from .harmonic import disk_initial_guess, face_nearest
from .hemisphere import HemisphereSpec, gen_hemisphere
from .laplacian import assemble_laplacian, dirichlet_energy
from .mesh import load_mesh, require_disk, save_mesh, write_rows
from .minimizer import MinimizerOptions, minimize

USAGE_ERROR = 2
NUMERICAL_ERROR = 1


def _out_root(args):
    root = args.out_dir or "."
    os.makedirs(root, exist_ok=True)
    return root


def _hemisphere_spec(args):
    if args.n is None:
        raise argparse.ArgumentTypeError("need either --mesh or --n")
    if args.m is not None:
        if args.r is not None:
            raise argparse.ArgumentTypeError("--r does not apply with --m")
        return HemisphereSpec.from_counts(args.n, args.m)
    if args.r is not None:
        return HemisphereSpec.from_exponent(args.n, args.r)
    raise argparse.ArgumentTypeError("need either --m or --r with --n")


def _weight_flags(args):
    """The area-ratio mode and quadrature order of a generated hemisphere:
    ``--rho`` (default quadrature) and ``--quad-order`` (default 3), which
    any mode but quadrature refuses rather than ignores."""
    rho = args.rho or "quadrature"
    if args.quad_order is None:
        return rho, 3
    if rho != "quadrature":
        raise argparse.ArgumentTypeError(f"--quad-order does not apply to --rho {rho}")
    return rho, args.quad_order


def _boundary_out_of_order(mesh, f) -> int:
    """Boundary vertices whose image's angle step to the next vertex along
    ``mesh.boundary_loops()[0]`` is <= 0 (0 when the boundary runs round
    the circle in the loop's order)."""
    z = f[mesh.boundary_loops()[0]] @ np.array([1.0, 1j])
    return int(np.sum(np.angle(np.roll(z, -1) * np.conj(z)) <= 0))


def _minimizer_options(args):
    return MinimizerOptions(
        max_iterations=args.max_iterations, gradient_tolerance=args.grad_tol
    )


def _read(reader, *args):
    """Call an input-file reader; a fault it finds is the file's, so any
    ``DiskmapError`` is re-raised as a ``ParseError``."""
    try:
        return reader(*args)
    except DiskmapError as exc:
        raise ParseError(str(exc)) from exc


def _write_vertex_map(path, values):
    """Write the (n, 2) vertex images `values` as ``vertex,x,y`` rows
    (``map.csv``, ``beltrami.csv``)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("vertex,x,y\n")
        write_rows(fh, [np.arange(len(values)), *values.T], end="\n")


def cmd_gen(args):
    spec = _hemisphere_spec(args)
    hemi = gen_hemisphere(spec)
    save_mesh(hemi.mesh, args.out)
    print(f"wrote {args.out}: {hemi.mesh.num_vertices} vertices, {hemi.mesh.num_faces} faces")
    return 0


def _load_or_generate(args, weights=None):
    """Either an OFF mesh (unit weights only), measured once to refuse a
    degenerate face, or a generated hemisphere's mesh.

    With ``--mesh``, a flag that only a generated hemisphere reads is
    refused rather than ignored: ``--n``, ``--m``, ``--r``, and each flag
    in `weights` (flag -> value) whose value is not None.
    """
    if args.mesh is None:
        return gen_hemisphere(_hemisphere_spec(args)).mesh
    given = {"--n": args.n, "--m": args.m, "--r": args.r, **(weights or {})}
    conflicts = [flag for flag, value in given.items() if value is not None]
    if conflicts:
        raise argparse.ArgumentTypeError(f"{conflicts[0]} does not apply to --mesh")
    mesh = _read(load_mesh, args.mesh)
    _read(lambda: mesh.geometry)  # a degenerate face is the file's fault too
    return mesh


def cmd_solve(args):
    if args.mesh is None:
        spec, weights = _hemisphere_spec(args), _weight_flags(args)
        case = solve_hemisphere_case(spec, _minimizer_options(args), *weights, args.source_face)
        mesh, report = case.hemisphere.mesh, case.report
    else:
        # solve leaves --rho unset (see build_parser): --mesh takes unit
        # weights only, and a hemisphere defaults to quadrature, order 3.
        rho = None if args.rho == "unit" else args.rho
        mesh = _load_or_generate(args, {f"--rho {rho}": rho, "--quad-order": args.quad_order})
        _read(require_disk, mesh)
        laplacian = assemble_laplacian(mesh, rho_mode="unit")
        source = args.source_face
        if source is None:
            source = face_nearest(mesh, mesh.vertices.mean(axis=0))
        init = disk_initial_guess(mesh, laplacian, source)
        report = minimize(mesh, laplacian, init, _minimizer_options(args))
    root = _out_root(args)
    _write_vertex_map(os.path.join(root, "map.csv"), report.final_map)
    report.write_trace(os.path.join(root, "trace.csv"))
    final = report.energy_trace[-1]
    print(
        f"energy: dirichlet={final.dirichlet:.12g} area={final.area:.12g} "
        f"conformal={final.conformal:.12g}"
    )
    print(
        f"iterations={report.iterations} converged={report.converged} "
        f"folds={report.fold_count} stop: {report.message}"
    )
    disordered = _boundary_out_of_order(mesh, report.final_map)
    if report.fold_count or disordered:
        print(
            f"numerical failure: the map is folded: {report.fold_count} faces with "
            f"negative area, {disordered} boundary vertices out of cyclic order",
            file=sys.stderr,
        )
        return NUMERICAL_ERROR
    return 0 if report.converged else NUMERICAL_ERROR


def cmd_quality(args):
    mesh = _load_or_generate(args)
    quality = quality_report(mesh)
    flagged = scan_degraded_faces(mesh, args.short_ratio, args.near_equal)
    root = _out_root(args)
    path = os.path.join(root, "quality.csv")
    quality_csv(quality, path, flagged)
    print(
        f"max diam={quality.max_diam:.6g} max d/sin={quality.max_diam_over_sin:.6g} "
        f"degraded={len(flagged)}"
    )
    print(f"wrote {path}")
    return 0


def cmd_bounds(args):
    weights = _weight_flags(args)
    hemi = gen_hemisphere(_hemisphere_spec(args))
    energy = dirichlet_energy(hemisphere_laplacian(hemi, *weights), hemi.reference_map())
    report = build_bound_report(
        hemi.mesh,
        hemi.param_tris,
        hemi.bounds_config(args.cl),
        dirichlet_value=energy,
        certified_mask=~hemi.pole_faces,
    )
    root = _out_root(args)
    path = os.path.join(root, "bounds.csv")
    report.write_csv(path)
    print(
        f"factor_max={report.factor_max:.6g} offset_max={report.offset_max:.6g} "
        f"energy_error_bound={report.energy_error:.6g}"
    )
    print(f"wrote {path}")
    return 0


def cmd_converge(args):
    rho_mode, quad_order = _weight_flags(args)
    start = time.perf_counter()
    rows = run_sweep(
        args.r,
        args.n_list,
        options=_minimizer_options(args),
        rho_mode=rho_mode,
        quad_order=quad_order,
    )
    total = time.perf_counter() - start
    fit = None
    try:
        fit = fit_exponent(rows)
    except DiskmapError:
        pass
    root = _out_root(args)
    run_dir = os.path.join(
        root,
        f"sweep_r{args.r:g}_n{args.n_list[0]}-{args.n_list[-1]}_{args.rho}",
    )
    paths = emit_report(rows, fit, run_dir)
    with open(paths["timing"], "a", encoding="utf-8") as fh:
        fh.write(f"workers={sweep_workers(len(rows))} total_wall_time={total:.3f}s\n")
    for row in rows:
        print(
            f"n={row.n} m={row.m} h={row.h:.4g} err={row.rel_error:.6g} "
            f"E={row.energy_solution:.6g} E_ref={row.energy_reference:.6g} "
            f"converged={row.converged}"
        )
    if fit is not None:
        print(f"fit exponent={fit.exponent:.4f} over {fit.rows_used} rows")
    print(f"wrote {paths['sweep']}")
    return 0 if all(r.converged for r in rows) else NUMERICAL_ERROR


def cmd_beltrami(args):
    mesh = _read(load_mesh, args.mesh)
    _read(planar_vertices, mesh)
    mu = _read(read_mu_csv, args.mu, mesh.num_faces)
    boundary = _read(read_boundary_csv, args.boundary, mesh)
    solution = solve_beltrami(mesh, mu, boundary)
    root = _out_root(args)
    path = os.path.join(root, "beltrami.csv")
    _write_vertex_map(path, solution)
    print(f"wrote {path}")
    return 0


def _int_list(text):
    """``--n-list``'s value: comma-separated integers."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _add_hemisphere_args(p, require=False):
    p.add_argument("--n", type=int, help="latitude ring count", required=require)
    p.add_argument("--m", type=int, help="meridian count")
    p.add_argument("--r", type=float, help="meridian exponent: m = max(3, floor(n^r))")


def _add_rho_args(p):
    p.add_argument(
        "--rho",
        choices=("unit", "quadrature", "analytic"),
        default="quadrature",
        help="area-ratio weight mode for generated surfaces",
    )
    p.add_argument(
        "--quad-order", type=int, dest="quad_order", help="quadrature weights only (default 3)"
    )


def _add_minimizer_args(p):
    p.add_argument("--max-iterations", type=int, default=2000, dest="max_iterations")
    p.add_argument("--grad-tol", type=float, default=1e-6, dest="grad_tol")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="diskmap",
        description="discrete conformal disk maps with certified error bounds",
        fromfile_prefix_chars="@",
    )
    parser.add_argument("--version", action="version", version=f"diskmap {__version__}")
    parser.add_argument("--out-dir", dest="out_dir", help="output directory root")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a hemisphere mesh as OFF")
    _add_hemisphere_args(p, require=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="harmonic init then disk minimization")
    p.add_argument("--mesh", help="OFF mesh path (unit weights)")
    _add_hemisphere_args(p)
    _add_rho_args(p)
    _add_minimizer_args(p)
    p.add_argument("--source-face", type=int, dest="source_face")
    p.set_defaults(func=cmd_solve, rho=None)

    p = sub.add_parser("quality", help="per-face shape diagnostics")
    p.add_argument("--mesh")
    _add_hemisphere_args(p)
    p.add_argument("--short-ratio", type=float, default=0.1, dest="short_ratio")
    p.add_argument("--near-equal", type=float, default=0.1, dest="near_equal")
    p.set_defaults(func=cmd_quality)

    p = sub.add_parser("bounds", help="per-face error bounds for a hemisphere")
    _add_hemisphere_args(p, require=True)
    _add_rho_args(p)
    p.add_argument("--cl", type=float, default=1.0, help="map-gradient Lipschitz constant")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("converge", help="resolution sweep against the exact flatten")
    p.add_argument("--r", type=float, required=True)
    p.add_argument(
        "--n-list",
        dest="n_list",
        type=_int_list,
        default=list(DEFAULT_N_GRID),
        help="comma-separated ring counts",
    )
    _add_rho_args(p)
    _add_minimizer_args(p)
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("beltrami", help="solve the per-face coefficient system")
    p.add_argument("--mesh", required=True)
    p.add_argument("--mu", required=True, help="CSV: face,mu1,mu2")
    p.add_argument("--boundary", required=True, help="CSV: vertex,x,y")
    p.set_defaults(func=cmd_beltrami)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except DiskmapError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
