"""Acceptance suite: one check per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
The verdict lines always print the measured values, so a failing
criterion documents exactly how far the measurement landed from the
target.

Criteria 7 and 8 show the two sides of the convergence result.  Both
measure the relative gradient (H1-seminorm) error of the minimizer against
the stereographic map, the norm the conformal-energy analysis controls,
and print the nodal error beside it.  Criterion 7 fits the gradient error
of the r = 11/12 family to a first-order band; the nodal error, compared
vertex by vertex, converges about a full order faster (h^1.7 to h^2, as
piecewise-linear nodal values do), so it is only required to decrease.
Criterion 8 takes the r = 1/4 family, which keeps 3 meridians for every
n <= 80 and so never refines across longitude: its gradient error stays
put while the minimizer stays within 5% of the vertex interpolant, so the
non-convergence comes from the mesh and not from the solver.
"""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from diskmap import (
    HemisphereSpec,
    MinimizerOptions,
    assemble_beltrami,
    assemble_laplacian,
    build_bound_report,
    centered_pinv_norm,
    conformal_energy,
    dirac_source,
    dirichlet_energy,
    energy_gradient,
    face_nearest,
    fit_exponent,
    gen_hemisphere,
    quality_report,
    run_sweep,
    solve_beltrami,
    solve_hemisphere_case,
    solve_weak_lb,
    triangle_metrics,
    emit_report,
)
from diskmap.hemisphere import (
    sphere_gradient,
    sphere_point,
    stereographic_gradient,
)

from conftest import planar_disk_mesh, random_triangle
from oracles import (
    eigen_min_scan,
    estimate_map_grad_lipschitz,
    is_strictly_decreasing,
    per_triangle_dirichlet,
    per_triangle_dirichlet_matrix,
    stereographic_dirichlet_energy,
)

SOUTH = np.array([0.0, 0.0, -1.0])


def _verdict(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance {num:02d}] {description}: {status}  {detail}")
    return ok


def _solve_family(r, n_values):
    return [
        solve_hemisphere_case(HemisphereSpec.from_exponent(n, r)) for n in n_values
    ]


def _gradient_errors(cases):
    return [case.hemisphere.gradient_error(case.solution) for case in cases]


@pytest.fixture(scope="module")
def cases_11_12():
    return _solve_family(11 / 12, (8, 12, 16, 24, 32, 48, 64))


@pytest.fixture(scope="module")
def cases_quarter():
    return _solve_family(0.25, (8, 16, 32, 64))


def test_c01_cotangent_identity():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        dim = 2 if rng.uniform() < 0.5 else 3
        pts = random_triangle(rng, dim)
        geom = triangle_metrics(*pts)
        f = rng.normal(size=(3, 2))
        rho = rng.uniform(0.25, 4.0)
        a = per_triangle_dirichlet(f[0], f[1], f[2], geom, rho)
        b = per_triangle_dirichlet_matrix(f[0], f[1], f[2], *pts, rho)
        worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-300))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    assert _verdict(
        1,
        "per-triangle matrix vs cotangent form on 1000 random triangles",
        ok,
        f"worst rel gap {worst:.2e}, {elapsed:.2f}s",
    )


def test_c02_conformal_nonnegativity():
    rng = np.random.default_rng(102)
    meshes = [planar_disk_mesh(6, 9), planar_disk_mesh(4, 12)]
    worst = np.inf
    for mesh in meshes:
        lap = assemble_laplacian(mesh, rho_mode="unit")
        identity = conformal_energy(mesh, lap, mesh.vertices[:, :2]).conformal
        assert abs(identity) <= 1e-10
        for _ in range(500):
            f = rng.normal(size=(mesh.num_vertices, 2))
            worst = min(worst, conformal_energy(mesh, lap, f).conformal)
    ok = worst >= -1e-10
    assert _verdict(
        2,
        "conformal energy nonnegative over 1000 random planar maps",
        ok,
        f"min energy {worst:.3e}",
    )


def test_c03_eigen_scan():
    rng = np.random.default_rng(103)
    start = time.perf_counter()
    worst_cells = 0.0
    for _ in range(100):
        columns = rng.normal(size=(2, 3)) * rng.uniform(0.5, 2.0) + rng.normal(
            size=(2, 1)
        )
        report = eigen_min_scan(columns, grid_resolution=101)
        worst_cells = max(worst_cells, float(report.cell_distances.max()))
    elapsed = time.perf_counter() - start
    ok = worst_cells <= 2.0 and elapsed < 10.0
    assert _verdict(
        3,
        "centered-Gram eigenvalue minima sit at the column mean",
        ok,
        f"worst distance {worst_cells:.1f} cells, {elapsed:.1f}s",
    )


def test_c04_pinv_norm_closed_form():
    rng = np.random.default_rng(104)
    worst_rel = 0.0
    worst_slack = np.inf
    for _ in range(50):
        tri = random_triangle(rng, 2)
        closed = centered_pinv_norm(tri)
        centered = tri.T - tri.mean(axis=0)[:, None]
        numeric = np.linalg.norm(np.linalg.pinv(centered), 2)
        worst_rel = max(worst_rel, abs(closed - numeric) / numeric)
        for _ in range(200):
            w = rng.dirichlet(np.ones(3)) @ tri
            sample = np.linalg.norm(np.linalg.pinv(tri.T - w[:, None]), 2)
            worst_slack = min(worst_slack, closed + 1e-10 - sample)
    ok = worst_rel <= 1e-10 and worst_slack >= 0
    assert _verdict(
        4,
        "centered pseudoinverse norm closed form and dominance",
        ok,
        f"worst rel {worst_rel:.2e}, min slack {worst_slack:.2e}",
    )


def test_c05_bound_soundness():
    continuous = stereographic_dirichlet_energy(80, 80)
    pi_ok = abs(continuous - math.pi) <= 1e-4 * math.pi
    rng = np.random.default_rng(105)
    sound = True
    detail = [f"quadrature energy {continuous:.6f} vs pi"]
    for n in (8, 16):
        hemi = gen_hemisphere(HemisphereSpec.from_exponent(n, 11 / 12))
        mesh = hemi.mesh
        cfg_geom = hemi.bounds_config(1.0)
        for t in range(mesh.num_faces):
            tri = np.asarray(hemi.param_tris[t])
            geom = triangle_metrics(tri[0], tri[1], tri[2])
            tau_bound = cfg_geom.grad_lipschitz * geom.diameter**2
            tilt_bound = (
                3.0
                * cfg_geom.grad_lipschitz
                * geom.diameter**3
                / (cfg_geom.sigma_min * geom.area)
            )
            frame = triangle_metrics(*mesh.face_points(t))
            anchor = np.asarray(mesh.face_points(t)[0])
            for _ in range(6):
                w = rng.dirichlet(np.ones(3)) @ tri
                x = sphere_point(w)
                tau = abs(float(frame.normal @ (x - anchor)))
                if tau > tau_bound + 1e-9:
                    sound = False
                if w[1] < math.pi - 1e-9:
                    basis = sphere_gradient(w) @ np.diag(
                        [1.0 / math.sin(w[1]), 1.0]
                    )
                    tilt = np.linalg.norm(frame.normal @ basis)
                    if tilt > tilt_bound + 1e-9:
                        sound = False

        lap = assemble_laplacian(
            mesh,
            rho_mode="quadrature",
            surface=hemi.surface,
            param_cells=hemi.param_cells,
        )
        reference = hemi.reference_map()
        discrete = dirichlet_energy(lap, reference)
        params = [None] * mesh.num_vertices
        for t, tri in enumerate(hemi.param_tris):
            for vid, w in zip(mesh.faces[t], np.asarray(tri)):
                params[vid] = w

        def grad_at(i):
            w = params[i]
            return stereographic_gradient((w[0], min(w[1], math.pi - 1e-6)))

        cfg = hemi.bounds_config(estimate_map_grad_lipschitz(mesh, grad_at))
        report = build_bound_report(mesh, hemi.param_tris, cfg, dirichlet_value=discrete)
        gap = abs(continuous - discrete)
        if gap > report.energy_error:
            sound = False
        detail.append(f"n={n}: |E-E_h|={gap:.2e} <= bound {report.energy_error:.2e}")
    ok = pi_ok and sound
    assert _verdict(5, "sampled bounds and energy-error bound are sound", ok, "; ".join(detail))


def test_c06_condition_dichotomy():
    start = time.perf_counter()
    good, bad = [], []
    for n in (8, 16, 32, 64):
        good.append(
            quality_report(
                gen_hemisphere(HemisphereSpec.from_exponent(n, 11 / 12)).mesh
            ).max_diam_over_sin
        )
        bad.append(
            quality_report(
                gen_hemisphere(HemisphereSpec.from_exponent(n, 0.25)).mesh
            ).max_diam_over_sin
        )
    elapsed = time.perf_counter() - start
    ok = is_strictly_decreasing(good) and bad[-1] >= 0.5 * bad[0] and elapsed < 30
    assert _verdict(
        6,
        "diameter-over-angle dichotomy across the two families",
        ok,
        f"good {['%.2f' % v for v in good]}, bad {['%.1f' % v for v in bad]}, {elapsed:.0f}s",
    )


def test_c07_convergence_sweep(cases_11_12):
    rows = [case.row for case in cases_11_12]
    errs = [row.rel_error for row in rows]
    grads = _gradient_errors(cases_11_12)
    decreasing = all(b < a for a, b in zip(errs, errs[1:]))
    nodal = fit_exponent(rows)
    # fit_exponent fits each row's rel_error; hand it the gradient errors.
    fit = fit_exponent([replace(row, rel_error=g) for row, g in zip(rows, grads)])
    in_band = 0.9 <= fit.exponent <= 1.3
    total_time = sum(row.wall_time for row in rows)
    ok = decreasing and in_band and total_time < 600
    assert _verdict(
        7,
        "thinning-family sweep: decreasing nodal error, gradient exponent in [0.9, 1.3]",
        ok,
        f"nodal errors decreasing={decreasing}, nodal exponent {nodal.exponent:.4f} "
        f"({errs[0]:.4g} -> {errs[-1]:.4g}), gradient exponent {fit.exponent:.4f} "
        f"({grads[0]:.4f} -> {grads[-1]:.4f}), {total_time:.0f}s",
    )


def test_c08_overfitting_regime(cases_quarter):
    rows = [case.row for case in cases_quarter]
    first, last = rows[0], rows[-1]
    grads = _gradient_errors(cases_quarter)
    interp = [case.hemisphere.gradient_error(case.reference) for case in cases_quarter]
    energy_gap = abs(first.energy_solution - first.energy_reference) / abs(
        first.energy_reference
    )
    agree = energy_gap <= 0.1
    # Converging at first order would cut the gradient error about 8-fold
    # from n=8 to n=64; the degenerate family keeps at least half of it.
    stalled = grads[-1] >= 0.5 * grads[0]
    # The minimizer does as well as the stereographic map's own vertex
    # values on every mesh, so the stall is the mesh's, not the solver's.
    solver_gap = max(abs(g - i) / i for g, i in zip(grads, interp))
    matches_interpolant = solver_gap <= 0.05
    ok = agree and stalled and matches_interpolant
    assert _verdict(
        8,
        "degenerate family: energies agree when coarse, gradient error does not converge",
        ok,
        f"smallest n energy gap {energy_gap:.3f}, h {first.h:.4f} -> {last.h:.4f} "
        f"(no exponent), nodal {first.rel_error:.4g} -> {last.rel_error:.4g}, "
        f"gradient {grads[0]:.4f} -> {grads[-1]:.4f} "
        f"(interpolant {interp[0]:.4f} -> {interp[-1]:.4f}, worst gap {solver_gap:.2%})",
    )


def test_c09_weak_point_source_solve():
    hemi = gen_hemisphere(HemisphereSpec.from_exponent(8, 11 / 12))
    mesh = hemi.mesh
    lap = assemble_laplacian(mesh, rho_mode="unit")
    source = dirac_source(mesh, face_nearest(mesh, SOUTH))
    three_rows = int((np.abs(source).sum(axis=1) > 0).sum()) == 3

    def pinned(pin):
        # The map and the relative residual of the system with `pin` removed.
        f = solve_weak_lb(lap, source, pin_vertex=pin)
        keep = np.delete(np.arange(mesh.num_vertices), pin)
        gap = lap.matrix[keep][:, keep] @ f[keep] - source[keep]
        return f, float(np.linalg.norm(gap) / np.linalg.norm(source[keep]))

    (a, res_a), (b, res_b) = pinned(0), pinned(11)
    diff = a - b
    gauge_gap = float(np.abs(diff - diff.mean(axis=0)).max())
    ok = three_rows and res_a <= 1e-10 and res_b <= 1e-10 and gauge_gap <= 1e-9
    assert _verdict(
        9,
        "weak point-source solve: 3 source rows, tiny residual, gauge free",
        ok,
        f"residuals {res_a:.1e}/{res_b:.1e}, gauge gap {gauge_gap:.1e}",
    )


def test_c10_beltrami_reduction_and_refinement():
    mesh = planar_disk_mesh(6, 9)
    rows = assemble_beltrami(mesh, np.zeros((mesh.num_faces, 2)))
    lap = assemble_laplacian(mesh, rho_mode="unit")
    reference = lap.matrix[mesh.interior_vertices()].toarray()
    assembled = rows.toarray()
    scale = np.abs(reference).max()
    gap = min(
        np.abs(assembled - reference).max(), np.abs(assembled + reference).max()
    )
    reduction_ok = gap <= 1e-10 * scale

    errors = []
    for n, m in ((6, 9), (12, 18)):
        fine = planar_disk_mesh(n, m)
        exact = np.column_stack(
            [
                fine.vertices[:, 0] ** 2 - fine.vertices[:, 1] ** 2,
                2.0 * fine.vertices[:, 0] * fine.vertices[:, 1],
            ]
        )
        g = solve_beltrami(
            fine,
            np.zeros((fine.num_faces, 2)),
            exact[fine.boundary_vertices],
        )
        errors.append(np.abs(g - exact).max())
    refinement_ok = errors[1] <= errors[0] / 2
    ok = reduction_ok and refinement_ok
    assert _verdict(
        10,
        "zero-coefficient reduction and harmonic-pair refinement",
        ok,
        f"entrywise gap {gap:.2e}, errors {errors[0]:.2e} -> {errors[1]:.2e}",
    )


def test_c11_gradient_check():
    hemi = gen_hemisphere(HemisphereSpec.from_exponent(6, 11 / 12))
    mesh = hemi.mesh
    lap = assemble_laplacian(
        mesh, rho_mode="quadrature", surface=hemi.surface, param_cells=hemi.param_cells
    )
    rng = np.random.default_rng(111)
    step = 1e-6
    worst = 0.0
    for _ in range(50):
        f = rng.normal(size=(mesh.num_vertices, 2))
        grad = energy_gradient(mesh, lap, f)
        v = int(rng.integers(0, mesh.num_vertices))
        c = int(rng.integers(0, 2))
        fp, fm = f.copy(), f.copy()
        fp[v, c] += step
        fm[v, c] -= step
        fd = (
            conformal_energy(mesh, lap, fp).conformal
            - conformal_energy(mesh, lap, fm).conformal
        ) / (2 * step)
        worst = max(worst, abs(grad[v, c] - fd) / max(1.0, abs(grad[v, c])))
    ok = worst <= 1e-5
    assert _verdict(
        11,
        "energy gradient matches central differences on 50 instances",
        ok,
        f"worst rel gap {worst:.2e}",
    )


def test_c12_determinism(tmp_path):
    blobs = []
    for tag in ("a", "b"):
        rows = run_sweep(11 / 12, (4, 6, 8))
        paths = emit_report(rows, None, tmp_path / tag)
        blobs.append(
            tuple(Path(paths[k]).read_bytes() for k in ("sweep", "error", "energy"))
        )
    ok = blobs[0] == blobs[1]
    assert _verdict(12, "repeated sweeps emit byte-identical reports", ok, "")
