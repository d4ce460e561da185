import csv
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from diskmap import (
    ConformalEnergy,
    DimensionMismatch,
    EnergyBreakdown,
    HemisphereSpec,
    InvalidTopology,
    MinimizerOptions,
    SolveReport,
    ZeroReference,
    TriMesh,
    assemble_laplacian,
    conformal_energy,
    disk_initial_guess,
    energy_gradient,
    face_nearest,
    gen_hemisphere,
    minimize,
    minimizer,
    normalize_map,
    relative_error,
)

from conftest import annulus_mesh, planar_disk_mesh


def hemi_with_laplacian(n, r=11 / 12, rho="quadrature"):
    hemi = gen_hemisphere(HemisphereSpec.from_exponent(n, r))
    lap = assemble_laplacian(
        hemi.mesh, rho_mode=rho, surface=hemi.surface, param_cells=hemi.param_cells
    )
    return hemi, lap


class TestEnergyGradient:
    def test_constant_map_has_zero_gradient(self, square_mesh):
        lap = assemble_laplacian(square_mesh)
        f = np.tile([0.3, 0.8], (4, 1))
        assert np.abs(energy_gradient(square_mesh, lap, f)).max() <= 1e-14

    def test_identity_is_critical_on_planar_disk(self):
        mesh = planar_disk_mesh(8, 12)
        lap = assemble_laplacian(mesh)
        grad = energy_gradient(mesh, lap, mesh.vertices)
        # identity attains the zero lower bound, so the full gradient
        # vanishes, interior rows exactly
        interior = mesh.interior_vertices()
        assert np.abs(grad[interior]).max() <= 1e-10
        assert np.abs(grad).max() <= 1e-9

    def test_matches_finite_differences(self):
        hemi, lap = hemi_with_laplacian(6, 11 / 12)
        mesh = hemi.mesh
        rng = np.random.default_rng(0)
        step = 1e-6
        for _ in range(50):
            f = rng.normal(size=(mesh.num_vertices, 2))
            grad = energy_gradient(mesh, lap, f)
            for _ in range(3):
                v = rng.integers(0, mesh.num_vertices)
                c = rng.integers(0, 2)
                fp, fm = f.copy(), f.copy()
                fp[v, c] += step
                fm[v, c] -= step
                fd = (
                    conformal_energy(mesh, lap, fp).conformal
                    - conformal_energy(mesh, lap, fm).conformal
                ) / (2 * step)
                scale = max(1.0, abs(grad[v, c]))
                assert abs(grad[v, c] - fd) <= 1e-5 * scale

    def test_dimension_mismatch(self, square_mesh):
        lap = assemble_laplacian(square_mesh)
        with pytest.raises(DimensionMismatch):
            energy_gradient(square_mesh, lap, np.zeros((2, 2)))


class TestMinimize:
    def test_planar_identity_converges_immediately(self):
        mesh = planar_disk_mesh(8, 12)
        lap = assemble_laplacian(mesh)
        report = minimize(mesh, lap, mesh.vertices, MinimizerOptions(gradient_tolerance=1e-6))
        assert report.converged
        assert report.iterations <= 1
        assert abs(report.energy_trace[-1].conformal) <= 1e-9

    def test_reference_init_dominance(self):
        hemi, lap = hemi_with_laplacian(16)
        reference = hemi.reference_map()
        report = minimize(hemi.mesh, lap, reference)
        start = conformal_energy(hemi.mesh, lap, reference).conformal
        assert report.energy_trace[-1].conformal <= start + 1e-12
        assert report.converged

    def test_monotone_energy_and_feasibility(self):
        hemi, lap = hemi_with_laplacian(8)
        reference = hemi.reference_map()
        report = minimize(hemi.mesh, lap, reference)
        energies = [e.conformal for e in report.energy_trace]
        assert all(b <= a + 1e-15 for a, b in zip(energies, energies[1:]))
        radii = np.linalg.norm(report.final_map[hemi.mesh.boundary_vertices], axis=1)
        assert np.abs(radii - 1.0).max() <= 1e-12

    def test_dominance_from_any_feasible_init(self):
        hemi, lap = hemi_with_laplacian(8)
        mesh = hemi.mesh
        rng = np.random.default_rng(1)
        init = rng.normal(scale=0.3, size=(mesh.num_vertices, 2))
        boundary = mesh.boundary_vertices
        angles = np.linspace(0, 2 * math.pi, len(boundary), endpoint=False)
        init[boundary] = np.column_stack([np.cos(angles), np.sin(angles)])
        start = conformal_energy(mesh, lap, init).conformal
        report = minimize(mesh, lap, init)
        assert report.energy_trace[-1].conformal <= start + 1e-12

    def test_boundary_far_from_circle_rejected(self):
        hemi, lap = hemi_with_laplacian(8)
        bad = hemi.reference_map() * 1.5
        with pytest.raises(ValueError):
            minimize(hemi.mesh, lap, bad)

    @pytest.mark.parametrize("tolerance", [0.0, -1e-6, math.nan, math.inf])
    def test_gradient_tolerance_finite_and_positive(self, tolerance):
        with pytest.raises(ValueError, match="must be finite and positive"):
            MinimizerOptions(gradient_tolerance=tolerance)

    def test_zero_iteration_budget(self):
        hemi, lap = hemi_with_laplacian(8)
        reference = hemi.reference_map()
        report = minimize(
            hemi.mesh, lap, reference, MinimizerOptions(max_iterations=0)
        )
        assert not report.converged
        assert report.iterations == 0
        assert len(report.energy_trace) == 1

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_reported_energy_is_the_energy_of_the_map(self, n):
        # one evaluation of the energy: conformal_energy of the final map
        # is the last traced breakdown, bit for bit
        hemi, lap = hemi_with_laplacian(n)
        report = minimize(hemi.mesh, lap, hemi.reference_map())
        assert conformal_energy(hemi.mesh, lap, report.final_map) == report.energy_trace[-1]

    def test_disk_without_interior_vertices(self):
        # a hexagon stretched twofold along x, fanned from vertex 0: only
        # boundary angles are free, so the preconditioner is the diagonal
        angles = np.arange(6) * math.pi / 3
        vertices = np.column_stack([2 * np.cos(angles), np.sin(angles)])
        mesh = TriMesh(vertices, [[0, k, k + 1] for k in range(1, 5)])
        assert len(mesh.interior_vertices()) == 0
        lap = assemble_laplacian(mesh)
        init = vertices / np.linalg.norm(vertices, axis=1, keepdims=True)
        report = minimize(mesh, lap, init)
        assert report.converged
        assert report.energy_trace[-1].conformal == pytest.approx(0.44752845463440805, abs=1e-13)

    def test_deterministic(self):
        hemi, lap = hemi_with_laplacian(8)
        reference = hemi.reference_map()
        a = minimize(hemi.mesh, lap, reference)
        b = minimize(hemi.mesh, lap, reference)
        assert np.array_equal(a.final_map, b.final_map)
        assert a.iterations == b.iterations

    def test_trace_csv(self, tmp_path):
        hemi, lap = hemi_with_laplacian(8)
        report = minimize(hemi.mesh, lap, hemi.reference_map())
        path = tmp_path / "trace.csv"
        report.write_trace(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iteration,dirichlet,area,conformal,grad_norm,folds"
        assert len(lines) == len(report.energy_trace) + 1

    def test_trace_csv_bytes(self, tmp_path):
        # more iterates than one block of rows, with extreme values; the
        # expected bytes are csv.writer's for 17-digit strings
        rng = np.random.default_rng(5)
        count = 1500
        values = rng.standard_normal((count, 3)) * 10.0 ** rng.integers(-30, 30, (count, 3))
        values[:5, 0] = [-0.0, 5e-324, 1e300, math.inf, math.nan]
        report = SolveReport(
            final_map=np.zeros((3, 2)),
            energy_trace=[EnergyBreakdown(d, a) for d, a in values[:, :2].tolist()],
            gradient_norms=list(values[:, 2]),
            fold_trace=rng.integers(0, 4, count).tolist(),
            iterations=count - 1,
            converged=False,
            message="iteration cap reached",
            energy_evaluations=count,
        )
        report.write_trace(tmp_path / "trace.csv")
        with open(tmp_path / "expected.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "dirichlet", "area", "conformal", "grad_norm", "folds"])
            for it, (e, g, folds) in enumerate(
                zip(report.energy_trace, report.gradient_norms, report.fold_trace)
            ):
                energies = (e.dirichlet, e.area, e.conformal, g)
                writer.writerow([it, *(f"{x:.17g}" for x in energies), folds])
        assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()


class TestDot:
    """The minimizer's reductions: ``a @ b`` where OpenBLAS keeps one
    thread, fixed-size blocks summed in order above that."""

    @pytest.mark.parametrize("size", [1, 2, 7, 100, 5717, 8191, 8192])
    def test_equals_matmul_up_to_the_block(self, size):
        rng = np.random.default_rng(size)
        a, b = rng.normal(size=(2, size))
        assert minimizer._dot(a, b) == a @ b
        assert minimizer._norm(a) == np.linalg.norm(a)

    @pytest.mark.parametrize("size", [8193, 12417, 3 * 8192, 40000])
    def test_sums_blocks_in_order_above_it(self, size):
        rng = np.random.default_rng(size)
        a, b = rng.normal(size=(2, size))
        total = 0.0
        for start in range(0, size, 8192):
            total += float(a[start : start + 8192] @ b[start : start + 8192])
        assert minimizer._dot(a, b) == total
        assert minimizer._norm(a) == math.sqrt(minimizer._dot(a, a))
        assert minimizer._dot(a, b) == pytest.approx(a @ b, rel=1e-12)


class TestDiskProblem:
    def test_flat_index_matches_row_indexing(self):
        hemi, lap = hemi_with_laplacian(8)
        mesh = hemi.mesh
        problem = minimizer._DiskProblem(mesh, lap)
        rng = np.random.default_rng(3)
        x = rng.normal(size=2 * problem.n_int + len(mesh.boundary_vertices))
        f, theta = problem.assemble(x)
        assert np.array_equal(f[problem.interior].ravel(), x[: 2 * problem.n_int])
        g = rng.normal(size=(mesh.num_vertices, 2))
        tangent = np.column_stack([-np.sin(theta), np.cos(theta)])
        expected = np.concatenate(
            [g[problem.interior].ravel(), np.sum(g[mesh.boundary_vertices] * tangent, axis=1)]
        )
        assert np.array_equal(problem.reduce(g, theta), expected)


def _solve_bytes(out_dir, threads):
    """`map.csv`, `trace.csv` and stdout of the n = 96 hemisphere solve in a
    fresh interpreter with `threads` BLAS threads."""
    src = os.path.dirname(os.path.dirname(minimizer.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(threads)
    out_dir.mkdir()
    done = subprocess.run(
        [sys.executable, "-m", "diskmap.cli", "--out-dir", str(out_dir),
         "solve", "--n", "96", "--r", "0.9166667"],
        env=env, capture_output=True, check=True,
    )
    return (out_dir / "map.csv").read_bytes(), (out_dir / "trace.csv").read_bytes(), done.stdout


def test_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    mesh = gen_hemisphere(HemisphereSpec.from_exponent(96, 0.9166667)).mesh
    reduced = 2 * len(mesh.interior_vertices()) + len(mesh.boundary_vertices)
    # Long enough for OpenBLAS to split a plain `a @ b` across threads.
    assert reduced > 10000
    one = _solve_bytes(tmp_path / "one", 1)
    two = _solve_bytes(tmp_path / "two", 2)
    assert one == two


STALL = "no step lowers the energy at double precision"


@pytest.fixture(scope="module")
def thin_run():
    """The r = 0.25, n = 256 hemisphere solved from its harmonic init, and
    every energy breakdown the solve evaluated, in order."""
    hemi, lap = hemi_with_laplacian(256, 0.25)
    source = face_nearest(hemi.mesh, np.array([0.0, 0.0, -1.0]))
    init = disk_initial_guess(hemi.mesh, lap, source)
    evaluated = []
    evaluate = ConformalEnergy.evaluate

    def counted(self, f):
        point = evaluate(self, f)
        evaluated.append(point.energy)
        return point

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ConformalEnergy, "evaluate", counted)
        report = minimize(hemi.mesh, lap, init)
    return report, evaluated


@pytest.fixture(scope="module")
def thin_solve(thin_run):
    return thin_run[0]


class TestStop:
    def test_thin_hemisphere_stops_at_the_energy_floor(self, thin_solve):
        # the line search reaches the rounding floor near iteration 40 with
        # the gradient at 1.2e-6; the run used to accept unchanged energies
        # up to the cap
        assert thin_solve.iterations <= 100
        assert not thin_solve.converged
        assert thin_solve.message.startswith(STALL)
        assert "above the tolerance" in thin_solve.message
        assert thin_solve.energy_trace[-1].conformal <= 0.8508467377767099 * (1 + 1e-9)
        energies = [e.conformal for e in thin_solve.energy_trace]
        assert all(b < a for a, b in zip(energies, energies[1:]))

    def test_energy_evaluations_counted(self, thin_run):
        report, evaluated = thin_run
        # every evaluation after the initial one is a line-search trial, and
        # each accepted step costs at least one
        assert report.energy_evaluations == len(evaluated) - 1
        assert report.energy_evaluations >= report.iterations
        # the accepted trials are the trace's entries; a search that used
        # all its trial steps would show _MAX_BACKTRACKS - 1 or more
        # rejected trials in a row
        accepted = {id(e) for e in report.energy_trace}
        assert evaluated[0] is report.energy_trace[0]
        rejected_run = longest = 0
        for e in evaluated[1:]:
            rejected_run = 0 if id(e) in accepted else rejected_run + 1
            longest = max(longest, rejected_run)
        assert longest < minimizer._MAX_BACKTRACKS - 1
        assert report.message.startswith(STALL)

    def test_converged_map_with_unreachable_tolerance(self):
        hemi, lap = hemi_with_laplacian(8)
        start = minimize(hemi.mesh, lap, hemi.reference_map())
        assert start.converged
        report = minimize(
            hemi.mesh, lap, start.final_map, MinimizerOptions(gradient_tolerance=1e-14)
        )
        assert not report.converged
        assert report.message.startswith(STALL)
        assert report.iterations <= 10
        energies = [e.conformal for e in report.energy_trace]
        assert all(b < a for a, b in zip(energies, energies[1:]))

    def test_short_line_search_is_not_a_stall(self, monkeypatch):
        # steps of 1e6 and 5e5 raise the energy: the search ran out of
        # trial steps long before the rounding of the energy
        monkeypatch.setattr(minimizer, "_INITIAL_STEP", 1e6)
        monkeypatch.setattr(minimizer, "_MAX_BACKTRACKS", 2)
        hemi, lap = hemi_with_laplacian(8)
        report = minimize(hemi.mesh, lap, hemi.reference_map())
        assert not report.converged
        assert report.message.startswith("line search found no lower energy in 2 trial steps")
        assert report.iterations == 0
        assert report.energy_evaluations == 2


class TestDiskTopology:
    def test_annulus_rejected(self):
        mesh = annulus_mesh()
        assert len(mesh.boundary_loops()) == 2
        lap = assemble_laplacian(mesh)
        init = mesh.vertices / np.linalg.norm(mesh.vertices, axis=1, keepdims=True)
        with pytest.raises(InvalidTopology, match="2 boundary loops"):
            minimize(mesh, lap, init)

    def test_unused_vertex_rejected(self):
        # one boundary loop, but V - E + F = 2
        disk = planar_disk_mesh(4, 6)
        mesh = TriMesh(np.vstack([disk.vertices, [[0.0, 0.0]]]), disk.faces)
        lap = assemble_laplacian(mesh)
        with pytest.raises(InvalidTopology, match="V - E \\+ F = 2"):
            minimize(mesh, lap, mesh.vertices)


class TestNormalizeMap:
    def test_recovers_rotation(self):
        rng = np.random.default_rng(2)
        ref = rng.normal(size=(40, 2))
        angle = 1.1
        rot = np.array(
            [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
        )
        assert np.allclose(normalize_map(ref @ rot.T, ref), ref, atol=1e-12)

    def test_recovers_reflection(self):
        rng = np.random.default_rng(3)
        ref = rng.normal(size=(40, 2))
        flipped = ref * np.array([1.0, -1.0])
        assert np.allclose(normalize_map(flipped, ref), ref, atol=1e-12)

    def test_optimal_over_angle_scan(self):
        rng = np.random.default_rng(4)
        ref = rng.normal(size=(30, 2))
        noisy = ref + rng.normal(scale=0.05, size=ref.shape)
        aligned = normalize_map(noisy, ref)
        best = np.linalg.norm(aligned - ref)
        for angle in np.arange(0.0, 2 * math.pi, 1e-4):
            rot = np.array(
                [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
            )
            for sign in (1.0, -1.0):
                cand = noisy @ (rot * np.array([1.0, sign])).T
                assert best <= np.linalg.norm(cand - ref) + 1e-9

    def test_alignment_never_hurts(self):
        rng = np.random.default_rng(5)
        ref = rng.normal(size=(25, 2))
        noisy = ref + rng.normal(scale=0.1, size=ref.shape)
        aligned = normalize_map(noisy, ref)
        assert np.linalg.norm(aligned - ref) <= np.linalg.norm(noisy - ref) + 1e-12


class TestRelativeError:
    def test_zero_for_identical(self):
        f = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert relative_error(f, f) == 0.0

    def test_doubled_map(self):
        rng = np.random.default_rng(6)
        f = rng.normal(size=(10, 2))
        assert relative_error(2 * f, f) == pytest.approx(1.0, rel=1e-12)

    def test_single_vertex_offset(self):
        rng = np.random.default_rng(7)
        ref = rng.normal(size=(10, 2))
        f = ref.copy()
        f[3, 0] += 1.0
        assert relative_error(f, ref) == pytest.approx(
            1.0 / np.linalg.norm(ref), rel=1e-12
        )

    def test_zero_reference_rejected(self):
        with pytest.raises(ZeroReference):
            relative_error(np.ones((3, 2)), np.zeros((3, 2)))
