import csv
import math
import multiprocessing
import os
import pathlib
import signal
import time
import types

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from diskmap import (
    ConvergenceRow,
    DimensionMismatch,
    DiskmapError,
    HemisphereSpec,
    InsufficientData,
    MinimizerOptions,
    emit_report,
    fit_exponent,
    gen_hemisphere,
    run_sweep,
    solve_hemisphere_case,
    stereographic_project,
)
from diskmap import experiments

from conftest import splu_singular_from_call

FAST = MinimizerOptions(gradient_tolerance=1e-6, max_iterations=1500)


def synthetic_row(h, err, **overrides):
    fields = dict(
        n=8,
        m=6,
        h=h,
        max_diam_over_sin=1.0,
        energy_solution=0.0,
        energy_reference=0.0,
        rel_error=err,
        iterations=10,
        fold_count=0,
        converged=True,
        wall_time=0.1,
    )
    fields.update(overrides)
    return ConvergenceRow(**fields)


def _fake_case(failures, delays=None):
    """A stand-in for solve_hemisphere_case: rows whose n is in `failures`
    raise that exception; the others sleep for their n's entry in `delays`
    and record the solving process's pid as `iterations`.  Forked workers
    inherit it through the module attribute."""

    def solve(spec, *args):
        if spec.n in failures:
            raise failures[spec.n]
        time.sleep((delays or {}).get(spec.n, 0.0))
        return types.SimpleNamespace(
            row=synthetic_row(1.0 / spec.n, 0.1, n=spec.n, m=spec.m, iterations=os.getpid())
        )

    return solve


class TestFitExponent:
    def test_exact_power_law(self):
        rows = [synthetic_row(h, 2.0 * h**1.5) for h in (0.8, 0.4, 0.2, 0.1)]
        fit = fit_exponent(rows)
        assert fit.exponent == pytest.approx(1.5, abs=1e-10)
        assert fit.coefficient == pytest.approx(2.0, rel=1e-10)
        assert fit.rows_used == 4

    def test_multiplicative_noise(self):
        rng = np.random.default_rng(0)
        hs = np.geomspace(1.0, 0.05, 12)
        rows = [
            synthetic_row(h, 0.7 * h**1.2 * (1.0 + rng.normal(scale=0.01)))
            for h in hs
        ]
        fit = fit_exponent(rows)
        assert abs(fit.exponent - 1.2) <= 0.05

    def test_window_and_filters(self):
        rows = [synthetic_row(h, h) for h in (0.8, 0.4, 0.2, 0.1)]
        rows.append(synthetic_row(0.05, 1e9, converged=False))
        rows.append(synthetic_row(0.025, 1e9, fold_count=3))
        fit = fit_exponent(rows)
        assert fit.rows_used == 4
        assert fit.exponent == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("err", [0.0, math.nan])
    def test_converged_row_without_a_usable_error_dropped(self, err):
        rows = [synthetic_row(h, 2.0 * h**1.5) for h in (0.8, 0.4, 0.2, 0.1)]
        rows.insert(2, synthetic_row(0.3, err))
        fit = fit_exponent(rows)
        assert fit.rows_used == 4
        assert fit.exponent == pytest.approx(1.5, abs=1e-10)

    def test_insufficient_rows(self):
        rows = [synthetic_row(0.5, 0.1), synthetic_row(0.25, 0.05)]
        with pytest.raises(InsufficientData):
            fit_exponent(rows)
        # enough rows, but no spread in h
        rows = [synthetic_row(0.5, err) for err in (0.1, 0.09, 0.08)]
        with pytest.raises(InsufficientData):
            fit_exponent(rows)


class TestSolveCase:
    def test_case_artifacts(self):
        case = solve_hemisphere_case(HemisphereSpec.from_exponent(8, 11 / 12), FAST)
        row = case.row
        assert row.n == 8 and row.m == 6
        assert row.converged
        assert row.rel_error < 0.05
        assert row.h > 0
        # minimizer cannot do worse than the reference at the same vertex set
        assert row.energy_solution <= row.energy_reference + 1e-10
        assert case.solution.shape == case.reference.shape

    def test_diagnostic_energy_match(self):
        # the initial guess lands in the right basin: its energy is the
        # right order of magnitude (recorded as a diagnostic)
        case = solve_hemisphere_case(HemisphereSpec.from_exponent(16, 11 / 12), FAST)
        start = case.report.energy_trace[0].conformal
        final = case.report.energy_trace[-1].conformal
        assert final <= start
        assert start < 50 * max(final, 1e-12)

    def test_singular_interior_block_gives_the_nan_row(self, monkeypatch):
        # the harmonic init factors first, then the minimizer's interior block
        monkeypatch.setattr(spla, "splu", splu_singular_from_call(2))
        row = experiments._sweep_row(HemisphereSpec.from_counts(8, 6), FAST, "unit", 3)
        assert (row.n, row.m, row.converged) == (8, 6, False)
        assert math.isnan(row.rel_error) and math.isnan(row.energy_solution)


# Three-point rule exact for quadratics, and its k x k composite.
RULE = np.full((3, 3), 1.0 / 6.0) + 0.5 * np.eye(3)


def composite_rule(k):
    """Barycentric points and weights (summing to 1) of RULE on the k*k
    congruent sub-triangles of a triangle."""
    points = []
    for a in range(k):
        for b in range(k - a):
            pieces = [((a, b), (a + 1, b), (a, b + 1))]
            if a + b < k - 1:
                pieces.append(((a + 1, b), (a + 1, b + 1), (a, b + 1)))
            for piece in pieces:
                corners = np.array([[k - i - j, i, j] for i, j in piece]) / k
                points.append(RULE @ corners)
    points = np.vstack(points)
    return points, np.full(len(points), 1.0 / len(points))


def independent_gradient_error(hemi, f, k, step=1e-5):
    """The integral of HemisphereMesh.gradient_error by another route: the
    exact in-plane gradient from central differences of s(x / |x|) along
    two face edges, both gradients from the edge matrix's pseudoinverse,
    and the composite rule on k x k sub-triangles."""
    corners = hemi.mesh.vertices[hemi.mesh.faces]
    edges = np.stack([corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0]], axis=2)
    to_plane = np.linalg.pinv(edges)  # (F, 2, 3), rows in the face plane
    area = 0.5 * np.linalg.norm(np.cross(edges[..., 0], edges[..., 1]), axis=1)
    values = f[hemi.mesh.faces]
    discrete = np.stack([values[:, 1] - values[:, 0], values[:, 2] - values[:, 0]], axis=2)
    discrete = discrete @ to_plane

    def flatten(x):
        return stereographic_project(x / np.linalg.norm(x, axis=-1, keepdims=True))

    bary, weights = composite_rule(k)
    x = np.einsum("qi,fid->fqd", bary, corners)
    along = [
        (flatten(x + step * edges[:, None, :, a]) - flatten(x - step * edges[:, None, :, a]))
        / (2.0 * step)
        for a in range(2)
    ]
    exact = np.stack(along, axis=-1) @ to_plane[:, None]
    weights = area[:, None] * weights
    err = np.sum(weights * np.sum((exact - discrete[:, None]) ** 2, axis=(2, 3)))
    return math.sqrt(err / np.sum(weights * np.sum(exact**2, axis=(2, 3))))


class TestGradientError:
    def test_same_rule_agrees(self):
        # Central differences with step 1e-5 err by O(step^2) ~ 1e-10 in
        # truncation and O(eps / step) ~ 1e-11 in rounding.
        for r in (11 / 12, 0.25):
            case = solve_hemisphere_case(HemisphereSpec.from_exponent(8, r), FAST)
            ours = case.hemisphere.gradient_error(case.solution)
            theirs = independent_gradient_error(case.hemisphere, case.solution, 1)
            assert ours == pytest.approx(theirs, rel=1e-8)

    def test_agrees_with_subdivision(self):
        # The rule is exact for quadratics, so on a face of diameter h it
        # leaves an O(h^3) remainder per unit area against a squared
        # gradient error of order h^2: a relative error of O(h).  The 6 x 6
        # composite shrinks that remainder 6^3-fold, so the gap below is
        # the rule's own error.  It must stay under h / 20 (about twice the
        # largest ratio seen, 0.027 on the degenerate family at h = 1.73)
        # and shrink at least in proportion to h under refinement.
        gaps, hs = [], []
        for n, r in ((8, 11 / 12), (16, 11 / 12), (8, 0.25)):
            case = solve_hemisphere_case(HemisphereSpec.from_exponent(n, r), FAST)
            ours = case.hemisphere.gradient_error(case.solution)
            fine = independent_gradient_error(case.hemisphere, case.solution, 6)
            gaps.append(abs(ours - fine) / fine)
            hs.append(case.row.h)
            assert gaps[-1] <= hs[-1] / 20
        assert gaps[1] <= gaps[0] * hs[1] / hs[0]

    def test_zero_map(self):
        hemi = gen_hemisphere(HemisphereSpec.from_counts(4, 5))
        assert hemi.gradient_error(np.zeros((hemi.mesh.num_vertices, 2))) == 1.0

    def test_shape_mismatch(self):
        hemi = gen_hemisphere(HemisphereSpec.from_counts(4, 5))
        count = hemi.mesh.num_vertices
        for shape in ((count, 3), (count - 1, 2), (2 * count,)):
            with pytest.raises(DimensionMismatch):
                hemi.gradient_error(np.zeros(shape))


class TestRunSweep:
    def test_validation(self):
        with pytest.raises(ValueError):
            run_sweep(11 / 12, [2, 4])
        with pytest.raises(ValueError):
            run_sweep(11 / 12, [8, 8])

    def test_small_sweep_trends(self):
        rows = run_sweep(11 / 12, [4, 6, 8], options=FAST)
        assert [row.n for row in rows] == [4, 6, 8]
        for row in rows:
            assert row.converged
            assert row.energy_solution <= row.energy_reference + 1e-10
            assert row.energy_reference >= 0  # area-ratio weights keep it so
        errs = [row.rel_error for row in rows]
        assert errs[0] > errs[-1]
        # both energy series shrink toward the conformal limit
        sols = [row.energy_solution for row in rows]
        refs = [row.energy_reference for row in rows]
        assert sols[0] > sols[-1] > 0
        assert refs[0] > refs[-1] > 0

    def test_invalid_row_raises_before_any_solve(self, monkeypatch):
        calls = []

        def record(spec, *args):
            calls.append(spec.n)
            return _fake_case({})(spec)

        monkeypatch.setattr(experiments, "solve_hemisphere_case", record)
        with pytest.raises(ValueError, match="more than 10000000"):
            run_sweep(1, [8, 16, 5000000])
        assert calls == []
        assert multiprocessing.active_children() == []

    def test_worker_count_does_not_change_the_report(self, monkeypatch, tmp_path):
        # Two CPUs even on a one-CPU host, so the pool path always runs.
        results = []
        for cpus in ({0, 1}, {0}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
            assert experiments.sweep_workers(4) == len(cpus)
            rows = run_sweep(0.9166667, (8, 12, 16, 24))
            paths = emit_report(rows, fit_exponent(rows), tmp_path / str(len(cpus)))
            files = {
                kind: pathlib.Path(path).read_bytes()
                for kind, path in paths.items()
                if kind != "timing"
            }
            fields = [{**vars(row), "wall_time": None} for row in rows]
            results.append((fields, files))
        assert results[0] == results[1]
        assert set(results[0][1]) == {"sweep", "error", "energy", "fit"}


class TestSweepWorkers:
    """Rows 8 and 12 go to the forked worker, the largest row, 16, stays
    in the calling process; no worker outlives the sweep."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

        def timed_out(signum, frame):
            raise TimeoutError("sweep still waiting after 30 s")

        previous = signal.signal(signal.SIGALRM, timed_out)
        signal.alarm(30)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert multiprocessing.active_children() == []

    def test_largest_row_in_process_the_others_in_a_worker(self, monkeypatch):
        monkeypatch.setattr(experiments, "solve_hemisphere_case", _fake_case({}))
        rows = run_sweep(1, [8, 12, 16])
        assert [row.n for row in rows] == [8, 12, 16]
        assert rows[0].iterations == rows[1].iterations != os.getpid()
        assert rows[2].iterations == os.getpid()

    def test_worker_diskmap_error_gives_the_nan_row(self, monkeypatch):
        failures = {8: DiskmapError("no map")}
        monkeypatch.setattr(experiments, "solve_hemisphere_case", _fake_case(failures))
        rows = run_sweep(1, [8, 12, 16])
        assert [row.n for row in rows] == [8, 12, 16]
        assert math.isnan(rows[0].rel_error) and not rows[0].converged
        assert rows[1].converged and rows[2].converged

    def test_worker_crash_raises(self, monkeypatch):
        failures = {12: RuntimeError("worker row")}
        monkeypatch.setattr(experiments, "solve_hemisphere_case", _fake_case(failures))
        with pytest.raises(RuntimeError, match="worker row"):
            run_sweep(1, [8, 12, 16])

    def test_in_process_crash_tears_down_a_busy_pool(self, monkeypatch):
        failures = {16: RuntimeError("largest row")}
        monkeypatch.setattr(
            experiments, "solve_hemisphere_case", _fake_case(failures, delays={8: 2.0, 12: 2.0})
        )
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="largest row"):
            run_sweep(1, [8, 12, 16])
        # the worker's two 2 s rows are cut short, not waited for
        assert time.perf_counter() - start < 1.5

    def test_dead_worker_raises_instead_of_hanging(self, monkeypatch):
        parent = os.getpid()

        def killed_in_worker(spec, *args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)  # as an out-of-memory kill
            return _fake_case({})(spec)

        monkeypatch.setattr(experiments, "solve_hemisphere_case", killed_in_worker)
        with pytest.raises(ChildProcessError, match="exited with code -9"):
            run_sweep(1, [8, 12, 16])


class TestEmitReport:
    def test_empty_rows(self, tmp_path):
        paths = emit_report([], None, tmp_path / "run")
        lines = pathlib.Path(paths["sweep"]).read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("n,m,h,")

    def test_row_count(self, tmp_path):
        rows = [synthetic_row(h, h) for h in (0.8, 0.4, 0.2, 0.1)]
        paths = emit_report(rows, fit_exponent(rows), tmp_path / "run")
        assert len(pathlib.Path(paths["sweep"]).read_text().splitlines()) == 5
        assert len(pathlib.Path(paths["error"]).read_text().splitlines()) == 4
        assert "exponent 1" in pathlib.Path(paths["fit"]).read_text()

    def test_deterministic_bytes(self, tmp_path):
        # identical invocations produce byte-identical deterministic files
        results = []
        for tag in ("a", "b"):
            rows = run_sweep(11 / 12, [4, 6, 8], options=FAST)
            paths = emit_report(rows, None, tmp_path / tag)
            kinds = ("sweep", "error", "energy")
            results.append(tuple(pathlib.Path(paths[k]).read_bytes() for k in kinds))
        assert results[0] == results[1]

    def test_report_bytes(self, tmp_path, monkeypatch):
        # a NaN row from a failed solve among more rows than one block; the
        # expected bytes are csv.writer's for 17-digit strings and the plot
        # files' f-strings
        fake = _fake_case({8: DiskmapError("x")})
        monkeypatch.setattr(experiments, "solve_hemisphere_case", fake)
        failed = experiments._sweep_row(HemisphereSpec.from_counts(8, 6), None, "quadrature", 3)
        assert math.isnan(failed.h) and not failed.converged
        rng = np.random.default_rng(9)
        count = 1100
        floats = rng.standard_normal((count, 5)) * 10.0 ** rng.integers(-20, 20, (count, 5))
        ints = rng.integers(0, 5000, (count, 4)).tolist()
        rows = [
            ConvergenceRow(n, m, *f, iterations, folds, converged=c < 0.7, wall_time=0.5)
            for (n, m, iterations, folds), f, c in zip(ints, floats.tolist(), rng.random(count))
        ]
        rows[0] = synthetic_row(-0.0, 5e-324, energy_solution=1e300, energy_reference=math.inf)
        rows.insert(7, failed)
        paths = emit_report(rows, None, tmp_path / "run")

        with open(tmp_path / "expected.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["n", "m", "h", "max_diam_over_sin", "energy_solution", "energy_reference",
                 "rel_error", "iterations", "fold_count", "converged"]
            )
            for r in rows:
                writer.writerow(
                    [r.n, r.m, f"{r.h:.17g}", f"{r.max_diam_over_sin:.17g}",
                     f"{r.energy_solution:.17g}", f"{r.energy_reference:.17g}",
                     f"{r.rel_error:.17g}", r.iterations, r.fold_count, int(r.converged)]
                )
        assert pathlib.Path(paths["sweep"]).read_bytes() == (tmp_path / "expected.csv").read_bytes()
        error = "".join(f"{r.h:.17g} {r.rel_error:.17g}\n" for r in rows)
        assert pathlib.Path(paths["error"]).read_bytes() == error.encode()
        energy = "".join(
            f"{r.h:.17g} {r.energy_solution:.17g} {r.energy_reference:.17g}\n" for r in rows
        )
        assert pathlib.Path(paths["energy"]).read_bytes() == energy.encode()


def test_sweep_fit_exponent_matches_the_benchmark_reference():
    # The benchmark's sweep reference (perfbench/reference.json) and its
    # 1e-6 tolerance; a change that moves the minimizer's path enough to
    # fail the benchmark's check fails here too.
    rows = run_sweep(11 / 12, (8, 12, 16, 24, 32, 48, 64), rho_mode="quadrature")
    assert abs(fit_exponent(rows).exponent - 1.6941761140045843) <= 1e-6
