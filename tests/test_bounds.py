import csv
import math

import numpy as np
import pytest

from diskmap import (
    BoundsConfig,
    DegenerateTriangle,
    DimensionMismatch,
    HemisphereSpec,
    TriMesh,
    assemble_laplacian,
    build_bound_report,
    centered_pinv_norm,
    dirichlet_energy,
    dirichlet_error_bound,
    eigen_min_scan,
    estimate_map_grad_lipschitz,
    gen_hemisphere,
    gradient_error_terms,
    gradient_error_terms_reduced,
    integrated_error_bound,
    plane_distance_bound,
    quality_report,
    scan_degraded_faces,
    tangent_tilt_bound,
    triangle_metrics,
)
from diskmap.bounds import is_strictly_decreasing, quality_csv
from diskmap.hemisphere import (
    sphere_gradient,
    sphere_point,
    stereographic_dirichlet_energy,
    stereographic_gradient,
    stereographic_project,
)

from conftest import random_triangle

FLAT = BoundsConfig(
    grad_lipschitz=0.0,
    map_grad_lipschitz=1.0,
    sigma_min=1.0,
    sigma_max=math.sqrt(2),
    total_area=1.0,
)

# fixed chart band for family trends: the pole cap beyond colatitude
# 15 pi / 16 is excluded (the chart is rank deficient at the pole)
BAND_CUT = 15 * math.pi / 16
BAND_SIGMA = math.sin(math.pi / 16)


def band_config(map_grad_lipschitz=1.0):
    return BoundsConfig(
        grad_lipschitz=math.sqrt(2),
        map_grad_lipschitz=map_grad_lipschitz,
        sigma_min=BAND_SIGMA,
        sigma_max=math.sqrt(2),
        total_area=2 * math.pi,
    )


def band_mask(hemi):
    return np.array([np.asarray(t)[:, 1].max() <= BAND_CUT for t in hemi.param_tris])


def param_geom(tri):
    tri = np.asarray(tri, dtype=float)
    return triangle_metrics(tri[0], tri[1], tri[2])


class TestBoundsConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BoundsConfig(1.0, 1.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            BoundsConfig(1.0, 1.0, 2.0, 1.0, 1.0)
        cfg = BoundsConfig(0.0, 0.0, 0.5, 1.0, 3.0)
        assert cfg.sigma_min == 0.5

    def test_hemisphere_constants(self):
        # sigma_min is certified down to the last vertex ring, pi / (2n)
        # above the pole
        hemi = gen_hemisphere(HemisphereSpec.from_counts(12, 7))
        assert hemi.bounds_config(0.25) == BoundsConfig(
            grad_lipschitz=math.sqrt(2),
            map_grad_lipschitz=0.25,
            sigma_min=math.sin(math.pi / 24),
            sigma_max=math.sqrt(2),
            total_area=2 * math.pi,
        )
        with pytest.raises(ValueError, match="map_grad_lipschitz=nan"):
            hemi.bounds_config(math.nan)


class TestPlaneDistanceBound:
    def test_flat_chart_is_exact(self):
        assert plane_distance_bound(FLAT, 0.7) == 0.0

    def test_quadratic_scaling(self):
        cfg = band_config()
        assert plane_distance_bound(cfg, 0.2) == pytest.approx(
            4 * plane_distance_bound(cfg, 0.1)
        )

    def test_hemisphere_samples_within_bound(self, hemi_small):
        # covered in depth by the projection tests; spot check the API here
        cfg = hemi_small.bounds_config(1.0)
        tri = np.asarray(hemi_small.param_tris[0])
        geom = param_geom(tri)
        assert plane_distance_bound(cfg, geom.diameter) > 0


class TestCenteredPinvNorm:
    def test_equilateral_closed_form(self):
        s = 0.8
        tri = s * np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
        assert centered_pinv_norm(tri) == pytest.approx(math.sqrt(2) / s, rel=1e-12)

    def test_matches_numeric_pinv_at_centroid(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            tri = random_triangle(rng, 2)
            centered = tri.T - tri.mean(axis=0)[:, None]
            numeric = np.linalg.norm(np.linalg.pinv(centered), 2)
            assert centered_pinv_norm(tri) == pytest.approx(numeric, rel=1e-10)

    def test_dominates_interior_samples(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            tri = random_triangle(rng, 2)
            closed = centered_pinv_norm(tri)
            for _ in range(200):
                w = rng.dirichlet(np.ones(3)) @ tri
                numeric = np.linalg.norm(np.linalg.pinv(tri.T - w[:, None]), 2)
                assert numeric <= closed + 1e-10

    def test_inverse_scaling(self):
        rng = np.random.default_rng(2)
        tri = random_triangle(rng, 2)
        t = 2.5
        assert centered_pinv_norm(t * tri) == pytest.approx(
            centered_pinv_norm(tri) / t, rel=1e-12
        )

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateTriangle):
            centered_pinv_norm(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))


class TestEigenMinScan:
    def test_centered_configuration(self):
        # symmetric columns: the minimum over centers is attained at the
        # mean (here along a whole flat valley, so only the attained
        # value is compared)
        columns = np.array([[1.0, -0.5, -0.5], [0.0, 0.8, -0.8]])
        report = eigen_min_scan(columns, grid_resolution=81)
        assert np.all(report.values_at_mean <= report.grid_minima + 1e-12)
        assert report.value_mismatch <= 1e-10

    def test_random_configurations(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            columns = rng.normal(size=(2, 3)) + rng.normal(size=(2, 1))
            report = eigen_min_scan(columns, grid_resolution=101)
            assert report.cell_distances.max() <= 2
            assert report.value_mismatch <= 1e-9 * max(
                1.0, float(np.abs(columns).max()) ** 2
            )

    def test_coincident_columns_scan_the_unit_box(self):
        # no column lies off the mean, so the half width falls back to 1;
        # B = k (c - x)(c - x)^T, whose eigenvalues at the mean are both 0
        columns = np.tile([[0.5], [0.25]], 4)
        report = eigen_min_scan(columns, grid_resolution=5)
        assert np.array_equal(report.values_at_mean, [0.0, 0.0])
        assert np.array_equal(report.grid_minima, [0.0, 0.0])
        assert report.cell_distances[1] == 0.0 and report.value_mismatch == 0.0

    def test_values_match_reference_matrix(self):
        rng = np.random.default_rng(4)
        columns = rng.normal(size=(2, 3))
        report = eigen_min_scan(columns)
        k = columns.shape[1]
        mean = columns.mean(axis=1)
        ref = columns @ columns.T - k * np.outer(mean, mean)
        assert report.value_mismatch <= 1e-10 * max(1.0, np.abs(ref).max())


class TestTangentTiltBound:
    def test_flat_chart_zero(self):
        assert tangent_tilt_bound(FLAT, 0.5, 0.05) == 0.0

    def test_cubic_over_area_scaling(self):
        cfg = band_config()
        base = tangent_tilt_bound(cfg, 0.2, 0.01)
        # halving the diameter at fixed shape quarters the area
        assert tangent_tilt_bound(cfg, 0.1, 0.0025) == pytest.approx(base / 2)

    def test_hemisphere_samples_within_bound(self):
        for n in (8, 16):
            hemi = gen_hemisphere(HemisphereSpec.from_exponent(n, 11 / 12))
            cfg = hemi.bounds_config(1.0)
            mesh = hemi.mesh
            rng = np.random.default_rng(5)
            for t in range(0, mesh.num_faces, 5):
                tri = np.asarray(hemi.param_tris[t])
                geom = param_geom(tri)
                bound = tangent_tilt_bound(cfg, geom.diameter, geom.area)
                frame = triangle_metrics(*mesh.face_points(t))
                for _ in range(10):
                    w = rng.dirichlet(np.ones(3)) @ tri
                    if w[1] >= math.pi - 1e-9:
                        continue
                    g = sphere_gradient(w)
                    basis = g @ np.diag([1.0 / math.sin(w[1]), 1.0])
                    measured = np.linalg.norm(frame.normal @ basis)
                    assert measured <= bound + 1e-9


class TestGradientErrorTerms:
    def test_flat_chart(self):
        factor, offset = gradient_error_terms(FLAT, 0.5, 0.05, 0.5, 0.05)
        assert factor == 0.0
        expected = 3 * 1.0 * 2.0 * 0.5 * 0.25 / (2 * 0.05)
        assert offset == pytest.approx(expected)

    def test_reduced_form_dominates_on_band(self):
        cfg = band_config()
        for n in (8, 32):
            hemi = gen_hemisphere(HemisphereSpec.from_exponent(n, 11 / 12))
            mesh = hemi.mesh
            for t in np.where(band_mask(hemi))[0]:
                pg = param_geom(hemi.param_tris[t])
                vg = triangle_metrics(*mesh.face_points(t))
                exact = gradient_error_terms(cfg, vg.diameter, vg.area, pg.diameter, pg.area)
                reduced = gradient_error_terms_reduced(
                    cfg,
                    vg.diameter,
                    math.sin(vg.angles.min()),
                    pg.diameter,
                    math.sin(pg.angles.min()),
                )
                assert exact[0] <= reduced[0] * (1 + 1e-12)
                assert exact[1] <= reduced[1] * (1 + 1e-12)

    def band_maxima(self, r, n_values, cfg):
        factors, offsets = [], []
        for n in n_values:
            hemi = gen_hemisphere(HemisphereSpec.from_exponent(n, r))
            mesh = hemi.mesh
            fmax = omax = 0.0
            for t in np.where(band_mask(hemi))[0]:
                pg = param_geom(hemi.param_tris[t])
                vg = triangle_metrics(*mesh.face_points(t))
                f, o = gradient_error_terms(cfg, vg.diameter, vg.area, pg.diameter, pg.area)
                fmax, omax = max(fmax, f), max(omax, o)
            factors.append(fmax)
            offsets.append(omax)
        return factors, offsets

    def test_band_maxima_dichotomy(self):
        # vanishing for the well-conditioned family, growing for the
        # degenerate one: the convergence-condition dichotomy in terms of
        # the error-bound ingredients
        cfg = band_config()
        n_values = (8, 16, 32, 64)
        f_good, o_good = self.band_maxima(11 / 12, n_values, cfg)
        assert is_strictly_decreasing(f_good)
        assert is_strictly_decreasing(o_good)
        f_bad, o_bad = self.band_maxima(0.25, n_values, cfg)
        assert f_bad[-1] > f_bad[0]
        assert o_bad[-1] > o_bad[0]

    def test_pointwise_soundness_sampled(self):
        # measured surrogate-gradient error of the exact flatten stays
        # below factor * |gradient| + offset at interior samples
        n = 16
        hemi = gen_hemisphere(HemisphereSpec.from_exponent(n, 11 / 12))
        mesh = hemi.mesh
        params = [None] * mesh.num_vertices
        for t, tri in enumerate(hemi.param_tris):
            for vid, w in zip(mesh.faces[t], np.asarray(tri)):
                params[vid] = w

        def grad_at(i):
            w = params[i]
            psi = min(w[1], math.pi - 1e-6)
            return stereographic_gradient((w[0], psi))

        cl = estimate_map_grad_lipschitz(mesh, grad_at)
        cfg = hemi.bounds_config(cl)
        rng = np.random.default_rng(6)
        for t in np.where(band_mask(hemi))[0][::4]:
            tri = np.asarray(hemi.param_tris[t])
            pg = param_geom(tri)
            vg = triangle_metrics(*mesh.face_points(t))
            factor, offset = gradient_error_terms(
                cfg, vg.diameter, vg.area, pg.diameter, pg.area
            )
            frame = triangle_metrics(*mesh.face_points(t))
            corners = [np.asarray(p) for p in mesh.face_points(t)]
            corner_images = stereographic_project(np.array(corners))
            for _ in range(5):
                w = rng.dirichlet(np.ones(3)) @ tri
                x = sphere_point(w)
                g_map = stereographic_gradient(w)
                fx = stereographic_project(x)
                drift = np.array(
                    [
                        corner_images[ell] - fx + g_map @ (x - corners[ell])
                        for ell in range(3)
                    ]
                )
                surrogate_err = np.linalg.norm(drift.T @ frame.hat_gradients)
                basis = sphere_gradient(w) @ np.diag([1.0 / math.sin(w[1]), 1.0])
                tilt = np.linalg.norm(frame.normal @ basis)
                measured = surrogate_err + np.linalg.norm(g_map) * tilt**2
                assert measured <= np.linalg.norm(g_map) * factor + offset


@pytest.mark.parametrize(
    "case, error, message",
    [
        ("pinv_square_triangle", DegenerateTriangle, r"parameter triangle must be \(3, 2\)"),
        ("pinv_two_corners", DegenerateTriangle, r"parameter triangle must be \(3, 2\)"),
        ("tilt_zero_area", DegenerateTriangle, "parameter triangle area must be positive"),
        ("tilt_negative_area", DegenerateTriangle, "parameter triangle area must be positive"),
        ("terms_zero_face_area", DegenerateTriangle, "face and parameter areas must be positive"),
        ("terms_negative_param_area", DegenerateTriangle, "face and parameter areas must be"),
        ("negative_energy", ValueError, "energy and integral bound must be non-negative"),
        ("negative_integral", ValueError, "energy and integral bound must be non-negative"),
        ("three_rows", ValueError, "columns must be a 2 x k array"),
        ("one_row", ValueError, "columns must be a 2 x k array"),
    ],
)
def test_malformed_input_refused(case, error, message):
    cfg = band_config()
    calls = {
        "pinv_square_triangle": lambda: centered_pinv_norm(np.eye(3)),
        "pinv_two_corners": lambda: centered_pinv_norm([[0.0, 0.0], [1.0, 0.0]]),
        "tilt_zero_area": lambda: tangent_tilt_bound(cfg, 0.1, 0.0),
        "tilt_negative_area": lambda: tangent_tilt_bound(cfg, 0.1, [0.01, -0.01]),
        "terms_zero_face_area": lambda: gradient_error_terms(cfg, 0.1, 0.0, 0.1, 0.01),
        "terms_negative_param_area": lambda: gradient_error_terms(cfg, 0.1, 0.01, 0.1, -0.01),
        "negative_energy": lambda: dirichlet_error_bound(-1.0, 0.5),
        "negative_integral": lambda: dirichlet_error_bound(1.0, -0.5),
        "three_rows": lambda: eigen_min_scan(np.zeros((3, 4))),
        "one_row": lambda: eigen_min_scan(np.zeros(4)),
    }
    with pytest.raises(error, match=f"^{message}"):
        calls[case]()


class TestDirichletErrorBound:
    def test_zero_integral(self):
        assert dirichlet_error_bound(3.0, 0.0) == 0.0

    def test_formula(self):
        assert dirichlet_error_bound(2.0, 0.5) == pytest.approx(
            0.25 + math.sqrt(2.0)
        )

    def test_energy_discretization_soundness(self):
        # the discrete energy of the exact flatten sits within the
        # computable bound of the continuous energy, which equals the
        # disk area
        continuous = stereographic_dirichlet_energy(80, 80)
        assert continuous == pytest.approx(math.pi, rel=1e-4)
        for n in (8, 16):
            hemi = gen_hemisphere(HemisphereSpec.from_exponent(n, 11 / 12))
            mesh = hemi.mesh
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

            cl = estimate_map_grad_lipschitz(mesh, grad_at)
            cfg = hemi.bounds_config(cl)
            report = build_bound_report(
                mesh, hemi.param_tris, cfg, dirichlet_value=discrete
            )
            assert abs(continuous - discrete) <= report.energy_error

    def test_offset_scaling_law(self):
        # offset is proportional to d(face) d(param)^2 / area(face)
        cfg = band_config()
        _, base = gradient_error_terms(cfg, 0.3, 0.02, 0.2, 0.01)
        _, scaled = gradient_error_terms(cfg, 0.6, 0.02, 0.4, 0.01)
        assert scaled == pytest.approx(8 * base, rel=1e-12)

    def test_integrated_bound_shrinks_with_refinement(self):
        cfg = band_config()
        values = []
        for n in (8, 16, 32):
            hemi = gen_hemisphere(HemisphereSpec.from_exponent(n, 11 / 12))
            mesh = hemi.mesh
            fmax = omax = 0.0
            for t in np.where(band_mask(hemi))[0]:
                pg = param_geom(hemi.param_tris[t])
                vg = triangle_metrics(*mesh.face_points(t))
                f, o = gradient_error_terms(cfg, vg.diameter, vg.area, pg.diameter, pg.area)
                fmax, omax = max(fmax, f), max(omax, o)
            values.append(integrated_error_bound(cfg, math.pi, fmax, omax))
        assert is_strictly_decreasing(values)


class TestQualityReport:
    def test_equilateral_ratio(self):
        s = 0.7
        mesh = TriMesh(
            s * np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]]),
            [[0, 1, 2]],
        )
        quality = quality_report(mesh)
        assert quality.max_diam_over_sin == pytest.approx(2 * s / math.sqrt(3), rel=1e-12)
        assert quality.max_diam_over_inradius == pytest.approx(
            2 * math.sqrt(3), rel=1e-12
        )

    def test_inradius_ratio_floor(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            tri = random_triangle(rng, 2)
            geom = triangle_metrics(*tri)
            assert geom.diameter / geom.inradius >= 2 * math.sqrt(3) - 1e-9

    def test_quasi_uniform_implies_condition_chain(self):
        # r <= d sin(theta) / 2, hence d/sin(theta) <= (d/r) d / 2
        rng = np.random.default_rng(8)
        for _ in range(200):
            tri = random_triangle(rng, 2)
            geom = triangle_metrics(*tri)
            sin_min = math.sin(geom.angles.min())
            assert geom.inradius <= 0.5 * geom.diameter * sin_min + 1e-12
            lhs = geom.diameter / sin_min
            rhs = (geom.diameter / geom.inradius) * geom.diameter / 2
            assert lhs <= rhs + 1e-9

    def test_family_trend_dichotomy(self):
        good, bad = [], []
        for n in (8, 16, 32, 64):
            hemi = gen_hemisphere(HemisphereSpec.from_exponent(n, 11 / 12))
            good.append(quality_report(hemi.mesh).max_diam_over_sin)
            hemi = gen_hemisphere(HemisphereSpec.from_exponent(n, 0.25))
            bad.append(quality_report(hemi.mesh).max_diam_over_sin)
        assert is_strictly_decreasing(good)
        assert bad[-1] >= 0.5 * bad[0]

    def test_param_triangle_columns(self, hemi_small):
        cfg = hemi_small.bounds_config(1.0)
        report = build_bound_report(hemi_small.mesh, hemi_small.param_tris, cfg)
        assert report.param_diam.shape == (hemi_small.mesh.num_faces,)
        assert report.param_diam.min() > 0
        assert np.all(report.tilt > 0)


class TestDegradedFaceScan:
    def test_equilateral_unflagged(self):
        mesh = TriMesh(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]]), [[0, 1, 2]]
        )
        assert scan_degraded_faces(mesh).size == 0

    def test_needle_flagged(self):
        # short base 0.01 against two near-unit edges
        mesh = TriMesh(
            np.array([[0.0, 0.0], [0.01, 0.0], [0.005, 1.0]]), [[0, 1, 2]]
        )
        assert scan_degraded_faces(mesh).tolist() == [0]
        short, mid, long = np.sort(triangle_metrics(*mesh.face_points(0)).edge_lengths)
        assert short / long <= 0.1
        assert abs(mid / long - 1.0) <= 0.1

    def test_pole_needles_when_meridians_dominate(self):
        # with many more meridians than rings, the pole fan degenerates
        # into the two-long-edges pattern
        hemi = gen_hemisphere(HemisphereSpec.from_counts(8, 80))
        flagged = set(scan_degraded_faces(hemi.mesh).tolist())
        pole = set(np.where(hemi.pole_faces)[0])
        assert pole <= flagged

    def test_thin_family_develops_flags(self):
        # the slowly-thinning family keeps clean faces; the degenerate
        # family grows sliver strips that trip the scan
        good = gen_hemisphere(HemisphereSpec.from_exponent(32, 11 / 12))
        assert scan_degraded_faces(good.mesh).size == 0
        bad = gen_hemisphere(HemisphereSpec.from_exponent(32, 0.25))
        assert len(scan_degraded_faces(bad.mesh)) > 0


def csv_writer_bytes(path, header, columns, flags, summary):
    """The face table as csv.writer writes it, one 17-digit string per value."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t in range(len(flags)):
            writer.writerow([t, *(f"{c[t]:.17g}" for c in columns), int(flags[t])])
        writer.writerow(["max", *(f"{v:.17g}" for v in summary[:-1]), summary[-1]])
    return path.read_bytes()


class TestCsvWriters:
    def test_quality_csv_bytes(self, tmp_path):
        # pole needles are flagged on this mesh, so the flag column varies,
        # and it has more faces than one block of rows
        hemi = gen_hemisphere(HemisphereSpec.from_counts(8, 80))
        assert hemi.mesh.num_faces > 1024
        quality = quality_report(hemi.mesh)
        flagged = scan_degraded_faces(hemi.mesh)
        faces = set(flagged.tolist())
        assert 0 < len(faces) < hemi.mesh.num_faces
        quality_csv(quality, tmp_path / "quality.csv", flagged)
        columns = [
            quality.diam,
            quality.min_angle,
            quality.diam_over_sin,
            quality.diam_over_inradius,
        ]
        summary = [
            quality.max_diam,
            quality.min_angle.min(),
            quality.max_diam_over_sin,
            quality.max_diam_over_inradius,
            len(faces),
        ]
        expected = csv_writer_bytes(
            tmp_path / "expected.csv",
            ["face", "diam", "min_angle", "diam_over_sin", "diam_over_inradius", "degraded"],
            columns,
            [t in faces for t in range(hemi.mesh.num_faces)],
            summary,
        )
        assert (tmp_path / "quality.csv").read_bytes() == expected

    def test_bound_report_csv_bytes(self, tmp_path):
        # more faces than one block of rows
        hemi = gen_hemisphere(HemisphereSpec.from_counts(12, 60))
        assert hemi.mesh.num_faces > 1024
        cfg = hemi.bounds_config(1.0)
        report = build_bound_report(
            hemi.mesh, hemi.param_tris, cfg, certified_mask=~hemi.pole_faces
        )
        report.write_csv(tmp_path / "bounds.csv")
        q = report.quality
        columns = [
            q.diam,
            q.diam_over_sin,
            report.param_diam,
            report.plane_distance,
            report.pinv_norm,
            report.tilt,
            report.grad_factor,
            report.grad_offset,
        ]
        summary = [
            q.max_diam,
            q.max_diam_over_sin,
            np.max(report.param_diam),
            np.max(report.plane_distance),
            np.max(report.pinv_norm),
            np.max(report.tilt),
            report.factor_max,
            report.offset_max,
            0,
        ]
        header = "face,diam,diam_over_sin,param_diam,plane_distance_bound,pinv_norm,tilt_bound,grad_factor,grad_offset,certified"
        expected = csv_writer_bytes(
            tmp_path / "expected.csv", header.split(","), columns, report.certified, summary
        )
        assert (tmp_path / "bounds.csv").read_bytes() == expected

    @pytest.mark.parametrize("what", ["certified_mask", "param_tris"])
    def test_wrong_length_input_rejected(self, tmp_path, what):
        # a short certified mask used to drop face rows from bounds.csv
        hemi = gen_hemisphere(HemisphereSpec.from_counts(8, 10))
        nf = hemi.mesh.num_faces
        cfg = hemi.bounds_config(1.0)
        inputs = {"param_tris": hemi.param_tris, "certified_mask": ~hemi.pole_faces}
        inputs[what] = inputs[what][:-5]
        with pytest.raises(DimensionMismatch, match=f"{nf} faces.* {nf - 5} "):
            build_bound_report(hemi.mesh, config=cfg, **inputs).write_csv(tmp_path / "bounds.csv")
