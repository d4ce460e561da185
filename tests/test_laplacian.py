import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from diskmap import (
    ConformalEnergy,
    DegenerateTriangle,
    DimensionMismatch,
    HemisphereSpec,
    NonFiniteWeight,
    ParamSurface,
    TriMesh,
    assemble_laplacian,
    conformal_energy,
    dirichlet_energy,
    disk_initial_guess,
    energy_gradient,
    face_area_ratios,
    face_image_areas,
    face_nearest,
    gen_hemisphere,
    mapped_area,
    minimize,
    patch_area_quadrature,
    solve_beltrami,
    stereographic_project,
    triangle_metrics,
)
from diskmap.hemisphere import sphere_gradient
from diskmap.laplacian import FACTOR_ORDERING, as_vertex_map
from diskmap.surface import triangle_rule

from conftest import annulus_mesh, planar_disk_mesh, random_triangle
from oracles import per_triangle_dirichlet, per_triangle_dirichlet_matrix


def ragged_patch_area_quadrature(surface, cells, order=3):
    """Reference: the patch areas of a list of cells of any sizes, each
    fan split from its first corner, summed cell by cell in triangle then
    point order."""
    sizes = np.array([len(c) for c in cells], dtype=int)
    points = np.concatenate(cells)
    # Fan triangle s of a cell starting at row a of `points` is
    # (a, a + s, a + s + 1), s = 1 .. k - 2.
    fans = sizes - 2
    owner = np.repeat(np.arange(len(cells)), fans)
    apex = np.repeat(np.cumsum(sizes) - sizes, fans)
    s = np.arange(fans.sum()) - np.repeat(np.cumsum(fans) - fans, fans) + 1
    tris = points[np.stack([apex, apex + s, apex + s + 1], axis=1)]  # (T, 3, 2)
    u, w = tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]
    area = 0.5 * np.abs(u[:, 0] * w[:, 1] - u[:, 1] * w[:, 0])
    bary, weights = triangle_rule(order)
    element = surface.area_element(bary @ tris)  # (T, Q)
    terms = (weights * element * area[:, None]).ravel()
    return np.bincount(np.repeat(owner, len(weights)), weights=terms, minlength=len(cells))


def edge_weight(mesh, lap, a, b):
    """Weight of edge {a, b} and whether the edge is on the boundary."""
    key = [min(a, b), max(a, b)]
    return lap.weights[mesh.edges.tolist().index(key)], key in mesh.boundary_edges.tolist()


@pytest.mark.parametrize(
    "case, error, message",
    [
        ("nan_map_entry", DimensionMismatch, "map contains non-finite entries"),
        ("cell_count", DimensionMismatch, "one parameter cell per face required"),
        ("no_patch_area", ValueError, "analytic mode needs a surface with patch_area"),
        ("two_corner_cells", DegenerateTriangle, r"parameter cells must be \(C, k, 2\)"),
        ("3d_cells", DegenerateTriangle, r"parameter cells must be \(C, k, 2\)"),
        ("unstacked_cell", DegenerateTriangle, r"parameter cells must be \(C, k, 2\)"),
    ],
)
def test_malformed_input_refused(hemi_small, case, error, message):
    mesh, surface, cells = hemi_small.mesh, hemi_small.surface, hemi_small.param_cells
    calls = {
        "nan_map_entry": lambda: as_vertex_map([[0.0, 0.0], [math.nan, 1.0]], 2),
        "cell_count": lambda: face_area_ratios(mesh, "quadrature", surface, cells[:1]),
        "no_patch_area": lambda: face_area_ratios(mesh, "analytic", ParamSurface(sphere_gradient)),
        "two_corner_cells": lambda: patch_area_quadrature(surface, np.zeros((4, 2, 2))),
        "3d_cells": lambda: patch_area_quadrature(surface, np.zeros((4, 3, 3))),
        "unstacked_cell": lambda: patch_area_quadrature(surface, np.zeros((3, 2))),
    }
    with pytest.raises(error, match=f"^{message}"):
        calls[case]()


class TestAssembly:
    def test_square_tiling_weights(self, square_mesh):
        lap = assemble_laplacian(square_mesh, rho_mode="unit")
        w, boundary = edge_weight(square_mesh, lap, 0, 2)  # diagonal: two right angles
        assert w == pytest.approx(0.0, abs=1e-15)
        assert not boundary
        for a, b in ((0, 1), (1, 2), (2, 3), (3, 0)):
            w, boundary = edge_weight(square_mesh, lap, a, b)
            assert w == pytest.approx(0.5, rel=1e-14)
            assert boundary

    def test_single_equilateral(self):
        side = 1.0
        mesh = TriMesh(
            [[0.0, 0.0], [side, 0.0], [side / 2, side * math.sqrt(3) / 2]],
            [[0, 1, 2]],
        )
        lap = assemble_laplacian(mesh)
        for a, b in ((0, 1), (1, 2), (2, 0)):
            w, boundary = edge_weight(mesh, lap, a, b)
            assert boundary
            assert w == pytest.approx(1 / (2 * math.sqrt(3)), rel=1e-14)

    def test_row_sums_and_symmetry(self, hemi_small):
        lap = assemble_laplacian(hemi_small.mesh)
        dense_rows = np.asarray(lap.matrix.sum(axis=1)).ravel()
        scale = np.abs(lap.matrix).sum(axis=1).max()
        assert np.abs(dense_rows).max() <= 1e-12 * scale
        asym = (lap.matrix - lap.matrix.T).toarray()
        assert np.abs(asym).max() == 0.0

    def test_constant_in_kernel_and_psd(self, hemi_small):
        lap = assemble_laplacian(hemi_small.mesh)
        const = np.ones((lap.size, 2))
        assert np.abs(lap.matrix @ const).max() <= 1e-12
        eigs = np.linalg.eigvalsh(lap.matrix.toarray())
        assert eigs.min() >= -1e-10

    def test_quadrature_ratios_partition_surface(self, hemi_small):
        mesh = hemi_small.mesh
        ratios = face_area_ratios(
            mesh,
            "quadrature",
            surface=hemi_small.surface,
            param_cells=hemi_small.param_cells,
            quad_order=3,
        )
        areas = np.array(
            [triangle_metrics(*mesh.face_points(t)).area for t in range(mesh.num_faces)]
        )
        assert ratios.min() > 0
        # patches tile the hemisphere: total curved area is 2 pi
        assert (ratios * areas).sum() == pytest.approx(2 * math.pi, rel=1e-5)

    def test_quadrature_over_cell_list_equals_per_cell_calls(self, hemi_small):
        # a stack's areas equal those of its one-cell stacks, bit for bit
        band, pole = hemi_small.param_cells  # triangles, then the pole quads
        assert (band.shape[1], pole.shape[1]) == (3, 4)
        for stack in (band, pole):
            batched = patch_area_quadrature(hemi_small.surface, stack, 4)
            single = [
                patch_area_quadrature(hemi_small.surface, stack[c : c + 1], 4)
                for c in range(len(stack))
            ]
            assert batched.shape == (len(stack),)
            assert all(a.shape == (1,) for a in single)
            assert np.array_equal(batched, np.concatenate(single))

    @pytest.mark.parametrize("order", [1, 3, 5])
    @pytest.mark.parametrize(
        "spec",
        [
            HemisphereSpec.from_exponent(96, 0.9166667),
            HemisphereSpec.from_counts(256, 4),
            HemisphereSpec.from_counts(16, 500),
            HemisphereSpec.from_exponent(8, 0.9166667),
        ],
        ids=["n96-r0.9166667", "n256-m4", "n16-m500", "n8-r0.9166667"],
    )
    def test_quadrature_ratios_equal_per_cell_list_oracle(self, spec, order):
        hemi = gen_hemisphere(spec)
        mesh = hemi.mesh
        cells = [*hemi.param_cells[0], *hemi.param_cells[1]]
        expected = ragged_patch_area_quadrature(hemi.surface, cells, order)
        expected /= triangle_metrics(*mesh.face_points()).area
        ratios = face_area_ratios(mesh, "quadrature", hemi.surface, hemi.param_cells, order)
        assert np.array_equal(ratios, expected)

    def test_quadrature_ratios_tend_to_one_off_the_pole(self):
        worst = []
        for n in (8, 16, 32):
            hemi = gen_hemisphere(HemisphereSpec.from_exponent(n, 11 / 12))
            ratios = face_area_ratios(
                hemi.mesh,
                "quadrature",
                surface=hemi.surface,
                param_cells=hemi.param_cells,
            )
            # fixed chart band, away from the rank-deficient pole
            band = np.array(
                [np.max(np.asarray(tri)[:, 1]) <= 3 * math.pi / 4 for tri in hemi.param_tris]
            )
            worst.append(np.abs(ratios[band] - 1.0).max())
        assert worst[0] > worst[1] > worst[2]
        assert worst[2] < 0.03

    def test_analytic_approaches_quadrature_under_refinement(self):
        # geodesic-triangle patches and chart-cell patches agree as the
        # faces shrink, on a fixed band away from the degenerate pole
        gaps = []
        for n in (8, 32):
            hemi = gen_hemisphere(HemisphereSpec.from_exponent(n, 11 / 12))
            quad = face_area_ratios(
                hemi.mesh,
                "quadrature",
                surface=hemi.surface,
                param_cells=hemi.param_cells,
                quad_order=5,
            )
            analytic = face_area_ratios(hemi.mesh, "analytic", surface=hemi.surface)
            assert analytic.min() > 0
            band = np.array(
                [np.asarray(t)[:, 1].max() <= 3 * math.pi / 4 for t in hemi.param_tris]
            )
            gaps.append(np.abs(quad[band] - analytic[band]).max())
        assert gaps[1] < gaps[0] / 4
        assert gaps[1] < 0.04

    def test_degenerate_face_rejected(self):
        mesh = TriMesh([[0.0, 0.0], [1.0, 0.0], [2.0, 1e-16]], [[0, 1, 2]])
        from diskmap import DegenerateTriangle
        with pytest.raises(DegenerateTriangle):
            assemble_laplacian(mesh)

    def test_non_finite_area_ratio_rejected(self, square_mesh):
        surface = ParamSurface(
            gradient=sphere_gradient, patch_area=lambda p0, p1, p2: np.full(len(p0), np.nan)
        )
        with pytest.raises(NonFiniteWeight, match="^non-finite area ratio$"):
            assemble_laplacian(square_mesh, rho_mode="analytic", surface=surface)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e-160, 1e-80, 1e78, 1e150, 1e300])
    def test_weights_do_not_depend_on_scale(self, square_mesh, scale, dim):
        # Each face is measured at unit scale, so no product of its edge
        # lengths leaves double range.
        corners = np.pad(square_mesh.vertices, ((0, 0), (0, dim - 2)))
        lap = assemble_laplacian(TriMesh(scale * corners, square_mesh.faces))
        assert set(lap.weights.tolist()) == {0.0, 0.5}
        assert np.array_equal(lap.weights, assemble_laplacian(square_mesh).weights)

    def test_overflowing_cotangent_rejected(self, square_mesh):
        # The edges of a square with corners at +-1e308 overflow, which
        # makes the cotangents NaN.
        corners = np.pad(2.0 * square_mesh.vertices - 1.0, ((0, 0), (0, 1)))
        huge = TriMesh(1e308 * corners, square_mesh.faces)
        with pytest.warns(RuntimeWarning):
            with pytest.raises(NonFiniteWeight, match="^non-finite cotangent in face 0$"):
                assemble_laplacian(huge)

    def test_rho_value_error(self, square_mesh):
        with pytest.raises(ValueError):
            face_area_ratios(square_mesh, "quadrature")
        with pytest.raises(ValueError):
            face_area_ratios(square_mesh, "nope")


class TestDirichletEnergy:
    def test_constant_map_zero(self, square_mesh):
        lap = assemble_laplacian(square_mesh)
        f = np.tile([2.0, -1.0], (4, 1))
        assert dirichlet_energy(lap, f) == pytest.approx(0.0, abs=1e-14)

    def test_identity_equals_area(self, square_mesh):
        lap = assemble_laplacian(square_mesh)
        f = square_mesh.vertices.copy()
        assert dirichlet_energy(lap, f) == pytest.approx(1.0, abs=1e-12)

    def test_identity_on_disk_mesh_equals_area(self):
        mesh = planar_disk_mesh(8, 12)
        lap = assemble_laplacian(mesh)
        energy = dirichlet_energy(lap, mesh.vertices)
        total = sum(
            triangle_metrics(*mesh.face_points(t)).area for t in range(mesh.num_faces)
        )
        assert energy == pytest.approx(total, rel=1e-10)

    def test_matrix_and_edge_forms_agree(self, hemi_small):
        lap = assemble_laplacian(hemi_small.mesh)
        rng = np.random.default_rng(0)
        f = rng.normal(size=(lap.size, 2))
        # Oracle: 0.5 * sum_e w_e |f_i - f_j|^2 over the assembled edges.
        d = f[hemi_small.mesh.edges[:, 0]] - f[hemi_small.mesh.edges[:, 1]]
        edge_sum = 0.5 * np.sum(lap.weights * np.sum(d * d, axis=1))
        assert dirichlet_energy(lap, f) == pytest.approx(edge_sum, rel=1e-12)

    def test_invariances(self, hemi_small):
        lap = assemble_laplacian(hemi_small.mesh)
        rng = np.random.default_rng(1)
        f = rng.normal(size=(lap.size, 2))
        base = dirichlet_energy(lap, f)
        assert dirichlet_energy(lap, f + [3.0, -4.0]) == pytest.approx(base, rel=1e-12)
        angle = 1.234
        rot = np.array(
            [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
        )
        assert dirichlet_energy(lap, f @ rot.T) == pytest.approx(base, rel=1e-12)

    def test_dimension_mismatch(self, square_mesh):
        lap = assemble_laplacian(square_mesh)
        with pytest.raises(DimensionMismatch):
            dirichlet_energy(lap, np.zeros((3, 2)))


class TestPerTriangle:
    def test_matrix_vs_cotangent_form(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            dim = 2 if rng.uniform() < 0.5 else 3
            pts = random_triangle(rng, dim)
            geom = triangle_metrics(*pts)
            f = rng.normal(size=(3, 2))
            rho = rng.uniform(0.5, 2.0)
            a = per_triangle_dirichlet(f[0], f[1], f[2], geom, rho)
            b = per_triangle_dirichlet_matrix(f[0], f[1], f[2], *pts, rho)
            assert a == pytest.approx(b, rel=1e-10)

    def test_constant_map_zero(self):
        geom = triangle_metrics([0.0, 0.0], [1.0, 0.0], [0.0, 1.0])
        f = np.array([1.0, 2.0])
        assert per_triangle_dirichlet(f, f, f, geom) == pytest.approx(0.0, abs=1e-14)

    def test_rigid_motion_value(self):
        # an isometric map has |gradient|_F^2 = 2, so the form evaluates
        # to 2 * rho * area
        rng = np.random.default_rng(3)
        pts = random_triangle(rng, 2)
        geom = triangle_metrics(*pts)
        angle = 0.3
        rot = np.array(
            [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
        )
        f = pts @ rot.T + np.array([0.4, -0.7])
        rho = 1.3
        value = per_triangle_dirichlet(f[0], f[1], f[2], geom, rho)
        assert value == pytest.approx(2.0 * rho * geom.area, rel=1e-12)


class TestMappedArea:
    def test_identity_and_reflection(self, square_mesh):
        f = square_mesh.vertices.copy()
        assert mapped_area(square_mesh, f) == pytest.approx(1.0, abs=1e-14)
        flipped = f * np.array([1.0, -1.0])
        assert mapped_area(square_mesh, flipped) == pytest.approx(-1.0, abs=1e-14)

    def test_equals_boundary_shoelace_always(self, hemi_small):
        # per-face determinants telescope to the boundary polygon area,
        # folds or not
        mesh = hemi_small.mesh
        rng = np.random.default_rng(4)
        f = rng.normal(size=(mesh.num_vertices, 2))
        loops = mesh.boundary_loops()
        shoelace = 0.0
        for loop in loops:
            pts = f[loop]
            nxt = np.roll(pts, -1, axis=0)
            shoelace += 0.5 * np.sum(pts[:, 0] * nxt[:, 1] - pts[:, 1] * nxt[:, 0])
        assert mapped_area(mesh, f) == pytest.approx(shoelace, rel=1e-12)

    def test_stereographic_boundary_polygon(self):
        n, m = 16, 14
        hemi = gen_hemisphere(HemisphereSpec.from_counts(n, m))
        f = stereographic_project(hemi.mesh.vertices)
        area = mapped_area(hemi.mesh, f)
        assert area == pytest.approx(m / 2 * math.sin(2 * math.pi / m), rel=1e-12)

    def test_fold_detection(self, square_mesh):
        f = square_mesh.vertices.copy()
        f[1] = [0.2, 0.8]  # push a corner across the diagonal
        areas = face_image_areas(square_mesh, f)
        assert (areas < 0).sum() == 1


class TestConformalEnergy:
    def test_identity_is_conformal(self, square_mesh):
        lap = assemble_laplacian(square_mesh)
        breakdown = conformal_energy(square_mesh, lap, square_mesh.vertices)
        assert breakdown.conformal == pytest.approx(0.0, abs=1e-10)
        assert breakdown.conformal == breakdown.dirichlet - breakdown.area

    def test_parts_equal_the_separate_energies(self, hemi_small):
        # the ring-operator area is the per-face mapped area up to rounding
        mesh = hemi_small.mesh
        lap = assemble_laplacian(mesh)
        rng = np.random.default_rng(4)
        for _ in range(20):
            f = rng.normal(size=(mesh.num_vertices, 2))
            breakdown = conformal_energy(mesh, lap, f)
            assert breakdown.dirichlet == dirichlet_energy(lap, f)
            assert breakdown.area == pytest.approx(mapped_area(mesh, f), rel=1e-12, abs=1e-13)

    def test_dimension_mismatch(self, square_mesh, hemi_small):
        lap = assemble_laplacian(hemi_small.mesh)
        with pytest.raises(DimensionMismatch):
            conformal_energy(square_mesh, lap, square_mesh.vertices)
        with pytest.raises(DimensionMismatch):
            conformal_energy(square_mesh, assemble_laplacian(square_mesh), np.zeros((3, 2)))

    def test_nonnegative_on_planar_meshes(self):
        mesh = planar_disk_mesh(6, 9)
        lap = assemble_laplacian(mesh)
        rng = np.random.default_rng(5)
        for _ in range(200):
            f = rng.normal(size=(mesh.num_vertices, 2))
            assert conformal_energy(mesh, lap, f).conformal >= -1e-10

    def test_per_face_inequality_exact(self):
        # 0.5 |P|_F^2 >= det P per face makes the planar energy pointwise
        # nonnegative
        mesh = planar_disk_mesh(6, 9)
        rng = np.random.default_rng(6)
        f = rng.normal(size=(mesh.num_vertices, 2))
        for t in range(mesh.num_faces):
            pts = [np.asarray(p) for p in mesh.face_points(t)]
            geom = triangle_metrics(*pts)
            ids = mesh.faces[t]
            energy = 0.5 * per_triangle_dirichlet(
                f[ids[0]], f[ids[1]], f[ids[2]], geom, 1.0
            )
            e1 = f[ids[0]] - f[ids[1]]
            e2 = f[ids[1]] - f[ids[2]]
            signed = 0.5 * (e1[0] * e2[1] - e1[1] * e2[0])
            assert energy - signed >= -1e-12 * max(1.0, abs(energy))

    def test_stereographic_energy_small_and_shrinking(self):
        values = []
        for n in (8, 16):
            hemi = gen_hemisphere(HemisphereSpec.from_exponent(n, 11 / 12))
            lap = assemble_laplacian(
                hemi.mesh,
                rho_mode="quadrature",
                surface=hemi.surface,
                param_cells=hemi.param_cells,
            )
            f = hemi.reference_map()
            values.append(conformal_energy(hemi.mesh, lap, f).conformal)
        # small magnitude, shrinking with refinement; the area-ratio
        # weights keep it nonnegative
        assert 0 <= values[1] < values[0] < 0.5


def slot_record_laplacian(mesh, face_ratios):
    """Oracle L: one (ratio, cotangent) slot per adjacent face of each edge,
    NaN padding on boundary edges, weights by nansum."""
    cots = triangle_metrics(*mesh.face_points()).cotangents
    half = mesh.face_edges.ravel()
    slot = np.ones(len(half), dtype=int)
    slot[np.unique(half, return_index=True)[1]] = 0
    ratios = np.full((len(mesh.edges), 2), np.nan)
    cotans = np.full((len(mesh.edges), 2), np.nan)
    ratios[half, slot] = np.repeat(face_ratios, 3)
    cotans[half, slot] = cots.ravel()
    weights = 0.5 * np.nansum(ratios * cotans, axis=1)
    i, j = mesh.edges.T
    rows = np.concatenate([i, j, i, j])
    cols = np.concatenate([j, i, i, j])
    vals = np.concatenate([-weights, -weights, weights, weights])
    n = mesh.num_vertices
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n)), weights


def face_corner_ring(mesh):
    """Oracle P: (P f)_i sums f_j - f_k over every face (i, j, k), 6F entries."""
    faces = mesh.faces
    ones = np.ones(len(faces))
    rows, cols, vals = [], [], []
    for c0, c1, c2 in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        rows += [faces[:, c0], faces[:, c0]]
        cols += [faces[:, c1], faces[:, c2]]
        vals += [ones, -ones]
    n = mesh.num_vertices
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )


def _hemisphere_case(spec, rho):
    hemi = gen_hemisphere(spec)
    kwargs = {} if rho == "unit" else {"surface": hemi.surface, "param_cells": hemi.param_cells}
    return hemi.mesh, rho, kwargs


def _hexagon_fan():
    # a stretched hexagon fanned from vertex 0: no interior vertex
    angles = np.arange(6) * math.pi / 3
    vertices = np.column_stack([2 * np.cos(angles), np.sin(angles)])
    return TriMesh(vertices, [[0, k, k + 1] for k in range(1, 5)])


OPERATOR_CASES = {
    "hemi32-unit": lambda: _hemisphere_case(HemisphereSpec.from_exponent(32, 11 / 12), "unit"),
    "hemi32-quadrature": lambda: _hemisphere_case(
        HemisphereSpec.from_exponent(32, 11 / 12), "quadrature"
    ),
    "hemi32-analytic": lambda: _hemisphere_case(
        HemisphereSpec.from_exponent(32, 11 / 12), "analytic"
    ),
    "hemi256x4": lambda: _hemisphere_case(HemisphereSpec.from_counts(256, 4), "quadrature"),
    "annulus": lambda: (annulus_mesh(), "unit", {}),
    "square": lambda: (
        TriMesh([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]], [[0, 1, 2], [0, 2, 3]]),
        "unit",
        {},
    ),
    "hexagon-fan": lambda: (_hexagon_fan(), "unit", {}),
}


class TestOperatorOracles:
    """The edge-table operators equal the per-edge-record and per-corner
    constructions bit for bit, and so do the energies built on them."""

    @pytest.mark.parametrize("case", sorted(OPERATOR_CASES))
    def test_operators_and_energy_match(self, case):
        mesh, rho, kwargs = OPERATOR_CASES[case]()
        lap = assemble_laplacian(mesh, rho_mode=rho, **kwargs)
        matrix, weights = slot_record_laplacian(mesh, face_area_ratios(mesh, rho, **kwargs))
        assert np.array_equal(lap.weights, weights)
        assert np.array_equal(lap.matrix.data, matrix.data)
        assert np.array_equal(lap.matrix.indices, matrix.indices)
        assert np.array_equal(lap.matrix.indptr, matrix.indptr)

        energy = ConformalEnergy(mesh, lap)
        ring = face_corner_ring(mesh)
        assert energy.operator.nnz == lap.matrix.nnz + 2 * len(mesh.boundary_edges)
        rng = np.random.default_rng(7)
        for f in (mesh.vertices[:, :2].copy(), rng.normal(size=(mesh.num_vertices, 2))):
            pf = ring @ f
            point = energy.evaluate(f)
            assert np.array_equal(point.pf, pf)
            assert np.array_equal(point.lf, matrix @ f)
            parts = energy.evaluate(f).energy
            assert parts.dirichlet == 0.5 * float(np.sum(f * (matrix @ f)))
            assert parts.area == 0.25 * float(np.sum(f[:, 0] * pf[:, 1] - f[:, 1] * pf[:, 0]))
            gradient = matrix @ f - 0.5 * np.column_stack([pf[:, 1], -pf[:, 0]])
            assert np.array_equal(energy.evaluate(f).gradient(), gradient)
            # the three-row-gather formula
            fi, fj, fk = (f[mesh.faces[:, c]] for c in range(3))
            e1, e2 = fi - fj, fj - fk
            areas = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
            assert np.array_equal(face_image_areas(mesh, f), areas)

    @pytest.mark.parametrize("case", sorted(OPERATOR_CASES))
    def test_gradient_from_an_evaluation_equals_energy_gradient(self, case):
        # minimize forms an accepted step's gradient from the L f and P f of
        # its trial evaluation instead of recomputing both products
        mesh, rho, kwargs = OPERATOR_CASES[case]()
        lap = assemble_laplacian(mesh, rho_mode=rho, **kwargs)
        energy = ConformalEnergy(mesh, lap)
        ring = face_corner_ring(mesh)
        rng = np.random.default_rng(11)
        for f in (mesh.vertices[:, :2].copy(), rng.normal(size=(mesh.num_vertices, 2))):
            point = energy.evaluate(f)
            assert point.energy == conformal_energy(mesh, lap, f)
            gradient = energy_gradient(mesh, lap, f)
            assert np.array_equal(point.gradient(), gradient)
            pf = ring @ f
            assert np.array_equal(
                gradient, lap.matrix @ f - 0.5 * np.column_stack([pf[:, 1], -pf[:, 0]])
            )

    @pytest.mark.parametrize("case", sorted(OPERATOR_CASES))
    def test_boundary_halfedges_follow_the_faces(self, case):
        mesh = OPERATOR_CASES[case]()[0]
        # every directed face edge, corner-major: (i, j) of each face, then
        # (j, k), then (k, i); the boundary ones, each edge once
        faces = mesh.faces
        directed = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
        boundary = {tuple(e) for e in mesh.boundary_edges.tolist()}
        expected = [e for e in directed.tolist() if (min(e), max(e)) in boundary]
        assert mesh.boundary_halfedges.tolist() == expected
        assert len(expected) == len(boundary)


def test_mesh_factorizations_share_one_ordering(monkeypatch):
    # the harmonic init, the minimizer and the Beltrami solve all factor
    # through laplacian.factorize, with its minimum-degree ordering
    orderings = []
    splu = spla.splu

    def recorded(matrix, **kwargs):
        orderings.append(kwargs.get("permc_spec"))
        return splu(matrix, **kwargs)

    monkeypatch.setattr(spla, "splu", recorded)
    hemi = gen_hemisphere(HemisphereSpec.from_exponent(8, 11 / 12))
    lap = assemble_laplacian(hemi.mesh)
    source = face_nearest(hemi.mesh, np.array([0.0, 0.0, -1.0]))
    minimize(hemi.mesh, lap, disk_initial_guess(hemi.mesh, lap, source))
    disk = planar_disk_mesh(6, 9)
    boundary = disk.vertices[disk.boundary_vertices, :2]
    solve_beltrami(disk, np.zeros((disk.num_faces, 2)), boundary)
    assert FACTOR_ORDERING == "MMD_AT_PLUS_A"
    assert orderings == [FACTOR_ORDERING] * 3
