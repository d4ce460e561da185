import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from diskmap import (
    BeltramiCoefficient,
    DegenerateCoefficient,
    DegenerateTriangle,
    DimensionMismatch,
    InvalidTopology,
    NonFiniteVertex,
    SingularSystem,
    SolverFailure,
    TriMesh,
    assemble_beltrami,
    assemble_laplacian,
    beltrami_matrix,
    face_weights,
    solve_beltrami,
)
from diskmap import laplacian
from diskmap.beltrami import read_boundary_csv, read_mu_csv

from conftest import WrongFactor, planar_disk_mesh, random_triangle

QUARTER_TURN = np.array([[0.0, 1.0], [-1.0, 0.0]])


class TestBeltramiMatrix:
    def test_zero_coefficient_is_quarter_turn(self):
        assert np.allclose(beltrami_matrix(0.0, 0.0), QUARTER_TURN)

    def test_trace_free(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            r = rng.uniform(0, 0.95)
            angle = rng.uniform(0, 2 * math.pi)
            b = beltrami_matrix(r * math.cos(angle), r * math.sin(angle))
            assert np.trace(b) == pytest.approx(0.0, abs=1e-12)

    def test_squares_to_minus_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            r = rng.uniform(0, 0.9)
            angle = rng.uniform(0, 2 * math.pi)
            b = beltrami_matrix(r * math.cos(angle), r * math.sin(angle))
            assert np.allclose(b @ b, -np.eye(2), atol=1e-9)

    def test_near_unit_rejected(self):
        with pytest.raises(DegenerateCoefficient):
            beltrami_matrix(1.0, 0.0)
        with pytest.raises(DegenerateCoefficient):
            BeltramiCoefficient(np.array([0.8]), np.array([0.7]))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, value):
        # NaN compares false with everything, so the test must be "not < 1"
        mu1 = np.array([0.1, 0.2, value, value])
        mu2 = np.zeros(4)
        with pytest.raises(DegenerateCoefficient, match="^face 2: "):
            BeltramiCoefficient(mu1, mu2)
        with pytest.raises(DegenerateCoefficient, match="^face 2: "):
            beltrami_matrix(mu2, mu1)


class TestFaceWeights:
    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            tri = random_triangle(rng, 2)
            r = rng.uniform(0, 0.9)
            angle = rng.uniform(0, 2 * math.pi)
            w = face_weights(*tri, r * math.cos(angle), r * math.sin(angle))
            assert abs(w.sum()) <= 1e-12 * np.abs(w).max()

    def test_rotation_invariance_at_zero(self):
        rng = np.random.default_rng(3)
        tri = random_triangle(rng, 2)
        base = face_weights(*tri, 0.0, 0.0)
        angle = 0.77
        rot = np.array(
            [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
        )
        rotated = face_weights(*(tri @ rot.T), 0.0, 0.0)
        assert np.allclose(base, rotated, rtol=1e-10, atol=1e-12)

    def test_zero_reduction_to_cotangent_rows(self):
        # assembled interior operator at mu = 0 equals the plain
        # cotangent Laplacian rows, entrywise, up to one global sign
        mesh = planar_disk_mesh(6, 9)
        rows = assemble_beltrami(mesh, BeltramiCoefficient.zero(mesh.num_faces))
        lap = assemble_laplacian(mesh, rho_mode="unit")
        reference = lap.matrix[mesh.interior_vertices()].toarray()
        assembled = rows.toarray()
        sign = 1.0 if abs(assembled[0] @ reference[0]) >= 0 else -1.0
        scale = np.abs(reference).max()
        gap = np.abs(assembled - sign * reference).max()
        assert gap <= 1e-10 * scale
        row_sums = np.abs(assembled.sum(axis=1))
        assert row_sums.max() <= 1e-12 * scale


class TestAssembly:
    @pytest.mark.parametrize("exponent", [300, -300, 565, -565])
    def test_rows_do_not_depend_on_the_mesh_scale(self, exponent):
        # each face is measured at unit scale, so a power-of-two scaling is
        # exact; at 2^-565 the raw cross product underflowed to 0, at 2^565
        # it overflowed
        mesh = planar_disk_mesh(6, 9)
        rng = np.random.default_rng(3)
        radius = 0.5 * np.sqrt(rng.random(mesh.num_faces))
        angle = 2.0 * math.pi * rng.random(mesh.num_faces)
        mu = BeltramiCoefficient(radius * np.cos(angle), radius * np.sin(angle))
        scaled = TriMesh(np.ldexp(mesh.vertices, exponent), mesh.faces)
        expected = assemble_beltrami(mesh, mu).toarray()
        assert np.array_equal(assemble_beltrami(scaled, mu).toarray(), expected)

    def test_equals_per_face_reference(self):
        mesh = planar_disk_mesh(6, 9)
        rng = np.random.default_rng(14)
        radius = 0.6 * rng.random(mesh.num_faces)
        angle = 2 * math.pi * rng.random(mesh.num_faces)
        mu = BeltramiCoefficient(radius * np.cos(angle), radius * np.sin(angle))
        row_of = {int(v): r for r, v in enumerate(mesh.interior_vertices())}
        expected = np.zeros((len(row_of), mesh.num_vertices))
        for t, ids in enumerate(mesh.faces):
            for a in range(3):
                corners = [ids[a], ids[(a + 1) % 3], ids[(a + 2) % 3]]
                if int(corners[0]) not in row_of:
                    continue
                w = face_weights(*mesh.vertices[corners], mu.mu1[t], mu.mu2[t])
                expected[row_of[int(corners[0])], corners] += w
        rows = assemble_beltrami(mesh, mu)
        # Entries shared by faces are summed in another order.
        scale = np.abs(expected).max()
        assert np.allclose(rows.toarray(), expected, rtol=0, atol=1e-14 * scale)


class TestSolve:
    def test_constant_boundary_gives_constant(self):
        mesh = planar_disk_mesh(6, 9)
        boundary = np.tile([0.7, -0.2], (len(mesh.boundary_vertices), 1))
        mu = BeltramiCoefficient.zero(mesh.num_faces)
        g = solve_beltrami(mesh, mu, boundary)
        assert np.allclose(g, [0.7, -0.2], atol=1e-10)

    def test_identity_boundary_reproduced(self):
        mesh = planar_disk_mesh(6, 9)
        boundary = mesh.vertices[mesh.boundary_vertices][:, :2]
        mu = BeltramiCoefficient.zero(mesh.num_faces)
        g = solve_beltrami(mesh, mu, boundary)
        assert np.abs(g - mesh.vertices[:, :2]).max() <= 1e-8

    def test_harmonic_pair_refinement(self):
        # boundary data (x^2 - y^2, 2 x y) is harmonic, so the zero
        # coefficient solve reproduces it up to discretization error
        # that at least halves from one refinement to the next
        errors = []
        for n, m in ((6, 9), (12, 18)):
            mesh = planar_disk_mesh(n, m)
            exact = np.column_stack(
                [
                    mesh.vertices[:, 0] ** 2 - mesh.vertices[:, 1] ** 2,
                    2.0 * mesh.vertices[:, 0] * mesh.vertices[:, 1],
                ]
            )
            mu = BeltramiCoefficient.zero(mesh.num_faces)
            g = solve_beltrami(mesh, mu, exact[mesh.boundary_vertices])
            errors.append(np.abs(g - exact).max())
        assert errors[1] <= errors[0] / 2

    def test_linearity_in_boundary_data(self):
        mesh = planar_disk_mesh(6, 9)
        mu = BeltramiCoefficient(
            np.full(mesh.num_faces, 0.2), np.full(mesh.num_faces, -0.1)
        )
        rng = np.random.default_rng(4)
        nb = len(mesh.boundary_vertices)
        ga, gb = rng.normal(size=(nb, 2)), rng.normal(size=(nb, 2))
        alpha, beta = 1.7, -0.6
        combo = solve_beltrami(mesh, mu, alpha * ga + beta * gb)
        parts = alpha * solve_beltrami(mesh, mu, ga) + beta * solve_beltrami(mesh, mu, gb)
        assert np.abs(combo - parts).max() <= 1e-9 * max(1.0, np.abs(parts).max())

    def test_nonzero_coefficient_changes_solution(self):
        # affine data solves the system for any constant coefficient, so
        # a curved boundary field is needed to see the coefficient act
        mesh = planar_disk_mesh(6, 9)
        curved = np.column_stack(
            [
                mesh.vertices[:, 0] ** 2 - mesh.vertices[:, 1] ** 2,
                2.0 * mesh.vertices[:, 0] * mesh.vertices[:, 1],
            ]
        )[mesh.boundary_vertices]
        base = solve_beltrami(mesh, BeltramiCoefficient.zero(mesh.num_faces), curved)
        skewed = solve_beltrami(
            mesh,
            BeltramiCoefficient(
                np.full(mesh.num_faces, 0.4), np.zeros(mesh.num_faces)
            ),
            curved,
        )
        assert np.abs(base - skewed).max() > 1e-3

    def test_affine_data_insensitive_to_constant_coefficient(self):
        # ring sums of the opposite edges vanish, so affine maps satisfy
        # every interior row regardless of the constant coefficient
        mesh = planar_disk_mesh(6, 9)
        boundary = mesh.vertices[mesh.boundary_vertices][:, :2]
        base = solve_beltrami(mesh, BeltramiCoefficient.zero(mesh.num_faces), boundary)
        skewed = solve_beltrami(
            mesh,
            BeltramiCoefficient(
                np.full(mesh.num_faces, 0.4), np.zeros(mesh.num_faces)
            ),
            boundary,
        )
        assert np.abs(base - skewed).max() <= 1e-10

    def test_shape_validation(self):
        mesh = planar_disk_mesh(6, 9)
        mu = BeltramiCoefficient.zero(mesh.num_faces)
        with pytest.raises(DimensionMismatch):
            solve_beltrami(mesh, mu, np.zeros((3, 2)))
        with pytest.raises(DimensionMismatch):
            assemble_beltrami(mesh, BeltramiCoefficient.zero(2))

    def test_singular_interior_block_raises(self, monkeypatch):
        def singular(matrix, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(spla, "splu", singular)
        mesh = planar_disk_mesh(6, 9)
        boundary = mesh.vertices[mesh.boundary_vertices][:, :2]
        with pytest.raises(SingularSystem, match="singular system: Factor is exactly singular"):
            solve_beltrami(mesh, BeltramiCoefficient.zero(mesh.num_faces), boundary)

    def test_wrong_solve_fails_the_residual_check(self, monkeypatch):
        monkeypatch.setattr(laplacian, "factorize", WrongFactor)
        mesh = planar_disk_mesh(6, 9)
        boundary = mesh.vertices[mesh.boundary_vertices][:, :2]
        with pytest.raises(SolverFailure, match="relative residual .* exceeds 1e-10"):
            solve_beltrami(mesh, BeltramiCoefficient.zero(mesh.num_faces), boundary)

    def test_nonplanar_mesh_rejected(self):
        verts = [[0, 0, 0], [1, 0, 0.2], [0, 1, 0], [1, 1, 0.3]]
        mesh = TriMesh(verts, [[0, 1, 2], [1, 3, 2]])
        with pytest.raises(DimensionMismatch):
            assemble_beltrami(mesh, BeltramiCoefficient.zero(2))

    @staticmethod
    def _lifted_disk(height, scale):
        """planar_disk_mesh(6, 9), radius 1, as a dome of the given height
        over its xy points, and the flat disk; both scaled by `scale`."""
        flat = planar_disk_mesh(6, 9)
        xy = flat.vertices[:, :2]
        z = height * (1.0 - np.sum(xy * xy, axis=1))
        lifted = TriMesh(scale * np.column_stack([xy, z]), flat.faces)
        return lifted, TriMesh(scale * xy, flat.faces)

    def test_tiny_nonplanar_mesh_rejected(self):
        # |z| reaches 0.3 of the radius; at scale 1e-13 every |z| is
        # below 1e-12, which says nothing about planarity
        lifted, _ = self._lifted_disk(0.3, 1e-13)
        with pytest.raises(DimensionMismatch, match="needs a planar mesh"):
            assemble_beltrami(lifted, BeltramiCoefficient.zero(lifted.num_faces))

    def test_large_planar_mesh_accepted(self):
        # planar to 1e-16 of the radius; at scale 1e5 some |z| exceed 1e-12
        lifted, flat = self._lifted_disk(1e-16, 1e5)
        assert np.abs(lifted.vertices[:, 2]).max() > 1e-12
        mu = BeltramiCoefficient.zero(lifted.num_faces)
        got, expected = assemble_beltrami(lifted, mu), assemble_beltrami(flat, mu)
        assert np.array_equal(got.toarray(), expected.toarray())


    def test_folded_mesh_rejected_in_2d_and_at_z_0(self):
        # one of the four fan faces around (1.5, 0.5) is reversed
        square = [[0, 0], [1, 0], [1, 1], [0, 1], [1.5, 0.5]]
        fan = [[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]]
        with pytest.raises(InvalidTopology, match="orientation sign"):
            TriMesh(square, fan)
        flat = TriMesh(np.column_stack([square, np.zeros(5)]), fan)
        with pytest.raises(InvalidTopology, match="orientation sign"):
            assemble_beltrami(flat, BeltramiCoefficient.zero(4))

@pytest.mark.parametrize(
    "case, error, message",
    [
        ("mu_shapes", DimensionMismatch, "mu1 and mu2 must have matching shapes"),
        ("zero_area_face", DegenerateTriangle, "face 1: degenerate planar face"),
    ],
)
def test_malformed_input_refused(case, error, message):
    # corners i, j, k of two faces; face 1's are collinear
    v_i, v_j, v_k = np.array(
        [[[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [1.0, 1.0]], [[0.0, 1.0], [2.0, 2.0]]]
    )
    calls = {
        "mu_shapes": lambda: BeltramiCoefficient(np.zeros(3), np.zeros(4)),
        "zero_area_face": lambda: face_weights(v_i, v_j, v_k, np.zeros(2), np.zeros(2)),
    }
    with pytest.raises(error, match=f"^{message}$"):
        calls[case]()


class TestCsvIngestion:
    def test_mu_round_trip(self, tmp_path):
        mesh = planar_disk_mesh(6, 9)
        path = tmp_path / "mu.csv"
        path.write_text("face,mu1,mu2\n0,0.25,-0.1\n3,0.0,0.5\n")
        mu = read_mu_csv(path, mesh.num_faces)
        assert mu.mu1[0] == 0.25
        assert mu.mu2[3] == 0.5
        assert mu.mu1[1] == 0.0

    def test_boundary_round_trip(self, tmp_path):
        mesh = planar_disk_mesh(6, 9)
        path = tmp_path / "bnd.csv"
        lines = ["vertex,x,y"]
        for v in mesh.boundary_vertices:
            lines.append(f"{v},{mesh.vertices[v, 0]},{mesh.vertices[v, 1]}")
        path.write_text("\n".join(lines) + "\n")
        values = read_boundary_csv(path, mesh)
        assert np.allclose(values, mesh.vertices[mesh.boundary_vertices][:, :2])

    def test_missing_boundary_vertex_rejected(self, tmp_path):
        mesh = planar_disk_mesh(6, 9)
        path = tmp_path / "bnd.csv"
        path.write_text("vertex,x,y\n1,0.0,0.0\n")
        with pytest.raises(DimensionMismatch):
            read_boundary_csv(path, mesh)

    @staticmethod
    def boundary_lines(mesh):
        return ["vertex,x,y"] + [
            f"{v},{mesh.vertices[v, 0]:.17g},{mesh.vertices[v, 1]:.17g}"
            for v in mesh.boundary_vertices
        ]

    @pytest.mark.parametrize(
        "row, named",
        [
            ("99999,5,5", "vertex 99999 is not in the mesh"),
            ("-3,1,1", "vertex -3 is not in the mesh"),
            ("0,0.5,0.5", "vertex 0 is not a boundary vertex"),
        ],
    )
    def test_row_off_the_boundary_rejected(self, tmp_path, row, named):
        mesh = planar_disk_mesh(6, 9)
        assert 0 in mesh.interior_vertices()
        path = tmp_path / "bnd.csv"
        path.write_text("\n".join(self.boundary_lines(mesh) + [row]) + "\n")
        with pytest.raises(DimensionMismatch, match=named):
            read_boundary_csv(path, mesh)

    def test_vertex_given_twice_rejected(self, tmp_path):
        mesh = planar_disk_mesh(6, 9)
        path = tmp_path / "bnd.csv"
        lines = self.boundary_lines(mesh)
        path.write_text("\n".join(lines + ["4,0.0,0.0"]) + "\n")
        with pytest.raises(DimensionMismatch, match="vertex 4 has more than one row"):
            read_boundary_csv(path, mesh)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, tmp_path, value):
        mesh = planar_disk_mesh(6, 9)
        path = tmp_path / "bnd.csv"
        lines = self.boundary_lines(mesh)
        lines[3] = f"3,0.5,{value}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(NonFiniteVertex, match="vertex 3 "):
            read_boundary_csv(path, mesh)

    def test_rows_in_any_order(self, tmp_path):
        mesh = planar_disk_mesh(6, 9)
        path = tmp_path / "bnd.csv"
        lines = self.boundary_lines(mesh)
        path.write_text("\n".join(lines[:1] + lines[:0:-1]) + "\n")
        values = read_boundary_csv(path, mesh)
        assert np.array_equal(values, mesh.vertices[mesh.boundary_vertices][:, :2])

    @pytest.mark.parametrize("face", [99, -1])
    def test_face_out_of_range_rejected(self, tmp_path, face):
        mesh = planar_disk_mesh(6, 9)  # 99 faces
        path = tmp_path / "mu.csv"
        path.write_text(f"face,mu1,mu2\n0,0.25,-0.1\n{face},0.0,0.5\n")
        with pytest.raises(DimensionMismatch, match=f"^face index {face} out of range$"):
            read_mu_csv(path, mesh.num_faces)

    def test_face_given_twice_rejected(self, tmp_path):
        mesh = planar_disk_mesh(6, 9)
        path = tmp_path / "mu.csv"
        path.write_text("face,mu1,mu2\n0,0.25,-0.1\n3,0.0,0.5\n0,0.1,0.1\n")
        with pytest.raises(DimensionMismatch, match="face 0 has more than one row"):
            read_mu_csv(path, mesh.num_faces)
