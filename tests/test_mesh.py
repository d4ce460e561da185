import importlib.util
import io
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from diskmap import (
    DegenerateTriangle,
    HemisphereSpec,
    InvalidTopology,
    NearPole,
    NonFiniteVertex,
    ParseError,
    TriMesh,
    gen_hemisphere,
    load_mesh,
    save_mesh,
    stereographic_project,
    triangle_metrics,
)

from diskmap.beltrami import _read_indexed_pairs, read_boundary_csv, read_mu_csv
from diskmap.hemisphere import (
    MAX_VERTICES,
    sphere_gradient,
    sphere_point,
    stereographic_gradient,
)
from diskmap.mesh import write_rows

from conftest import annulus_mesh, planar_disk_mesh, random_triangle
from oracles import stereographic_dirichlet_energy

RIGHT = (np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0]))


class TestTriangleMetrics:
    def test_equilateral(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
        geom = triangle_metrics(*pts)
        assert np.allclose(geom.angles, math.pi / 3, atol=1e-12)
        assert geom.area == pytest.approx(math.sqrt(3) / 4, abs=1e-14)
        assert np.allclose(geom.cotangents, 1 / math.sqrt(3), atol=1e-12)
        assert geom.inradius == pytest.approx(1 / (2 * math.sqrt(3)), abs=1e-14)
        assert geom.diameter == pytest.approx(1.0)

    def test_right_triangle(self):
        geom = triangle_metrics([0.0, 0.0], [1.0, 0.0], [0.0, 1.0])
        assert geom.area == pytest.approx(0.5, abs=1e-15)
        assert sorted(geom.angles) == pytest.approx(
            [math.pi / 4, math.pi / 4, math.pi / 2], abs=1e-12
        )
        assert geom.diameter == pytest.approx(math.sqrt(2))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_area_matches_cross_product(self, dim):
        rng = np.random.default_rng(7)
        for _ in range(100):
            pts = random_triangle(rng, dim)
            geom = triangle_metrics(*pts)
            u, w = pts[1] - pts[0], pts[2] - pts[0]
            if dim == 2:
                expected = 0.5 * abs(u[0] * w[1] - u[1] * w[0])
            else:
                expected = 0.5 * np.linalg.norm(np.cross(u, w))
            assert geom.area == pytest.approx(expected, rel=1e-12)

    def test_angles_sum_to_pi(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            geom = triangle_metrics(*random_triangle(rng, 3))
            assert geom.angles.sum() == pytest.approx(math.pi, rel=1e-12)

    def test_area_consistent_across_corners(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            pts = random_triangle(rng, 2)
            geom = triangle_metrics(*pts)
            lij, ljk, lki = geom.edge_lengths
            # each corner: half product of adjacent edges times sine
            for corner, (la, lb) in enumerate([(lij, lki), (lij, ljk), (ljk, lki)]):
                area = 0.5 * la * lb * math.sin(geom.angles[corner])
                assert area == pytest.approx(geom.area, rel=1e-12)

    def test_inradius_and_diameter(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            pts = random_triangle(rng, 3)
            geom = triangle_metrics(*pts)
            assert geom.inradius == pytest.approx(
                2 * geom.area / geom.edge_lengths.sum(), rel=1e-12
            )
            assert geom.diameter == pytest.approx(geom.edge_lengths.max())
            assert geom.diameter / math.sin(geom.angles.min()) >= geom.diameter

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateTriangle):
            triangle_metrics([0.0, 0.0], [1.0, 0.0], [2.0, 1e-16])

    def test_normal_is_unit_and_right_handed(self):
        geom = triangle_metrics([0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0])
        assert np.allclose(geom.normal, [0, 0, 1])

    @pytest.mark.parametrize("dim", [2, 3])
    def test_stack_equals_per_triangle_calls(self, dim):
        rng = np.random.default_rng(11)
        pts = np.array([random_triangle(rng, dim) for _ in range(50)])
        stacked = triangle_metrics(pts[:, 0], pts[:, 1], pts[:, 2])
        for t, tri in enumerate(pts):
            one = triangle_metrics(*tri)
            for field in ("edge_lengths", "angles", "cotangents", "normal"):
                assert np.array_equal(getattr(stacked, field)[t], getattr(one, field))
            for field in ("area", "diameter", "inradius"):
                assert getattr(stacked, field)[t] == getattr(one, field)
            assert one.area.shape == () and one.normal.shape == (3,)
            if dim == 2:
                # a planar triangle is the spatial one at z = 0
                u, w = tri[1] - tri[0], tri[2] - tri[0]
                assert np.array_equal(one.normal, [0, 0, np.sign(u[0] * w[1] - u[1] * w[0])])
        frames = triangle_metrics(pts[:, 0], pts[:, 1], pts[:, 2])
        for t, tri in enumerate(pts):
            one = triangle_metrics(*tri)
            for field in ("rotated_edges", "hat_gradients", "normal"):
                assert np.array_equal(getattr(frames, field)[t], getattr(one, field))
            assert frames.area[t] == one.area and one.area.shape == ()
            assert one.hat_gradients.shape == (3, 3)
            if dim == 2:
                assert not one.rotated_edges[:, 2].any()

    def test_stack_names_first_degenerate_face(self):
        rng = np.random.default_rng(12)
        pts = np.array([random_triangle(rng, 2) for _ in range(8)])
        for t in (3, 6):
            pts[t, 2] = 2.0 * pts[t, 1] - pts[t, 0]  # collinear corners
        with pytest.raises(DegenerateTriangle, match="^face 3: "):
            triangle_metrics(pts[:, 0], pts[:, 1], pts[:, 2])


class TestProjectionFrame:
    """The hat-function frame fields of :func:`triangle_metrics`."""

    def test_unit_right_triangle_first_gradient(self):
        frame = triangle_metrics(*RIGHT)
        assert np.allclose(frame.hat_gradients[0], [-1.0, -1.0, 0.0], atol=1e-14)

    def test_gradients_sum_to_zero(self):
        rng = np.random.default_rng(1)
        for dim in (2, 3):
            for _ in range(50):
                frame = triangle_metrics(*random_triangle(rng, dim))
                assert np.allclose(frame.hat_gradients.sum(axis=0), 0.0, atol=1e-12)

    def test_scaling_inverts_gradients(self):
        rng = np.random.default_rng(2)
        pts = random_triangle(rng, 3)
        t = 3.7
        base = triangle_metrics(*pts)
        scaled = triangle_metrics(*(t * pts))
        assert np.allclose(scaled.hat_gradients, base.hat_gradients / t, rtol=1e-12)

    def test_dual_basis_pattern(self):
        # <b_ell, v_a - v_base(ell)> is 1 at a = ell, 0 at the other corner
        rng = np.random.default_rng(3)
        for dim in (2, 3):
            tri = random_triangle(rng, dim)
            frame = triangle_metrics(*tri)
            pts = np.pad(tri, ((0, 0), (0, 3 - dim)))  # planar corners at z = 0
            bases = (pts[1], pts[2], pts[0])  # v_j, v_k, v_i respectively
            for ell in range(3):
                for a in range(3):
                    expected = 1.0 if a == ell else 0.0
                    got = frame.hat_gradients[ell] @ (pts[a] - bases[ell])
                    if np.allclose(pts[a], bases[ell]):
                        continue
                    assert got == pytest.approx(expected, abs=1e-12)

    def test_gradients_orthogonal_to_normal(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            pts = random_triangle(rng, 3)
            frame = triangle_metrics(*pts)
            for b in frame.hat_gradients:
                assert abs(b @ frame.normal) <= 1e-12 * np.linalg.norm(b)

    def test_rotated_edges_match_lengths(self):
        rng = np.random.default_rng(5)
        pts = random_triangle(rng, 3)
        frame = triangle_metrics(*pts)
        opposite = [pts[1] - pts[2], pts[2] - pts[0], pts[0] - pts[1]]
        for s, e in zip(frame.rotated_edges, opposite):
            assert np.linalg.norm(s) == pytest.approx(np.linalg.norm(e), rel=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateTriangle):
            triangle_metrics([0.0, 0.0], [1.0, 0.0], [2.0, 0.0])

    @pytest.mark.parametrize("case", ["hemisphere", "random_2d", "random_3d"])
    def test_frames_equal_the_own_scale_formula(self, case):
        # Measured at unit scale and scaled back by a power of two, the
        # frames keep every bit of the formula applied at the triangle's
        # own scale: the opposite edges crossed with the normal, divided
        # by twice the area for the hat gradients.
        if case == "hemisphere":
            corners = gen_hemisphere(HemisphereSpec.from_exponent(16, 11 / 12)).mesh.face_points()
        else:
            rng = np.random.default_rng(14)
            dim = int(case[-2])
            scales = np.exp(rng.uniform(-30, 30, size=500))
            pts = np.array([random_triangle(rng, dim, scale=s) for s in scales])
            corners = pts[:, 0], pts[:, 1], pts[:, 2]
        geom = triangle_metrics(*corners)
        v_i, v_j, v_k = (np.pad(v, ((0, 0), (0, 3 - v.shape[1]))) for v in corners)
        opposite = np.stack([v_j - v_k, v_k - v_i, v_i - v_j], axis=-2)
        rotated = np.cross(opposite, geom.normal[:, None, :])
        assert np.array_equal(geom.rotated_edges, rotated)
        assert np.array_equal(geom.hat_gradients, rotated / (2.0 * geom.area)[:, None, None])


class TestTriMesh:
    def test_square_boundary(self, square_mesh):
        assert square_mesh.num_vertices == 4
        assert len(square_mesh.boundary_edges) == 4
        assert [0, 2] not in square_mesh.boundary_edges.tolist()
        assert [0, 1] in square_mesh.boundary_edges.tolist()
        assert square_mesh.boundary_loops() == [[0, 1, 2, 3]]
        assert len(square_mesh.interior_vertices()) == 0

    @pytest.mark.parametrize("name", ["hemisphere", "annulus"])
    def test_boundary_loops_equal_face_walk(self, name):
        mesh = (
            gen_hemisphere(HemisphereSpec.from_counts(6, 9)).mesh
            if name == "hemisphere"
            else annulus_mesh()
        )
        # reference: successor of each boundary vertex, faces read edge by edge
        boundary = {tuple(e) for e in mesh.boundary_edges.tolist()}
        succ = {}
        for a, b in ((0, 1), (1, 2), (2, 0)):
            for i, j in zip(mesh.faces[:, a].tolist(), mesh.faces[:, b].tolist()):
                if (min(i, j), max(i, j)) in boundary:
                    succ[i] = j
        loops = mesh.boundary_loops()
        assert sorted(v for loop in loops for v in loop) == sorted(succ)
        for loop in loops:
            assert loop[0] == min(loop)
            assert [succ[v] for v in loop] == loop[1:] + loop[:1]
        assert len(loops) == (1 if name == "hemisphere" else 2)

    def test_pinched_boundary_vertex_rejected(self):
        # two triangles that share only vertex 0, which starts two boundary
        # edges; V - E + F = 1 all the same
        bowtie = TriMesh([[0, 0], [1, 0], [0, 1], [-1, 0], [0, -1]], [[0, 1, 2], [0, 3, 4]])
        with pytest.raises(InvalidTopology, match="^boundary vertex 0 is pinched: it starts 2 "):
            bowtie.boundary_loops()

    def test_bad_index_rejected(self):
        with pytest.raises(InvalidTopology):
            TriMesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 5]])

    @pytest.mark.parametrize(
        "faces", [[[0, 1]], [0, 1, 2], [[[0, 1, 2]]]], ids=["pairs", "flat", "stacked"]
    )
    def test_faces_not_f_by_3_rejected(self, faces):
        with pytest.raises(InvalidTopology, match=r"^faces must have shape \(F, 3\)$"):
            TriMesh([[0, 0], [1, 0], [0, 1]], faces)

    def test_empty_face_list_is_a_mesh_without_faces(self):
        mesh = TriMesh([[0.0, 0.0], [1.0, 0.0]], [])
        assert mesh.faces.shape == (0, 3) and mesh.edges.shape == (0, 2)
        assert mesh.boundary_loops() == [] and mesh.geometry.area.shape == (0,)

    def test_repeated_vertex_rejected(self):
        with pytest.raises(InvalidTopology):
            TriMesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 1]])

    def test_overfull_edge_rejected(self):
        verts = [[0, 0], [1, 0], [0, 1], [1, 1], [-1, 1]]
        faces = [[0, 1, 2], [0, 2, 3], [0, 2, 4]]
        with pytest.raises(InvalidTopology):
            TriMesh(verts, faces)

    def test_edge_table(self, hemi_small):
        mesh = hemi_small.mesh
        faces = mesh.faces
        # the edge opposite each corner joins the other two corners
        for c in range(3):
            a, b = faces[:, (c + 1) % 3], faces[:, (c + 2) % 3]
            expected = np.column_stack([np.minimum(a, b), np.maximum(a, b)])
            assert np.array_equal(mesh.edges[mesh.face_edges[:, c]], expected)
        assert len({tuple(e) for e in mesh.edges.tolist()}) == len(mesh.edges)
        # edges are numbered by first appearance in face order
        firsts = np.unique(mesh.face_edges.ravel(), return_index=True)[1]
        assert np.all(np.diff(firsts) > 0)
        # a disk: V - E + F = 1
        assert mesh.num_vertices - len(mesh.edges) + mesh.num_faces == 1

    def test_rejection_names_first_offending_edge(self):
        verts = np.random.default_rng(13).normal(size=(6, 3))
        # faces 0 and 1 both traverse edge (1, 2) from 1 to 2; edge (3, 5)
        # has three faces but first appears later, in face 2
        faces = [[0, 1, 2], [1, 2, 4], [3, 5, 0], [5, 3, 4], [3, 5, 2]]
        with pytest.raises(InvalidTopology, match=r"orientation across edge \(1, 2\)"):
            TriMesh(verts, faces)
        with pytest.raises(InvalidTopology, match=r"edge \(3, 5\) belongs to 3 faces"):
            TriMesh(verts, faces[2:])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_vertex_rejected(self, bad):
        verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
        verts[2, 1] = verts[3, 0] = bad
        with pytest.raises(NonFiniteVertex, match="vertex 2 "):
            TriMesh(verts, [[0, 1, 2], [0, 2, 3]])

    @pytest.mark.parametrize(
        "verts",
        [[[0.0], [1.0], [2.0]], [[0.0, 0, 0, 0], [1.0, 0, 0, 0], [0.0, 0, 1, 0]]],
        ids=["1d", "4d"],
    )
    def test_vertices_planar_or_spatial_only(self, verts):
        with pytest.raises(InvalidTopology, match=r"\(N, 2\) or \(N, 3\)"):
            TriMesh(verts, [[0, 1, 2]])

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_orientation_checked_at_unit_scale(self, scale):
        # the determinants of these faces leave double range
        verts = scale * np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.2, 0.2]])
        TriMesh(verts, [[0, 1, 2], [2, 1, 3]])
        with pytest.raises(InvalidTopology, match="orientation sign"):
            TriMesh(verts, [[0, 1, 2], [2, 1, 4]])  # the second face folds back

    def test_inconsistent_orientation_rejected(self):
        verts = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]
        faces = [[0, 1, 2], [0, 2, 3]]
        TriMesh(verts, faces)  # consistent
        with pytest.raises(InvalidTopology):
            TriMesh(verts, [[0, 1, 2], [0, 3, 2]])


def loop_built_hemisphere(n, m):
    """The structured hemisphere built one vertex and one face at a time:
    vertices, faces, parameter triangles, the band faces' triangles, the
    pole faces' rectangles, pole flags."""
    phi = lambda i: 2.0 * math.pi * i / m  # noqa: E731
    psi = lambda j: 0.5 * math.pi + 0.5 * math.pi * j / n  # noqa: E731
    vid = lambda i, j: 1 + j * m + (i % m)  # noqa: E731
    vertices = [[0.0, 0.0, -1.0]]
    for j in range(n):
        for i in range(m):
            s = math.sin(psi(j))
            vertices.append([math.cos(phi(i)) * s, math.sin(phi(i)) * s, math.cos(psi(j))])
    faces, tris, band, rects, pole = [], [], [], [], []
    for j in range(n - 1):
        for i in range(m):
            a, b = (phi(i + 1), psi(j)), (phi(i + 1), psi(j + 1))
            c, d = (phi(i), psi(j + 1)), (phi(i), psi(j))
            faces += [(vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)),
                      (vid(i + 1, j), vid(i, j + 1), vid(i, j))]
            tris += [[a, b, c], [a, c, d]]
            band += [[a, b, c], [a, c, d]]
            pole += [False, False]
    last = psi(n - 1)
    for i in range(m):
        faces.append((0, vid(i, n - 1), vid(i + 1, n - 1)))
        tris.append([(0.5 * (phi(i) + phi(i + 1)), math.pi), (phi(i), last), (phi(i + 1), last)])
        rects.append([(phi(i), last), (phi(i + 1), last), (phi(i + 1), math.pi), (phi(i), math.pi)])
        pole.append(True)
    return tuple(map(np.array, (vertices, faces, tris, band, rects, pole)))


class TestHemisphere:
    @pytest.mark.parametrize("n, m", [(2, 3), (3, 7), (8, 6), (5, 3), (16, 13)])
    def test_equals_loop_built_mesh(self, n, m):
        vertices, faces, tris, band, rects, pole = loop_built_hemisphere(n, m)
        hemi = gen_hemisphere(HemisphereSpec.from_counts(n, m))
        # numpy's and math's sin/cos may differ in the last bit
        np.testing.assert_allclose(hemi.mesh.vertices, vertices, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(hemi.mesh.faces, faces)
        np.testing.assert_array_equal(hemi.param_tris, tris)
        assert hemi.param_tris.shape == (hemi.mesh.num_faces, 3, 2)
        assert len(hemi.param_cells) == 2
        np.testing.assert_array_equal(hemi.param_cells[0], band)
        np.testing.assert_array_equal(hemi.param_cells[1], rects)
        np.testing.assert_array_equal(hemi.pole_faces, pole)

    def test_paper_resolution_counts(self, hemi_paper):
        assert hemi_paper.mesh.num_vertices == 217
        assert hemi_paper.mesh.num_faces == 27 * (2 * 8 - 1)

    def test_spec_invariants(self):
        spec = HemisphereSpec.from_counts(5, 9)
        assert spec.vertex_count == 46
        with pytest.raises(ValueError):
            HemisphereSpec.from_counts(5, 2)
        with pytest.raises(ValueError):
            HemisphereSpec.from_counts(1, 9)
        assert HemisphereSpec.from_exponent(8, 0.25).m == 3  # floored
        # 8^30 meridians is finite but over the vertex cap.
        with pytest.raises(ValueError, match=f"more than {MAX_VERTICES}$"):
            HemisphereSpec.from_exponent(8, 30)

    def test_pole_edge_lengths(self, hemi_paper):
        n, m = 8, 27
        mesh = hemi_paper.mesh
        pole_faces = mesh.faces[hemi_paper.pole_faces]
        expected_side = 2 * math.sin(math.pi / (4 * n))
        expected_base = 2 * math.sin(math.pi / m) * math.cos((n - 1) * math.pi / (2 * n))
        for i, j, k in pole_faces:
            assert i == 0
            side1 = np.linalg.norm(mesh.vertices[0] - mesh.vertices[j])
            side2 = np.linalg.norm(mesh.vertices[0] - mesh.vertices[k])
            base = np.linalg.norm(mesh.vertices[j] - mesh.vertices[k])
            assert side1 == pytest.approx(expected_side, rel=1e-12)
            assert side2 == pytest.approx(expected_side, rel=1e-12)
            assert base == pytest.approx(expected_base, rel=1e-12)

    def test_ring_edge_lengths(self, hemi_paper):
        n, m = 8, 27
        mesh = hemi_paper.mesh
        # same-ring neighbours on ring j are 2 sin(pi/m) cos(j pi / 2n) apart
        for j in (0, 3, n - 1):
            a = 1 + j * m
            b = 1 + j * m + 1
            length = np.linalg.norm(mesh.vertices[a] - mesh.vertices[b])
            expected = 2 * math.sin(math.pi / m) * math.cos(j * math.pi / (2 * n))
            assert length == pytest.approx(expected, rel=1e-12)

    def test_watertight(self, hemi_paper):
        mesh = hemi_paper.mesh
        m = hemi_paper.spec.m
        assert len(mesh.boundary_edges) == m
        equator = set(range(1, m + 1))
        for a, b in mesh.boundary_edges:
            assert a in equator and b in equator

    def test_area_sum_converges_to_hemisphere(self):
        areas = []
        for n in (4, 8, 16):
            hemi = gen_hemisphere(HemisphereSpec.from_counts(n, 2 * n))
            areas.append(triangle_metrics(*hemi.mesh.face_points()).area.sum())
        target = 2 * math.pi
        assert areas[0] < areas[1] < areas[2] < target
        assert target - areas[2] < target - areas[0]

    def test_vertices_project_into_disk(self, hemi_paper):
        flat = stereographic_project(hemi_paper.mesh.vertices)
        assert np.linalg.norm(flat, axis=1).max() <= 1 + 1e-12

    def test_param_cells_cover_chart(self, hemi_paper):
        # band faces carry their own triangle, then the pole faces, the
        # last m, their wedge rectangle
        band, rects = hemi_paper.param_cells
        m, faces = hemi_paper.spec.m, hemi_paper.mesh.num_faces
        assert band.shape == (faces - m, 3, 2)
        assert rects.shape == (m, 4, 2)
        np.testing.assert_array_equal(hemi_paper.pole_faces, np.arange(faces) >= faces - m)
        np.testing.assert_array_equal(band, hemi_paper.param_tris[: faces - m])

    def test_surface_gradient_matches_finite_differences(self, hemi_small):
        surface = hemi_small.surface
        rng = np.random.default_rng(3)
        h = 1e-6
        for _ in range(20):
            w = np.array(
                [rng.uniform(0, 2 * math.pi), rng.uniform(math.pi / 2 + 0.05, math.pi - 0.05)]
            )
            grad = surface.gradient(w)
            for col, e in enumerate(np.eye(2)):
                fd = (sphere_point(w + h * e) - sphere_point(w - h * e)) / (2 * h)
                assert np.linalg.norm(fd - grad[:, col]) <= 1e-5 * max(
                    1.0, np.linalg.norm(grad[:, col])
                )
        assert hemi_small.bounds_config(1.0).sigma_min > 0


class TestStereographic:
    def test_south_pole_to_center(self):
        assert np.allclose(stereographic_project(np.array([0.0, 0, -1])), [0, 0])

    def test_equator_to_unit_circle(self):
        assert np.allclose(stereographic_project(np.array([1.0, 0, 0])), [1, 0])
        point = np.array([math.cos(0.7), math.sin(0.7), 0.0])
        assert np.linalg.norm(stereographic_project(point)) == pytest.approx(1.0)

    def test_meridian_point_value(self):
        psi = 3 * math.pi / 4
        point = np.array([0.0, -math.sin(psi), math.cos(psi)])
        image = stereographic_project(point)
        assert image[0] == pytest.approx(0.0, abs=1e-15)
        assert image[1] == pytest.approx(-math.sin(psi) / (1 - math.cos(psi)))
        # radius identity: |image| = tan(psi/2 - pi/4) on this meridian
        assert np.linalg.norm(image) == pytest.approx(math.tan(psi / 2 - math.pi / 4))

    def test_gradient_equals_the_chart_formula(self):
        # (d f / d w) (grad^T grad)^-1 grad^T, valid away from the pole
        rng = np.random.default_rng(7)
        w = np.column_stack([rng.uniform(0, 2 * math.pi, 200), rng.uniform(1.6, 3.1, 200)])
        grad = stereographic_gradient(w)
        assert grad.shape == (200, 2, 3)
        for (phi, psi), g in zip(w, grad):
            s, ds = 1 / math.tan(psi / 2), -0.5 / math.sin(psi / 2) ** 2  # radius cot(psi/2)
            f_w = [[-s * math.sin(phi), ds * math.cos(phi)], [s * math.cos(phi), ds * math.sin(phi)]]
            gram_inv = np.diag([1 / math.sin(psi) ** 2, 1.0])
            chart = np.array(f_w) @ gram_inv @ sphere_gradient((phi, psi)).T
            assert np.allclose(g, chart, rtol=1e-13, atol=1e-13)
            assert np.array_equal(stereographic_gradient((phi, psi)), g)

    def test_dirichlet_energy_equals_the_pointwise_sum(self):
        (xg, wg), (yg, vg) = (np.polynomial.legendre.leggauss(k) for k in (7, 5))
        total = 0.0
        for x, wq in zip(xg, wg):
            for y, vq in zip(yg, vg):
                w = (math.pi * (x + 1), 0.25 * math.pi * (y + 1) + 0.5 * math.pi)
                grad = stereographic_gradient(w)
                total += wq * vq * 0.5 * np.sum(grad * grad) * math.sin(w[1])
        expected = total * math.pi * 0.25 * math.pi
        assert stereographic_dirichlet_energy(7, 5) == pytest.approx(expected, rel=1e-14)

    def test_gradient_at_the_south_pole(self):
        grad = stereographic_gradient((0.3, math.pi))
        assert np.allclose(grad, [[0.5, 0, 0], [0, 0.5, 0]], rtol=0, atol=1e-15)

    def test_near_pole_rejected(self):
        with pytest.raises(NearPole):
            stereographic_project(np.array([0.0, 0.0, 1.0]))

    def test_off_sphere_rejected(self):
        with pytest.raises(ValueError):
            stereographic_project(np.array([0.5, 0.0, 0.0]))


class TestWriteRows:
    def test_integers_and_bools_as_integers_floats_with_17_digits(self):
        fh = io.StringIO()
        columns = [np.array([1, -2]), [True, False], [0.1, -0.0], np.array([3.0, np.nan])]
        write_rows(fh, columns, sep=";", end="|")
        assert fh.getvalue() == "1;1;0.10000000000000001;3|-2;0;-0;nan|"

    @pytest.mark.parametrize("rows", [0, 1023, 1024, 1025, 2500])
    def test_every_row_once_across_blocks(self, rows):
        fh = io.StringIO()
        write_rows(fh, [np.arange(rows)], end="\n")
        assert fh.getvalue() == "".join(f"{i}\n" for i in range(rows))

    def test_unequal_columns_raise(self):
        fh = io.StringIO()
        with pytest.raises(ValueError, match=r"differ in length: \[2, 3\]"):
            write_rows(fh, [[1, 2, 3], [0.5, 0.25]])
        assert fh.getvalue() == ""


class TestOffIO:
    def test_single_triangle(self, tmp_path):
        path = tmp_path / "tri.off"
        path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
        mesh = load_mesh(path)
        assert mesh.num_vertices == 3
        assert mesh.num_faces == 1
        assert len(mesh.boundary_edges) == 3

    def test_round_trip_exact(self, tmp_path, hemi_small):
        path = tmp_path / "hemi.off"
        save_mesh(hemi_small.mesh, path)
        back = load_mesh(path)
        assert np.array_equal(back.vertices, hemi_small.mesh.vertices)
        assert np.array_equal(back.faces, hemi_small.mesh.faces)
        # bit stability under a second round trip
        path2 = tmp_path / "hemi2.off"
        save_mesh(back, path2)
        assert path.read_text() == path2.read_text()

    @pytest.mark.parametrize("planar", [False, True], ids=["3d", "2d"])
    def test_save_bytes(self, tmp_path, planar):
        # more vertices and faces than one block of rows; a 2-d mesh gets a
        # zero third coordinate
        n, m = 16, 80
        if planar:
            mesh = planar_disk_mesh(n, m)
        else:
            mesh = gen_hemisphere(HemisphereSpec.from_counts(n, m)).mesh
        assert min(mesh.num_vertices, mesh.num_faces) > 1024
        save_mesh(mesh, tmp_path / "mesh.off")
        v = mesh.vertices
        if planar:
            v = np.column_stack([v, np.zeros(len(v))])
        lines = ["OFF", f"{mesh.num_vertices} {mesh.num_faces} 0"]
        lines += [f"{x:.17g} {y:.17g} {z:.17g}" for x, y, z in v]
        lines += [f"3 {i} {j} {k}" for i, j, k in mesh.faces]
        expected = ("\n".join(lines) + "\n").encode()
        assert (tmp_path / "mesh.off").read_bytes() == expected

    def test_hemisphere_face_count_formula(self, tmp_path):
        n, m = 4, 8
        hemi = gen_hemisphere(HemisphereSpec.from_counts(n, m))
        path = tmp_path / "h.off"
        save_mesh(hemi.mesh, path)
        assert load_mesh(path).num_faces == m * (2 * n - 1)

    def test_parse_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "bad.off"
        path.write_text("OFX\n")
        with pytest.raises(ParseError) as excinfo:
            load_mesh(path)
        assert excinfo.value.line == 1

        path.write_text("OFF\n3 1 0\n0 0 0\n1 0 x\n0 1 0\n3 0 1 2\n")
        with pytest.raises(ParseError) as excinfo:
            load_mesh(path)
        assert excinfo.value.line == 4

        path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n4 0 1 2\n")
        with pytest.raises(ParseError):
            load_mesh(path)

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("", None, "empty file"),
            ("# a comment\n\n   # another\n", None, "empty file"),
            ("OFF\n", 1, "missing counts line"),
            ("# header next\nOFF\n# no counts\n", 2, "missing counts line"),
            ("OFF\n3 1 0\n0 0 0\n1 0 0\n3 0 1 2\n", 5, "expected 3 vertex and 1 face lines, found 3"),
            (
                "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n\n3 0 1 2\n",
                8,
                "expected 3 vertex and 1 face lines, found 5",
            ),
        ],
        ids=["empty", "comments_only", "no_counts", "no_counts_after_comments", "too_few", "too_many"],
    )
    def test_structure_errors_name_their_line(self, tmp_path, text, line, message):
        path = tmp_path / "bad.off"
        path.write_text(text)
        with pytest.raises(ParseError) as excinfo:
            load_mesh(path)
        assert excinfo.value.line == line
        assert str(excinfo.value) == (message if line is None else f"line {line}: {message}")

    def test_invalid_topology_detected(self, tmp_path):
        path = tmp_path / "bad.off"
        path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 1\n")
        with pytest.raises(InvalidTopology):
            load_mesh(path)


def load_checks():
    """The benchmark's input writer, perfbench/checks.py, as a module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name.
    sys.modules[spec.name] = module
    # Leave no bytecode cache behind in perfbench/.
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


# Blocks of more than one 1024-row block: 1281 vertices, 2480 faces.
LARGE = (16, 80)
OFF_FORMS = {
    "counts": {"1_0": "{nv} 1_0 0", "short": "{nv} {nf}", "long": "{nv} {nf} 0 0",
               "header": "OFF", "no_faces": "{nv} 0 0"},
    "vertices": {"1_0": "0 0 1_0", "short": "0 0", "long": "0 0 0 0", "header": "OFF"},
    "faces": {"1_0": "3 0 1 1_0", "short": "3 0 1", "long": "3 0 1 2 3", "header": "OFF",
              "4 i j k": "4 0 1 2"},
}
CSV_FORMS = {
    "1_0": "1_0,0.2,0.2", "short": "0,0.1", "long": "0,0.1,0.1,extra",
    "empty index": ",1,2", "header": "{header}",
}


class TestReadRows:
    """Every input table is read by numpy's grammar alone: each refused
    line raises ParseError with its 1-based line number."""

    @staticmethod
    def off_with(tmp_path, table, row, last):
        mesh = planar_disk_mesh(*LARGE) if last else planar_disk_mesh(3, 9)
        nv, nf = mesh.num_vertices, mesh.num_faces
        path = tmp_path / "mesh.off"
        save_mesh(mesh, path)
        lines = path.read_text().splitlines()
        lines[1:1] = ["# a comment line and a blank line, both counted", ""]
        first, size = {"counts": (3, 1), "vertices": (4, nv), "faces": (4 + nv, nf)}[table]
        # the block's last line, or its second
        index = first + (size - 1 if last else min(1, size - 1))
        lines[index] = row.format(nv=nv, nf=nf)
        path.write_text("\n".join(lines) + "\n")
        return lambda: load_mesh(path), index + 1

    @staticmethod
    def csv_with(tmp_path, table, row, last):
        header = {"mu": "face,mu1,mu2", "boundary": "vertex,x,y"}[table]
        lines = [header] + [f"{i},0.25,-0.125" for i in range(1500 if last else 4)]
        lines.insert(2, "")
        index = len(lines) - 1 if last else 3
        lines[index] = row.format(header=header)
        path = tmp_path / f"{table}.csv"
        path.write_text("\n".join(lines) + "\n")
        if table == "mu":
            return lambda: read_mu_csv(path, 1500), index + 1
        return lambda: read_boundary_csv(path, planar_disk_mesh(3, 9)), index + 1

    @pytest.mark.parametrize(
        "table, row, last",
        [
            pytest.param(table, row, False, id=f"{table}-{form}")
            for table, forms in OFF_FORMS.items()
            for form, row in forms.items()
        ]
        + [
            pytest.param("vertices", "0 0 1_0", True, id="vertices-last_of_large_block"),
            pytest.param("faces", "3 0 1 1_0", True, id="faces-last_of_large_block"),
            pytest.param("faces", "4 0 1 2", True, id="faces-4_i_j_k_last_of_large_block"),
        ],
    )
    def test_off_line_refused(self, tmp_path, table, row, last):
        read, line = self.off_with(tmp_path, table, row, last)
        with pytest.raises(ParseError) as excinfo:
            read()
        assert excinfo.value.line == line

    @pytest.mark.parametrize("table", ["mu", "boundary"])
    @pytest.mark.parametrize(
        "row, last",
        [pytest.param(row, False, id=form) for form, row in CSV_FORMS.items()]
        + [pytest.param("1_0,0.2,0.2", True, id="last_of_large_block")],
    )
    def test_csv_line_refused(self, tmp_path, table, row, last):
        read, line = self.csv_with(tmp_path, table, row, last)
        with pytest.raises(ParseError) as excinfo:
            read()
        assert excinfo.value.line == line

    def test_blank_lines_give_no_numpy_warning(self, tmp_path):
        path = tmp_path / "mu.csv"
        path.write_text("face,mu1,mu2\n\n0,0.1,0.1\n \n1_0,0.2,0.2\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match="line 5: expected a row 'face,mu1,mu2'"):
                read_mu_csv(path, 20)

    @pytest.mark.parametrize("planar", [False, True], ids=["3d", "2d"])
    def test_save_mesh_file_arrays(self, tmp_path, planar):
        if planar:
            mesh = planar_disk_mesh(*LARGE)
        else:
            mesh = gen_hemisphere(HemisphereSpec.from_counts(*LARGE)).mesh
        save_mesh(mesh, tmp_path / "mesh.off")
        back = load_mesh(tmp_path / "mesh.off")
        vertices = mesh.vertices.tolist()
        if planar:
            vertices = [[x, y, 0.0] for x, y in vertices]
        expected_v = np.array(vertices, dtype=np.float64)
        expected_f = np.array(mesh.faces.tolist(), dtype=np.int64)
        assert back.vertices.dtype == expected_v.dtype and np.array_equal(back.vertices, expected_v)
        assert back.faces.dtype == expected_f.dtype and np.array_equal(back.faces, expected_f)

    def test_benchmark_input_arrays(self, tmp_path):
        checks = load_checks()
        hemi = checks.hemisphere(*LARGE)
        inputs = checks.write_beltrami_inputs(hemi, 13, str(tmp_path))
        mesh = load_mesh(inputs.mesh_path)
        flat = inputs.vertices.tolist()
        expected = {
            "vertices": (mesh.vertices, np.array([[x, y, 0.0] for x, y in flat])),
            "faces": (mesh.faces, np.array(hemi.faces.tolist(), dtype=np.int64)),
        }
        faces, mu = _read_indexed_pairs(inputs.mu_path, ("face", "mu1", "mu2"))
        expected["mu index"] = faces, np.arange(len(hemi.faces))
        expected["mu"] = mu, np.array(inputs.mu.tolist())
        vertices, values = _read_indexed_pairs(inputs.boundary_path, ("vertex", "x", "y"))
        expected["boundary index"] = vertices, np.array(inputs.boundary.tolist())
        expected["boundary"] = values, np.array([flat[v] for v in inputs.boundary])
        for name, (got, want) in expected.items():
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name
        assert len(mu) > 1024
