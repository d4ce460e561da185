import math

import numpy as np
import pytest

from diskmap import (
    SingularSystem,
    SolverFailure,
    TriMesh,
    assemble_laplacian,
    dirac_source,
    disk_initial_guess,
    face_nearest,
    mapped_area,
    normalize_map,
    relative_error,
    solve_weak_lb,
    source_pairs,
)
from diskmap import laplacian

from conftest import WrongFactor, random_triangle

SOUTH = np.array([0.0, 0.0, -1.0])


class TestSourcePairs:
    def test_equilateral_leading_value(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
        pairs = source_pairs(*pts)
        area2 = math.sqrt(3) / 2
        expected = (1 + area2) / math.sqrt(2 + 2 * area2)
        assert pairs[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_right_angle_kills_cosine_term(self):
        # right angle at the middle vertex zeroes the first pair's second entry
        v_i, v_j, v_k = np.array([1.0, 0.0]), np.array([0.0, 0.0]), np.array([0.0, 1.0])
        pairs = source_pairs(v_i, v_j, v_k)
        assert pairs[0, 1] == pytest.approx(0.0, abs=1e-14)

    def test_pairs_sum_to_zero(self):
        rng = np.random.default_rng(0)
        for dim in (2, 3):
            for _ in range(50):
                pairs = source_pairs(*random_triangle(rng, dim))
                assert np.allclose(pairs.sum(axis=0), 0.0, atol=1e-12)

    def test_cyclic_relabel_permutes_up_to_rotation(self):
        # relabeling rotates the tangent frame, so the pairs permute after
        # one common orthogonal transform
        rng = np.random.default_rng(1)
        pts = random_triangle(rng, 3)
        base = source_pairs(*pts)
        rolled = source_pairs(pts[1], pts[2], pts[0])
        # solve the 2x2 transform mapping base[1:] onto rolled[:2]
        permuted = np.vstack([base[1], base[2], base[0]])
        transform, *_ = np.linalg.lstsq(permuted, rolled, rcond=None)
        assert np.allclose(transform.T @ transform, np.eye(2), atol=1e-10)
        assert np.allclose(permuted @ transform, rolled, atol=1e-10)
        assert np.allclose(
            np.sort(np.linalg.norm(base, axis=1)),
            np.sort(np.linalg.norm(rolled, axis=1)),
            rtol=1e-12,
        )

    def test_translation_invariance(self):
        rng = np.random.default_rng(2)
        pts = random_triangle(rng, 3)
        shifted = pts + np.array([10.0, -4.0, 2.5])
        assert np.allclose(source_pairs(*pts), source_pairs(*shifted), atol=1e-12)


class TestDiracSource:
    def test_three_nonzero_rows(self, hemi_small):
        mesh = hemi_small.mesh
        face = face_nearest(mesh, SOUTH)
        dense = dirac_source(mesh, face)
        assert dense.shape == (mesh.num_vertices, 2)
        nonzero = np.nonzero(np.abs(dense).sum(axis=1))[0]
        assert sorted(nonzero) == sorted(mesh.faces[face])
        assert np.isfinite(dense).all()
        # consistency: rows sum to zero so the singular system is solvable
        assert np.allclose(dense.sum(axis=0), 0.0, atol=1e-12)

    def test_face_nearest_pole(self, hemi_small):
        face = face_nearest(hemi_small.mesh, SOUTH)
        assert bool(hemi_small.pole_faces[face])


class TestWeakSolve:
    def test_residual_small(self, hemi_small):
        mesh = hemi_small.mesh
        lap = assemble_laplacian(mesh)
        b = dirac_source(mesh, face_nearest(mesh, SOUTH))
        f = solve_weak_lb(lap, b)
        assert np.array_equal(f[0], [0.0, 0.0])
        keep = np.arange(1, mesh.num_vertices)
        reduced = lap.matrix[keep][:, keep]
        residual = np.linalg.norm(reduced @ f[keep] - b[keep]) / np.linalg.norm(b[keep])
        assert residual <= 1e-10

    def test_linearity_in_source(self, hemi_small):
        mesh = hemi_small.mesh
        lap = assemble_laplacian(mesh)
        b = dirac_source(mesh, face_nearest(mesh, SOUTH))
        base = solve_weak_lb(lap, b)
        scaled = solve_weak_lb(lap, 3.5 * b)
        assert np.allclose(scaled, 3.5 * base, atol=1e-9)

    def test_gauge_independence(self, hemi_small):
        mesh = hemi_small.mesh
        lap = assemble_laplacian(mesh)
        source = dirac_source(mesh, face_nearest(mesh, SOUTH))
        a = solve_weak_lb(lap, source, pin_vertex=0)
        b = solve_weak_lb(lap, source, pin_vertex=7)
        diff = a - b
        assert np.abs(diff - diff.mean(axis=0)).max() <= 1e-9

    def test_disconnected_mesh_rejected(self):
        verts = [[0, 0], [1, 0], [0, 1], [5, 5], [6, 5], [5, 6]]
        faces = [[0, 1, 2], [3, 4, 5]]
        mesh = TriMesh(verts, faces)
        lap = assemble_laplacian(mesh)
        with pytest.raises(SingularSystem):
            solve_weak_lb(lap, dirac_source(mesh, 0))

    def test_wrong_solve_fails_the_residual_check(self, hemi_small, monkeypatch):
        monkeypatch.setattr(laplacian, "factorize", WrongFactor)
        mesh = hemi_small.mesh
        lap = assemble_laplacian(mesh)
        with pytest.raises(SolverFailure, match="relative residual .* exceeds 1e-10"):
            solve_weak_lb(lap, dirac_source(mesh, face_nearest(mesh, SOUTH)))


class TestDiskInitialGuess:
    def test_feasible_and_oriented(self, hemi_small):
        mesh = hemi_small.mesh
        lap = assemble_laplacian(mesh)
        init = disk_initial_guess(mesh, lap, face_nearest(mesh, SOUTH))
        radii = np.linalg.norm(init[mesh.boundary_vertices], axis=1)
        assert np.abs(radii - 1.0).max() <= 1e-12
        assert mapped_area(mesh, init) > 0
        assert np.isfinite(init).all()

    def test_close_to_reference(self, hemi_small):
        mesh = hemi_small.mesh
        lap = assemble_laplacian(mesh)
        init = disk_initial_guess(mesh, lap, face_nearest(mesh, SOUTH))
        reference = hemi_small.reference_map()
        aligned = normalize_map(init, reference)
        assert relative_error(aligned, reference) < 0.6
