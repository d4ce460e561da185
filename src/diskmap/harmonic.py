"""Weak point-source solve on the mesh Laplacian and the disk-shaped
initial guess it induces.

A derivative-of-delta source concentrated in one face turns the singular
Laplacian system into L f = b with exactly three nonzero rows; pinning
one vertex at the origin makes the reduced system nonsingular on a
connected mesh, and solutions for different pins differ by constants.
Both b and the solution are plain (V, 2) arrays: the solve checks its
own residual and raises rather than return a failed map.
"""

from __future__ import annotations

import numpy as np

from .laplacian import CotanLaplacian, mapped_area, solve_checked
from .mesh import TriMesh, triangle_metrics


def source_pairs(v_i, v_j, v_k) -> np.ndarray:
    """Coefficient pairs (a, b) of the three nodal hat functions.

    Row ell is the pair for the hat peaked at vertex ell, measured in the
    fixed orthonormal tangent frame spanned by the edges (v_i - v_j,
    v_j - v_k) after symmetric orthogonalization.  The source rows of the
    weak system are (a, -b) / (2 area); they sum to zero, which keeps the
    singular system consistent and the solution gauge independent.
    """
    v_i = np.asarray(v_i, float)
    v_j = np.asarray(v_j, float)
    v_k = np.asarray(v_k, float)
    vij, vjk, vji = v_i - v_j, v_j - v_k, v_j - v_i
    geom = triangle_metrics(v_i, v_j, v_k)
    double_area = 2.0 * geom.area
    # Rows of the principal square root of [vjk, vji]^T [vjk, vji].
    gram = np.array([[vjk @ vjk, vjk @ vji], [vjk @ vji, vji @ vji]])
    denom = np.sqrt(vij @ vij + vjk @ vjk + 2.0 * double_area)
    root = (gram + double_area * np.eye(2)) / denom
    return np.array([root[0], root[1] - root[0], -root[1]])


def dirac_source(mesh: TriMesh, face: int) -> np.ndarray:
    """Dense (V, 2) right-hand side of a derivative-of-delta point load
    inside `face`: the (a, -b) / (2 area) pairs of ``source_pairs`` on the
    face's three vertices and zero everywhere else.

    Raises ValueError if `face` is not in [0, F).
    """
    if not 0 <= face < mesh.num_faces:
        raise ValueError(f"source face {face} is not in [0, {mesh.num_faces})")
    pairs = source_pairs(*mesh.face_points(face))
    double_area = 2.0 * mesh.geometry.area[face]
    b = np.zeros((mesh.num_vertices, 2))
    b[mesh.faces[face]] = np.column_stack([pairs[:, 0], -pairs[:, 1]]) / double_area
    return b


def face_nearest(mesh: TriMesh, point) -> int:
    """Index of the face whose centroid is closest to `point`."""
    point = np.asarray(point, dtype=float)
    centroids = mesh.vertices[mesh.faces].mean(axis=1)
    return int(np.argmin(np.linalg.norm(centroids - point, axis=1)))


def solve_weak_lb(laplacian: CotanLaplacian, b: np.ndarray, pin_vertex: int = 0) -> np.ndarray:
    """Solve L f = b with one vertex pinned to the origin.

    `b` is the dense (V, 2) right-hand side of ``dirac_source``.  The
    pinned row and column are removed and the reduced symmetric system is
    solved by :func:`~diskmap.laplacian.solve_checked`, which raises
    SingularSystem if it is singular (a disconnected mesh) and
    SolverFailure if its relative residual exceeds 1e-10.  Returns the
    full (V, 2) map with the pinned vertex at the origin.
    """
    n = laplacian.size
    keep = np.concatenate([np.arange(pin_vertex), np.arange(pin_vertex + 1, n)])
    values = np.zeros((n, 2))
    values[keep] = solve_checked(laplacian.matrix[keep][:, keep], b[keep])
    return values


def disk_initial_guess(mesh: TriMesh, laplacian: CotanLaplacian, source_face: int) -> np.ndarray:
    """Feasible starting map for the disk minimizer.

    The weak point-source solution flattens the surface with the source
    region sent far out; re-centering on the boundary image's mean and
    inverting through the origin (z -> z / |z|^2) turns it inside in,
    after which the map is scaled to unit mean boundary radius, flipped
    to positive orientation if needed, and its boundary snapped onto the
    unit circle.
    """
    values = solve_weak_lb(laplacian, dirac_source(mesh, source_face))
    g = values - values[mesh.boundary_vertices].mean(axis=0)
    norms_sq = np.sum(g * g, axis=1)
    norms_sq = np.maximum(norms_sq, 1e-300)
    f = g / norms_sq[:, None]
    if mapped_area(mesh, f) < 0:
        f = f * np.array([1.0, -1.0])
    boundary = mesh.boundary_vertices
    radii = np.linalg.norm(f[boundary], axis=1)
    f = f / radii.mean()
    f[boundary] /= np.linalg.norm(f[boundary], axis=1)[:, None]
    return f
