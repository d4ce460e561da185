"""Cotangent Laplacian with per-face area ratios, and the energy trio:
Dirichlet energy, mapped area, and conformal energy (their difference),
with the gradient of the last.  :class:`ConformalEnergy` is the one
evaluation of the conformal energy and its gradient.

Each undirected edge gets the weight (rho_a cot_a + rho_b cot_b) / 2 over
its one or two adjacent faces, where cot is the cotangent of the angle
opposite the edge and rho is the face's curved-to-flat area ratio.  With
rho = 1 this is the classical cotangent Laplacian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DimensionMismatch, NonFiniteWeight, SingularSystem, SolverFailure
from .mesh import TriangleGeom, TriMesh, triangle_metrics
from .surface import ParamSurface, patch_area_quadrature


@dataclass(frozen=True)
class CotanLaplacian:
    """Sparse symmetric Laplacian and its edge weights.

    ``matrix`` is n x n CSR with row sums zero (off-diagonal -w, diagonal
    the row's weight sum).  ``weights`` are the assembled weights of the
    mesh's undirected edges, in ``mesh.edges`` order.
    """

    size: int
    matrix: sp.csr_matrix
    weights: np.ndarray


def face_area_ratios(
    mesh: TriMesh,
    mode: str = "unit",
    surface: ParamSurface | None = None,
    param_cells=None,
    quad_order: int = 3,
) -> np.ndarray:
    """Curved-to-flat area ratio of each face.

    ``unit`` returns ones.  ``quadrature`` integrates the surface area
    element over each face's parameter cell with a fixed-order symmetric
    rule; ``param_cells`` is a sequence of (C, k, 2) cell stacks that
    together hold one cell per face, in face order.  ``analytic`` calls
    the surface's closed form patch area on the face's vertex positions.
    """
    if mode == "unit":
        return np.ones(mesh.num_faces)
    if mode == "quadrature":
        if surface is None or param_cells is None:
            raise ValueError("quadrature mode needs a surface and parameter cells")
        if sum(map(len, param_cells)) != mesh.num_faces:
            raise DimensionMismatch("one parameter cell per face required")
        patch = np.concatenate([patch_area_quadrature(surface, c, quad_order) for c in param_cells])
    elif mode == "analytic":
        if surface is None or surface.patch_area is None:
            raise ValueError("analytic mode needs a surface with patch_area")
        patch = surface.patch_area(*mesh.face_points())
    else:
        raise ValueError(f"unknown area-ratio mode {mode!r}")
    return patch / mesh.geometry.area


def assemble_laplacian(
    mesh: TriMesh,
    rho_mode: str = "unit",
    surface: ParamSurface | None = None,
    param_cells=None,
    quad_order: int = 3,
) -> CotanLaplacian:
    """Assemble the area-ratio weighted cotangent Laplacian.

    Raises NonFiniteWeight if any cotangent or ratio is not finite and
    propagates DegenerateTriangle from the metric computation.
    """
    face_ratios = face_area_ratios(mesh, rho_mode, surface, param_cells, quad_order)
    if not np.isfinite(face_ratios).all():
        raise NonFiniteWeight("non-finite area ratio")

    cots = mesh.geometry.cotangents  # (at_i, at_j, at_k)
    bad = ~np.isfinite(cots).all(axis=1)
    if bad.any():
        raise NonFiniteWeight(f"non-finite cotangent in face {int(np.argmax(bad))}")

    # The angle at a corner is opposite the edge mesh.face_edges lists
    # for it; an edge sums the products of its one or two faces.
    edges = mesh.edges
    products = np.repeat(face_ratios, 3) * cots.ravel()
    weights = 0.5 * np.bincount(mesh.face_edges.ravel(), products, minlength=len(edges))

    n = mesh.num_vertices
    rows = np.concatenate([edges[:, 0], edges[:, 1], edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0], edges[:, 0], edges[:, 1]])
    vals = np.concatenate([-weights, -weights, weights, weights])
    matrix = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))

    return CotanLaplacian(size=n, matrix=matrix, weights=weights)


# Every matrix factored in the package (L's interior block, L with one
# vertex pinned, the Beltrami interior block) has the mesh's symmetric
# adjacency pattern, which a minimum-degree ordering of A + A^T suits.
# scipy's default, COLAMD, orders A^T A; at n = 96 it leaves 608 538
# factor nonzeros where this leaves 375 098.
FACTOR_ORDERING = "MMD_AT_PLUS_A"


def factorize(matrix: sp.spmatrix) -> spla.SuperLU:
    """Sparse LU of a square matrix with the mesh's adjacency pattern.

    Columns are ordered by :data:`FACTOR_ORDERING`, and SuperLU keeps its
    default partial pivoting.  Raises SingularSystem if the matrix is
    singular.
    """
    try:
        return spla.splu(matrix.tocsc(), permc_spec=FACTOR_ORDERING)
    except RuntimeError as exc:  # how splu reports a singular matrix
        raise SingularSystem(f"singular system: {exc}") from exc


def solve_checked(matrix: sp.spmatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve matrix @ x = rhs through :func:`factorize`.

    Raises SingularSystem as :func:`factorize` does, and SolverFailure
    unless x is finite and ||matrix @ x - rhs|| / ||rhs|| <= 1e-10.
    """
    matrix = matrix.tocsc()
    x = factorize(matrix).solve(rhs)
    scale = max(float(np.linalg.norm(rhs)), 1e-300)
    residual = float(np.linalg.norm(matrix @ x - rhs)) / scale
    if not np.isfinite(x).all() or residual > 1e-10:
        raise SolverFailure(f"relative residual {residual:.3e} exceeds 1e-10")
    return x


def as_vertex_map(values, size: int) -> np.ndarray:
    """Validate a per-vertex planar map: finite float array (size, 2)."""
    f = np.asarray(values, dtype=float)
    if f.shape != (size, 2):
        raise DimensionMismatch(f"expected map of shape ({size}, 2), got {f.shape}")
    if not np.isfinite(f).all():
        raise DimensionMismatch("map contains non-finite entries")
    return f


def dirichlet_energy(laplacian: CotanLaplacian, f) -> float:
    """0.5 <L f, f> over both target coordinates."""
    f = as_vertex_map(f, laplacian.size)
    return 0.5 * float(np.sum(f * (laplacian.matrix @ f)))


def per_triangle_dirichlet(f_i, f_j, f_k, geom: TriangleGeom, rho: float = 1.0) -> float:
    """Per-face Dirichlet form (rho / 2) sum_edges |df|^2 cot(opposite).

    Equals rho * area * |gradient|_F^2 of the linear interpolant; the
    mesh energy is half the sum of these over all faces.
    """
    f_i = np.asarray(f_i, float)
    f_j = np.asarray(f_j, float)
    f_k = np.asarray(f_k, float)
    sq = lambda a: float(a @ a)  # noqa: E731
    return 0.5 * rho * (
        sq(f_i - f_j) * geom.cotangents[2]
        + sq(f_j - f_k) * geom.cotangents[0]
        + sq(f_k - f_i) * geom.cotangents[1]
    )


def per_triangle_dirichlet_matrix(f_i, f_j, f_k, v_i, v_j, v_k, rho: float = 1.0) -> float:
    """Matrix form of the per-face Dirichlet form.

    (rho / (4 A)) |[f_i f_j f_k] [s_i s_j s_k]^T|_F^2 with the rotated
    edges s; agrees with :func:`per_triangle_dirichlet` to rounding.
    """
    geom = triangle_metrics(v_i, v_j, v_k)
    fmat = np.column_stack([f_i, f_j, f_k]).astype(float)
    m = fmat @ geom.rotated_edges
    return float(np.sum(m * m)) * rho / (4.0 * geom.area)


def mapped_area(mesh: TriMesh, f) -> float:
    """Signed area of the planar image, summed per face.

    Interior-edge terms cancel, so this always equals the shoelace area
    of the (oriented) boundary image polygon.
    """
    return float(face_image_areas(mesh, f).sum())


def face_image_areas(mesh: TriMesh, f) -> np.ndarray:
    """Per-face signed image areas (negative entries are folds)."""
    f = as_vertex_map(f, mesh.num_vertices)
    xi, xj, xk = np.take(f[:, 0], mesh.faces).T
    yi, yj, yk = np.take(f[:, 1], mesh.faces).T
    return 0.5 * ((xi - xj) * (yj - yk) - (yi - yj) * (xj - xk))


def _ring_sum_operator(mesh: TriMesh) -> sp.csr_matrix:
    """Sparse P: +1 at (i, j), -1 at (j, i) per boundary half-edge i -> j.

    (P f)_i = f_next - f_prev along the boundary, which is the sum of
    f_j - f_k over the faces (i, j, k) at i: interior edges cancel.  So
    A(f) = 0.25 <f, rot90(P f)> is the shoelace area of the boundary image
    and the area gradient is 0.5 * rot90(P f), rot90 (x, y) = (y, -x).
    """
    tails, heads = mesh.boundary_halfedges.T
    n = mesh.num_vertices
    return sp.csr_matrix(
        (np.repeat([1.0, -1.0], len(tails)), (np.r_[tails, heads], np.r_[heads, tails])),
        shape=(n, n),
    )


@dataclass(frozen=True)
class EnergyBreakdown:
    """Dirichlet energy, mapped area, and their difference."""

    dirichlet: float
    area: float

    @property
    def conformal(self) -> float:
        return self.dirichlet - self.area


@dataclass(frozen=True)
class EnergyEvaluation:
    """The conformal energy at one map, with the sparse products L f and
    P f it was computed from; the gradient follows from them without
    another product."""

    energy: EnergyBreakdown
    lf: np.ndarray
    pf: np.ndarray

    def gradient(self) -> np.ndarray:
        """Per-vertex gradient L f - 0.5 rot90(P f)."""
        return self.lf - 0.5 * np.column_stack([self.pf[:, 1], -self.pf[:, 0]])


class ConformalEnergy:
    """The conformal energy E(f) = 0.5 <L f, f> - A(f) on one mesh.

    Built once per mesh as one CSR operator [L; P]: the Laplacian L over
    the boundary operator P of :func:`_ring_sum_operator`.  The mapped
    area is A(f) = 0.25 <f, rot90(P f)> and the per-vertex gradient is
    L f - 0.5 rot90(P f), whose area part is zero at interior vertices.
    :meth:`evaluate` forms L f and P f with one product, each row summed
    as in L or P alone, and keeps them; the call and :meth:`gradient` read
    their parts of it.  All three take a finite (V, 2) float map and do
    not check it; :func:`conformal_energy` and :func:`energy_gradient`
    validate their input first.
    """

    def __init__(self, mesh: TriMesh, laplacian: CotanLaplacian):
        if laplacian.size != mesh.num_vertices:
            raise DimensionMismatch("laplacian size does not match the mesh")
        self.operator = sp.vstack([laplacian.matrix, _ring_sum_operator(mesh)], format="csr")

    def evaluate(self, f: np.ndarray) -> EnergyEvaluation:
        lf, pf = np.split(self.operator @ f, 2)
        energy = EnergyBreakdown(
            dirichlet=0.5 * float(np.sum(f * lf)),
            area=0.25 * float(np.sum(f[:, 0] * pf[:, 1] - f[:, 1] * pf[:, 0])),
        )
        return EnergyEvaluation(energy=energy, lf=lf, pf=pf)

    def __call__(self, f: np.ndarray) -> EnergyBreakdown:
        return self.evaluate(f).energy

    def gradient(self, f: np.ndarray) -> np.ndarray:
        return self.evaluate(f).gradient()


def conformal_energy(mesh: TriMesh, laplacian: CotanLaplacian, f) -> EnergyBreakdown:
    """Energy breakdown of a planar vertex map."""
    return ConformalEnergy(mesh, laplacian)(as_vertex_map(f, mesh.num_vertices))


def energy_gradient(mesh: TriMesh, laplacian: CotanLaplacian, f) -> np.ndarray:
    """Per-vertex gradient of the conformal energy (Dirichlet minus area)."""
    return ConformalEnergy(mesh, laplacian).gradient(as_vertex_map(f, mesh.num_vertices))
