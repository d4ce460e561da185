"""Numerical checks of the paper's lemmas that only the tests call.

Each function here checks a statement of the analysis on concrete
numbers (an eigenvalue scan, a shape-ratio bound, a sampled Lipschitz
constant, a quadrature of the continuous energy, the per-face Dirichlet
form) rather than computing a disk map, so it lives beside the tests
that assert those statements and not in the ``diskmap`` package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from diskmap.bounds import BoundsConfig
from diskmap.hemisphere import stereographic_gradient
from diskmap.mesh import TriangleGeom, TriMesh, dot, triangle_metrics


def gradient_error_terms_reduced(
    config: BoundsConfig,
    diam_face: float,
    sin_min_angle_face: float,
    diam_param: float,
    sin_min_angle_param: float,
) -> tuple[float, float]:
    """Shape-ratio form of the gradient error terms.

    Uses only the diameter-to-smallest-angle-sine ratios of the face and
    its parameter triangle; dominates
    :func:`~diskmap.bounds.gradient_error_terms` when the chart is
    uniformly non-degenerate over the face.
    """
    ratio_face = diam_face / sin_min_angle_face
    ratio_param = diam_param / sin_min_angle_param
    c, s = config.grad_lipschitz, config.sigma_min
    factor = 12.0 * c / s**2 * ratio_face + (12.0 * c / s * ratio_param) ** 2
    offset = 6.0 * config.map_grad_lipschitz * config.sigma_max**2 / s**2 * ratio_face
    return factor, offset


@dataclass(frozen=True)
class EigenScanReport:
    """Grid check that centering at the column mean minimizes each
    eigenvalue of the centered Gram matrix.

    ``cell_distances`` holds, per eigenvalue, the grid distance (in cells)
    between a grid minimizer and the column mean (meaningful when the
    minimizer is unique); ``grid_minima`` and ``values_at_mean`` compare
    the scanned minimum against the value attained at the mean, which is
    the tie-robust statement.  ``value_mismatch`` compares the values at
    the mean against the eigenvalues of C C^T - n_cols * mean mean^T.
    """

    cell_distances: np.ndarray
    grid_minima: np.ndarray
    values_at_mean: np.ndarray
    value_mismatch: float


def eigen_min_scan(columns, grid_resolution: int = 101) -> EigenScanReport:
    """Scan eigenvalues of (C - x 1^T)(C - x 1^T)^T over a grid of x.

    `columns` is 2 x k.  The grid covers a square box around the column
    mean whose half width is twice the largest distance of a column from
    the mean (1 when all columns coincide).  Both eigenvalues of the
    2 x 2 matrix are tracked.
    """
    c = np.asarray(columns, dtype=float)
    if c.ndim != 2 or c.shape[0] != 2:
        raise ValueError("columns must be a 2 x k array")
    k = c.shape[1]
    mean = c.mean(axis=1)
    half_width = 2.0 * float(np.linalg.norm(c - mean[:, None], axis=0).max())
    if half_width == 0.0:
        half_width = 1.0
    xs = np.linspace(mean[0] - half_width, mean[0] + half_width, grid_resolution)
    ys = np.linspace(mean[1] - half_width, mean[1] + half_width, grid_resolution)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")

    s = c.sum(axis=1)

    def eigenvalues(x, y):
        """Both eigenvalues of B at the point or points (x, y), smaller first."""
        b11 = float(c[0] @ c[0]) - 2 * x * s[0] + k * x**2
        b22 = float(c[1] @ c[1]) - 2 * y * s[1] + k * y**2
        b12 = float(c[0] @ c[1]) - x * s[1] - y * s[0] + k * x * y
        half_tr = 0.5 * (b11 + b22)
        disc = np.sqrt(np.maximum(0.25 * (b11 - b22) ** 2 + b12**2, 0.0))
        return [half_tr - disc, half_tr + disc]

    lams = eigenvalues(gx, gy)

    step = xs[1] - xs[0]
    cells = np.empty(2)
    grid_minima = np.empty(2)
    for ell, lam in enumerate(lams):
        flat = int(np.argmin(lam))
        ii, jj = np.unravel_index(flat, lam.shape)
        cells[ell] = max(abs(xs[ii] - mean[0]), abs(ys[jj] - mean[1])) / step
        grid_minima[ell] = float(lam[ii, jj])

    ref = c @ c.T - k * np.outer(mean, mean)
    ref_vals = np.sort(np.linalg.eigvalsh(ref))
    at_mean = np.array(eigenvalues(*mean))
    mismatch = float(np.max(np.abs(at_mean - ref_vals)))

    return EigenScanReport(
        cell_distances=cells,
        grid_minima=grid_minima,
        values_at_mean=at_mean,
        value_mismatch=mismatch,
    )


def is_strictly_decreasing(values) -> bool:
    """Trend flag for a family of quality maxima."""
    values = np.asarray(values, dtype=float)
    return bool(np.all(np.diff(values) < 0))


def estimate_map_grad_lipschitz(mesh: TriMesh, grad_at_vertex) -> float:
    """Edge-sampled Lipschitz estimate of a map's tangential gradient.

    ``grad_at_vertex`` maps a vertex index to the gradient matrix there;
    the estimate is the max over mesh edges of the gradient difference
    over the edge length.  A sampled estimate, not a certified bound.
    """
    grads = np.array([grad_at_vertex(i) for i in range(mesh.num_vertices)], dtype=float)
    grads = grads.reshape(mesh.num_vertices, -1)  # Frobenius norm = flat 2-norm
    a, b = mesh.edges[:, 0], mesh.edges[:, 1]
    diff, edge = grads[a] - grads[b], mesh.vertices[a] - mesh.vertices[b]
    gap, length = np.sqrt(dot(diff, diff)), np.sqrt(dot(edge, edge))
    ratio = gap[length > 0] / length[length > 0]
    return float(ratio.max(initial=0.0))


def stereographic_dirichlet_energy(n_phi: int = 64, n_psi: int = 64) -> float:
    """Dirichlet energy of the stereographic map over the hemisphere.

    Tensor Gauss-Legendre quadrature of 0.5 * |tangential gradient|_F^2
    times the area element over the chart rectangle.  Converges to the
    flattened image area (the map is conformal onto the unit disk).
    """
    xg, wg = np.polynomial.legendre.leggauss(n_phi)
    yg, vg = np.polynomial.legendre.leggauss(n_psi)
    phis = math.pi * (xg + 1.0)                   # [0, 2pi]
    psis = 0.25 * math.pi * (yg + 1.0) + 0.5 * math.pi  # [pi/2, pi]
    w = np.stack(np.meshgrid(phis, psis, indexing="ij"), axis=-1)
    grad = stereographic_gradient(w)
    elt = np.sin(w[..., 1])                       # sphere area element
    integrand = np.outer(wg, vg) * 0.5 * np.sum(grad * grad, axis=(-2, -1)) * elt
    return float(np.sum(integrand)) * math.pi * 0.25 * math.pi


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
