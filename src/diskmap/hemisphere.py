"""South-hemisphere test-bed: structured triangulation, spherical chart,
and the stereographic reference map.

The hemisphere is charted by longitude/colatitude ``w = (phi, psi)`` with
``x = (cos phi sin psi, sin phi sin psi, cos psi)`` on
``[0, 2pi] x [pi/2, pi]``.  The mesh puts ``m`` equally spaced meridians
and ``n`` latitude rings plus the south pole; the exact conformal flatten
of this surface onto the unit disk is stereographic projection from the
north pole, which is used as ground truth throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import BoundsConfig
from .errors import DimensionMismatch, NearPole
from .mesh import TriMesh, dot
from .surface import ParamSurface, triangle_rule

# Lipschitz constant of the chart gradient: the second-derivative tensor
# has spectral norm sqrt(1 + cos^2 psi) <= sqrt(2) everywhere.
GRAD_LIPSCHITZ = math.sqrt(2.0)

# Frobenius norm of the chart gradient is sqrt(sin^2 psi + 1) <= sqrt(2).
SIGMA_MAX = math.sqrt(2.0)

HEMISPHERE_AREA = 2.0 * math.pi

# Largest hemisphere gen_hemisphere builds: about 900 times the 10 881
# vertices of the finest mesh any test or benchmark uses.  Its vertex
# and face arrays alone take about 0.7 GB.
MAX_VERTICES = 10**7

_NEAR_POLE_TOL = 1e-12
_SPHERE_TOL = 1e-9


def sphere_point(w):
    """Chart evaluation: (phi, psi) -> point on the unit sphere; stacked
    points w (*S, 2) give stacked points (*S, 3)."""
    w = np.asarray(w, dtype=float)
    phi, psi = w[..., 0], w[..., 1]
    sp = np.sin(psi)
    return np.stack([np.cos(phi) * sp, np.sin(phi) * sp, np.cos(psi)], axis=-1)


def sphere_gradient(w):
    """Chart gradient (3, 2); columns are the phi and psi partials.

    Stacked points w (*S, 2) give stacked gradients (*S, 3, 2).
    """
    w = np.asarray(w, dtype=float)
    phi, psi = w[..., 0], w[..., 1]
    sp, cp = np.sin(psi), np.cos(psi)
    sf, cf = np.sin(phi), np.cos(phi)
    return np.stack(
        [
            np.stack([-sf * sp, cf * cp], axis=-1),
            np.stack([cf * sp, sf * cp], axis=-1),
            np.stack([np.zeros_like(sp), -sp], axis=-1),
        ],
        axis=-2,
    )


def spherical_patch_area(p0, p1, p2):
    """Area of the geodesic triangle through three unit-sphere points.

    Uses l'Huilier's formula, which stays accurate for small triangles.
    Three stacks of points (*S, 3) give the areas (*S,); one triangle
    gives a 0-d array.
    """
    p0, p1, p2 = (np.asarray(p, dtype=float) for p in (p0, p1, p2))

    def arc(a, b):
        n = np.cross(a, b)
        return np.arctan2(np.sqrt(dot(n, n)), dot(a, b))

    a, b, c = arc(p1, p2), arc(p2, p0), arc(p0, p1)
    s = 0.5 * (a + b + c)
    t = np.tan(0.5 * s) * np.tan(0.5 * (s - a)) * np.tan(0.5 * (s - b)) * np.tan(0.5 * (s - c))
    return 4.0 * np.arctan(np.sqrt(np.maximum(t, 0.0)))


def stereographic_project(v):
    """Project unit-sphere points (z < 1) from the north pole to the plane.

    (x, y, z) -> (x, y) / (1 - z); the south hemisphere lands in the
    closed unit disk.  Accepts one point (3,) or a stack (..., 3).

    Raises
    ------
    NearPole
        If 1 - z < 1e-12 for any point.
    ValueError
        If a point is not on the unit sphere (tolerance 1e-9).
    """
    v = np.asarray(v, dtype=float)
    norms = np.linalg.norm(v, axis=-1)
    if np.any(np.abs(norms - 1.0) > _SPHERE_TOL):
        raise ValueError("point not on the unit sphere")
    denom = 1.0 - v[..., 2]
    if np.any(denom < _NEAR_POLE_TOL):
        raise NearPole("point too close to the projection pole")
    return v[..., :2] / denom[..., None]


def stereographic_gradient(w):
    """Tangential gradient (2, 3) of the stereographic map at x(w).

    On the unit sphere the radial projection's Jacobian is the tangent
    projector, so :func:`_radial_stereographic_jacobian` at x(w) is this
    gradient; no chart term divides by sin psi, so it holds at the pole
    too.  Stacked points w (*S, 2) give stacked gradients (*S, 2, 3).
    """
    return _radial_stereographic_jacobian(sphere_point(w))


def _radial_stereographic_jacobian(x) -> np.ndarray:
    """Jacobian (..., 2, 3) of s(x / |x|) at points x (..., 3) off the origin.

    s is stereographic projection from the north pole and x / |x| the
    radial projection onto the unit sphere, which carries each flat face
    of an inscribed mesh onto its geodesic triangle.
    """
    x = np.asarray(x, dtype=float)
    r = np.linalg.norm(x, axis=-1)
    y = x / r[..., None]
    d = 1.0 - y[..., 2]
    ds = np.zeros(x.shape[:-1] + (2, 3))
    ds[..., 0, 0] = ds[..., 1, 1] = 1.0 / d
    ds[..., :, 2] = y[..., :2] / (d * d)[..., None]
    # D(x / |x|) = (I - y y^T) / |x| is symmetric.
    dpi = (np.eye(3) - y[..., :, None] * y[..., None, :]) / r[..., None, None]
    return ds @ dpi


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


@dataclass(frozen=True)
class HemisphereSpec:
    """Resolution of the structured hemisphere mesh.

    ``n`` latitude rings (colatitude steps of pi/(2n)) and ``m``
    meridians; the mesh has m*n + 1 vertices including the pole, at most
    :data:`MAX_VERTICES`.
    """

    n: int
    m: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need n >= 2 latitude rings")
        if self.m < 3:
            raise ValueError("need m >= 3 meridians")
        if self.vertex_count > MAX_VERTICES:
            raise ValueError(
                f"{self.m} meridians x {self.n} rings give {self.vertex_count} "
                f"vertices, more than {MAX_VERTICES}"
            )

    @classmethod
    def from_counts(cls, n: int, m: int) -> "HemisphereSpec":
        return cls(n=int(n), m=int(m))

    @classmethod
    def from_exponent(cls, n: int, r: float) -> "HemisphereSpec":
        if n < 2:  # n^r may be complex or undefined
            raise ValueError("need n >= 2 latitude rings")
        # Floor at 3 meridians so small-n members of slowly growing
        # families still produce valid meshes.
        try:
            m = max(3, int(math.floor(n**r)))
        except (OverflowError, ValueError):  # n^r is infinite or NaN
            raise ValueError(f"meridian count {n}^{r} is not finite") from None
        return cls(n=int(n), m=m)

    @property
    def vertex_count(self) -> int:
        return self.m * self.n + 1


@dataclass(frozen=True)
class HemisphereMesh:
    """Generated hemisphere: mesh, chart, and parameter-domain cells.

    ``param_tris`` (F, 3, 2) has one parameter triangle per face, ordered
    like the face's vertices.  Faces touching the pole get a synthetic
    apex at (mid-longitude, pi), since the pole has no unique longitude.
    ``param_cells`` holds the cells whose surface patches partition the
    hemisphere exactly, as two stacks in face order: the (F - m, 3, 2)
    triangles of the band faces, then the (m, 4, 2) longitude-colatitude
    rectangles of the m pole faces.  ``pole_faces`` flags the faces
    containing the pole vertex, the last m.
    """

    spec: HemisphereSpec
    mesh: TriMesh
    surface: ParamSurface
    param_tris: np.ndarray
    param_cells: tuple[np.ndarray, np.ndarray]
    pole_faces: np.ndarray

    def bounds_config(self, map_grad_lipschitz: float) -> BoundsConfig:
        """The chart's bound constants, with `map_grad_lipschitz` for the
        target map's tangential gradient.

        sigma_min = sin(pi / (2n)) is certified over the meshed band up to
        the last vertex ring; the chart is rank deficient at the pole
        itself, so the pole cells sit outside the certified region.
        """
        return BoundsConfig(
            grad_lipschitz=GRAD_LIPSCHITZ,
            map_grad_lipschitz=map_grad_lipschitz,
            sigma_min=math.sin(0.5 * math.pi / self.spec.n),
            sigma_max=SIGMA_MAX,
            total_area=HEMISPHERE_AREA,
        )

    def reference_map(self) -> np.ndarray:
        """Stereographic images of all vertices (the exact flatten)."""
        return stereographic_project(self.mesh.vertices)

    def gradient_error(self, f) -> float:
        """Relative H1-seminorm error of the piecewise-linear map `f`.

        Returns ||grad(s o pi) - grad f_h|| / ||grad(s o pi)||, both
        L2 norms summed over the flat faces, where f_h interpolates the
        vertex values `f` (V, 2) linearly on each face, s is the
        stereographic map and pi(x) = x / |x| the radial projection.  The
        exact gradient is projected onto each face's plane, and each face
        integral uses the symmetric three-point rule, exact for
        quadratics.  This is the norm controlled by the conformal-energy
        analysis, so it converges at first order in h where the nodal
        error of :func:`~diskmap.minimizer.relative_error` converges at
        about second order.  Callers should align `f` with
        :func:`~diskmap.minimizer.normalize_map` first.

        Raises
        ------
        DimensionMismatch
            If `f` is not of shape (V, 2).
        """
        f = np.asarray(f, dtype=float)
        if f.shape != (self.mesh.num_vertices, 2):
            raise DimensionMismatch(
                f"map has shape {f.shape}, expected ({self.mesh.num_vertices}, 2)"
            )
        corners = self.mesh.vertices[self.mesh.faces]           # (F, 3, 3)
        values = f[self.mesh.faces]                             # (F, 3, 2)
        geom = self.mesh.geometry
        discrete = np.einsum("fic,fid->fcd", values, geom.hat_gradients)  # (F, 2, 3)
        tangent = np.eye(3) - geom.normal[:, :, None] * geom.normal[:, None, :]
        bary, weights = triangle_rule(2)
        points = np.einsum("qi,fid->fqd", bary, corners)  # (F, 3, 3)
        exact = _radial_stereographic_jacobian(points) @ tangent[:, None]
        weight = geom.area[:, None] * weights
        err = np.sum(weight * np.sum((exact - discrete[:, None]) ** 2, axis=(2, 3)))
        norm = np.sum(weight * np.sum(exact**2, axis=(2, 3)))
        return float(np.sqrt(err / norm))


def gen_hemisphere(spec: HemisphereSpec) -> HemisphereMesh:
    """Build the structured hemisphere triangulation.

    Vertex 0 is the south pole; vertex 1 + j*m + i sits at longitude
    2*pi*i/m on ring j (colatitude pi/2 + j*pi/(2n)).  Each quad strip is
    split into two triangle types, and the last ring closes onto the pole
    with one fan of triangles; orientations are mutually consistent and
    project to positively oriented planar triangles.
    """
    n, m = spec.n, spec.m
    phi = 2.0 * math.pi * np.arange(m + 1) / m  # meridian m closes at 2 pi
    # Rings 0 .. n - 1, then the pole's colatitude as row n.
    psi = np.append(0.5 * math.pi + 0.5 * math.pi * np.arange(n) / n, math.pi)

    ring_sin = np.sin(psi[:n])[:, None]
    vertices = np.empty((m * n + 1, 3))
    vertices[0] = (0.0, 0.0, -1.0)
    vertices[1:, 0] = (np.cos(phi[:m]) * ring_sin).ravel()
    vertices[1:, 1] = (np.sin(phi[:m]) * ring_sin).ravel()
    vertices[1:, 2] = np.repeat(np.cos(psi[:n]), m)

    def corner(i, j):
        return np.stack([phi[i], psi[j]], axis=-1)

    # Quad (i, j) spans meridians i, i + 1 and rings j, j + 1 and splits
    # into the triangles (a, b, c) and (a, c, d), listed quad by quad.
    j, i = (g.ravel() for g in np.meshgrid(np.arange(n - 1), np.arange(m), indexing="ij"))
    a = 1 + j * m + (i + 1) % m
    c = 1 + (j + 1) * m + i
    band_faces = np.stack([a, a + m, c, a, c, c - m], axis=1).reshape(-1, 3)
    band_tris = np.stack(
        [corner(i + 1, j), corner(i + 1, j + 1), corner(i, j + 1),
         corner(i + 1, j), corner(i, j + 1), corner(i, j)],
        axis=1,
    ).reshape(-1, 3, 2)

    # The fan closing ring n - 1 onto the pole, and its wedge rectangles.
    i = np.arange(m)
    last, pole = np.full(m, n - 1), np.full(m, n)
    ring = 1 + (n - 1) * m
    fan_faces = np.stack([np.zeros(m, dtype=int), ring + i, ring + (i + 1) % m], axis=1)
    apex = np.stack([0.5 * (phi[i] + phi[i + 1]), psi[pole]], axis=-1)
    fan_tris = np.stack([apex, corner(i, last), corner(i + 1, last)], axis=1)
    fan_rects = np.stack(
        [corner(i, last), corner(i + 1, last), corner(i + 1, pole), corner(i, pole)], axis=1
    )

    faces = np.concatenate([band_faces, fan_faces])
    mesh = TriMesh(vertices, faces)

    return HemisphereMesh(
        spec=spec,
        mesh=mesh,
        surface=ParamSurface(gradient=sphere_gradient, patch_area=spherical_patch_area),
        param_tris=np.concatenate([band_tris, fan_tris]),
        param_cells=(band_tris, fan_rects),
        pole_faces=np.arange(len(faces)) >= len(band_faces),
    )
