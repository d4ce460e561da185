"""A priori error bounds for the flat-triangle discretization of a
parameterized surface, plus triangulation quality diagnostics.

All bounds are per-face and computable from the surface constants of a
:class:`BoundsConfig` (the chart-gradient Lipschitz constant, two-sided
singular value bounds, the total area) together with the face and its
parameter-domain triangle:

* plane-distance bound: how far a surface point can sit from its face's
  plane (quadratic in the parameter diameter);
* tilt bound: how far the face plane can tilt from the tangent plane;
* gradient error terms: the per-face pair (factor, offset) bounding the
  pointwise error of the piecewise-constant surface-gradient surrogate by
  factor * |gradient| + offset;
* a global bound on the Dirichlet-energy discretization error assembled
  from the maxima of those terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DegenerateTriangle, DimensionMismatch
from .mesh import TriMesh, first_offender, signed_double_area, triangle_metrics, write_rows


@dataclass(frozen=True)
class BoundsConfig:
    """The constants every bound reads, in the one record that holds them.

    ``grad_lipschitz`` bounds the chart gradient's modulus of continuity,
    ``map_grad_lipschitz`` the target map's tangential-gradient Lipschitz
    constant, ``sigma_min``/``sigma_max`` the chart's singular values over
    the certified region, and ``total_area`` the surface area.  A
    generated hemisphere's come from
    :meth:`~diskmap.hemisphere.HemisphereMesh.bounds_config`.
    """

    grad_lipschitz: float
    map_grad_lipschitz: float
    sigma_min: float
    sigma_max: float
    total_area: float

    def __post_init__(self):
        constants = {f.name: getattr(self, f.name) for f in fields(self)}
        bad = [f"{name}={value}" for name, value in constants.items() if not math.isfinite(value)]
        if bad:
            raise ValueError(f"bound constants must be finite: {', '.join(bad)}")
        if min(constants.values()) < 0 or self.sigma_min == 0:
            raise ValueError("bound constants must be positive (lipschitz may be 0)")
        if self.sigma_min > self.sigma_max:
            raise ValueError("sigma_min exceeds sigma_max")


def plane_distance_bound(config: BoundsConfig, diam_param: float) -> float:
    """Upper bound on the surface-to-face-plane distance over one face.

    Equals grad_lipschitz * diam_param^2; zero for flat charts.
    """
    return config.grad_lipschitz * diam_param**2


def centered_pinv_norm(param_tri):
    """Largest pseudoinverse norm of the vertex matrix centered anywhere
    in a parameter triangle.

    The maximum over centers is attained at the centroid and has the
    closed form |[e_jk, e_ki, e_ij]|_2 / (2 T) in terms of the edge
    vectors and the triangle area T.  A stack of triangles (*S, 3, 2)
    gives the norms (*S,); one triangle gives a 0-d array.
    """
    p = np.asarray(param_tri, dtype=float)
    if p.shape[-2:] != (3, 2):
        raise DegenerateTriangle("parameter triangle must be (3, 2)")
    p0, p1, p2 = p[..., 0, :], p[..., 1, :], p[..., 2, :]
    edges = np.stack([p1 - p2, p2 - p0, p0 - p1], axis=-1)  # (*S, 2, 3)
    area2 = signed_double_area(p0, p1, p2)
    if (area2 == 0.0).any():
        where, _ = first_offender(area2 == 0.0)
        raise DegenerateTriangle(f"{where}degenerate parameter triangle")
    return np.linalg.norm(edges, 2, axis=(-2, -1)) / np.abs(area2)


def tangent_tilt_bound(config: BoundsConfig, diam_param: float, area_param: float) -> float:
    """Upper bound on |n^T Q|: the sine of the face-plane/tangent-plane
    tilt, 3 * grad_lipschitz * diam_param^3 / (sigma_min * area_param).
    """
    if np.any(np.asarray(area_param) <= 0):
        raise DegenerateTriangle("parameter triangle area must be positive")
    return 3.0 * config.grad_lipschitz * diam_param**3 / (config.sigma_min * area_param)


def gradient_error_terms(
    config: BoundsConfig,
    diam_face: float,
    area_face: float,
    diam_param: float,
    area_param: float,
) -> tuple[float, float]:
    """Per-face (factor, offset) of the surrogate-gradient error bound.

    factor = 3 C d(V) d(Omega)^2 / A + tilt^2 multiplies the pointwise
    gradient norm; offset = 3 C_f sigma_max^2 d(V) d(Omega)^2 / (2 A) is
    the gradient-free remainder.
    """
    if np.any(np.asarray(area_face) <= 0) or np.any(np.asarray(area_param) <= 0):
        raise DegenerateTriangle("face and parameter areas must be positive")
    tilt = tangent_tilt_bound(config, diam_param, area_param)
    factor = 3.0 * config.grad_lipschitz * diam_face * diam_param**2 / area_face + tilt**2
    offset = (
        3.0
        * config.map_grad_lipschitz
        * config.sigma_max**2
        * diam_face
        * diam_param**2
        / (2.0 * area_face)
    )
    return factor, offset


def dirichlet_error_bound(dirichlet_value: float, int_sq_error: float) -> float:
    """Bound on |continuous - discretized| Dirichlet energy.

    Takes the discrete energy and a bound on the integrated squared
    pointwise gradient error S, returning S / 2 + sqrt(2 E S).
    """
    if dirichlet_value < 0 or int_sq_error < 0:
        raise ValueError("energy and integral bound must be non-negative")
    return 0.5 * int_sq_error + math.sqrt(2.0 * dirichlet_value * int_sq_error)


def integrated_error_bound(
    config: BoundsConfig, dirichlet_value: float, factor_max: float, offset_max: float
) -> float:
    """Bound on half the integrated squared gradient error:
    (sqrt(E) * factor_max + sqrt(total_area / 2) * offset_max)^2.
    """
    return (
        math.sqrt(max(dirichlet_value, 0.0)) * factor_max
        + math.sqrt(0.5 * config.total_area) * offset_max
    ) ** 2


@dataclass(frozen=True)
class TriangleQuality:
    """Per-face shape diagnostics of a mesh.

    ``diam_over_sin`` is the convergence-condition ratio d / sin(min
    angle); ``diam_over_inradius`` the quasi-uniformity ratio d / r.
    """

    diam: np.ndarray
    area: np.ndarray
    min_angle: np.ndarray
    diam_over_sin: np.ndarray
    diam_over_inradius: np.ndarray

    @property
    def max_diam(self) -> float:
        return float(self.diam.max())

    @property
    def max_diam_over_sin(self) -> float:
        return float(self.diam_over_sin.max())

    @property
    def max_diam_over_inradius(self) -> float:
        return float(self.diam_over_inradius.max())


def quality_report(mesh: TriMesh) -> TriangleQuality:
    """Shape diagnostics for every face."""
    geom = mesh.geometry
    min_angle = geom.angles.min(axis=1)
    return TriangleQuality(
        diam=geom.diameter,
        area=geom.area,
        min_angle=min_angle,
        diam_over_sin=geom.diameter / np.sin(min_angle),
        diam_over_inradius=geom.diameter / geom.inradius,
    )


def scan_degraded_faces(
    mesh: TriMesh, short_ratio: float = 0.1, near_equal: float = 0.1
) -> np.ndarray:
    """Indices, ascending, of the faces with two nearly equal long edges
    and a tiny short edge.

    With sorted edge lengths a <= b <= c, a face is flagged when
    a / c <= short_ratio and |b / c - 1| <= near_equal.  This is the
    degradation pattern that thin Delaunay triangulations develop as the
    smallest angle collapses.  Both thresholds must be finite and >= 0.
    """
    thresholds = {"short_ratio": short_ratio, "near_equal": near_equal}
    bad = [f"{k}={v}" for k, v in thresholds.items() if not (math.isfinite(v) and v >= 0)]
    if bad:
        raise ValueError(f"degraded-face thresholds must be finite and >= 0: {', '.join(bad)}")
    lengths = np.sort(mesh.geometry.edge_lengths, axis=1)
    short = lengths[:, 0] / lengths[:, 2]
    mid = lengths[:, 1] / lengths[:, 2]
    return np.flatnonzero((short <= short_ratio) & (np.abs(mid - 1.0) <= near_equal))


@dataclass(frozen=True)
class BoundReport:
    """All per-face bound quantities plus their maxima.

    Per-face arrays: parameter-triangle diameter, plane-distance bound,
    centered pseudoinverse norm, tilt bound, gradient-error factor and
    offset.  When a Dirichlet value is supplied the energy-error bound is
    filled in.  ``certified`` marks faces whose parameter triangle lies
    inside the chart's certified (non-degenerate) region.
    """

    quality: TriangleQuality
    param_diam: np.ndarray
    plane_distance: np.ndarray
    pinv_norm: np.ndarray
    tilt: np.ndarray
    grad_factor: np.ndarray
    grad_offset: np.ndarray
    certified: np.ndarray
    factor_max: float
    offset_max: float
    energy_error: float | None = None

    def write_csv(self, path):
        """One row per face plus a summary row of the maxima."""
        q = self.quality
        header = (
            "face,diam,diam_over_sin,param_diam,plane_distance_bound,"
            "pinv_norm,tilt_bound,grad_factor,grad_offset,certified"
        )
        columns = [
            q.diam,
            q.diam_over_sin,
            self.param_diam,
            self.plane_distance,
            self.pinv_norm,
            self.tilt,
            self.grad_factor,
            self.grad_offset,
        ]
        summary = [np.max(c) for c in columns[:-2]]
        summary += [self.factor_max, self.offset_max, self.certified.all()]
        _write_face_table(path, header, columns, self.certified, summary)


def _write_face_table(path, header, columns, flags, summary):
    """CSV of rows ``face, columns..., flag`` and a final ``max`` row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\r\n")
        write_rows(fh, [np.arange(len(flags)), *columns, flags])
        fh.write("max,")
        write_rows(fh, [[value] for value in summary])


def build_bound_report(
    mesh: TriMesh,
    param_tris,
    config: BoundsConfig,
    dirichlet_value: float | None = None,
    certified_mask=None,
) -> BoundReport:
    """Evaluate every per-face bound and aggregate the maxima.

    ``certified_mask`` marks faces inside the chart's certified region
    (default: all); the factor/offset maxima and the derived energy-error
    bound are taken over all faces so they stay valid upper bounds.
    """
    nf = mesh.num_faces
    p = np.asarray(param_tris, dtype=float).reshape(-1, 3, 2)
    certified = (
        np.ones(nf, dtype=bool)
        if certified_mask is None
        else np.asarray(certified_mask, dtype=bool)
    )
    if len(p) != nf or len(certified) != nf:
        raise DimensionMismatch(
            f"{nf} faces, but {len(p)} parameter triangles and "
            f"{len(certified)} certified flags"
        )
    quality = quality_report(mesh)
    param = triangle_metrics(p[:, 0], p[:, 1], p[:, 2])
    d_param, a_param = param.diameter, param.area
    factor, offset = gradient_error_terms(config, quality.diam, quality.area, d_param, a_param)
    factor_max = float(factor.max())
    offset_max = float(offset.max())
    energy_err = None
    if dirichlet_value is not None:
        half_integral = integrated_error_bound(
            config, dirichlet_value, factor_max, offset_max
        )
        energy_err = dirichlet_error_bound(dirichlet_value, 2.0 * half_integral)
    return BoundReport(
        quality=quality,
        param_diam=d_param,
        plane_distance=plane_distance_bound(config, d_param),
        pinv_norm=centered_pinv_norm(p),
        tilt=tangent_tilt_bound(config, d_param, a_param),
        grad_factor=factor,
        grad_offset=offset,
        certified=certified,
        factor_max=factor_max,
        offset_max=offset_max,
        energy_error=energy_err,
    )


def quality_csv(quality: TriangleQuality, path, flagged=()):
    """Write per-face quality rows plus a summary row; the ``degraded``
    column flags the face indices in `flagged`."""
    degraded = np.zeros(len(quality.diam), dtype=int)
    degraded[np.asarray(flagged, dtype=int)] = 1
    summary = [
        quality.max_diam,
        quality.min_angle.min(),
        quality.max_diam_over_sin,
        quality.max_diam_over_inradius,
        np.count_nonzero(degraded),
    ]
    _write_face_table(
        path,
        "face,diam,min_angle,diam_over_sin,diam_over_inradius,degraded",
        [quality.diam, quality.min_angle, quality.diam_over_sin, quality.diam_over_inradius],
        degraded,
        summary,
    )
