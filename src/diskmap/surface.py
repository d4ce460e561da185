"""Analytic surface charts and quadrature of their area element.

A :class:`ParamSurface` holds the gradient of a chart w in Omega ⊂ R^2
-> x(w) in R^m, from which the area element follows, and optionally the
closed-form area of a curved patch.  The constants the error bounds need
are held by :class:`~diskmap.bounds.BoundsConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateTriangle
from .mesh import signed_double_area

# Symmetric triangle rules in barycentric coordinates, exact to the given
# polynomial degree.  Weights sum to 1 (reference-area normalized).
_TRI_RULES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _perm3(a, b, c):
    pts = {(a, b, c), (b, c, a), (c, a, b)}
    return sorted(pts)


def _build_rules():
    third = 1.0 / 3.0
    _TRI_RULES[1] = (np.array([[third] * 3]), np.array([1.0]))

    pts = _perm3(2 / 3, 1 / 6, 1 / 6)
    _TRI_RULES[2] = (np.array(pts), np.full(3, third))

    pts = [[third] * 3] + _perm3(0.6, 0.2, 0.2)
    _TRI_RULES[3] = (np.array(pts), np.array([-27 / 48, 25 / 48, 25 / 48, 25 / 48]))

    a1, w1 = 0.445948490915965, 0.223381589678011
    a2, w2 = 0.091576213509771, 0.109951743655322
    pts = _perm3(1 - 2 * a1, a1, a1) + _perm3(1 - 2 * a2, a2, a2)
    _TRI_RULES[4] = (np.array(pts), np.array([w1] * 3 + [w2] * 3))

    a1, w1 = 0.470142064105115, 0.132394152788506
    a2, w2 = 0.101286507323456, 0.125939180544827
    pts = [[third] * 3] + _perm3(1 - 2 * a1, a1, a1) + _perm3(1 - 2 * a2, a2, a2)
    _TRI_RULES[5] = (np.array(pts), np.array([0.225] + [w1] * 3 + [w2] * 3))


_build_rules()


def triangle_rule(order: int):
    """Barycentric points and weights of a symmetric rule exact to `order`, 1 to 5."""
    if order not in _TRI_RULES:
        raise ValueError(f"quadrature order must be 1 to 5, got {order!r}")
    return _TRI_RULES[order]


@dataclass(frozen=True)
class ParamSurface:
    """Chart of a smooth surface, as the area-ratio weights read it.

    Attributes
    ----------
    gradient : callable
        w (2,) -> grad x(w) (m, 2), columns are the partials.  Also takes
        stacked points w (*S, 2) and returns (*S, m, 2).
    patch_area : callable or None
        Optional closed-form area of the curved patch spanned by three
        surface points (used by the analytic weight mode).  Also takes
        three stacks of points (*S, m) and returns the areas (*S,).
    """

    gradient: Callable[[np.ndarray], np.ndarray]
    patch_area: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray] | None = None

    def area_element(self, w):
        """sqrt(det(grad^T grad)) at parameter points w (*S, 2), an array
        (*S,); 0-d for one point (2,)."""
        g = self.gradient(np.asarray(w, dtype=float))
        return np.sqrt(np.maximum(np.linalg.det(np.swapaxes(g, -1, -2) @ g), 0.0))


def patch_area_quadrature(surface: ParamSurface, cells, order: int = 3) -> np.ndarray:
    """Integrate the surface area element over a stack of parameter cells.

    `cells` (C, k, 2) holds C convex cells of k >= 3 corners each; every
    cell is fan split into the triangles (0, s, s + 1), s = 1 .. k - 2.
    Returns the (signed-orientation-free) area of the surface patch above
    each cell, (C,); the area element is evaluated in one call for the
    whole stack.
    """
    cells = np.asarray(cells, dtype=float)
    if cells.ndim != 3 or cells.shape[1] < 3 or cells.shape[2] != 2:
        raise DegenerateTriangle("parameter cells must be (C, k, 2) with k >= 3")
    count, k = cells.shape[:2]
    s = np.arange(1, k - 1)
    fan = np.stack([np.zeros_like(s), s, s + 1], axis=1)  # (k - 2, 3)
    tris = cells[:, fan].reshape(-1, 3, 2)  # (C (k - 2), 3, 2)
    area = 0.5 * np.abs(signed_double_area(tris[:, 0], tris[:, 1], tris[:, 2]))
    bary, weights = triangle_rule(order)
    element = surface.area_element(bary @ tris)  # (T, Q)
    # bincount adds each cell's terms in triangle then point order.
    terms = (weights * element * area[:, None]).ravel()
    owner = np.repeat(np.arange(count), (k - 2) * len(weights))
    return np.bincount(owner, weights=terms, minlength=count)
