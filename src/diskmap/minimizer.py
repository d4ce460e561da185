"""Conformal-energy minimization over maps into the unit disk.

Boundary vertices live on the unit circle and are parameterized by their
angles, so feasibility is exact at every iterate; interior vertices carry
free planar coordinates.  The driver is a backtracking line-search
descent with limited-memory curvature pairs, each stored with its y . s,
preconditioned by a factorization of the interior block of the Laplacian
(the energy is quadratic in the interior, so that block is the exact
interior Hessian), made by :func:`~diskmap.laplacian.factorize`.
Accepted iterates strictly lower the energy, which is evaluated by
:meth:`~diskmap.laplacian.ConformalEnergy.evaluate`; the gradient of an
accepted step is :meth:`~diskmap.laplacian.EnergyEvaluation.gradient` of
its trial evaluation.

Every dot product and norm of the reduced vectors goes through
:func:`_dot`, which sums blocks short enough for OpenBLAS to keep on
one thread.  So the iterates, and the report bytes, do not depend on
the BLAS thread count, and the second thread is never woken for a
reduction between the numpy calls around it.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ZeroReference
from .laplacian import (
    ConformalEnergy,
    CotanLaplacian,
    EnergyBreakdown,
    as_vertex_map,
    face_image_areas,
    factorize,
)
from .mesh import TriMesh, require_disk, write_rows

_BOUNDARY_SLACK = 0.1
_ARMIJO = 1e-4
_CURVATURE_FLOOR = 1e-12
# Curvature pairs kept by the two-loop recursion.
_MEMORY = 10
# The line search tries up to _MAX_BACKTRACKS steps per direction, the
# first of length _INITIAL_STEP and each next one _BACKTRACK_FACTOR times
# the last.
_INITIAL_STEP = 1.0
_BACKTRACK_FACTOR = 0.5
_MAX_BACKTRACKS = 50
# OpenBLAS splits a dot product across threads above 10 000 entries, and
# the partial sums then depend on the thread count.  _dot sums blocks
# short enough to stay on one thread.
_DOT_BLOCK = 8192


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """The dot product of 1-d float vectors, ``a @ b`` per block of at
    most ``_DOT_BLOCK`` entries, the blocks summed in order.

    Bit-identical to ``a @ b`` up to ``_DOT_BLOCK`` entries, and
    independent of the BLAS thread count at every length.
    """
    if len(a) <= _DOT_BLOCK:
        return float(a @ b)
    total = 0.0
    for start in range(0, len(a), _DOT_BLOCK):
        stop = start + _DOT_BLOCK
        total += float(a[start:stop] @ b[start:stop])
    return total


def _norm(a: np.ndarray) -> float:
    """Euclidean norm through :func:`_dot`; ``np.linalg.norm`` is the
    square root of ``a @ a``, so the two agree bit for bit wherever
    :func:`_dot` equals ``a @ b``."""
    return math.sqrt(_dot(a, a))


@dataclass(frozen=True)
class MinimizerOptions:
    """Stopping rules of the descent loop.

    ``gradient_tolerance`` is the absolute norm of the reduced gradient
    (interior coordinates plus boundary tangential components) at which
    the run reports convergence; it is the only convergence test.  The
    run stops at ``max_iterations`` accepted steps at the latest.
    """

    max_iterations: int = 2000
    gradient_tolerance: float = 1e-6

    def __post_init__(self):
        # NaN fails it too; at inf any start, folded or not, would converge.
        if not 0 < self.gradient_tolerance < math.inf:
            raise ValueError(
                f"gradient_tolerance must be finite and positive, got {self.gradient_tolerance}"
            )
        if self.max_iterations < 0:
            raise ValueError(f"max_iterations must be >= 0, got {self.max_iterations}")


@dataclass
class SolveReport:
    """Outcome of one minimization run.

    ``energy_trace`` has one breakdown per accepted iterate (the entry at
    index 0 is the feasible initial map); the conformal component
    strictly decreases along it by construction.  ``fold_count`` counts
    faces with a negative signed image area in the final map.
    ``energy_evaluations`` counts the line search's energy evaluations.

    ``message`` gives one of four stop reasons: "gradient tolerance
    reached" (the only one with ``converged`` True); "iteration cap
    reached"; "no step lowers the energy at double precision", when every
    trial step leaves the energy unchanged or higher, down to one whose
    predicted decrease is below the rounding of the energy, where the
    search ends; and "line search found no lower energy", when the trial
    steps ran out before that point.  The last two give the gradient norm.
    ``converged`` is the gradient test alone: a converged map may still
    fold faces or put the boundary out of cyclic order, which ``diskmap
    solve`` checks separately (exit 1).
    """

    final_map: np.ndarray
    energy_trace: list[EnergyBreakdown]
    gradient_norms: list[float]
    fold_trace: list[int]
    iterations: int
    converged: bool
    message: str
    energy_evaluations: int

    @property
    def fold_count(self) -> int:
        return self.fold_trace[-1]

    def write_trace(self, path):
        """CSV trace: iteration, dirichlet, area, conformal, grad norm, folds."""
        trace = self.energy_trace
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("iteration,dirichlet,area,conformal,grad_norm,folds\r\n")
            write_rows(
                fh,
                [
                    np.arange(len(trace)),
                    [e.dirichlet for e in trace],
                    [e.area for e in trace],
                    [e.conformal for e in trace],
                    self.gradient_norms,
                    self.fold_trace,
                ],
            )


def minimize(
    mesh: TriMesh,
    laplacian: CotanLaplacian,
    init,
    options: MinimizerOptions | None = None,
) -> SolveReport:
    """Minimize the conformal energy with the boundary on the unit circle.

    The initial boundary vertices must already be within 0.1 of the unit
    circle; they are snapped onto it radially on entry.  Each accepted
    step satisfies a backtracking Armijo decrease and lowers the energy
    strictly, so the recorded conformal energies strictly decrease.  The
    run converges when the reduced gradient norm reaches the tolerance.
    Otherwise it stops, not converged and with the best iterate, at the
    iteration cap or when neither the curvature-model direction nor the
    plain preconditioned one has a trial step that lowers the energy
    (see :class:`SolveReport` for the messages).

    Raises ``InvalidTopology`` unless the mesh is a topological disk (see
    :func:`~diskmap.mesh.require_disk`), and ``SingularSystem`` if the
    interior block of the Laplacian is singular.
    """
    options = options or MinimizerOptions()
    require_disk(mesh)
    init = as_vertex_map(init, mesh.num_vertices)
    boundary = mesh.boundary_vertices
    radii = np.linalg.norm(init[boundary], axis=1)
    if np.any(np.abs(radii - 1.0) > _BOUNDARY_SLACK):
        raise ValueError(
            "initial boundary vertices must lie within 0.1 of the unit circle"
        )

    # Reduced variables: the interior coordinates x0, y0, x1, y1, ... at
    # the indices `flat` of a raveled (V, 2) map, then the boundary angles.
    conformal = ConformalEnergy(mesh, laplacian)
    interior = mesh.interior_vertices()
    flat = (2 * interior[:, None] + np.arange(2)).ravel()
    n_flat = len(flat)
    lu = factorize(laplacian.matrix[interior][:, interior]) if n_flat else None
    theta_scale = np.maximum(laplacian.matrix.diagonal()[boundary], 1e-12)

    def assemble(x):
        """The vertex map of reduced variables `x`, and its boundary angles."""
        theta = x[n_flat:]
        f = np.empty((mesh.num_vertices, 2))
        f.reshape(-1)[flat] = x[:n_flat]
        f[boundary, 0] = np.cos(theta)
        f[boundary, 1] = np.sin(theta)
        return f, theta

    def reduce(point, theta):
        """The gradient of an evaluation in the reduced variables: its
        interior coordinates, then each boundary vertex's component along
        the tangent (-sin theta, cos theta)."""
        grad = point.gradient()
        out = np.empty(n_flat + len(theta))
        np.take(grad.reshape(-1), flat, out=out[:n_flat])
        gx, gy = grad[boundary].T
        out[n_flat:] = gy * np.cos(theta) - gx * np.sin(theta)
        return out

    def precondition(v):
        out = np.empty_like(v)
        if n_flat:
            out[:n_flat] = lu.solve(v[:n_flat].reshape(-1, 2)).ravel()
        out[n_flat:] = v[n_flat:] / theta_scale
        return out

    theta0 = np.arctan2(init[boundary, 1], init[boundary, 0])
    x = np.concatenate([init[interior].ravel(), theta0])

    f, theta = assemble(x)
    point = conformal.evaluate(f)
    current = point.energy
    g = reduce(point, theta)

    trace = [current]
    grad_norm = _norm(g)
    grad_norms = [grad_norm]
    folds = [int(np.sum(face_image_areas(mesh, f) < 0))]

    # Curvature pairs (s, y, y @ s), oldest first.
    pairs: deque[tuple[np.ndarray, np.ndarray, float]] = deque(maxlen=_MEMORY)
    iterations = 0
    evaluations = 0
    converged = False
    message = "iteration cap reached"

    def backtrack(direction, slope):
        """The first trial step whose energy is strictly below the current
        one and passes the Armijo test, or None; and whether the search
        ended at the rounding floor rather than by running out of trial
        steps.  The accepted step comes with its energy evaluation, from
        whose products the caller forms the gradient."""
        nonlocal evaluations
        energy = current.conformal
        step = _INITIAL_STEP
        for _ in range(_MAX_BACKTRACKS):
            # From here on the predicted decrease is lost in the rounding.
            if energy + step * slope == energy:
                return None, True
            x_new = x + step * direction
            f_new, theta_new = assemble(x_new)
            trial = conformal.evaluate(f_new)
            evaluations += 1
            e_new = trial.energy.conformal
            # The Armijo bound can round to the energy; `<` rejects no change.
            if e_new < energy and e_new <= energy + _ARMIJO * step * slope:
                return (x_new, f_new, theta_new, trial), False
            step *= _BACKTRACK_FACTOR
        return None, False

    while iterations < options.max_iterations:
        if grad_norm <= options.gradient_tolerance:
            converged = True
            message = "gradient tolerance reached"
            break

        # Two-loop recursion over the stored pairs, seeded by the
        # preconditioner.
        q = g.copy()
        alphas = []
        for s, y, ys in reversed(pairs):
            a = _dot(s, q) / ys
            alphas.append(a)
            q -= a * y
        q = precondition(q)
        for (s, y, ys), a in zip(pairs, reversed(alphas)):
            q += (a - _dot(y, q) / ys) * s
        direction = -q

        slope = _dot(g, direction)
        if slope > -1e-14 * _norm(direction) * grad_norm:
            direction = -precondition(g)
            slope = _dot(g, direction)
            pairs.clear()
        result, at_floor = backtrack(direction, slope)
        if result is None and pairs:
            # Curvature model rejected; retry with the plain direction.
            pairs.clear()
            direction = -precondition(g)
            slope = _dot(g, direction)
            result, at_floor = backtrack(direction, slope)
        if result is None:
            above = (
                f"the gradient norm {grad_norm:.3g} is still above the "
                f"tolerance {options.gradient_tolerance:.3g}"
            )
            if at_floor:
                message = f"no step lowers the energy at double precision; {above}"
            else:
                message = (
                    f"line search found no lower energy in "
                    f"{_MAX_BACKTRACKS} trial steps; {above}"
                )
            break

        x_new, f, theta, point = result
        current = point.energy
        g_new = reduce(point, theta)
        s = x_new - x
        y = g_new - g
        ys = _dot(y, s)
        if ys > _CURVATURE_FLOOR * _norm(y) * _norm(s):
            pairs.append((s, y, ys))

        x, g = x_new, g_new
        iterations += 1
        grad_norm = _norm(g)
        trace.append(current)
        grad_norms.append(grad_norm)
        folds.append(int(np.sum(face_image_areas(mesh, f) < 0)))

    return SolveReport(
        final_map=f,
        energy_trace=trace,
        gradient_norms=grad_norms,
        fold_trace=folds,
        iterations=iterations,
        converged=converged,
        message=message,
        energy_evaluations=evaluations,
    )


def normalize_map(f, reference) -> np.ndarray:
    """Best origin-fixed orthogonal alignment of `f` onto `reference`.

    Solves the Procrustes problem over rotations and reflections (no
    translation, no scaling) and returns the aligned copy of `f`.
    """
    f = np.asarray(f, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if f.shape != reference.shape:
        raise DimensionMismatch("maps must have identical shapes")
    u, _, vt = np.linalg.svd(f.T @ reference)
    return f @ (u @ vt)


def relative_error(f, reference) -> float:
    """Nodal error: Frobenius norm of `f - reference` over the vertex
    values, relative to that of `reference`.

    On the hemisphere sweeps this converges at about h^1.7 to h^2 (the
    usual second order of piecewise-linear nodal values), not at the first
    order of the gradient error.  Callers should align with :func:`normalize_map` first; this function
    compares the arrays as given.
    """
    f = np.asarray(f, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if f.shape != reference.shape:
        raise DimensionMismatch("maps must have identical shapes")
    denom = np.linalg.norm(reference)
    if denom == 0.0:
        raise ZeroReference("reference map has zero norm")
    return float(np.linalg.norm(f - reference) / denom)
