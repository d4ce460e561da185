"""Per-face Beltrami equation solver on planar disk meshes.

The first-order system relating the two partial derivative columns of a
planar map g is encoded by a 2 x 2 matrix built from the per-face
coefficient (mu1, mu2); summing the per-face constraints around each
interior vertex yields one linear row per interior vertex, and boundary
values close the system.  At mu = 0 the assembled interior rows reduce to
the plain cotangent Laplacian.  The rows are one CSR matrix whose row r
belongs to vertex ``mesh.interior_vertices()[r]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import (
    DegenerateCoefficient,
    DegenerateTriangle,
    DimensionMismatch,
    InvalidTopology,
    NonFiniteVertex,
)
from .laplacian import solve_checked
from .mesh import (
    TriMesh,
    _binary_exponent,
    check_planar_orientation,
    data_lines,
    dot,
    first_offender,
    read_rows,
)

_J = np.array([[0.0, 1.0], [-1.0, 0.0]])
_ADMISSIBLE_FLOOR = 1e-12


def admissible_denominator(mu1: np.ndarray, mu2: np.ndarray) -> np.ndarray:
    """1 - mu1^2 - mu2^2 of stacked coefficients (*S,), which must be at
    least 1e-12; else ``DegenerateCoefficient`` names the first face
    that is not (NaN and infinity included)."""
    denom = 1.0 - mu1**2 - mu2**2
    bad = ~(denom >= _ADMISSIBLE_FLOOR)  # NaN fails it too
    if bad.any():
        where, t = first_offender(bad)
        raise DegenerateCoefficient(
            f"{where}need 1 - mu1^2 - mu2^2 >= {_ADMISSIBLE_FLOOR:g}, got {denom.flat[t]:.3g}"
        )
    return denom


@dataclass(frozen=True)
class BeltramiCoefficient:
    """Per-face coefficient pair, finite and with 1 - mu1^2 - mu2^2 >=
    1e-12 (:func:`admissible_denominator`)."""

    mu1: np.ndarray
    mu2: np.ndarray

    def __post_init__(self):
        m1 = np.asarray(self.mu1, dtype=float)
        m2 = np.asarray(self.mu2, dtype=float)
        if m1.shape != m2.shape:
            raise DimensionMismatch("mu1 and mu2 must have matching shapes")
        admissible_denominator(m1, m2)
        object.__setattr__(self, "mu1", m1)
        object.__setattr__(self, "mu2", m2)

    @classmethod
    def zero(cls, num_faces: int) -> "BeltramiCoefficient":
        return cls(np.zeros(num_faces), np.zeros(num_faces))

    def __len__(self):
        return len(self.mu1)


def beltrami_matrix(mu1, mu2) -> np.ndarray:
    """The 2 x 2 derivative-coupling matrix of the coefficient (mu1, mu2).

    B = [[2 mu2, (1 - mu1)^2 + mu2^2], [-(1 + mu1)^2 - mu2^2, -2 mu2]]
    divided by 1 - mu1^2 - mu2^2 (:func:`admissible_denominator`).
    Trace-free with B^2 = -I; at mu = 0 it is the quarter-turn rotation.
    Stacked coefficients (*S,) give stacked matrices (*S, 2, 2).
    """
    mu1, mu2 = np.asarray(mu1, dtype=float), np.asarray(mu2, dtype=float)
    denom = admissible_denominator(mu1, mu2)
    rows = [
        [2.0 * mu2, (1.0 - mu1) ** 2 + mu2**2],
        [-((1.0 + mu1) ** 2) - mu2**2, -2.0 * mu2],
    ]
    b = np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)
    return b / denom[..., None, None]


def face_weights(v_i, v_j, v_k, mu1, mu2) -> np.ndarray:
    """Contributions of one planar face to its first corner's row.

    Returns (w_to_i, w_to_j, w_to_k): the coefficients the face adds to
    the row of vertex i for the unknowns g_i, g_j, g_k, namely
    e_opp^T ehat / (4 A) with e_opp the edge opposite each corner and
    ehat the transformed opposite edge of the row corner.  They sum to
    zero by construction.  Stacked corners (*S, 2) and coefficients
    (*S,) give the contributions of every face, (*S, 3).  The weights do
    not depend on the face's scale, and each face is measured at unit
    scale: its edges are divided by the power of two of their largest
    coordinate, exactly, so no product leaves double range.
    """
    v_i = np.asarray(v_i, dtype=float)[..., :2]
    v_j = np.asarray(v_j, dtype=float)[..., :2]
    v_k = np.asarray(v_k, dtype=float)[..., :2]
    edges = (v_j - v_k, v_k - v_i, v_i - v_j)
    exponent = _binary_exponent(*edges)[..., None]
    vjk, vki, vij = (np.ldexp(d, -exponent) for d in edges)
    area2 = vij[..., 0] * vjk[..., 1] - vij[..., 1] * vjk[..., 0]  # 2 * signed area
    if (area2 == 0.0).any():
        where, _ = first_offender(area2 == 0.0)
        raise DegenerateTriangle(f"{where}degenerate planar face")
    b = beltrami_matrix(mu1, mu2)
    vhat = -(_J @ b @ vjk[..., None])[..., 0]
    # Factor 1/2: each interior edge collects one such term from each of
    # its two faces.
    return np.stack([dot(e, vhat) for e in (vjk, vki, vij)], axis=-1) / (2.0 * area2[..., None])


def planar_vertices(mesh: TriMesh) -> np.ndarray:
    """The (N, 2) vertices of a 2-d mesh, or of a 3-d one with all |z| <=
    1e-12 (else ``DimensionMismatch``), whose faces share one orientation
    sign and use every vertex (else ``InvalidTopology``)."""
    unused = np.bincount(mesh.faces.ravel(), minlength=mesh.num_vertices) == 0
    if unused.any():
        raise InvalidTopology(f"vertex {int(np.argmax(unused))} is in no face")
    v = mesh.vertices
    if v.shape[1] == 3 and np.allclose(v[:, 2], 0.0, atol=1e-12):
        v = v[:, :2]
    if v.shape[1] != 2:
        raise DimensionMismatch("beltrami solver needs a planar mesh")
    check_planar_orientation(v, mesh.faces)
    return v


def assemble_beltrami(mesh: TriMesh, mu: BeltramiCoefficient) -> sp.csr_matrix:
    """Assemble one constraint row per interior vertex.

    Returns the (num interior) x (num vertices) CSR rows, in
    ``mesh.interior_vertices()`` order; each row sums to zero and touches
    only the vertex's one-ring.
    """
    if len(mu) != mesh.num_faces:
        raise DimensionMismatch("one coefficient pair per face required")
    v = planar_vertices(mesh)
    interior = mesh.interior_vertices()
    row_of = np.full(mesh.num_vertices, -1)
    row_of[interior] = np.arange(len(interior))
    # Corner a of face t contributes to the row of its vertex, with the
    # face's vertices listed from that corner: ids[t, a] is the rotation.
    ids = mesh.faces[:, [[0, 1, 2], [1, 2, 0], [2, 0, 1]]]  # (F, 3, 3)
    p = v[ids]
    w = face_weights(p[..., 0, :], p[..., 1, :], p[..., 2, :], mu.mu1[:, None], mu.mu2[:, None])
    keep = row_of[ids[..., 0]] >= 0  # row corners that are interior, face order
    rows = np.repeat(row_of[ids[..., 0]][keep], 3)
    cols = ids[keep].ravel()
    vals = w[keep].ravel()
    return sp.csr_matrix((vals, (rows, cols)), shape=(len(interior), mesh.num_vertices))


def solve_beltrami(mesh: TriMesh, mu: BeltramiCoefficient, boundary_values) -> np.ndarray:
    """Solve for the interior vertex images given boundary values.

    `boundary_values` is (num boundary, 2), ordered like
    ``mesh.boundary_vertices``.  Returns the full (n, 2) map with the
    boundary rows passed through unchanged.

    The interior block is solved by
    :func:`~diskmap.laplacian.solve_checked`, which raises SingularSystem
    if it is singular and SolverFailure if the relative residual exceeds
    1e-10.
    """
    rows = assemble_beltrami(mesh, mu)
    interior, boundary = mesh.interior_vertices(), mesh.boundary_vertices
    g_b = np.asarray(boundary_values, dtype=float)
    if g_b.shape != (len(boundary), 2):
        raise DimensionMismatch(f"expected boundary values of shape ({len(boundary)}, 2)")
    g = np.empty((mesh.num_vertices, 2))
    g[interior] = solve_checked(rows[:, interior], -rows[:, boundary] @ g_b)
    g[boundary] = g_b
    return g


def _read_indexed_pairs(path, columns) -> tuple[np.ndarray, np.ndarray]:
    """Rows 'index,a,b' of a CSV file, as the indices (k,) and the pairs (k, 2).

    `columns` names the three fields, e.g. ("face", "mu1", "mu2").  Line 1
    may be a header, a line whose first field is ``columns[0]`` (any
    case).  Every other line that is not blank or a ``#`` comment must
    hold exactly the three fields, an integer index and two numbers in
    numpy's syntax; :func:`~diskmap.mesh.read_rows` reads them, and a
    ``ParseError`` names the 1-based number of the first line that does
    not fit.
    """
    lines, data = data_lines(path)
    if len(data) and data[0] == 0 and lines[0].split(",", 1)[0].strip().lower() == columns[0]:
        data = data[1:]
    table = read_rows(
        lines, data, [("index", int), ("pair", float, 2)], f"a row '{','.join(columns)}'", ","
    )
    return table["index"], table["pair"]


def read_mu_csv(path, num_faces: int) -> BeltramiCoefficient:
    """Read per-face coefficients from CSV rows 'face,mu1,mu2'.

    Faces without a row get mu = 0.  A face index out of range or given
    twice raises ``DimensionMismatch`` naming the face.
    """
    faces, pairs = _read_indexed_pairs(path, ("face", "mu1", "mu2"))
    out = (faces < 0) | (faces >= num_faces)
    if out.any():
        raise DimensionMismatch(f"face index {faces[np.argmax(out)]} out of range")
    repeated = np.bincount(faces, minlength=num_faces) > 1
    if repeated.any():
        raise DimensionMismatch(f"face {np.argmax(repeated)} has more than one row")
    mu1 = np.zeros(num_faces)
    mu2 = np.zeros(num_faces)
    mu1[faces] = pairs[:, 0]
    mu2[faces] = pairs[:, 1]
    return BeltramiCoefficient(mu1, mu2)


def read_boundary_csv(path, mesh: TriMesh) -> np.ndarray:
    """Read boundary values from CSV rows 'vertex,x,y', ordered like
    ``mesh.boundary_vertices``.

    Every boundary vertex of the mesh must receive exactly one value, and
    only boundary vertices may.  A row for a vertex outside [0, V) or
    not on the boundary, a vertex given twice or left out raises
    ``DimensionMismatch``, and a non-finite value ``NonFiniteVertex``;
    the message names the vertex.
    """
    vertices, pairs = _read_indexed_pairs(path, ("vertex", "x", "y"))
    boundary = mesh.boundary_vertices
    in_mesh = (vertices >= 0) & (vertices < mesh.num_vertices)
    if not in_mesh.all():
        raise DimensionMismatch(
            f"vertex {vertices[np.argmin(in_mesh)]} is not in the mesh "
            f"({mesh.num_vertices} vertices)"
        )
    slot_of = np.full(mesh.num_vertices, -1)
    slot_of[boundary] = np.arange(len(boundary))
    slot = slot_of[vertices]
    if (slot < 0).any():
        raise DimensionMismatch(
            f"vertex {vertices[np.argmax(slot < 0)]} is not a boundary vertex"
        )
    counts = np.bincount(slot, minlength=len(boundary))
    if (counts > 1).any():
        raise DimensionMismatch(
            f"vertex {boundary[np.argmax(counts > 1)]} has more than one row"
        )
    if (counts == 0).any():
        missing = boundary[counts == 0][:5].tolist()
        raise DimensionMismatch(f"missing boundary values for vertices {missing}")
    bad = ~np.isfinite(pairs).all(axis=1)
    if bad.any():
        k = np.argmax(bad)
        raise NonFiniteVertex(
            f"vertex {vertices[k]} has the non-finite boundary value "
            f"({pairs[k, 0]}, {pairs[k, 1]})"
        )
    values = np.empty((len(boundary), 2))
    values[slot] = pairs
    return values
