"""Triangle mesh container, per-triangle metric data, OFF file I/O, the
row reader of every input table and the row writer of every report table.

The mesh is an oriented manifold triangle surface with boundary, embedded
in R^m for m >= 2.  Vertices and faces are immutable numpy arrays; all
derived connectivity (edges, boundary) is computed once at construction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTriangle, InvalidTopology, NonFiniteVertex, ParseError

# A face is rejected when its area falls below this fraction of diameter^2.
DEGENERACY_THRESHOLD = 1e-14


def check_planar_orientation(vertices, faces):
    """Raise ``InvalidTopology`` unless the `faces` (F, 3) on the planar
    `vertices` (N, 2) all have signed areas of one strict sign."""
    p = vertices[faces]
    u, w = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    det = u[:, 0] * w[:, 1] - u[:, 1] * w[:, 0]
    if det.size and not ((det > 0).all() or (det < 0).all()):
        raise InvalidTopology("planar faces do not share one orientation sign")


class TriMesh:
    """Oriented triangle mesh in R^m (m >= 2).

    Parameters
    ----------
    vertices : array_like, shape (N, m)
        Vertex coordinates, m >= 2, all finite (``NonFiniteVertex`` names
        the first vertex that is not).
    faces : array_like, shape (F, 3)
        Ordered vertex index triples.  All faces must share a consistent
        orientation: every interior edge is traversed in opposite
        directions by its two adjacent faces.

    Attributes
    ----------
    vertices : ndarray, shape (N, m)
    faces : ndarray, shape (F, 3)
    edges : ndarray, shape (E, 2)
        Undirected edges as sorted index pairs, in order of first
        appearance when the faces are read in order, each face listing the
        edges opposite its corners i, j, k.
    face_edges : ndarray, shape (F, 3)
        Row of ``edges`` opposite each corner of each face.
    boundary_edges : ndarray, shape (B, 2)
        Undirected boundary edges as sorted index pairs (edges with
        exactly one adjacent face).
    boundary_halfedges : ndarray, shape (B, 2)
        The same edges directed i -> j as their one face traverses them,
        listed corner-major: the faces' (i, j) edges, then (j, k), then
        (k, i).
    boundary_vertices : ndarray
        Sorted indices of vertices on the boundary.
    """

    def __init__(self, vertices, faces):
        v = np.asarray(vertices, dtype=float)
        f = np.asarray(faces, dtype=int)
        if v.ndim != 2 or v.shape[1] < 2:
            raise InvalidTopology("vertices must have shape (N, m) with m >= 2")
        finite = np.isfinite(v).all(axis=1)
        if not finite.all():
            i = int(np.argmin(finite))
            raise NonFiniteVertex(f"vertex {i} has a non-finite coordinate {v[i].tolist()}")
        if f.size == 0:
            f = f.reshape(0, 3)
        if f.ndim != 2 or f.shape[1] != 3:
            raise InvalidTopology("faces must have shape (F, 3)")
        if f.size and (f.min() < 0 or f.max() >= len(v)):
            raise InvalidTopology("face index out of range")
        if f.size and (
            (f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 2] == f[:, 0])
        ).any():
            raise InvalidTopology("face repeats a vertex")

        v.setflags(write=False)
        f.setflags(write=False)
        self.vertices = v
        self.faces = f
        self._build_edges()
        if self.ambient_dim == 2:
            check_planar_orientation(v, f)

    def _build_edges(self):
        f = self.faces
        # Directed edge opposite each corner, (j, k), (k, i), (i, j), in face
        # order; it follows the face orientation.
        tails = f[:, [1, 2, 0]].ravel()
        heads = f[:, [2, 0, 1]].ravel()
        lo, hi = np.minimum(tails, heads), np.maximum(tails, heads)
        _, first, inverse, counts = np.unique(
            lo * len(self.vertices) + hi,
            return_index=True,
            return_inverse=True,
            return_counts=True,
        )
        # Renumber the sorted unique keys by first appearance.
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        edges = np.column_stack([lo[first], hi[first]])
        forward = np.bincount(inverse, weights=tails < heads, minlength=len(first))
        bad = (counts > 2) | ((counts == 2) & (forward != 1))
        if bad.any():
            u = np.argmin(np.where(bad, first, len(tails)))
            key = (int(lo[first[u]]), int(hi[first[u]]))
            count = int(counts[u])
            if count > 2:
                raise InvalidTopology(f"edge {key} belongs to {count} faces")
            raise InvalidTopology(f"inconsistent orientation across edge {key}")
        self.edges = edges[order]
        self.face_edges = rank[inverse].reshape(-1, 3)
        self.edges.setflags(write=False)
        self.face_edges.setflags(write=False)
        self.boundary_edges = edges[counts == 1].reshape(-1, 2)
        self.boundary_vertices = np.unique(self.boundary_edges)
        # The edge opposite corner k is (i, j), opposite i is (j, k).
        corner_major = np.arange(len(tails)).reshape(-1, 3)[:, [2, 0, 1]].T.ravel()
        on = corner_major[counts[inverse[corner_major]] == 1]
        self.boundary_halfedges = np.column_stack([tails[on], heads[on]])
        self.boundary_halfedges.setflags(write=False)

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_faces(self):
        return len(self.faces)

    @property
    def ambient_dim(self):
        return self.vertices.shape[1]

    def interior_vertices(self):
        """Indices of vertices not on the boundary."""
        mask = np.ones(self.num_vertices, dtype=bool)
        mask[self.boundary_vertices] = False
        return np.nonzero(mask)[0]

    def boundary_loops(self):
        """Boundary cycles as vertex index lists, following face orientation."""
        remaining = dict(self.boundary_halfedges.tolist())
        loops = []
        while remaining:
            start = min(remaining)
            loop = [start]
            cur = remaining.pop(start)
            while cur != start:
                loop.append(cur)
                cur = remaining.pop(cur)
            loops.append(loop)
        return loops

    def face_points(self, index=slice(None)):
        """The three vertex positions of face `index`.

        An index array or slice (default: all faces) gives three stacked
        position arrays, each with the indexed faces along the first axis.
        """
        f = self.faces[index]
        return self.vertices[f[..., 0]], self.vertices[f[..., 1]], self.vertices[f[..., 2]]


def require_disk(mesh: TriMesh):
    """Raise ``InvalidTopology`` unless `mesh` is a topological disk: one
    boundary loop and V - E + F = 1."""
    loops = len(mesh.boundary_loops())
    euler = mesh.num_vertices - len(mesh.edges) + mesh.num_faces
    if loops != 1 or euler != 1:
        raise InvalidTopology(
            f"disk mapping needs a topological disk (1 boundary loop, "
            f"V - E + F = 1); mesh has {loops} boundary loops, V - E + F = {euler}"
        )


def first_offender(mask) -> tuple[str, int]:
    """Message prefix and flat index of the first True entry of `mask`.

    Stacked geometry functions share a leading face axis.  The prefix
    names the entry's index along that axis, and is empty for an
    unstacked (0-d) mask.
    """
    mask = np.asarray(mask)
    flat = int(np.argmax(mask.ravel()))
    if mask.ndim == 0:
        return "", flat
    return f"face {np.unravel_index(flat, mask.shape)[0]}: ", flat


@dataclass(frozen=True)
class TriangleGeom:
    """Metric data of one triangle, or of a stack of triangles.

    ``edge_lengths`` holds (|vi-vj|, |vj-vk|, |vk-vi|); ``angles`` and
    ``cotangents`` are ordered by the corner they live at, (at_i, at_j,
    at_k), so ``angles[..., 0]`` is the angle opposite the jk edge and so
    on.  ``normal`` is the right-handed unit normal of the vertex order
    for 3-d triangles and None in 2-d; ``orientation`` is the signed-area
    sign for 2-d triangles and +1 in 3-d.

    For one triangle the scalar fields are floats and ``orientation`` an
    int.  For a stack of shape S every field gains the leading shape S:
    ``edge_lengths``, ``angles`` and ``cotangents`` are (*S, 3), ``normal``
    is (*S, 3), and the scalar fields are arrays of shape S.
    """

    edge_lengths: np.ndarray
    angles: np.ndarray
    cotangents: np.ndarray
    area: float | np.ndarray
    diameter: float | np.ndarray
    inradius: float | np.ndarray
    normal: np.ndarray | None
    orientation: int | np.ndarray


def dot(a, b):
    """Dot product over the last axis of two stacks of vectors.

    Written as a stack of matrix products, which rounds every entry
    exactly as the one-vector product ``a[t] @ b[t]`` does.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def triangle_metrics(v_i, v_j, v_k) -> TriangleGeom:
    """Compute :class:`TriangleGeom` for the triangle (v_i, v_j, v_k).

    Each corner is one point (m,) or a stack (*S, m) of points, which
    gives the metrics of every triangle in the stack at once.
    Cotangents come from dot and cross products directly, never by
    taking an angle and re-evaluating trig functions.

    Raises
    ------
    DegenerateTriangle
        If area < 1e-14 * diameter^2; for a stack the message names the
        first offending face index.
    """
    v_i = np.asarray(v_i, dtype=float)
    v_j = np.asarray(v_j, dtype=float)
    v_k = np.asarray(v_k, dtype=float)

    # Edges along the vertex order; the angle at each corner is between
    # its outgoing edge and the reversed incoming one.
    d_ij, d_jk, d_ki = v_j - v_i, v_k - v_j, v_i - v_k
    sq = np.stack([dot(d_ij, d_ij), dot(d_jk, d_jk), dot(d_ki, d_ki)], -1)
    dots = -np.stack([dot(d_ij, d_ki), dot(d_jk, d_ij), dot(d_ki, d_jk)], -1)
    lengths = np.sqrt(sq)
    diameter = lengths.max(axis=-1)

    # One corner suffices for the area; the cross norm is shared.
    gram = sq[..., 0] * sq[..., 2] - dots[..., 0] ** 2
    double_area = np.sqrt(np.maximum(gram, 0.0))
    area = 0.5 * double_area
    bad = (area < DEGENERACY_THRESHOLD * diameter**2) | (diameter == 0.0)
    if bad.any():
        where, t = first_offender(bad)
        raise DegenerateTriangle(
            f"{where}area {area.flat[t]:.3e} below threshold for d={diameter.flat[t]:.3e}"
        )

    cots = dots / double_area[..., None]
    angles = np.arctan2(double_area[..., None], dots)

    inradius = 2.0 * area / lengths.sum(axis=-1)

    if v_i.shape[-1] == 3:
        n = np.cross(d_ij, -d_ki)
        normal = n / np.sqrt(dot(n, n))[..., None]
        orientation = np.ones(area.shape, dtype=int)
    else:
        normal = None
        det = d_ki[..., 0] * d_ij[..., 1] - d_ki[..., 1] * d_ij[..., 0]
        orientation = np.where(det > 0, 1, -1)

    if area.ndim == 0:
        area, diameter, inradius = float(area), float(diameter), float(inradius)
        orientation = int(orientation)
    return TriangleGeom(
        edge_lengths=lengths,
        angles=angles,
        cotangents=cots,
        area=area,
        diameter=diameter,
        inradius=inradius,
        normal=normal,
        orientation=orientation,
    )


@dataclass(frozen=True)
class ProjectionFrame:
    """Hat-function frame of one triangle, or of a stack of triangles.

    ``rotated_edges`` (3, m) holds s_i, s_j, s_k, the edge opposite each
    corner crossed with the normal; ``hat_gradients`` (3, m) divides them
    by twice the area, which gives the in-plane gradients of the
    barycentric coordinates, a dual basis to the edges.  ``normal`` is a
    3-vector: the triangle's unit normal, or (0, 0, orientation) for a
    2-d triangle.  For a stack of shape S every field gains the leading
    shape S, and ``area`` is an array of shape S.
    """

    rotated_edges: np.ndarray
    hat_gradients: np.ndarray
    normal: np.ndarray
    area: float | np.ndarray


def projection_frame(v_i, v_j, v_k) -> ProjectionFrame:
    """Build the :class:`ProjectionFrame` of the triangle (v_i, v_j, v_k).

    Takes points (m,) or stacks (*S, m) like :func:`triangle_metrics`,
    whose normal and area it uses, and raises its ``DegenerateTriangle``.
    """
    geom = triangle_metrics(v_i, v_j, v_k)
    v_i, v_j, v_k = (np.asarray(v, dtype=float) for v in (v_i, v_j, v_k))
    opposite = np.stack([v_j - v_k, v_k - v_i, v_i - v_j], axis=-2)
    if geom.normal is None:
        # e x (0, 0, o) is the quarter turn o (e_y, -e_x).
        o = np.asarray(geom.orientation, dtype=float)
        normal = np.stack([np.zeros_like(o), np.zeros_like(o), o], axis=-1)
        rotated = np.stack([opposite[..., 1], -opposite[..., 0]], axis=-1) * o[..., None, None]
    else:
        normal = geom.normal
        rotated = np.cross(opposite, normal[..., None, :])
    hats = rotated / (2.0 * np.asarray(geom.area))[..., None, None]
    return ProjectionFrame(
        rotated_edges=rotated, hat_gradients=hats, normal=normal, area=geom.area
    )


def data_lines(path):
    """The lines of the text file `path` with ``#`` comments removed, and
    the indices of the lines that still hold data (not blank)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = re.sub("#.*", "", fh.read()).split("\n")
    return lines, np.flatnonzero(np.fromiter(map(str.strip, lines), dtype=bool, count=len(lines)))


def read_rows(lines, rows, dtype, what, delimiter=None, valid=None):
    """The data lines `rows` of `lines` as one record of `dtype` per line.

    `rows` holds the 0-based indices of the lines to read, in order.
    `dtype` is a record dtype; its columns fix the number of fields a
    line must have.  One ``np.loadtxt`` call reads the lines, so numpy's
    number syntax is the one grammar of every input table.  `valid`, if
    given, maps the records to a boolean array that is true where a
    record is allowed.  Only when numpy refuses the lines or `valid`
    rejects a record does the same call read one line at a time, to find
    the first line that fails either test: ``ParseError`` names that
    1-based line, expecting `what`.
    """

    def read(span):
        table = np.loadtxt(span, dtype=dtype, delimiter=delimiter, ndmin=1)
        if valid is not None and not valid(table).all():
            raise ValueError("record rejected")
        return table

    if not len(rows):
        return np.empty(0, dtype)
    try:
        return read([lines[r] for r in rows])
    except ValueError:
        pass
    for r in rows:
        try:
            read([lines[r]])
        except ValueError:
            found = lines[r].strip()
            raise ParseError(f"expected {what}, found {found!r}", line=int(r) + 1) from None
    # Both tests look at each line on its own, so one of them failed.
    raise AssertionError("the lines were refused but none of them alone")


def load_mesh(path) -> TriMesh:
    """Read an OFF file.

    Accepts the minimal grammar: an ``OFF`` header line, a counts line
    ``nv nf ne`` with nf >= 1, nv vertex lines ``x y z``, nf face lines
    ``3 i j k``.  Blank lines and ``#`` comments are skipped.  Numbers
    follow numpy's syntax: the counts line and both blocks are read by
    :func:`read_rows`.  A ``ParseError`` names the 1-based number of the
    first line numpy refuses or, in the face block, that does not start
    with 3.
    """
    lines, data = data_lines(path)
    if not len(data):
        raise ParseError("empty file")
    no = int(data[0]) + 1
    if lines[data[0]].split() != ["OFF"]:
        raise ParseError("expected OFF header", line=no)
    if len(data) < 2:
        raise ParseError("missing counts line", line=no)
    no = int(data[1]) + 1
    counts = read_rows(lines, data[1:2], [("counts", int, 3)], "a counts line 'nv nf ne'")
    nv, nf, _ = counts["counts"][0].tolist()
    if nv < 0 or nf < 1:
        raise ParseError(
            f"a mesh needs nv >= 0 vertices and nf >= 1 faces, found {nv} {nf}", line=no
        )

    body = data[2:]
    if len(body) != nv + nf:
        raise ParseError(
            f"expected {nv} vertex and {nf} face lines, found {len(body)}",
            line=int(body[-1]) + 1 if len(body) else no,
        )
    verts = read_rows(lines, body[:nv], [("xyz", float, 3)], "a vertex line 'x y z'")
    face = [("three", int), ("ijk", int, 3)]
    faces = read_rows(
        lines, body[nv:], face, "a face line '3 i j k'", valid=lambda t: t["three"] == 3
    )
    return TriMesh(verts["xyz"], faces["ijk"])


def save_mesh(mesh: TriMesh, path):
    """Write an OFF file with 17 significant digits (exact round trip).

    2-d meshes are written with a zero third coordinate.
    """
    v = mesh.vertices
    if v.shape[1] == 2:
        v = np.column_stack([v, np.zeros(len(v))])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"OFF\n{mesh.num_vertices} {mesh.num_faces} 0\n")
        write_rows(fh, v.T, sep=" ", end="\n")
        write_rows(fh, [np.full(mesh.num_faces, 3), *mesh.faces.T], sep=" ", end="\n")


# Rows formatted per write_rows block: only one block's values exist as
# Python objects at a time.
_BLOCK_ROWS = 1024


def write_rows(fh, columns, sep=",", end="\r\n"):
    """Write equal-length `columns` to the open text file `fh`, one row a line.

    Integer and bool columns are written as integers and every other
    column with 17 significant digits, which round-trips a double exactly.
    Every report table goes through here: the CSVs with the default
    ``\\r\\n`` (the bytes ``csv.writer`` gives for these values), and
    ``map.csv``, ``beltrami.csv``, the plot ``.dat`` files and OFF with
    ``\\n``.  Raises ``ValueError`` when the columns differ in length.
    """
    columns = [np.asarray(c) for c in columns]
    lengths = {len(c) for c in columns}
    if len(lengths) > 1:
        raise ValueError(f"table columns differ in length: {sorted(lengths)}")
    row = sep.join("%d" if c.dtype.kind in "biu" else "%.17g" for c in columns) + end
    for lo in range(0, max(lengths, default=0), _BLOCK_ROWS):
        block = [c[lo : lo + _BLOCK_ROWS].tolist() for c in columns]
        fh.writelines(row % values for values in zip(*block))
