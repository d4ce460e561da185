import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from diskmap import HemisphereSpec, TriMesh, gen_hemisphere, stereographic_project


@pytest.fixture
def square_mesh():
    """Two right triangles tiling the unit square, oriented consistently."""
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    faces = np.array([[0, 1, 2], [0, 2, 3]])
    return TriMesh(vertices, faces)


@pytest.fixture(scope="session")
def hemi_paper():
    """The n=8, m=27 hemisphere (the illustration resolution)."""
    return gen_hemisphere(HemisphereSpec.from_counts(8, 27))


@pytest.fixture(scope="session")
def hemi_small():
    """Coarse n=8 member of the slowly-thinning family."""
    return gen_hemisphere(HemisphereSpec.from_exponent(8, 11 / 12))


def planar_disk_mesh(n=8, m=12):
    """Planar disk mesh: the hemisphere flattened by its exact projection."""
    hemi = gen_hemisphere(HemisphereSpec.from_counts(n, m))
    flat = stereographic_project(hemi.mesh.vertices)
    return TriMesh(flat, hemi.mesh.faces)


def annulus_mesh(rings=3, m=12):
    """Planar annulus: `rings` concentric circles of `m` vertices,
    radii 0.4 to 1, joined by counter-clockwise quads split in two."""
    radii = np.linspace(0.4, 1.0, rings)
    angles = 2 * math.pi * np.arange(m) / m
    vertices = np.array([[r * math.cos(a), r * math.sin(a)] for r in radii for a in angles])
    faces = []
    for ring in range(rings - 1):
        for k in range(m):
            a, b = ring * m + k, ring * m + (k + 1) % m
            faces += [[a, b, b + m], [a, b + m, a + m]]
    return TriMesh(vertices, faces)


def thin_l_mesh(arm=5, cells=8):
    """Planar L at z = 0: the arms [0, arm] x [0, 1] and [0, 1] x [0, arm],
    `cells` square cells per unit, each split in two along its rising
    diagonal (657 vertices and 1152 faces by default).  Its conformal
    map crowds the arms' far boundary past what the mesh resolves, and
    the minimizer's map folds."""
    k = arm * cells
    grid = [(i, j) for j in range(k + 1) for i in range(k + 1) if min(i, j) <= cells]
    index = {p: t for t, p in enumerate(grid)}
    faces = []
    for i, j in grid:
        if max(i, j) < k and min(i, j) < cells:
            a, b, c, d = index[i, j], index[i + 1, j], index[i + 1, j + 1], index[i, j + 1]
            faces += [[a, b, c], [a, c, d]]
    vertices = np.array(grid, dtype=float) / cells
    return TriMesh(np.column_stack([vertices, np.zeros(len(grid))]), faces)


class WrongFactor:
    """Stands in for ``laplacian.factorize``: a factorization whose solve
    returns ones, so a solver's own residual check must catch it."""

    def __init__(self, matrix):
        pass

    def solve(self, rhs):
        return np.ones_like(rhs)


def splu_singular_from_call(count):
    """Stands in for ``scipy.sparse.linalg.splu``: factors as splu does for
    its first `count` - 1 calls, then fails as splu does on a singular
    matrix."""
    splu, calls = spla.splu, []

    def factor(matrix, **kwargs):
        calls.append(None)
        if len(calls) >= count:
            raise RuntimeError("Factor is exactly singular")
        return splu(matrix, **kwargs)

    return factor


def random_triangle(rng, dim=2, scale=1.0, min_quality=1e-3):
    """Random non-degenerate triangle, resampled until area > quality * d^2."""
    while True:
        pts = rng.normal(size=(3, dim)) * scale
        u, w = pts[1] - pts[0], pts[2] - pts[0]
        gram = (u @ u) * (w @ w) - (u @ w) ** 2
        area = 0.5 * np.sqrt(max(gram, 0.0))
        edge = max(np.linalg.norm(pts[1] - pts[0]),
                   np.linalg.norm(pts[2] - pts[1]),
                   np.linalg.norm(pts[0] - pts[2]))
        if area > min_quality * edge**2:
            return pts
