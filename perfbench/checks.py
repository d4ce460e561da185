"""Benchmark inputs and output checks, independent of the diskmap package.

Everything here is plain numpy/scipy: the hemisphere geometry, the
stereographic ground truth, the seeded Beltrami inputs and an oracle for
the Beltrami system are rebuilt from their definitions, so a defect in
the program cannot hide in its own checks.  Each ``check_*`` function
reads one command's output directory and returns a list of failure
messages (empty when the output is correct) plus the values the
benchmark reports.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


@dataclass(frozen=True)
class Hemisphere:
    """Structured south hemisphere, vertex- and face-ordered like ``diskmap gen``."""

    n: int
    m: int
    vertices: np.ndarray
    faces: np.ndarray

    @property
    def boundary(self) -> np.ndarray:
        """Equator vertices 1..m, in increasing longitude."""
        return np.arange(1, self.m + 1)

    def stereographic(self) -> np.ndarray:
        """Exact conformal flatten: (x, y) / (1 - z)."""
        v = self.vertices
        return v[:, :2] / (1.0 - v[:, 2])[:, None]


def meridians(n: int, r: float) -> int:
    """m = max(3, floor(n^r)), the CLI's --r coupling."""
    return max(3, int(math.floor(n**r)))


def hemisphere(n: int, m: int) -> Hemisphere:
    """Pole, then n rings of m meridian points; two faces per quad, a pole fan."""
    j, i = np.meshgrid(np.arange(n), np.arange(m), indexing="ij")
    phi = 2.0 * math.pi * i / m
    psi = 0.5 * math.pi + 0.5 * math.pi * j / n
    ring = np.stack(
        [np.cos(phi) * np.sin(psi), np.sin(phi) * np.sin(psi), np.cos(psi)], axis=-1
    )
    vertices = np.vstack([[0.0, 0.0, -1.0], ring.reshape(-1, 3)])

    def vid(i, j):
        return 1 + j * m + (i % m)

    j, i = np.meshgrid(np.arange(n - 1), np.arange(m), indexing="ij")
    upper = np.stack([vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)], axis=-1)
    lower = np.stack([vid(i + 1, j), vid(i, j + 1), vid(i, j)], axis=-1)
    strip = np.stack([upper, lower], axis=2).reshape(-1, 3)
    i = np.arange(m)
    fan = np.stack([np.zeros(m, dtype=int), vid(i, n - 1), vid(i + 1, n - 1)], axis=-1)
    return Hemisphere(n, m, vertices, np.vstack([strip, fan]).astype(int))


def signed_areas(faces: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Signed image area per face; negative entries are folds."""
    fi, fj, fk = (f[faces[:, c]] for c in range(3))
    e1, e2 = fi - fj, fj - fk
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def aligned_rel_error(f: np.ndarray, reference: np.ndarray) -> float:
    """Frobenius error after the best origin-fixed rotation or reflection."""
    u, _, vt = np.linalg.svd(f.T @ reference)
    aligned = f @ (u @ vt)
    return float(np.linalg.norm(aligned - reference) / np.linalg.norm(reference))


# ---------------------------------------------------------------- inputs


@dataclass(frozen=True)
class BeltramiInputs:
    """Seeded Beltrami problem on a planar mesh, written as the CLI's files."""

    mesh_path: str
    mu_path: str
    boundary_path: str
    vertices: np.ndarray
    faces: np.ndarray
    boundary: np.ndarray
    boundary_values: np.ndarray
    mu: np.ndarray


def write_beltrami_inputs(hemi: Hemisphere, seed: int, directory: str) -> BeltramiInputs:
    """Stereographic image of `hemi` as OFF, a seeded |mu| <= 0.5 field, and
    the image's own boundary values."""
    os.makedirs(directory, exist_ok=True)
    flat = hemi.stereographic()
    rng = np.random.default_rng(seed)
    radius = 0.5 * np.sqrt(rng.random(len(hemi.faces)))
    angle = 2.0 * math.pi * rng.random(len(hemi.faces))
    mu = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])

    mesh_path = os.path.join(directory, "disk.off")
    with open(mesh_path, "w", encoding="utf-8") as fh:
        fh.write(f"OFF\n{len(flat)} {len(hemi.faces)} 0\n")
        fh.writelines(f"{x:.17g} {y:.17g} 0\n" for x, y in flat)
        fh.writelines(f"3 {i} {j} {k}\n" for i, j, k in hemi.faces)
    mu_path = os.path.join(directory, "mu.csv")
    with open(mu_path, "w", encoding="utf-8") as fh:
        fh.write("face,mu1,mu2\n")
        fh.writelines(f"{t},{a:.17g},{b:.17g}\n" for t, (a, b) in enumerate(mu))
    boundary_path = os.path.join(directory, "boundary.csv")
    with open(boundary_path, "w", encoding="utf-8") as fh:
        fh.write("vertex,x,y\n")
        fh.writelines(f"{v},{flat[v, 0]:.17g},{flat[v, 1]:.17g}\n" for v in hemi.boundary)
    # %.17g round-trips exactly, so these arrays equal what the CLI parses.
    return BeltramiInputs(
        mesh_path=mesh_path,
        mu_path=mu_path,
        boundary_path=boundary_path,
        vertices=flat,
        faces=hemi.faces,
        boundary=hemi.boundary,
        boundary_values=flat[hemi.boundary],
        mu=mu,
    )


def beltrami_oracle(inputs: BeltramiInputs) -> np.ndarray:
    """Vectorized solve of the per-face Beltrami system.

    Row of interior vertex i, per incident face (i, j, k):
    e_opp^T (-J B e_jk) / (2 * 2A) for the unknowns at i, j, k, with B the
    coefficient matrix of (mu1, mu2) and J the quarter-turn.
    """
    v, faces = inputs.vertices, inputs.faces
    mu1, mu2 = inputs.mu[:, 0], inputs.mu[:, 1]
    denom = 1.0 - mu1**2 - mu2**2
    b11, b12 = 2.0 * mu2 / denom, ((1.0 - mu1) ** 2 + mu2**2) / denom
    b21, b22 = (-((1.0 + mu1) ** 2) - mu2**2) / denom, -2.0 * mu2 / denom
    n = len(v)
    interior = np.setdiff1d(np.arange(n), inputs.boundary)
    row_of = np.full(n, -1)
    row_of[interior] = np.arange(len(interior))
    rows, cols, vals = [], [], []
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        vi, vj, vk = v[faces[:, a]], v[faces[:, b]], v[faces[:, c]]
        vjk, vki, vij = vj - vk, vk - vi, vi - vj
        area2 = vij[:, 0] * vjk[:, 1] - vij[:, 1] * vjk[:, 0]
        bx = b11 * vjk[:, 0] + b12 * vjk[:, 1]
        by = b21 * vjk[:, 0] + b22 * vjk[:, 1]
        vhat = np.column_stack([-by, bx])  # -J (B e_jk)
        keep = row_of[faces[:, a]] >= 0
        for corner, edge in ((a, vjk), (b, vki), (c, vij)):
            w = np.sum(edge * vhat, axis=1) / (2.0 * area2)
            rows.append(row_of[faces[keep, a]])
            cols.append(faces[keep, corner])
            vals.append(w[keep])
    matrix = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(len(interior), n),
    )
    rhs = -(matrix[:, inputs.boundary] @ inputs.boundary_values)
    g = np.empty((n, 2))
    g[inputs.boundary] = inputs.boundary_values
    g[interior] = spla.splu(matrix[:, interior].tocsc()).solve(rhs)
    return g


# ---------------------------------------------------------------- readers


def _read_rows(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _read_map(path, size):
    rows = _read_rows(path)[1:]
    if len(rows) != size:
        raise ValueError(f"{os.path.basename(path)}: {len(rows)} rows, expected {size}")
    data = np.array([[float(x) for x in row] for row in rows])
    if not np.array_equal(data[:, 0], np.arange(size)):
        raise ValueError(f"{os.path.basename(path)}: vertex column out of order")
    if not np.isfinite(data).all():
        raise ValueError(f"{os.path.basename(path)}: non-finite entries")
    return data[:, 1:3]


def _column(rows, name):
    index = rows[0].index(name)
    return np.array([float(row[index]) for row in rows[1:]])


def _close(value, reference, rel):
    return abs(value - reference) <= rel * abs(reference)


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------- checks


@dataclass
class Outcome:
    """Result of checking one command's output."""

    failures: list
    solves: int = 0
    unconverged: int = 0
    rel_error: float | None = None


def check_solve(out_dir, rc, stdout, hemi: Hemisphere, ref) -> Outcome:
    """map.csv and trace.csv of ``diskmap solve`` on a generated hemisphere.

    Exit 1 with a valid map is an unconverged solve, not a failure.
    """
    if rc not in (0, 1):
        return Outcome([f"solve exited {rc}"])
    try:
        f = _read_map(os.path.join(out_dir, "map.csv"), len(hemi.vertices))
        trace = _read_rows(os.path.join(out_dir, "trace.csv"))
        conformal = _column(trace, "conformal")
    except (OSError, ValueError, IndexError) as exc:
        return Outcome([f"solve output unreadable: {exc}"])
    failures = []
    converged = rc == 0
    if f"converged={converged}" not in stdout:
        failures.append(f"exit code {rc} disagrees with the reported convergence")
    radii = np.linalg.norm(f[hemi.boundary], axis=1)
    if np.max(np.abs(radii - 1.0)) > 1e-12:
        failures.append(f"boundary radius off by {np.max(np.abs(radii - 1.0)):.3e}")
    folds = int(np.sum(signed_areas(hemi.faces, f) < 0))
    if folds:
        failures.append(f"{folds} folded faces")
    if np.any(np.diff(conformal) > 0):
        failures.append("conformal energy increases along the trace")
    if conformal[-1] > ref["energy"] + 1e-9 * abs(ref["energy"]):
        failures.append(f"final energy {conformal[-1]:.17g} above {ref['energy']:.17g}")
    err = aligned_rel_error(f, hemi.stereographic())
    if not err <= 1.01 * ref["rel_error"]:
        failures.append(f"rel_error {err:.6g} above 1.01 x {ref['rel_error']:.6g}")
    return Outcome(failures, solves=1, unconverged=int(not converged), rel_error=err)


def check_bounds(out_dir, rc, stdout, num_faces, ref) -> Outcome:
    """bounds.csv: one finite row per face and the seed-commit maxima.

    The CLI prints the energy-error bound to six digits only, so it is
    compared at that precision; the maxima it is computed from are in the
    summary row at full precision and compared to 1e-9 relative.
    """
    if rc != 0:
        return Outcome([f"bounds exited {rc}"])
    try:
        rows = _read_rows(os.path.join(out_dir, "bounds.csv"))
        body, summary = rows[1:-1], rows[-1]
        values = np.array([[float(x) for x in row] for row in body])
        maxima = [float(x) for x in summary[1:]]
        printed = float(stdout.split("energy_error_bound=")[1].split()[0])
    except (OSError, ValueError, IndexError) as exc:
        return Outcome([f"bounds output unreadable: {exc}"])
    failures = []
    if values.shape[0] != num_faces or summary[0] != "max":
        failures.append(f"bounds.csv has {values.shape[0]} face rows, expected {num_faces}")
    elif not np.array_equal(values[:, 0], np.arange(num_faces)):
        failures.append("bounds.csv face column out of order")
    if not np.isfinite(values).all():
        failures.append("bounds.csv has non-finite entries")
    if len(maxima) != len(ref["max_row"]) or not all(
        _close(a, b, 1e-9) for a, b in zip(maxima, ref["max_row"])
    ):
        failures.append("bounds.csv maxima differ from the reference")
    if not _close(printed, ref["energy_error_bound"], 5e-6):
        failures.append(f"energy error bound {printed!r} differs from the reference")
    return Outcome(failures)


def check_quality(out_dir, rc, stdout, num_faces, ref) -> Outcome:
    """quality.csv: one finite row per face and the seed's degraded count."""
    if rc != 0:
        return Outcome([f"quality exited {rc}"])
    try:
        rows = _read_rows(os.path.join(out_dir, "quality.csv"))
        values = np.array([[float(x) for x in row] for row in rows[1:-1]])
        summary_count = int(rows[-1][-1])
    except (OSError, ValueError, IndexError) as exc:
        return Outcome([f"quality output unreadable: {exc}"])
    failures = []
    if values.shape[0] != num_faces or not np.isfinite(values).all():
        failures.append("quality.csv needs one finite row per face")
    flagged = int(values[:, -1].sum()) if values.size else -1
    if not flagged == summary_count == ref["degraded"]:
        failures.append(f"degraded faces {flagged}/{summary_count}, expected {ref['degraded']}")
    return Outcome(failures)


def check_beltrami(out_dir, rc, stdout, inputs: BeltramiInputs, oracle) -> Outcome:
    """beltrami.csv: boundary rows passed through, interior equal to the oracle."""
    if rc != 0:
        return Outcome([f"beltrami exited {rc}"])
    try:
        g = _read_map(os.path.join(out_dir, "beltrami.csv"), len(inputs.vertices))
    except (OSError, ValueError, IndexError) as exc:
        return Outcome([f"beltrami output unreadable: {exc}"])
    failures = []
    if not np.array_equal(g[inputs.boundary], inputs.boundary_values):
        failures.append("boundary rows changed")
    gap = np.max(np.abs(g - oracle)) / np.max(np.abs(oracle))
    if not gap <= 1e-8:
        failures.append(f"interior differs from the oracle by {gap:.3e} relative")
    return Outcome(failures)


def check_sweep(out_dir, rc, stdout, ref, digests: dict) -> Outcome:
    """The converge report: every row converged without folds, errors
    strictly decreasing, the seed's fit exponent, and byte-identical files
    (``timing.log`` excepted) across the run's repetitions.

    `digests` holds the first repetition's file hashes; it is filled on
    the first call.
    """
    if rc not in (0, 1):
        return Outcome([f"converge exited {rc}"])
    try:
        (run_dir,) = [e.path for e in os.scandir(out_dir) if e.is_dir()]
        rows = _read_rows(os.path.join(run_dir, "sweep.csv"))
        converged = _column(rows, "converged")
        folds = _column(rows, "fold_count")
        errors = _column(rows, "rel_error")
        with open(os.path.join(run_dir, "fit.txt"), encoding="utf-8") as fh:
            exponent = float(fh.readline().split()[1])
        current = {
            e.name: file_digest(e.path)
            for e in os.scandir(run_dir)
            if e.name != "timing.log"  # wall times, outside the deterministic set
        }
    except (OSError, ValueError, IndexError) as exc:
        return Outcome([f"converge output unreadable: {exc}"])
    failures = []
    if not (converged == 1).all() or rc != 0:
        failures.append("a sweep row did not converge")
    if folds.any():
        failures.append("a sweep row has folds")
    if not np.all(np.diff(errors) < 0):
        failures.append("rel_error is not strictly decreasing")
    if not abs(exponent - ref["fit_exponent"]) <= 1e-6:
        failures.append(f"fit exponent {exponent:.10g}, expected {ref['fit_exponent']:.10g}")
    if not errors[-1] <= 1.01 * ref["rel_error"]:
        failures.append(f"finest rel_error {errors[-1]:.6g} above 1.01 x {ref['rel_error']:.6g}")
    if not digests:
        digests.update(current)
    elif current != digests:
        failures.append("report files differ between repetitions")
    return Outcome(
        failures,
        solves=len(converged),
        unconverged=int(np.sum(converged != 1)),
        rel_error=float(errors[-1]),
    )
