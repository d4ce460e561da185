"""Compare the reports of a git revision with those of the working tree.

    python tools/report_diff.py REV

Extracts ``git archive REV src`` to a temporary directory and runs one
fixed list of ``python -m diskmap.cli`` commands, one at a time and at one
OpenBLAS thread, against that tree and against the working tree's
``src``.  Both sides read the same inputs, written once by the working
tree: two planar meshes from ``tests/conftest.py`` saved as OFF, a seeded
|mu| <= 0.5 ``mu.csv`` and the disk mesh's own boundary as
``boundary.csv``, and the Beltrami inputs of ``perfbench/checks.py`` for
the n = 96 hemisphere, seed 1.  A command names its side's output
directory as ``{out}`` (``gen --out {out}/hemisphere.off``).  For each
command it compares the exit codes, stdout and stderr (with the output
directory replaced by ``<out>``) and every output file but
``timing.log``.  It prints each difference and exits 1 if there is any,
else 0.  The temporary files are removed on exit.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

HEMI_DENSE = ["--n", "96", "--r", "0.9166667"]

COMMANDS = [
    ["gen", "--n", "8", "--r", "0.9", "--out", "{out}/hemisphere.off"],
    ["solve", *HEMI_DENSE, "--rho", "quadrature"],
    ["solve", "--n", "256", "--r", "0.25", "--rho", "quadrature"],
    ["solve", "--n", "16", "--m", "500"],
    ["solve", "--n", "8", "--r", "0.9", "--rho", "unit"],
    ["solve", "--n", "8", "--r", "0.9", "--rho", "analytic"],
    ["solve", "--n", "8", "--r", "0.9", "--source-face", "5"],
    ["solve", "--n", "8", "--r", "0.9", "--grad-tol", "1e-8", "--max-iterations", "60"],
    ["solve", "--mesh", "{disk}"],
    ["solve", "--mesh", "{thin_l}"],
    ["bounds", *HEMI_DENSE, "--rho", "quadrature"],
    ["bounds", "--n", "8", "--r", "0.9", "--rho", "analytic"],
    ["bounds", "--n", "8", "--r", "0.9", "--rho", "unit"],
    ["quality", *HEMI_DENSE],
    ["quality", "--n", "8", "--m", "80"],
    ["quality", "--mesh", "{disk}"],
    ["quality", "--mesh", "{thin_l}"],
    ["converge", "--r", "0.9166667", "--rho", "quadrature"],
    ["converge", "--r", "0.25", "--n-list", "8,16,32", "--rho", "unit"],
    ["beltrami", "--mesh", "{belt_mesh}", "--mu", "{belt_mu}", "--boundary", "{belt_boundary}"],
    ["beltrami", "--mesh", "{disk}", "--mu", "{disk_mu}", "--boundary", "{disk_boundary}"],
]


def extract_src(rev, directory):
    """Write the ``src`` tree of `rev` under `directory`."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev, "src"], cwd=ROOT, capture_output=True
    )
    if archive.returncode:
        sys.exit(archive.stderr.decode(errors="replace").strip())
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(directory, filter="data")


def write_inputs(directory):
    """The input files every command may name, written by the working tree."""
    sys.dont_write_bytecode = True  # leave tests/ and perfbench/ as they are
    for path in (ROOT / "src", ROOT / "tests", ROOT / "perfbench"):
        sys.path.insert(0, str(path))
    import checks
    import conftest
    from diskmap import save_mesh

    directory.mkdir()
    inputs = {"disk": f"{directory}/disk.off", "thin_l": f"{directory}/thin_l.off"}
    inputs.update(disk_mu=f"{directory}/mu.csv", disk_boundary=f"{directory}/boundary.csv")
    disk = conftest.planar_disk_mesh(6, 9)
    save_mesh(disk, inputs["disk"])
    save_mesh(conftest.thin_l_mesh(), inputs["thin_l"])
    rng = np.random.default_rng(1)
    radius = 0.5 * np.sqrt(rng.random(disk.num_faces))
    angle = 2.0 * np.pi * rng.random(disk.num_faces)
    with open(inputs["disk_mu"], "w", encoding="utf-8") as fh:
        fh.write("face,mu1,mu2\n")
        fh.writelines(
            f"{t},{r * np.cos(a):.17g},{r * np.sin(a):.17g}\n"
            for t, (r, a) in enumerate(zip(radius, angle))
        )
    with open(inputs["disk_boundary"], "w", encoding="utf-8") as fh:
        fh.write("vertex,x,y\n")
        fh.writelines(
            f"{v},{disk.vertices[v, 0]:.17g},{disk.vertices[v, 1]:.17g}\n"
            for v in disk.boundary_vertices
        )
    hemi = checks.hemisphere(96, checks.meridians(96, 0.9166667))
    belt = checks.write_beltrami_inputs(hemi, 1, f"{directory}/beltrami")
    inputs.update(belt_mesh=belt.mesh_path, belt_mu=belt.mu_path, belt_boundary=belt.boundary_path)
    return inputs


def run(src, argv, out_dir):
    """Exit code, stdout, stderr and output files of one command."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-m", "diskmap.cli", "--out-dir", out_dir, *argv],
        cwd=out_dir.parent,
        env=env,
        capture_output=True,
        text=True,
    )
    files = {
        str(path.relative_to(out_dir)): path.read_bytes()
        for path in sorted(out_dir.rglob("*"))
        if path.is_file() and path.name != "timing.log"
    }
    normalize = lambda text: text.replace(str(out_dir), "<out>")  # noqa: E731
    return done.returncode, normalize(done.stdout), normalize(done.stderr), files


def differences(old, new):
    """Lines naming what differs between two results of `run`."""
    (old_code, old_out, old_err, old_files), (new_code, new_out, new_err, new_files) = old, new
    found = []
    if old_code != new_code:
        found.append(f"exit code {old_code} -> {new_code}")
    for name, a, b in (("stdout", old_out, new_out), ("stderr", old_err, new_err)):
        if a != b:
            found.append(f"{name} differs:\n  old: {a!r}\n  new: {b!r}")
    for name in sorted(old_files.keys() | new_files.keys()):
        if name not in new_files or name not in old_files:
            found.append(f"{name} written only by {'old' if name in old_files else 'new'}")
        elif old_files[name] != new_files[name]:
            found.append(f"{name} differs")
    return found


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        sys.exit("usage: python tools/report_diff.py REV")
    rev = args[0]
    with tempfile.TemporaryDirectory(prefix="report_diff-") as tmp:
        tmp = Path(tmp)
        extract_src(rev, tmp / "old")
        inputs = write_inputs(tmp / "inputs")
        total = 0
        for k, command in enumerate(COMMANDS):
            label = " ".join(command)
            results = []
            for side, src in (("old", tmp / "old" / "src"), ("new", ROOT / "src")):
                out_dir = tmp / side / "runs" / str(k)
                out_dir.mkdir(parents=True)
                argv = [a.format(**inputs, out=out_dir) for a in command]
                results.append(run(src, argv, out_dir))
            found = differences(*results)
            total += len(found)
            print(f"{'DIFF' if found else 'same'}  exit {results[1][0]}  {label}")
            for line in found:
                print(f"    {line}")
    print(f"{total} difference(s) against {rev}")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
