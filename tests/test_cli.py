import math
import re

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from diskmap import HemisphereSpec, TriMesh, gen_hemisphere, load_mesh, save_mesh
from diskmap.cli import _write_vertex_map, main
from diskmap.experiments import solve_hemisphere_case

from conftest import annulus_mesh, planar_disk_mesh, splu_singular_from_call, thin_l_mesh


def run(args):
    return main(list(args))


class TestGen:
    def test_paper_counts(self, tmp_path):
        out = tmp_path / "hemi.off"
        assert run(["gen", "--n", "8", "--m", "27", "--out", str(out)]) == 0
        assert load_mesh(out).num_vertices == 217

    def test_exponent_form(self, tmp_path):
        out = tmp_path / "hemi.off"
        assert run(["gen", "--n", "8", "--r", "0.9166667", "--out", str(out)]) == 0
        assert load_mesh(out).num_vertices == 6 * 8 + 1

    def test_missing_required_args_exit_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["gen", "--out", "x.off"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("n, r", [("-8", "0.5"), ("0", "-1")])
    def test_too_few_rings_for_an_exponent_exit_2(self, tmp_path, capsys, n, r):
        out = tmp_path / "hemi.off"
        assert run(["gen", "--n", n, "--r", r, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: need n >= 2 latitude rings\n"
        assert not out.exists()

    @pytest.mark.parametrize("r", ["400", "inf"])
    def test_meridian_count_not_finite_exit_2(self, tmp_path, capsys, r):
        out = tmp_path / "hemi.off"
        assert run(["gen", "--n", "8", "--r", r, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: meridian count 8^{float(r)} ")
        assert not out.exists()


class TestSolve:
    def test_disk_mesh_identity_boundary(self, tmp_path):
        mesh = planar_disk_mesh(6, 9)
        path = tmp_path / "disk.off"
        save_mesh(mesh, path)
        code = run(
            ["--out-dir", str(tmp_path), "solve", "--mesh", str(path), "--grad-tol", "1e-5"]
        )
        assert code == 0
        trace = (tmp_path / "trace.csv").read_text().splitlines()
        final = trace[-1].split(",")
        assert abs(float(final[3])) < 1e-6  # near-zero conformal energy
        assert (tmp_path / "map.csv").exists()

    def test_hemisphere_end_to_end(self, tmp_path):
        code = run(
            ["--out-dir", str(tmp_path), "solve", "--n", "8", "--r", "0.9166667"]
        )
        assert code == 0
        rows = (tmp_path / "map.csv").read_text().splitlines()
        assert len(rows) == 6 * 8 + 1 + 1  # header + vertices

    def test_missing_file_exit_2(self, tmp_path):
        assert run(["solve", "--mesh", str(tmp_path / "nope.off")]) == 2

    @pytest.mark.parametrize(
        "flags, error",
        [
            (["--rho", "analytic", "--quad-order", "5"], "--rho analytic"),
            (["--rho", "quadrature"], "--rho quadrature"),
            (["--quad-order", "3"], "--quad-order"),
            (["--n", "64", "--r", "0.9"], "--n"),
            (["--m", "5"], "--m"),
            (["--r", "0.9"], "--r"),
        ],
    )
    def test_hemisphere_flags_with_a_mesh_exit_2(self, tmp_path, capsys, flags, error):
        path = tmp_path / "disk.off"
        save_mesh(planar_disk_mesh(6, 9), path)
        assert run(["--out-dir", str(tmp_path), "solve", "--mesh", str(path), *flags]) == 2
        assert capsys.readouterr().err == f"error: {error} does not apply to --mesh\n"
        assert not (tmp_path / "map.csv").exists()

    def test_mesh_takes_unit_weights_by_default(self, tmp_path):
        path = tmp_path / "disk.off"
        save_mesh(planar_disk_mesh(6, 9), path)
        maps = []
        for flags in ([], ["--rho", "unit"]):
            out = tmp_path / f"out{len(flags)}"
            solve = ["solve", "--mesh", str(path), "--grad-tol", "1e-5", *flags]
            assert run(["--out-dir", str(out), *solve]) == 0
            maps.append((out / "map.csv").read_bytes())
        assert maps[0] == maps[1]

    def test_hemisphere_weights_default_to_quadrature_order_3(self, tmp_path):
        maps = {}
        for name, flags in [
            ("default", []),
            ("explicit", ["--rho", "quadrature", "--quad-order", "3"]),
            ("unit", ["--rho", "unit"]),
        ]:
            solve = ["solve", "--n", "8", "--r", "0.9166667", *flags]
            assert run(["--out-dir", str(tmp_path / name), *solve]) == 0
            maps[name] = (tmp_path / name / "map.csv").read_bytes()
        assert maps["default"] == maps["explicit"] != maps["unit"]

    @pytest.mark.parametrize("face", ["999999", "-1"])
    def test_source_face_outside_the_mesh_exit_2(self, tmp_path, capsys, face):
        solve = ["solve", "--n", "8", "--r", "0.9166667", "--source-face", face]
        assert run(["--out-dir", str(tmp_path), *solve]) == 2
        assert capsys.readouterr().err == f"error: source face {face} is not in [0, 90)\n"
        assert not (tmp_path / "map.csv").exists()

    @pytest.mark.parametrize(
        "command, flag, value, error",
        [
            ("solve", "--quad-order", "99", "quadrature order must be 1 to 5, got 99"),
            ("solve", "--quad-order", "0", "quadrature order must be 1 to 5, got 0"),
            ("solve", "--grad-tol", "nan", "gradient_tolerance must be finite and positive, got nan"),
            ("solve", "--grad-tol", "inf", "gradient_tolerance must be finite and positive, got inf"),
            ("solve", "--max-iterations", "-3", "max_iterations must be >= 0, got -3"),
            ("bounds", "--cl", "nan", "bound constants must be finite: map_grad_lipschitz=nan"),
            (
                "solve",
                "--m",
                "3000000000",
                "3000000000 meridians x 8 rings give 24000000001 vertices, more than 10000000",
            ),
            (
                "quality",
                "--short-ratio",
                "nan",
                "degraded-face thresholds must be finite and >= 0: short_ratio=nan",
            ),
            (
                "quality",
                "--near-equal",
                "-5",
                "degraded-face thresholds must be finite and >= 0: near_equal=-5.0",
            ),
        ],
        ids=[
            "quad-order-99",
            "quad-order-0",
            "grad-tol-nan",
            "grad-tol-inf",
            "max-iterations--3",
            "cl-nan",
            "m-3000000000",
            "short-ratio-nan",
            "near-equal--5",
        ],
    )
    def test_value_outside_its_domain_exit_2(self, tmp_path, capsys, command, flag, value, error):
        # --m takes the place of --r, and the two together exit 2
        shape = [] if flag == "--m" else ["--r", "0.9166667"]
        args = [command, "--n", "8", *shape, flag, value]
        assert run(["--out-dir", str(tmp_path), *args]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not list(tmp_path.iterdir())

    def test_minimizer_flag_reported_before_a_source_or_weight_flag(self, tmp_path, capsys):
        # the minimizer options are checked before the hemisphere is solved
        solve = ["solve", "--n", "8", "--r", "0.9", "--quad-order", "0", "--source-face", "-1"]
        assert run(["--out-dir", str(tmp_path), *solve, "--grad-tol", "nan"]) == 2
        assert capsys.readouterr().err == (
            "error: gradient_tolerance must be finite and positive, got nan\n"
        )

    @pytest.mark.parametrize("source_face", [None, 5], ids=["default", "face-5"])
    def test_hemisphere_map_is_the_case_solve(self, tmp_path, source_face):
        # diskmap solve on a generated hemisphere is one converge row's solve
        flags = [] if source_face is None else ["--source-face", str(source_face)]
        solve = ["solve", "--n", "8", "--r", "0.9166667", *flags]
        assert run(["--out-dir", str(tmp_path), *solve]) == 0
        written = np.loadtxt(tmp_path / "map.csv", delimiter=",", skiprows=1, usecols=(1, 2))
        spec = HemisphereSpec.from_exponent(8, 0.9166667)
        case = solve_hemisphere_case(spec, source_face=source_face)
        assert np.array_equal(written, case.report.final_map)

    def test_map_csv_bytes(self, tmp_path):
        values = np.array([[-0.0, 5e-324], [1e300, 3.0]])
        path = tmp_path / "map.csv"
        # the writer of the solve command's map.csv and the beltrami command's beltrami.csv
        _write_vertex_map(path, values)
        expected = "vertex,x,y\n" + "".join(
            f"{i},{x:.17g},{y:.17g}\n" for i, (x, y) in enumerate(values)
        )
        assert path.read_bytes() == expected.encode()

    def test_stall_exit_1_with_reason(self, tmp_path, capsys):
        code = run(
            ["--out-dir", str(tmp_path), "solve", "--n", "256", "--r", "0.25"]
        )
        assert code == 1
        line = capsys.readouterr().out.splitlines()[1]
        assert "converged=False folds=0 stop: no step lowers the energy at double precision" in line
        trace = (tmp_path / "trace.csv").read_text().splitlines()
        assert len(trace) - 2 <= 100  # header and initial map

    def test_folded_map_exit_1_with_both_counts(self, tmp_path, capsys):
        # The thin L converges on the gradient test to a map that folds.
        path = tmp_path / "thin_l.off"
        save_mesh(thin_l_mesh(), path)
        assert run(["--out-dir", str(tmp_path), "solve", "--mesh", str(path)]) == 1
        out, err = capsys.readouterr()
        assert "converged=True folds=76 stop: gradient tolerance reached" in out
        assert err == (
            "numerical failure: the map is folded: 76 faces with negative area, "
            "23 boundary vertices out of cyclic order\n"
        )
        assert (tmp_path / "map.csv").exists() and (tmp_path / "trace.csv").exists()

    def test_singular_interior_block_exit_1(self, tmp_path, capsys, monkeypatch):
        # the harmonic init factors first, then the minimizer's interior block
        monkeypatch.setattr(spla, "splu", splu_singular_from_call(2))
        assert run(["--out-dir", str(tmp_path), "solve", "--n", "8", "--r", "0.9"]) == 1
        assert capsys.readouterr().err == (
            "numerical failure: singular system: Factor is exactly singular\n"
        )
        assert not list(tmp_path.iterdir())

    def test_annulus_exit_1(self, tmp_path, capsys):
        path = tmp_path / "annulus.off"
        save_mesh(annulus_mesh(), path)
        assert run(["--out-dir", str(tmp_path), "solve", "--mesh", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: disk mapping needs a topological disk")
        assert "2 boundary loops" in err
        assert not (tmp_path / "map.csv").exists()

    def test_pinched_boundary_vertex_exit_1(self, tmp_path, capsys):
        # a bowtie: two triangles that share only vertex 0
        path = tmp_path / "bowtie.off"
        path.write_text("OFF\n5 2 0\n0 0 0\n1 0 0\n0 1 0\n-1 0 0\n0 -1 0\n3 0 1 2\n3 0 3 4\n")
        assert run(["--out-dir", str(tmp_path), "solve", "--mesh", str(path)]) == 1
        assert capsys.readouterr().err == (
            "input error: boundary vertex 0 is pinched: it starts 2 boundary edges\n"
        )
        assert not (tmp_path / "map.csv").exists()
        # quality needs no disk
        assert run(["--out-dir", str(tmp_path), "quality", "--mesh", str(path)]) == 0

    def test_non_finite_vertex_exit_1(self, tmp_path, capsys):
        path = tmp_path / "disk.off"
        save_mesh(planar_disk_mesh(4, 6), path)
        lines = path.read_text().splitlines()
        lines[4] = "nan 0 0"  # vertex 2
        path.write_text("\n".join(lines) + "\n")
        assert run(["--out-dir", str(tmp_path), "solve", "--mesh", str(path)]) == 1
        assert "vertex 2 " in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        "solve --n 8 --r 0.9 --rho unit --quad-order 5",
        "solve --n 8 --r 0.9 --rho analytic --quad-order 1",
        "bounds --n 8 --r 0.9 --rho analytic --quad-order 5",
        "converge --r 0.9 --n-list 8,12,16 --rho unit --quad-order 5",
    ],
)
def test_quad_order_off_quadrature_weights_exit_2(tmp_path, capsys, command):
    args = command.split()
    rho = args[args.index("--rho") + 1]
    assert run(["--out-dir", str(tmp_path), *args]) == 2
    assert capsys.readouterr().err == f"error: --quad-order does not apply to --rho {rho}\n"
    assert not list(tmp_path.iterdir())


def test_unreadable_n_list_exit_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run(["converge", "--r", "0.9", "--n-list", "8,,16"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(
        "error: argument --n-list: expected comma-separated integers, got '8,,16'\n"
    )


@pytest.mark.parametrize("command", ["gen", "solve", "quality", "bounds"])
def test_r_with_m_exit_2(tmp_path, capsys, command):
    # --m sets the meridian count, so an --r beside it would go unread
    out = ["--out", str(tmp_path / "hemi.off")] if command == "gen" else []
    args = [command, "--n", "8", "--m", "9", "--r", "0.5", *out]
    assert run(["--out-dir", str(tmp_path), *args]) == 2
    assert capsys.readouterr().err == "error: --r does not apply with --m\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "command",
    ["solve --r 0.9", "solve --m 5", "quality --r 0.9", "quality --m 5", "solve", "quality"],
)
def test_neither_mesh_nor_n_exit_2(tmp_path, capsys, command):
    assert run(["--out-dir", str(tmp_path), *command.split()]) == 2
    assert capsys.readouterr().err == "error: need either --mesh or --n\n"
    assert not list(tmp_path.iterdir())


def test_n_without_m_or_r_exit_2(tmp_path, capsys):
    assert run(["--out-dir", str(tmp_path), "solve", "--n", "8"]) == 2
    assert capsys.readouterr().err == "error: need either --m or --r with --n\n"
    assert not list(tmp_path.iterdir())


class TestQuality:
    def test_needle_flagged(self, tmp_path):
        from diskmap import TriMesh

        mesh = TriMesh(
            np.array([[0.0, 0.0], [0.01, 0.0], [0.005, 1.0]]), [[0, 1, 2]]
        )
        path = tmp_path / "needle.off"
        save_mesh(mesh, path)
        assert run(["--out-dir", str(tmp_path), "quality", "--mesh", str(path)]) == 0
        lines = (tmp_path / "quality.csv").read_text().splitlines()
        assert lines[1].split(",")[-1] == "1"

    @pytest.mark.parametrize(
        "flags, error", [(["--n", "8", "--m", "5"], "--n"), (["--m", "5"], "--m"), (["--r", "0.5"], "--r")]
    )
    def test_hemisphere_flags_with_a_mesh_exit_2(self, tmp_path, capsys, flags, error):
        path = tmp_path / "disk.off"
        save_mesh(planar_disk_mesh(6, 9), path)
        assert run(["--out-dir", str(tmp_path), "quality", "--mesh", str(path), *flags]) == 2
        assert capsys.readouterr().err == f"error: {error} does not apply to --mesh\n"
        assert not (tmp_path / "quality.csv").exists()

    def test_hemisphere_quality(self, tmp_path):
        assert run(["--out-dir", str(tmp_path), "quality", "--n", "8", "--m", "27"]) == 0
        assert (tmp_path / "quality.csv").exists()

    def test_non_disk_mesh_accepted(self, tmp_path):
        # Shape diagnostics need no disk topology; only solve checks it.
        path = tmp_path / "annulus.off"
        save_mesh(annulus_mesh(), path)
        assert run(["--out-dir", str(tmp_path), "quality", "--mesh", str(path)]) == 0
        assert len((tmp_path / "quality.csv").read_text().splitlines()) == 2 * 24 + 2


class TestBounds:
    def test_hemisphere_bounds_csv(self, tmp_path):
        assert run(
            ["--out-dir", str(tmp_path), "bounds", "--n", "8", "--r", "0.9166667"]
        ) == 0
        lines = (tmp_path / "bounds.csv").read_text().splitlines()
        hemi = gen_hemisphere(HemisphereSpec.from_exponent(8, 11 / 12))
        assert len(lines) == hemi.mesh.num_faces + 2  # header + faces + summary


class TestConverge:
    def test_small_sweep(self, tmp_path):
        code = run(
            [
                "--out-dir",
                str(tmp_path),
                "converge",
                "--r",
                "0.9166667",
                "--n-list",
                "4,6",
                "--grad-tol",
                "1e-5",
            ]
        )
        assert code == 0
        runs = list(tmp_path.glob("sweep_*/sweep.csv"))
        assert len(runs) == 1
        assert len(runs[0].read_text().splitlines()) == 3
        timing = (runs[0].parent / "timing.log").read_text().splitlines()
        assert [line.split()[0] for line in timing[:2]] == ["n=4", "n=6"]
        assert re.fullmatch(r"workers=[12] total_wall_time=\d+\.\d{3}s", timing[2])

    def test_fit_exponent_line(self, tmp_path, capsys):
        code = run(["--out-dir", str(tmp_path), "converge", "--r", "0.9", "--n-list", "8,12,16"])
        assert code == 0
        assert "fit exponent=1.5512 over 3 rows\n" in capsys.readouterr().out

    def test_equal_h_writes_no_fit(self, tmp_path):
        # m = 3 for every n here, so every row has h = sqrt(3)
        code = run(["--out-dir", str(tmp_path), "converge", "--r", "0.25", "--n-list", "8,16,32"])
        assert code == 0
        (run_dir,) = tmp_path.glob("sweep_*")
        assert (run_dir / "sweep.csv").exists()
        assert not (run_dir / "fit.txt").exists()

    def test_rerun_without_a_fit_removes_the_old_fit(self, tmp_path):
        out = ["--out-dir", str(tmp_path), "converge", "--r", "0.9", "--n-list"]
        assert run([*out, "8,16,32"]) == 0
        (fit_dir,) = tmp_path.glob("sweep_*")
        stale = (fit_dir / "fit.txt").read_text()
        assert "rows_used 3\n" in stale
        assert run([*out, "8,32"]) == 0  # two rows: too few to fit
        (run_dir,) = set(tmp_path.glob("sweep_*")) - {fit_dir}
        (run_dir / "fit.txt").write_text(stale)  # as if an earlier run left it
        assert run([*out, "8,32"]) == 0
        assert len((run_dir / "sweep.csv").read_text().splitlines()) == 3
        assert not (run_dir / "fit.txt").exists()

    @pytest.mark.parametrize(
        "first, second",
        [
            (["--quad-order", "2"], ["--quad-order", "3"]),
            (["--n-list", "4,5,6"], ["--n-list", "4,6"]),
            (["--r", "0.9166667"], ["--r", "0.91666671"]),
            (["--grad-tol", "2e-5"], ["--grad-tol", "1e-5"]),
            (["--max-iterations", "60"], ["--max-iterations", "2000"]),
        ],
        ids=["quad_order", "middle_n", "r_digits", "grad_tol", "max_iterations"],
    )
    def test_different_inputs_write_different_directories(self, tmp_path, first, second):
        out = ["--out-dir", str(tmp_path), "converge", "--r", "0.9166667", "--n-list", "4,6"]
        out += ["--grad-tol", "1e-5"]
        assert run([*out, *first]) == 0
        assert run([*out, *second]) == 0
        assert len(list(tmp_path.glob("sweep_*/sweep.csv"))) == 2

    def test_deterministic_outputs(self, tmp_path):
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert run(
                [
                    "--out-dir",
                    str(out),
                    "converge",
                    "--r",
                    "0.9166667",
                    "--n-list",
                    "4,6",
                    "--grad-tol",
                    "1e-5",
                ]
            ) == 0
            (sweep,) = out.glob("sweep_*/sweep.csv")
            blobs.append(sweep.read_bytes())
        assert blobs[0] == blobs[1]


class TestBeltramiCommand:
    def test_identity_round_trip(self, tmp_path):
        mesh = planar_disk_mesh(6, 9)
        mesh_path = tmp_path / "disk.off"
        save_mesh(mesh, mesh_path)
        mu_path = tmp_path / "mu.csv"
        mu_path.write_text("face,mu1,mu2\n")
        bnd_path = tmp_path / "bnd.csv"
        lines = ["vertex,x,y"]
        for v in mesh.boundary_vertices:
            lines.append(f"{v},{mesh.vertices[v, 0]:.17g},{mesh.vertices[v, 1]:.17g}")
        bnd_path.write_text("\n".join(lines) + "\n")
        code = run(
            [
                "--out-dir",
                str(tmp_path),
                "beltrami",
                "--mesh",
                str(mesh_path),
                "--mu",
                str(mu_path),
                "--boundary",
                str(bnd_path),
            ]
        )
        assert code == 0
        rows = (tmp_path / "beltrami.csv").read_text().splitlines()[1:]
        got = np.array([[float(x) for x in row.split(",")[1:]] for row in rows])
        assert np.abs(got - mesh.vertices[:, :2]).max() <= 1e-8

    def test_inadmissible_mu_rejected(self, tmp_path):
        mesh = planar_disk_mesh(6, 9)
        mesh_path = tmp_path / "disk.off"
        save_mesh(mesh, mesh_path)
        mu_path = tmp_path / "mu.csv"
        mu_path.write_text("face,mu1,mu2\n0,1.2,0.0\n")
        bnd_path = tmp_path / "bnd.csv"
        lines = ["vertex,x,y"] + [
            f"{v},0,0" for v in mesh.boundary_vertices
        ]
        bnd_path.write_text("\n".join(lines) + "\n")
        code = run(
            [
                "beltrami",
                "--mesh",
                str(mesh_path),
                "--mu",
                str(mu_path),
                "--boundary",
                str(bnd_path),
            ]
        )
        assert code == 1


    def test_mu_inside_the_disk_but_too_close_to_its_circle_is_an_input_error(
        self, tmp_path, capsys
    ):
        # mu1^2 < 1 holds, but 1 - mu1^2 is below the 1e-12 the solve needs
        mu1 = math.sqrt(1.0 - 1e-13)
        assert 0.0 < 1.0 - mu1**2 < 1e-12
        mesh = planar_disk_mesh(6, 9)
        save_mesh(mesh, tmp_path / "disk.off")
        (tmp_path / "mu.csv").write_text(f"face,mu1,mu2\n0,{mu1:.17g},0\n")
        boundary = mesh.boundary_vertices
        rows = [f"{v},{x:.17g},{y:.17g}" for v, (x, y) in zip(boundary, mesh.vertices[boundary])]
        (tmp_path / "bnd.csv").write_text("\n".join(["vertex,x,y", *rows]) + "\n")
        args = ["--mesh", str(tmp_path / "disk.off"), "--mu", str(tmp_path / "mu.csv")]
        args += ["--boundary", str(tmp_path / "bnd.csv")]
        assert run(["--out-dir", str(tmp_path), "beltrami", *args]) == 1
        assert capsys.readouterr().err.startswith(
            "input error: face 0: need 1 - mu1^2 - mu2^2 >= 1e-12, got "
        )
        assert not (tmp_path / "beltrami.csv").exists()

    @pytest.mark.parametrize(
        "which, row",
        [
            ("mu", "0,0.1"),
            ("mu", "0,0.1,abc"),
            ("boundary", "3,0.5"),
            ("boundary", "x,0.5,0.5"),
            # forms that a second, hand-written grammar once read
            ("mu", "1_0,0.2,0.2"),
            ("mu", ",1,2"),
            ("mu", "face,mu1,mu2"),
            ("mu", "0,0.1,0.1,extra"),
        ],
    )
    def test_bad_csv_row_names_its_line(self, tmp_path, capsys, which, row):
        mesh = planar_disk_mesh(6, 9)
        mesh_path = tmp_path / "disk.off"
        save_mesh(mesh, mesh_path)
        files = {
            "mu": ["face,mu1,mu2", "1,0.0,0.0"],
            "boundary": ["vertex,x,y"]
            + [f"{v},{mesh.vertices[v, 0]:.17g},{mesh.vertices[v, 1]:.17g}" for v in mesh.boundary_vertices],
        }
        files[which].insert(2, row)  # line 3 of its file
        for name, lines in files.items():
            (tmp_path / f"{name}.csv").write_text("\n".join(lines) + "\n")
        code = run(
            [
                "--out-dir",
                str(tmp_path),
                "beltrami",
                "--mesh",
                str(mesh_path),
                "--mu",
                str(tmp_path / "mu.csv"),
                "--boundary",
                str(tmp_path / "boundary.csv"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("input error: line 3:")
        assert not (tmp_path / "beltrami.csv").exists()

    @pytest.mark.parametrize(
        "interior, error",
        [
            ([1.5, 0.5, 0.0], "input error: planar faces do not share one orientation sign\n"),
            ([0.5, 0.5, 0.2], "input error: beltrami solver needs a planar mesh\n"),
        ],
        ids=["folded", "not_planar"],
    )
    def test_mesh_not_flat_and_unfolded_exit_1(self, tmp_path, capsys, interior, error):
        # a square fanned around its fifth vertex, saved with z coordinates
        square = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]]
        fan = [[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]]
        save_mesh(TriMesh(square + [interior], fan), tmp_path / "square.off")
        (tmp_path / "mu.csv").write_text("face,mu1,mu2\n")
        (tmp_path / "bnd.csv").write_text(
            "vertex,x,y\n" + "".join(f"{v},{x},{y}\n" for v, (x, y, _) in enumerate(square))
        )
        args = ["--mesh", str(tmp_path / "square.off"), "--mu", str(tmp_path / "mu.csv")]
        args += ["--boundary", str(tmp_path / "bnd.csv")]
        assert run(["--out-dir", str(tmp_path), "beltrami", *args]) == 1
        assert capsys.readouterr().err == error
        assert not (tmp_path / "beltrami.csv").exists()

    @pytest.mark.parametrize(
        "second, error",
        [
            ((1.0, 1e-17), "face 0: area 5.000e-18 below threshold for d=1.000e+00"),
            ((2.0, 0.0), "face 0: area 0.000e+00 below threshold for d=2.000e+00"),
        ],
        ids=["sliver", "zero_area"],
    )
    def test_degenerate_face_is_an_input_error(self, tmp_path, capsys, second, error):
        # seven triangles fanned around the origin; their boundary runs
        # through (1, 0), `second` and the unit circle at 60, ..., 300
        # degrees, so face 0 is a sliver of diameter 1 or has three
        # collinear corners
        ring = [(1.0, 0.0), second]
        ring += [(math.cos(a), math.sin(a)) for a in np.radians(np.arange(60, 360, 60))]
        lines = ["OFF", f"{len(ring) + 1} {len(ring)} 0", "0 0 0"]
        lines += [f"{x!r} {y!r} 0" for x, y in ring]
        lines += [f"3 0 {k + 1} {(k + 1) % len(ring) + 1}" for k in range(len(ring))]
        (tmp_path / "fan.off").write_text("\n".join(lines) + "\n")
        (tmp_path / "mu.csv").write_text("face,mu1,mu2\n")
        (tmp_path / "bnd.csv").write_text(
            "vertex,x,y\n" + "".join(f"{v + 1},{x!r},{y!r}\n" for v, (x, y) in enumerate(ring))
        )
        args = ["--mesh", str(tmp_path / "fan.off"), "--mu", str(tmp_path / "mu.csv")]
        args += ["--boundary", str(tmp_path / "bnd.csv")]
        assert run(["--out-dir", str(tmp_path), "beltrami", *args]) == 1
        assert capsys.readouterr().err == f"input error: {error}\n"
        assert not (tmp_path / "beltrami.csv").exists()

    def test_vertex_in_no_face_is_an_input_error(self, tmp_path, capsys):
        # a unit square split into two triangles, and a fifth vertex no face uses
        path = tmp_path / "square.off"
        path.write_text("OFF\n5 2 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n5 5 0\n3 0 1 2\n3 0 2 3\n")
        (tmp_path / "mu.csv").write_text("face,mu1,mu2\n")
        (tmp_path / "bnd.csv").write_text("vertex,x,y\n0,0,0\n1,1,0\n2,1,1\n3,0,1\n")
        args = ["--mesh", str(path), "--mu", str(tmp_path / "mu.csv")]
        args += ["--boundary", str(tmp_path / "bnd.csv")]
        assert run(["--out-dir", str(tmp_path), "beltrami", *args]) == 1
        assert capsys.readouterr().err == "input error: vertex 4 is in no face\n"
        assert not (tmp_path / "beltrami.csv").exists()

    @pytest.mark.parametrize(
        "row, error",
        [
            ("99999,5,5", "input error: vertex 99999 is not in the mesh"),
            ("0,0.5,0.5", "input error: vertex 0 is not a boundary vertex"),
            ("3,0.5,nan", "input error: vertex 3 has the non-finite"),
        ],
    )
    def test_boundary_row_not_fitting_the_mesh_exit_1(self, tmp_path, capsys, row, error):
        mesh = planar_disk_mesh(6, 9)
        save_mesh(mesh, tmp_path / "disk.off")
        (tmp_path / "mu.csv").write_text("face,mu1,mu2\n")
        lines = ["vertex,x,y"] + [
            f"{v},{mesh.vertices[v, 0]:.17g},{mesh.vertices[v, 1]:.17g}"
            for v in mesh.boundary_vertices
            if v != 3
        ]
        (tmp_path / "bnd.csv").write_text("\n".join(lines + [row]) + "\n")
        code = run(
            [
                "--out-dir",
                str(tmp_path),
                "beltrami",
                "--mesh",
                str(tmp_path / "disk.off"),
                "--mu",
                str(tmp_path / "mu.csv"),
                "--boundary",
                str(tmp_path / "bnd.csv"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith(error)
        assert not (tmp_path / "beltrami.csv").exists()


def test_bad_off_line_prints_input_error_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.off"
    path.write_text("OFF\n3 1 0\n0 0 0\n1 0 x\n0 1 0\n3 0 1 2\n")
    code = run(["--out-dir", str(tmp_path), "solve", "--mesh", str(path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("input error: line 4:")


def test_underscore_in_off_number_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.off"
    path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1_0 0\n3 0 1 2\n")
    code = run(["--out-dir", str(tmp_path), "solve", "--mesh", str(path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("input error: line 5: expected a vertex line")


def test_face_line_not_starting_with_3_named_before_a_later_refused_line(tmp_path, capsys):
    # numpy reads line 7 but it is not a triangle; numpy refuses line 8
    path = tmp_path / "bad.off"
    path.write_text("OFF\n4 2 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2\n3 1 3 1_0\n")
    assert run(["--out-dir", str(tmp_path), "quality", "--mesh", str(path)]) == 1
    assert capsys.readouterr().err == "input error: line 7: expected a face line '3 i j k', found '4 0 1 2'\n"


@pytest.mark.parametrize("command", ["solve", "quality"])
def test_degenerate_face_in_a_mesh_file_is_an_input_error(tmp_path, capsys, command):
    # a pentagon fanned around vertex 5, which lies on the edge (0, 1):
    # face 0 is flat to within 1e-20
    path = tmp_path / "fan.off"
    path.write_text(
        "OFF\n6 5 0\n0 0 0\n0.5 0 0\n0.5 -0.5 0\n0.25 -0.7 0\n0 -0.5 0\n0.25 0 1e-20\n"
        "3 0 1 5\n3 1 2 5\n3 2 3 5\n3 3 4 5\n3 4 0 5\n"
    )
    assert run(["--out-dir", str(tmp_path), command, "--mesh", str(path)]) == 1
    assert capsys.readouterr().err == (
        "input error: face 0: area 0.000e+00 below threshold for d=5.000e-01\n"
    )
    assert [p.name for p in tmp_path.iterdir()] == ["fan.off"]


def test_reports_go_to_the_working_directory_without_out_dir(tmp_path, monkeypatch):
    # DISKMAP_OUTDIR once set the default output root; it is read no more
    monkeypatch.setenv("DISKMAP_OUTDIR", str(tmp_path / "elsewhere"))
    monkeypatch.chdir(tmp_path)
    assert run(["quality", "--n", "4", "--m", "5"]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["quality.csv"]


@pytest.mark.parametrize("command", ["quality", "solve", "beltrami"])
@pytest.mark.parametrize(
    "text", ["OFF\n0 0 0\n", "OFF\n3 0 0\n0 0 0\n1 0 0\n0 1 0\n"], ids=["empty", "3_vertices"]
)
def test_mesh_without_faces_exit_1(tmp_path, capsys, command, text):
    path = tmp_path / "faceless.off"
    path.write_text(text)
    args = ["--out-dir", str(tmp_path), command, "--mesh", str(path)]
    if command == "beltrami":
        args += ["--mu", str(tmp_path / "mu.csv"), "--boundary", str(tmp_path / "bnd.csv")]
    assert run(args) == 1
    assert capsys.readouterr().err.startswith("input error: line 2: a mesh needs")
    assert [p.name for p in tmp_path.iterdir()] == ["faceless.off"]


class TestConfigFile:
    """An ``@file`` argument is a run manifest: argparse reads one argument
    per line from the file and parses them where ``@file`` stands."""

    SOLVE = ["solve", "--n", "8", "--r", "0.9166667"]

    def test_manifest_equals_flags(self, tmp_path):
        manifest = tmp_path / "run.args"
        out = tmp_path / "manifest"
        manifest.write_text(f"--out-dir={out}\nsolve\n--n=8\n--r=0.9166667\n")
        assert run([f"@{manifest}"]) == 0
        assert run(["--out-dir", str(tmp_path / "flags"), *self.SOLVE]) == 0
        for name in ("map.csv", "trace.csv"):
            assert (out / name).read_bytes() == (tmp_path / "flags" / name).read_bytes()

    def test_config_overrides_flags(self, tmp_path):
        # later arguments win, so a manifest after the flags overrides them
        manifest = tmp_path / "run.args"
        manifest.write_text("--n=8\n--m=27\n")
        code = run(["gen", "--n", "4", "--out", str(tmp_path / "h.off"), f"@{manifest}"])
        assert code == 0
        mesh = load_mesh(tmp_path / "h.off")
        assert mesh.num_vertices == 27 * 8 + 1

    def test_unknown_key_rejected(self, tmp_path, capsys):
        manifest = tmp_path / "run.args"
        manifest.write_text("--bogus=3\n")
        with pytest.raises(SystemExit) as excinfo:
            run(["gen", "--n", "4", "--m", "8", "--out", str(tmp_path / "x.off"), f"@{manifest}"])
        assert excinfo.value.code == 2
        assert "--bogus=3" in capsys.readouterr().err
        assert not (tmp_path / "x.off").exists()

    def test_float_value_for_flag_without_default(self, tmp_path):
        # --r has no default: the value is converted by the flag's type
        manifest = tmp_path / "run.args"
        manifest.write_text("--r=0.9166667\n")
        code = run(["gen", "--n", "8", "--out", str(tmp_path / "h.off"), f"@{manifest}"])
        assert code == 0
        assert load_mesh(tmp_path / "h.off").num_vertices == 6 * 8 + 1

    def test_source_face_value_equals_flag(self, tmp_path):
        manifest = tmp_path / "run.args"
        manifest.write_text("--source-face=3\n")
        assert run(["--out-dir", str(tmp_path / "cfg"), *self.SOLVE, f"@{manifest}"]) == 0
        assert run(["--out-dir", str(tmp_path / "flag"), *self.SOLVE, "--source-face", "3"]) == 0
        assert run(["--out-dir", str(tmp_path / "default"), *self.SOLVE]) == 0
        maps = {name: (tmp_path / name / "map.csv").read_bytes() for name in ("cfg", "flag", "default")}
        assert maps["cfg"] == maps["flag"] != maps["default"]

    @pytest.mark.parametrize("line", ["--n=eight", "--rho=foo"])
    def test_invalid_value_exit_2(self, tmp_path, capsys, line):
        manifest = tmp_path / "run.args"
        manifest.write_text(line + "\n")
        with pytest.raises(SystemExit) as excinfo:
            run(["--out-dir", str(tmp_path / "out"), *self.SOLVE, f"@{manifest}"])
        assert excinfo.value.code == 2
        assert f"argument {line.split('=')[0]}: invalid" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_value_outside_its_domain_exit_2(self, tmp_path, capsys):
        manifest = tmp_path / "run.args"
        manifest.write_text("--quad-order=99\n")
        assert run(["--out-dir", str(tmp_path / "out"), *self.SOLVE, f"@{manifest}"]) == 2
        assert capsys.readouterr().err == "error: quadrature order must be 1 to 5, got 99\n"

    def test_missing_manifest_exit_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run([*self.SOLVE, f"@{tmp_path / 'missing.args'}"])
        assert excinfo.value.code == 2
        assert "missing.args" in capsys.readouterr().err

    def test_config_flag_exit_2(self, tmp_path):
        manifest = tmp_path / "run.args"
        manifest.write_text("--n=8\n")
        with pytest.raises(SystemExit) as excinfo:
            run(["--config", str(manifest), *self.SOLVE])
        assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "flag",
    [["--memory", "5"], ["--initial-step", "1"], ["--backtrack-factor", "0.5"], ["--no-precondition"]],
)
def test_removed_minimizer_flag_exit_2(flag):
    with pytest.raises(SystemExit) as excinfo:
        run(["solve", "--n", "8", "--r", "0.9166667", *flag])
    assert excinfo.value.code == 2
