import json
import math
from pathlib import Path

import numpy as np
import pytest

from toruslandau.cli import main
from toruslandau.cocycle import cocycle_constant, triangle_identity, uniform_mesh
from toruslandau.geometry import TorusGeometry
from toruslandau.levels import periodic_grid
from toruslandau.lll_basis import boundary_factors, normalize, theta_basis


def run(args):
    return main(args)


def read_manifest(out_dir):
    return json.loads((Path(out_dir) / "run_manifest.json").read_text())


def tree_bytes(out_dir):
    return {p.name: p.read_bytes() for p in sorted(Path(out_dir).iterdir())}


class TestBasisCommand:
    def test_emits_grids_and_report(self, tmp_path):
        code = run(["basis", "--N", "1", "--nu", "0", "--grid", "64",
                    "--out-dir", str(tmp_path)])
        assert code == 0
        names = {p.name for p in tmp_path.iterdir()}
        assert {"basis_N1_nu0_re.csv", "basis_N1_nu0_im.csv",
                "basis_N1_nu0_density.csv", "basis_N1_nu0_report.json",
                "run_manifest.json"} == names
        report = json.loads((tmp_path / "basis_N1_nu0_report.json").read_text())
        assert report["duality_max_rel"] < 1e-12
        assert report["boundary_residual_rel"] < 1e-12

    def test_boundary_residual_is_relative_to_expected_value(self, tmp_path):
        run(["basis", "--N", "3", "--nu", "1", "--grid", "32",
             "--out-dir", str(tmp_path)])
        report = json.loads((tmp_path / "basis_N3_nu1_report.json").read_text())
        geo = TorusGeometry.square(3)
        psi = normalize(theta_basis(geo, 1))
        z = periodic_grid(geo, 32, 32)
        f1, f2 = boundary_factors(geo, z)
        expect1, expect2 = psi(z) * f1, psi(z) * f2
        direct = max(
            np.abs(psi(z + geo.L1) - expect1).max() / np.abs(expect1).max(),
            np.abs(psi(z + 1j * geo.L2) - expect2).max() / np.abs(expect2).max())
        assert report["boundary_residual_rel"] == float(direct)

    def test_nu_out_of_range(self, tmp_path, capsys):
        code = run(["basis", "--N", "3", "--nu", "5", "--out-dir", str(tmp_path)])
        assert code == 2
        assert "nu" in capsys.readouterr().err

    def test_unquantized_sides_surface_fractional_flux(self, tmp_path, capsys):
        code = run(["basis", "--L1", "1", "--L2", "1", "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{1/math.pi:.3g}"[:4] in err or "0.318" in err

    def test_manifest_lists_every_output(self, tmp_path):
        run(["basis", "--N", "2", "--nu", "1", "--grid", "32",
             "--out-dir", str(tmp_path)])
        manifest = read_manifest(tmp_path)
        on_disk = {p.name for p in tmp_path.iterdir()} - {"run_manifest.json"}
        assert set(manifest["outputs"]) == on_disk
        assert manifest["tolerances"]["poisson_duality_rel"] == 1e-12

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["basis", "--N", "2", "--nu", "0", "--grid", "32"]
        assert run(args + ["--out-dir", str(a)]) == 0
        assert run(args + ["--out-dir", str(b)]) == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_matrix_format(self, tmp_path):
        run(["basis", "--N", "1", "--nu", "0", "--grid", "16",
             "--format", "matrix", "--out-dir", str(tmp_path)])
        assert (tmp_path / "basis_N1_nu0_re.dat").exists()


class TestDensityCommand:
    def test_default_figure_set(self, tmp_path):
        code = run(["density", "--N", "1,2", "--grid", "48",
                    "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "density_N1_L0_deviation.csv").exists()
        assert (tmp_path / "density_N2_L0_deviation.csv").exists()
        summary = json.loads((tmp_path / "density_summary.json").read_text())
        table = summary["levels"]["0"]["table"]
        assert [row["N"] for row in table] == [1, 2]
        assert table[0]["d"] > table[1]["d"]

    def test_level_one(self, tmp_path):
        code = run(["density", "--N", "2", "--level", "1", "--grid", "48",
                    "--out-dir", str(tmp_path)])
        assert code == 0
        sidecar = json.loads(
            (tmp_path / "density_N2_L1_deviation.json").read_text())
        assert sidecar["level"] == 1
        assert sidecar["relative_deviation"] > 0

    def test_unit_flux_deviation_nonconstant(self, tmp_path):
        run(["density", "--N", "1", "--grid", "48", "--out-dir", str(tmp_path)])
        sidecar = json.loads(
            (tmp_path / "density_N1_L0_deviation.json").read_text())
        assert sidecar["relative_deviation"] > 0.5
        assert sidecar["statistics"]["max"] > sidecar["statistics"]["min"]

    def test_default_n_list_matches_figures(self, tmp_path):
        code = run(["density", "--grid", "48", "--out-dir", str(tmp_path)])
        assert code == 0
        for n in (1, 3, 6, 10):
            assert (tmp_path / f"density_N{n}_L0_deviation.csv").exists()

    def test_json_grid_format(self, tmp_path):
        code = run(["density", "--N", "2", "--grid", "48", "--format", "json",
                    "--out-dir", str(tmp_path)])
        assert code == 0
        grid = json.loads(
            (tmp_path / "density_N2_L0_deviation.grid.json").read_text())
        assert grid["ny"] == 48 and len(grid["values"]) == 48


class TestTranslateCommand:
    def test_lattice_green(self, tmp_path):
        code = run(["translate", "--N", "2", "--a-frac", "0.5,0.5",
                    "--out-dir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "translation_report.json").read_text())
        assert report["lattice"] is True
        assert report["unitarity_defect"] < 1e-10
        assert report["projection_defect"] < 1e-10

    def test_half_lattice_flagged(self, tmp_path):
        code = run(["translate", "--N", "2", "--a-frac", "0.25,0",
                    "--out-dir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "translation_report.json").read_text())
        assert report["lattice"] is False
        assert report["projection_defect"] > 1e-4

    def test_zero_displacement(self, tmp_path):
        code = run(["translate", "--N", "2", "--a", "0,0",
                    "--out-dir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "translation_report.json").read_text())
        assert report["lattice_indices"] == [0, 0]

    def test_displacement_required(self, tmp_path, capsys):
        code = run(["translate", "--N", "2", "--out-dir", str(tmp_path)])
        assert code == 2
        assert "--a" in capsys.readouterr().err


class TestCocycleCommand:
    def test_integral_flux(self, tmp_path):
        code = run(["cocycle", "--mesh-n", "8", "--flux", "6pi",
                    "--out-dir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "cocycle_report.json").read_text())
        assert report["theorem_holds"] and report["weil_integral"]
        assert report["flux_quanta"] == pytest.approx(3.0)

    def test_nonintegral_flux_fails_weil_only(self, tmp_path):
        code = run(["cocycle", "--mesh-n", "4", "--flux", "3pi",
                    "--out-dir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "cocycle_report.json").read_text())
        assert report["theorem_holds"] and not report["weil_integral"]

    def test_per_triangle_table(self, tmp_path):
        run(["cocycle", "--mesh-n", "4", "--flux", "2pi", "--per-triangle",
             "--out-dir", str(tmp_path)])
        report = json.loads((tmp_path / "cocycle_report.json").read_text())
        assert len(report["cocycles"]) == 32
        assert sum(report["cocycles"]) == pytest.approx(2 * math.pi)

    def test_per_triangle_table_matches_api(self, tmp_path):
        run(["cocycle", "--mesh-n", "8", "--flux", "3pi", "--per-triangle",
             "--out-dir", str(tmp_path)])
        report = json.loads((tmp_path / "cocycle_report.json").read_text())
        mesh = uniform_mesh(8, 1.0, 1.0, 3 * math.pi)
        assert report["cocycles"] == cocycle_constant(mesh).tolist()
        lhs, rhs = triangle_identity(mesh)
        worst = np.max(np.abs(lhs - rhs) / np.abs(lhs))
        assert report["worst_triangle_identity_rel"] == worst

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["cocycle", "--mesh-n", "16", "--flux", "3pi", "--per-triangle"]
        assert run(args + ["--out-dir", str(a)]) == 0
        assert run(args + ["--out-dir", str(b)]) == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_numeric_flux(self, tmp_path):
        code = run(["cocycle", "--mesh-n", "4", "--flux", "6.283185307179586",
                    "--out-dir", str(tmp_path)])
        assert code == 0


class TestVerifyCommand:
    def test_small_run_passes(self, capsys):
        code = run(["verify", "--n-max", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "10/10 checks passed" in out
        assert out.count("PASS") == 10

    def test_fault_injection_fails_boundary(self, capsys):
        code = run(["verify", "--n-max", "2", "--debug-flip-x-sign"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out and "boundary" in out


class TestTopLevel:
    def test_show_tolerances(self, capsys):
        assert run(["--show-tolerances"]) == 0
        out = capsys.readouterr().out
        assert "poisson_duality_rel" in out

    def test_no_command_prints_help(self, capsys):
        assert run([]) == 2
        assert "usage" in capsys.readouterr().out.lower()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "torus.cfg"
        cfg.write_text("units = natural\nN = 1\n")
        out = tmp_path / "out"
        code = run(["basis", "--config", str(cfg), "--N", "2", "--nu", "1",
                    "--grid", "32", "--out-dir", str(out)])
        assert code == 0
        assert (out / "basis_N2_nu1_re.csv").exists()   # flag beat the file

    def test_config_file_alone(self, tmp_path):
        cfg = tmp_path / "torus.cfg"
        side = math.sqrt(2 * math.pi)
        cfg.write_text(f"L1 = {side!r}\nL2 = {side!r}\n")
        out = tmp_path / "out"
        code = run(["basis", "--config", str(cfg), "--nu", "0", "--grid", "32",
                    "--out-dir", str(out)])
        assert code == 0
        assert (out / "basis_N2_nu0_re.csv").exists()
