import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest

from toruslandau import cli, cocycle, gridio, lll_basis, tolerances, verify
from toruslandau.cli import main
from toruslandau.cocycle import (cocycle_constant, total_flux, triangle_identity,
                                 uniform_mesh)
from toruslandau.geometry import TorusGeometry
from toruslandau.levels import DensityMap, GridField, density_map, periodic_grid
from toruslandau.lll_basis import (boundary_residuals, duality_residuals, normalize,
                                   theta_basis)


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

    def test_report_matches_shared_residuals(self, tmp_path):
        # the report carries criteria 3 and 4's own measures, on the same
        # section, the same 500 seeded points and the same grid
        run(["basis", "--N", "3", "--nu", "1", "--grid", "32", "--seed", "7",
             "--out-dir", str(tmp_path)])
        report = json.loads((tmp_path / "basis_N3_nu1_report.json").read_text())
        geo = TorusGeometry.square(3)
        psi = normalize(theta_basis(geo, 1))
        rng = np.random.default_rng(7)
        zs = rng.random(500) * geo.L1 + 1j * rng.random(500) * geo.L2
        assert report["duality_max_rel"] == duality_residuals([psi], zs)[0]
        assert report["boundary_residual_rel"] == boundary_residuals(
            [psi], periodic_grid(geo, 32, 32))[0]

    def test_section_sampled_once_per_grid(self, tmp_path, monkeypatch):
        # the 32^2 grid once, weighted for the density and then taken to psi's
        # frame, and its -L1 and -iL2 shifts; normalize samples nothing
        grids = []
        original = lll_basis._fourier_grid

        def counted(psis, z, order):
            grids.append(z.shape)
            return original(psis, z, order)

        monkeypatch.setattr(lll_basis, "_fourier_grid", counted)
        assert run(["basis", "--N", "3", "--nu", "1", "--grid", "32",
                    "--out-dir", str(tmp_path)]) == 0
        assert grids == [(32, 32)] * 3

    def test_large_n_passes(self, tmp_path, monkeypatch):
        # at N = 12 too: the default 128^2 grid once and its two shifts, and
        # no normalization grid
        grids = []
        original = lll_basis._fourier_grid

        def counted(psis, z, order):
            grids.append(z.shape)
            return original(psis, z, order)

        monkeypatch.setattr(lll_basis, "_fourier_grid", counted)
        assert run(["basis", "--N", "12", "--nu", "6", "--out-dir", str(tmp_path)]) == 0
        assert grids == [(128, 128)] * 3

    def test_boundary_finite_on_a_large_square_torus(self, tmp_path):
        # each law is read at its period's preimage: at N = 92 the shift by
        # L1 took psi past the largest double and the residual read nan
        assert run(["basis", "--N", "92", "--out-dir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "basis_N92_nu0_report.json").read_text())
        assert math.isfinite(report["boundary_residual_rel"])
        assert report["boundary_ok"] is True

    @pytest.mark.parametrize("n", [16, 20])
    def test_duality_holds_past_criterion_scope(self, tmp_path, n):
        # nu = N/2: its Gaussian comb cancels most near the corner L1 + i L2,
        # where |psi| peaks
        nu = n // 2
        assert run(["basis", "--N", str(n), "--nu", str(nu), "--out-dir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / f"basis_N{n}_nu{nu}_report.json").read_text())
        assert report["duality_ok"] is True

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

    @pytest.mark.parametrize("n_list", ["3,1", "2,2"])
    def test_n_list_must_increase(self, tmp_path, capsys, n_list):
        # d(N) is judged in list order, so an unsorted list is a usage error
        code = run(["density", "--N", n_list, "--grid", "48",
                    "--out-dir", str(tmp_path)])
        assert code == 2
        assert "--N must be strictly increasing" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_repeated_level_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(["density", "--N", "3", "--level", "0", "0", "--out-dir", str(out)])
        assert code == 2
        assert "--level repeats a level: 0 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n_list", ["1,a", "1,,3"])
    def test_malformed_n_list_names_its_flag(self, tmp_path, capsys, n_list):
        out = tmp_path / "out"
        code = run(["density", "--N", n_list, "--out-dir", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: expected --N N1,N2,..., got {n_list!r}\n"
        assert not out.exists()

    def test_nonfinite_d_fails(self, tmp_path, capsys, monkeypatch):
        # a d(N) that is not a number fails the run rather than passing as a table
        def nan_map(geo, level, side):
            dev = density_map(geo, level, side).deviation
            nan = GridField(geo, dev.name, np.full(dev.values.shape, np.nan))
            return DensityMap(nan, nan, math.nan, math.nan)

        monkeypatch.setattr(cli, "density_map", nan_map)
        code = run(["density", "--N", "1", "--grid", "16", "--out-dir", str(tmp_path)])
        assert code == 1
        assert "d(1)=nan" in capsys.readouterr().out
        assert read_manifest(tmp_path)["checks"] == {"d_decreasing": True, "d_finite": False}

    def test_long_thin_torus_has_finite_d(self, tmp_path, capsys):
        # at L1 = 30, L2 = pi/30 psi reaches e^{450} where e^{-|z|^2} is
        # below the smallest double; the weighted samples stay bounded
        code = run(["density", "--N", "1", "--L1", "30", "--level", "0", "1",
                    "--out-dir", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "density_summary.json").read_text())
        ds = [summary["levels"][level]["table"][0]["d"] for level in ("0", "1")]
        assert all(math.isfinite(d) and d > 0 for d in ds)
        assert "nan" not in capsys.readouterr().out
        assert read_manifest(tmp_path)["checks"] == {"d_decreasing": True, "d_finite": True}

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

    @pytest.mark.parametrize("flag, value, form", [
        ("--a-frac", "0.3", "--a-frac F1,F2"),
        ("--a-frac", "0.1,0.2,0.3", "--a-frac F1,F2"),
        ("--a", "1.5", "--a RE,IM"),
        ("--a", "x,1", "--a RE,IM")])
    def test_malformed_displacement_names_its_flag(self, tmp_path, capsys,
                                                   flag, value, form):
        code = run(["translate", "--N", "3", flag, value,
                    "--out-dir", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == f"error: expected {form}, got {value!r}\n"


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
        assert report["sum_cocycles"] == total_flux(mesh).sum_cocycles

    @pytest.mark.parametrize("flux", ["2pi", "3pi"])
    def test_report_reads_total_flux(self, tmp_path, flux):
        run(["cocycle", "--mesh-n", "8", "--flux", flux, "--per-triangle",
             "--out-dir", str(tmp_path)])
        report = json.loads((tmp_path / "cocycle_report.json").read_text())
        result = total_flux(uniform_mesh(8, 1.0, 1.0, report["B"]))
        assert report["flux"] == result.flux
        assert report["sum_cocycles"] == result.sum_cocycles
        assert report["flux_quanta"] == result.flux_quanta
        assert report["theorem_holds"] == result.theorem_holds
        assert report["weil_integral"] == result.weil_integral
        assert report["worst_triangle_identity_rel"] == result.worst_identity_rel
        assert report["cocycles"] == result.cocycles.tolist()
        checks = read_manifest(tmp_path)["checks"]
        assert checks["triangle_identity"] == result.identity_holds
        assert checks["edge_cancellation"] == result.edges_cancel

    @pytest.mark.parametrize("key", ["triangle_identity_rel", "triangle_identity_abs",
                                     "edge_cancellation_abs", "cocycle_sum_rel"])
    def test_command_and_criterion_9_share_verdicts(self, tmp_path, monkeypatch, key):
        # a negative bound can never be met: both consumers of the one
        # record must fail
        assert verify.check_cocycle_theorem().passed
        assert run(["cocycle", "--out-dir", str(tmp_path / "before")]) == 0
        monkeypatch.setitem(tolerances.TOLERANCES, key, (-1.0, "never met"))
        assert not verify.check_cocycle_theorem().passed
        assert run(["cocycle", "--out-dir", str(tmp_path / "after")]) == 1

    def test_mesh_cocycles_built_once(self, tmp_path, monkeypatch):
        calls = []
        original = cocycle._cocycles

        def counted(tri):
            calls.append(1)
            return original(tri)

        monkeypatch.setattr(cocycle, "_cocycles", counted)
        assert run(["cocycle", "--mesh-n", "8", "--per-triangle",
                    "--out-dir", str(tmp_path)]) == 0
        assert len(calls) == 1

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["cocycle", "--mesh-n", "16", "--flux", "3pi", "--per-triangle"]
        assert run(args + ["--out-dir", str(a)]) == 0
        assert run(args + ["--out-dir", str(b)]) == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_sides(self, tmp_path):
        code = run(["cocycle", "--mesh-n", "4", "--L1", "2", "--L2", "0.5",
                    "--out-dir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "cocycle_report.json").read_text())
        assert (report["L1"], report["L2"], report["B"]) == (2.0, 0.5, 2 * math.pi)
        assert report["theorem_holds"] and report["weil_integral"]

    def test_numeric_flux(self, tmp_path):
        code = run(["cocycle", "--mesh-n", "4", "--flux", "6.283185307179586",
                    "--out-dir", str(tmp_path)])
        assert code == 0

    @pytest.mark.parametrize("flux, value", [
        ("-pi", -math.pi), ("+pi", math.pi), ("pi", math.pi), ("-1pi", -math.pi),
        ("+2*pi", 2 * math.pi)])
    def test_signed_pi_flux(self, tmp_path, flux, value):
        # a bare sign before pi reads as one pi, as no sign does
        code = run(["cocycle", "--mesh-n", "4", f"--flux={flux}", "--out-dir", str(tmp_path)])
        assert code == 0
        assert json.loads((tmp_path / "run_manifest.json").read_text())[
            "parameters"]["flux"] == value


class TestVerifyCommand:
    def test_small_run_passes(self, capsys):
        code = run(["verify", "--n-max", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "10/10 checks passed" in out
        assert out.count("PASS") == 10
        assert "N capped" not in out   # no cap is exceeded

    @pytest.mark.parametrize("n_max", ["0", "-2"])
    def test_empty_range_is_a_usage_error(self, capsys, n_max):
        code = run(["verify", "--n-max", n_max])
        captured = capsys.readouterr()
        assert code == 2
        assert "n_max must be at least 1" in captured.err
        assert "checks passed" not in captured.out

    def test_n_max_above_a_cap_says_where_each_criterion_stopped(self, capsys, monkeypatch):
        # caps lowered so that the run stays small: the note names the N
        # that the detail lines show each criterion ran to
        monkeypatch.setattr(verify, "_N_CAP", 2)
        monkeypatch.setattr(verify, "_N_CAP_TRANSLATED", 1)
        code = run(["verify", "--n-max", "3"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[0] == ("N capped: criteria 1-5, 7 and 10 ran to N<=2; "
                            "criteria 6 and 8 ran to N<=1 (--n-max 3)")
        assert [line for line in lines if "N capped" in line] == lines[:1]
        details = {line[6:].split("  ")[0]: line for line in lines[1:11]}
        assert "N<=2:" in details["ground-state dimension"]
        assert "N<=1:" in details["translation algebra"]
        assert "N<=1:" in details["energy ladder"]
        monkeypatch.setattr(verify, "_N_CAP", 3)
        run(["verify", "--n-max", "3"])
        assert capsys.readouterr().out.splitlines()[0] == (
            "N capped: criteria 6 and 8 ran to N<=1 (--n-max 3)")

    def test_fault_injection_fails_boundary(self, capsys, monkeypatch):
        # the x boundary sign fault, passed to the suite the command runs:
        # one FAIL line, and the exit status says so
        suite = verify.run_acceptance
        monkeypatch.setattr(verify, "run_acceptance", lambda **kw: suite(
            **kw, fault_phases=lll_basis.BoundaryPhases(math.pi, 0.0)))
        code = run(["verify", "--n-max", "2"])
        out = capsys.readouterr().out
        assert code == 1
        failed = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert len(failed) == 1 and failed[0].startswith("FAIL  boundary conditions")


class TestUsageErrors:
    """A usage error exits 2 before the output directory is created."""

    @pytest.mark.parametrize("argv", [
        ["basis", "--N", "3", "--grid", "2"],
        ["basis", "--N", "3", "--nu", "5"],
        ["density", "--N", "3", "--grid", "2"],
        ["translate", "--N", "3", "--a-frac", "0.5,0", "--grid", "2"],
        ["translate", "--N", "3", "--a-frac", "0.5"],
        ["translate", "--N", "3", "--a", "0.1,0.2", "--a-frac", "0.1,0.1"],
        ["cocycle", "--mesh-n", "2"],
        ["basis", "--L1", "inf", "--L2", "1"],
        ["basis", "--L1", "1e308", "--L2", "1e308"],
        ["translate", "--L1", "inf", "--L2", "2", "--a", "0,0"],
        ["basis", "--units", "physical", "--B", "inf", "--L1", "1", "--L2", "1"],
        ["basis", "--units", "physical", "--B", "1e-320", "--L1", "1", "--L2", "1"],
        ["cocycle", "--L1", "1e-200", "--L2", "1e-200"],
        ["cocycle", "--L1", "1e200", "--L2", "1e200"],
        ["basis", "--N", "1", "--L1", "1e-150"],
        ["translate", "--N", "1", "--L1", "1e-150", "--a", "0,0"],
        ["basis", "--N", "1", "--L2", "1e-170"],
        ["basis", "--N", "1", "--L2", "40"],
        ["density", "--N", "1", "--L1", "40"],
        ["translate", "--N", "1", "--L2", "40", "--a-frac", "0.5,0"]],
        ids=["basis-grid", "basis-nu", "density-grid", "translate-grid",
             "translate-displacement", "translate-both-displacements",
             "cocycle-mesh", "basis-infinite-side", "basis-flux-overflow",
             "translate-infinite-side", "basis-infinite-field", "basis-field-underflow",
             "cocycle-area-underflow", "cocycle-area-overflow",
             "basis-cutoff-overflow", "translate-cutoff-overflow",
             "basis-side-underflow", "basis-cell-overflow", "density-cell-overflow",
             "translate-cell-overflow"])
    def test_no_directory_on_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert run(argv + ["--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_basis_grid_side_is_checked_by_quadrature(self, tmp_path, capsys):
        # the same check, and message, as every library entry point that takes a side
        assert run(["basis", "--N", "2", "--grid", "3", "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: grid resolution must be an integer >= 4, got 3\n"

    @pytest.mark.parametrize("command", [["basis", "--N", "3"], ["verify", "--n-max", "1"]],
                             ids=["basis", "verify"])
    def test_negative_seed_names_its_flag(self, tmp_path, capsys, monkeypatch, command):
        # checked before anything is computed or written
        monkeypatch.chdir(tmp_path)
        assert run(command + ["--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --seed must be a non-negative integer, got -1\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, value", [
        ("--L1", "0"), ("--L1", "-1"), ("--L1", "inf"), ("--L2", "nan"),
        ("--L2", "-1"), ("--flux", "abc"), ("--flux", "inf"), ("--flux", "nanpi")])
    def test_cocycle_input_names_its_flag(self, tmp_path, capsys, flag, value):
        # sides must be finite and positive, the flux a finite number
        out = tmp_path / "out"
        assert run(["cocycle", flag, value, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must be ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["cocycle", "--N", "5"],
        ["cocycle", "--units", "physical"],
        ["cocycle", "--B", "3"],
        ["cocycle", "--config", "torus.cfg"],
        ["cocycle", "--format", "json"],
        ["translate", "--N", "3", "--a-frac", "0.5,0", "--format", "json"],
        ["verify", "--n-max", "2", "--debug-flip-x-sign"]],
        ids=["cocycle-N", "cocycle-units", "cocycle-B", "cocycle-config",
             "cocycle-format", "translate-format", "verify-debug-flip-x-sign"])
    def test_removed_flags_are_rejected(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--out-dir", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()


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


@pytest.mark.parametrize("argv", [
    ["basis", "--N", "2", "--grid", "16"],
    ["density", "--N", "1,2", "--level", "0", "1", "--grid", "16"],
    ["translate", "--N", "2", "--a-frac", "0.5,0"],
    ["cocycle", "--mesh-n", "4"]], ids=lambda argv: argv[0])
def test_every_json_report_goes_through_write_json(tmp_path, monkeypatch, argv):
    # reports, sidecars, summaries and the manifest share one JSON writer
    written = []
    original = gridio.write_json

    def recorded(payload, path):
        written.append(Path(path).name)
        return original(payload, path)

    monkeypatch.setattr(gridio, "write_json", recorded)
    assert run(argv + ["--out-dir", str(tmp_path)]) == 0
    assert sorted(written) == sorted(p.name for p in tmp_path.glob("*.json"))


def test_cli_imports_no_private_name():
    # the CLI reaches the package through its public names only (dunders
    # such as __version__ are public)
    tree = ast.parse(Path(cli.__file__).read_text())
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             and (node.level or node.module.startswith("toruslandau"))
             for alias in node.names]
    assert not [n for n in names if n.startswith("_") and not n.endswith("__")]


def test_geometry_mismatch_raised_by_one_check_only():
    # geometry._one_torus is the one check that a stack or a section holds
    # one torus: no other function of the package raises GeometryMismatch
    def raisers(node, function=None):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(exc, "id", getattr(exc, "attr", None)) == "GeometryMismatch":
                yield function
        for child in ast.iter_child_nodes(node):
            yield from raisers(child, function)

    found = [(path.name, function) for path in sorted(Path(cli.__file__).parent.glob("*.py"))
             for function in raisers(ast.parse(path.read_text()))]
    assert found == [("geometry.py", "_one_torus")]
