import math

import numpy as np
import pytest

from toruslandau import lll_basis, tolerances
from toruslandau.errors import NotAPeriod
from toruslandau.geometry import TorusGeometry
from toruslandau.levels import (density_map, gram_matrix, ground_section,
                                level_basis, periodic_grid, raise_section)
from toruslandau.lll_basis import eval_fourier, normalized_basis
from toruslandau.translations import (bundle_shift_phase,
                                      commutator_matrix_residual,
                                      commutator_phase,
                                      hamiltonian_commutation_residual,
                                      is_lattice, lattice_indices,
                                      reduce_to_fundamental,
                                      translate_section, translation_matrix,
                                      translation_report, wintner_check)


@pytest.fixture(scope="module")
def geo3():
    return TorusGeometry.square(3)


@pytest.fixture(scope="module")
def basis3(geo3):
    return normalized_basis(geo3)


class TestTranslateSection:
    def test_zero_displacement_is_identity(self, basis3):
        geo = basis3[0].geometry
        rng = np.random.default_rng(0)
        z = rng.random(20) * geo.L1 + 1j * rng.random(20) * geo.L2
        s = ground_section(basis3[1])
        np.testing.assert_allclose(translate_section(0.0, s, z), s(z), rtol=1e-13)

    def test_full_period_acts_as_identity(self, geo3, basis3):
        # a = L1: prefactor and boundary factor cancel up to exp(-i delta1) = 1
        z = np.array([0.2 + 0.3j, 1.0 + 1.4j])
        s = ground_section(basis3[0])
        np.testing.assert_allclose(translate_section(geo3.L1, s, z), s(z),
                                   rtol=1e-12)
        np.testing.assert_allclose(translate_section(1j * geo3.L2, s, z), s(z),
                                   rtol=1e-12)

    def test_reduction_matches_direct_series(self, geo3, basis3):
        # the entire Fourier series evaluates anywhere; the twisted-periodicity
        # reduction must reproduce it
        rng = np.random.default_rng(1)
        z = rng.random(15) * geo3.L1 + 1j * rng.random(15) * geo3.L2
        for a in (0.37 + 0.21j, -1.4 + 2.9j, geo3.L1 / 6 + 1j * geo3.L2 / 2):
            for psi in basis3:
                direct = np.exp(np.conj(a) * z - abs(a) ** 2 / 2) \
                    * eval_fourier(psi, z - a)
                via_reduction = translate_section(a, psi, z)
                np.testing.assert_allclose(via_reduction, direct, rtol=1e-11)

    def test_norm_preserved(self, geo3, basis3):
        nx = 64
        z = periodic_grid(geo3, nx, nx)
        cell = (geo3.L1 / nx) * (geo3.L2 / nx)
        w = np.exp(-np.abs(z) ** 2)
        for a in (0.5, 0.7j, 0.4 + 0.9j):
            vals = translate_section(a, basis3[0], z)
            norm = np.sum(w * np.abs(vals) ** 2) * cell
            assert norm == pytest.approx(1.0, abs=1e-10)

    def test_reduction_exponent_closed_form(self, geo3):
        w = 2 * geo3.L1 + 0.3 + 1j * (0.4 - geo3.L2)
        w0, exponent = reduce_to_fundamental(geo3, w)
        assert 0 <= w0.real < geo3.L1 and 0 <= w0.imag < geo3.L2
        # n1 = 2, n2 = -1: conj(l) = 2 L1 + i L2, and n1 n2 N pi = -6 pi
        expect = (2 * geo3.L1 + 1j * geo3.L2) * w0 \
            + (4 * geo3.L1**2 + geo3.L2**2) / 2 - 6j * math.pi
        assert exponent == pytest.approx(expect, rel=1e-12)


class TestDisplacementValidation:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a", [complex(math.nan, 0.0), complex(0.0, math.inf)])
    def test_nonfinite_rejected_before_reduction(self, geo3, basis3, a):
        z = periodic_grid(geo3, 8, 8)
        with pytest.raises(ValueError, match="finite"):
            lattice_indices(a, geo3)
        with pytest.raises(ValueError, match="finite"):
            translate_section(a, basis3[0], z)
        with pytest.raises(ValueError, match="finite"):
            translation_matrix(geo3, a, nx=8)
        with pytest.raises(ValueError, match="finite"):
            translation_report(geo3, a, nx=8)


class TestLatticeClassification:
    def test_lattice_points(self, geo3):
        assert lattice_indices((geo3.L1 + 1j * geo3.L2) / 3, geo3) == (1, 1)
        assert lattice_indices(2 * geo3.L1 / 3, geo3) == (2, 0)
        assert lattice_indices(0.0, geo3) == (0, 0)

    def test_off_lattice(self, geo3):
        assert lattice_indices(geo3.L1 / 6, geo3) is None
        assert not is_lattice(0.1 + 0.2j, geo3)

    def test_translation_type(self, geo3):
        assert is_lattice((geo3.L1 + 1j * geo3.L2) / 3, geo3)
        with pytest.raises(ValueError):
            lattice_indices(complex("nan"), geo3)


class TestTranslationMatrix:
    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_lattice_unitary_and_projects(self, n):
        geo = TorusGeometry.square(n)
        tm = translation_matrix(geo, (geo.L1 + 1j * geo.L2) / n)
        assert tm.is_lattice
        assert tm.unitarity_defect < 1e-10
        assert tm.max_projection_defect < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_half_lattice_leaks(self, n):
        geo = TorusGeometry.square(n)
        tm = translation_matrix(geo, geo.L1 / (2 * n))
        assert not tm.is_lattice
        assert float(np.min(tm.projection_defects)) > 1e-3
        # the restriction is a strict contraction, not unitary
        assert tm.unitarity_defect > 1e-3

    def test_zero_displacement_identity_matrix(self, geo3):
        tm = translation_matrix(geo3, 0.0)
        assert np.max(np.abs(tm.entries - np.eye(3))) < 1e-12

    def test_level_one_lattice_unitary(self):
        geo = TorusGeometry.square(2)
        tm = translation_matrix(geo, geo.L1 / 2, level=1)
        assert tm.unitarity_defect < 1e-10
        assert tm.max_projection_defect < 1e-10

    def test_defect_dichotomy_exhaustive_n2(self):
        geo = TorusGeometry.square(2)
        for n1 in range(2):
            for n2 in range(2):
                lat = (n1 * geo.L1 + 1j * n2 * geo.L2) / 2
                tm = translation_matrix(geo, lat)
                assert tm.max_projection_defect < 1e-10
        for m1 in range(4):
            for m2 in range(4):
                if m1 % 2 == 0 and m2 % 2 == 0:
                    continue
                mid = (m1 * geo.L1 + 1j * m2 * geo.L2) / 4
                tm = translation_matrix(geo, mid)
                assert float(np.min(tm.projection_defects)) > 1e-4


class TestGroupAlgebra:
    def test_commutator_phase_values(self, geo3):
        a, b = geo3.L1 / 3, 1j * geo3.L2 / 3
        assert commutator_phase(a, b) == pytest.approx(np.exp(2j * np.pi / 3),
                                                       abs=1e-13)
        assert commutator_phase(a, 0.0) == pytest.approx(1.0)

    def test_commutator_matrix_check(self, geo3):
        phase, resid = commutator_matrix_residual(geo3, geo3.L1 / 3,
                                                  1j * geo3.L2 / 3)
        assert phase == pytest.approx(np.exp(2j * np.pi / 3), abs=1e-13)
        assert resid < 1e-9

    def test_lattice_subgroup_closure(self, geo3):
        # T_a T_b = exp((conj(a) b - a conj(b))/2) T_{a+b}
        a, b = geo3.L1 / 3, 1j * geo3.L2 / 3
        ta = translation_matrix(geo3, a).entries
        tb = translation_matrix(geo3, b).entries
        tab = translation_matrix(geo3, a + b).entries
        phase = np.exp((np.conj(a) * b - a * np.conj(b)) / 2)
        assert np.max(np.abs(tb @ ta - phase * tab)) < 1e-9


class TestBundleShift:
    def test_lattice_trivial_for_all_periods(self, geo3):
        a = (2 * geo3.L1 + 1j * geo3.L2) / 3
        for ell in (geo3.L1, 1j * geo3.L2, geo3.L1 + 1j * geo3.L2,
                    -2 * geo3.L1 + 3j * geo3.L2):
            assert bundle_shift_phase(a, ell, geo3) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_half_lattice_flips_sign(self, n):
        geo = TorusGeometry.square(n)
        phase = bundle_shift_phase(geo.L1 / (2 * n), 1j * geo.L2, geo)
        assert phase == pytest.approx(-1.0, abs=1e-12)
        assert abs(phase - 1.0) > 0.1

    def test_zero_displacement(self, geo3):
        assert bundle_shift_phase(0.0, geo3.L1, geo3) == 1.0

    def test_not_a_period(self, geo3):
        with pytest.raises(NotAPeriod):
            bundle_shift_phase(0.1, 0.5 * geo3.L1, geo3)


class TestWintner:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_lattice_consistent(self, n):
        geo = TorusGeometry.square(n)
        result = wintner_check(n, geo.L1 / n, 1j * geo.L2 / n)
        assert result.consistent and abs(result.phase - 1) < 1e-12

    @pytest.mark.parametrize("n", range(1, 11))
    def test_half_lattice_witness(self, n):
        geo = TorusGeometry.square(n)
        result = wintner_check(n, geo.L1 / (2 * n), 1j * geo.L2 / n)
        assert not result.consistent
        assert result.phase == pytest.approx(-1.0, abs=1e-12)

    def test_equal_displacements_consistent(self):
        result = wintner_check(4, 0.3 + 0.7j, 0.3 + 0.7j)
        assert result.consistent


class TestHamiltonianCommutation:
    def test_commutes_for_generic_displacement(self, geo3, basis3):
        s = raise_section(ground_section(basis3[1]))
        resid = hamiltonian_commutation_residual(geo3, 0.37 + 0.21j, s)
        assert resid < 1e-8

    def test_commutes_for_lattice_displacement(self, geo3, basis3):
        s = raise_section(ground_section(basis3[0]))
        a = (geo3.L1 + 1j * geo3.L2) / 3
        assert hamiltonian_commutation_residual(geo3, a, s) < 1e-8

    def test_ground_section_trivial(self, geo3, basis3):
        # H annihilates the ground level; both sides must be ~0 relative to
        # the section scale
        s = ground_section(basis3[0])
        resid = hamiltonian_commutation_residual(geo3, 0.5 + 0.1j, s)
        assert resid < 1e-6   # absolute residual of two near-zero fields


class TestCrossModuleConsistency:
    def test_density_invariance_matches_defect(self):
        # defect < tol at lattice shifts <=> density shift-invariant there;
        # defect > tol at midpoints <=> density visibly moves
        geo = TorusGeometry.square(2)
        nx = 64
        rho = density_map(geo, 0, nx, nx).rho.values
        lat_shift = np.roll(rho, nx // 2, axis=1)          # a = L1/2
        assert np.max(np.abs(lat_shift - rho)) < 1e-10
        tm = translation_matrix(geo, geo.L1 / 2)
        assert tm.max_projection_defect < 1e-10
        half_shift = np.roll(rho, nx // 4, axis=1)          # a = L1/4
        move = np.max(np.abs(half_shift - rho))
        tm_half = translation_matrix(geo, geo.L1 / 4)
        assert float(np.min(tm_half.projection_defects)) > 1e-4
        assert move > 1e-4

    def test_report_round_trips_through_json(self, geo3):
        import json
        report = translation_report(geo3, geo3.L1 / 3)
        text = json.dumps(report, sort_keys=True)
        back = json.loads(text)
        assert back["lattice"] is True
        assert back["lattice_indices"] == [1, 0]
        assert back["unitarity_defect"] < 1e-10
        assert back["phases"]["wintner_consistent"] is True

    def test_report_flags_half_lattice(self, geo3):
        report = translation_report(geo3, geo3.L1 / 6)
        assert report["lattice"] is False
        assert report["projection_defect"] > 1e-3
        assert not report["phases"]["wintner_consistent"]


class TestOffSquareTorus:
    @pytest.mark.parametrize("level", [0, 1])
    @pytest.mark.parametrize("ratio", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_level_quadrature_and_lattice_translation(self, n, ratio, level):
        # the half-lattice lower bound is not asserted here: on a long thin
        # torus the states are near plane waves along the short side, and the
        # smallest half-lattice defect falls to ~1e-9 at N = 6, ratio 1/4
        geo = TorusGeometry.with_aspect(n, ratio)
        g = gram_matrix(level_basis(geo, level))
        assert np.max(np.abs(g - np.eye(n))) < tolerances.get("gram_identity_abs")
        tm = translation_matrix(geo, (geo.L1 + 1j * geo.L2) / n, level)
        assert tm.unitarity_defect < tolerances.get("unitarity_abs")
        assert tm.max_projection_defect < tolerances.get("projection_defect_lattice")
        dm = density_map(geo, level)
        assert abs(dm.mean * geo.area - n) < tolerances.get("density_mean_abs") * n


class TestSamplingOnce:
    """Each level section is sampled on the grid once per (psi, order)."""

    @pytest.mark.parametrize("call, most", [
        (lambda g: density_map(g, 0), 3),
        (lambda g: density_map(g, 1), 6),
        (lambda g: translation_matrix(g, g.L1 / 3), 6),
        (lambda g: translation_matrix(g, g.L1 / 6, level=1), 12),
        (lambda g: commutator_matrix_residual(g, g.L1 / 3, 1j * g.L2 / 3), 15),
    ], ids=["density_L0", "density_L1", "lattice_L0", "half_lattice_L1",
            "commutator_L0"])
    def test_grid_evaluations_at_n3(self, monkeypatch, geo3, call, most):
        calls = []
        grid = lll_basis._fourier_grid

        def counted(*args, **kwargs):
            calls.append(1)
            return grid(*args, **kwargs)

        monkeypatch.setattr(lll_basis, "_fourier_grid", counted)
        call(geo3)
        assert 0 < len(calls) <= most
