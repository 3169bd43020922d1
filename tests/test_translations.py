import math
import tracemalloc

import numpy as np
import pytest

from toruslandau import lll_basis, tolerances, translations, verify
from toruslandau.errors import GeometryMismatch, NotAPeriod
from toruslandau.geometry import TorusGeometry
from toruslandau.levels import (Quadrature, _sampled_level, default_resolution,
                                density_map, gram_matrix, ground_section,
                                level_basis, periodic_grid, raise_section)
from toruslandau.lll_basis import eval_fourier, normalized_basis
from toruslandau.translations import (bundle_shift_phase,
                                      commutator_matrix_residual,
                                      commutator_phase,
                                      lattice_indices,
                                      reduce_to_fundamental,
                                      translate_section, translate_sections,
                                      translation_matrices, translation_matrix,
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
            translation_matrix(geo3, a, side=8)
        with pytest.raises(ValueError, match="finite"):
            translation_report(geo3, a, side=8)


class TestLatticeClassification:
    def test_lattice_points(self, geo3):
        assert lattice_indices((geo3.L1 + 1j * geo3.L2) / 3, geo3) == (1, 1)
        assert lattice_indices(2 * geo3.L1 / 3, geo3) == (2, 0)
        assert lattice_indices(0.0, geo3) == (0, 0)

    def test_off_lattice(self, geo3):
        assert lattice_indices(geo3.L1 / 6, geo3) is None
        assert lattice_indices(0.1 + 0.2j, geo3) is None

    def test_translation_type(self, geo3):
        assert lattice_indices((geo3.L1 + 1j * geo3.L2) / 3, geo3) is not None
        with pytest.raises(ValueError):
            lattice_indices(complex("nan"), geo3)


class TestTranslationMatrix:
    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_lattice_unitary_and_projects(self, n):
        geo = TorusGeometry.square(n)
        tm = translation_matrix(geo, (geo.L1 + 1j * geo.L2) / n)
        assert lattice_indices(tm.a, geo) is not None
        assert tm.unitarity_defect < 1e-10
        assert tm.max_projection_defect < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_half_lattice_leaks(self, n):
        geo = TorusGeometry.square(n)
        tm = translation_matrix(geo, geo.L1 / (2 * n))
        assert lattice_indices(tm.a, geo) is None
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
        a, b = geo3.L1 / 3, 1j * geo3.L2 / 3
        phase, resid = commutator_matrix_residual(
            *translation_matrices(geo3, [a, b, -a, -b]))
        assert phase == pytest.approx(np.exp(2j * np.pi / 3), abs=1e-13)
        assert resid < 1e-9

    def test_commutator_needs_the_inverse_displacements(self, geo3):
        a, b = geo3.L1 / 3, 1j * geo3.L2 / 3
        t_a, t_b, t_ma, t_mb = translation_matrices(geo3, [a, b, -a, -b])
        for wrong in ((t_a, t_b, t_mb, t_ma), (t_a, t_b, t_a, t_mb),
                      (t_a, t_b, t_ma, t_b)):
            with pytest.raises(ValueError, match="T_-a"):
                commutator_matrix_residual(*wrong)
        level_one = translation_matrix(geo3, -b, level=1)
        with pytest.raises(ValueError, match="one level"):
            commutator_matrix_residual(t_a, t_b, t_ma, level_one)

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
    """H T_a s = E T_a s for any a, measured as criterion 8 measures it."""

    def test_commutes_for_generic_displacement(self, basis3):
        s = raise_section(ground_section(basis3[1]))
        resid = verify._eigen_residuals(0.37 + 0.21j, [s, s], [2.0, 0.0])
        assert resid[0] < tolerances.get("eigen_residual_rel")
        # the wrong energy is seen: |H f| / |f| = 2 on level 1
        assert resid[1] == pytest.approx(2.0, rel=1e-8)

    def test_commutes_for_lattice_displacement(self, geo3, basis3):
        s = raise_section(ground_section(basis3[0]))
        a = (geo3.L1 + 1j * geo3.L2) / 3
        [resid] = verify._eigen_residuals(a, [s], [2.0])
        assert resid < tolerances.get("eigen_residual_rel")

    def test_ground_section_trivial(self, basis3):
        # H annihilates the ground level, translated or not
        s = ground_section(basis3[0])
        [resid] = verify._eigen_residuals(0.5 + 0.1j, [s], [0.0])
        assert resid < tolerances.get("eigen_residual_rel")


class TestCrossModuleConsistency:
    def test_density_invariance_matches_defect(self):
        # defect < tol at lattice shifts <=> density shift-invariant there;
        # defect > tol at midpoints <=> density visibly moves
        geo = TorusGeometry.square(2)
        side = 64
        rho = density_map(geo, 0, side).rho.values
        lat_shift = np.roll(rho, side // 2, axis=1)          # a = L1/2
        assert np.max(np.abs(lat_shift - rho)) < 1e-10
        tm = translation_matrix(geo, geo.L1 / 2)
        assert tm.max_projection_defect < 1e-10
        half_shift = np.roll(rho, side // 4, axis=1)          # a = L1/4
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
    @pytest.mark.parametrize("ratio", [0.125, 0.25, 1.0, 4.0, 8.0])
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
    """A level is one grid pass per derivative order, and on the grid lattice
    a translation adds none; elsewhere a translation adds one pass per order
    for each chunk of the level, and at N = 3 the whole level is one chunk."""

    @pytest.mark.parametrize("call, count", [
        (lambda g: density_map(g, 0), 1),
        (lambda g: density_map(g, 1), 2),
        (lambda g: translation_matrix(g, g.L1 / 3, side=64), 1 + 1),
        (lambda g: translation_matrix(g, g.L1 / 6, level=1, side=64), 2 + 2),
        (lambda g: commutator_matrix_residual(*translation_matrices(
            g, [g.L1 / 3, 1j * g.L2 / 3, -g.L1 / 3, -1j * g.L2 / 3], side=64)), 1 + 4),
        (lambda g: translation_matrix(g, g.L1 / 3, side=48), 1),
        (lambda g: translation_matrix(g, g.L1 / 6, level=1, side=48), 2),
        (lambda g: commutator_matrix_residual(*translation_matrices(
            g, [g.L1 / 3, 1j * g.L2 / 3, -g.L1 / 3, -1j * g.L2 / 3], side=48)), 1),
        (lambda g: translation_matrix(g, g.L1 / 6, level=1), 2),
        (lambda g: normalized_basis(g), 0),
    ], ids=["density_L0", "density_L1", "lattice_L0", "half_lattice_L1",
            "commutator_L0", "rolled_lattice_L0", "rolled_half_lattice_L1",
            "rolled_commutator_L0", "default_grid_half_lattice_L1",
            "normalized_basis"])
    def test_grid_evaluations_at_n3(self, monkeypatch, geo3, call, count):
        # a 64-wide grid at N = 3 has a = L1/3 off its lattice; the default
        # grid (66 wide) and the 48-wide grid have it on theirs
        calls = []
        grid = lll_basis._fourier_grid

        def counted(*args, **kwargs):
            calls.append(1)
            return grid(*args, **kwargs)

        monkeypatch.setattr(lll_basis, "_fourier_grid", counted)
        call(geo3)
        assert len(calls) == count

    @pytest.mark.parametrize("n, ratio, grid", [(3, 1.0, None), (6, 0.25, None),
                                                (5, 4.0, 48), (12, 1.0, None)])
    def test_stacked_norms_match_normalize(self, n, ratio, grid):
        # normalized_basis and normalize set the one closed-form constant;
        # on another grid the norms hold to quadrature accuracy
        geo = TorusGeometry.with_aspect(n, ratio)
        stacked = normalized_basis(geo)
        one_by_one = [lll_basis.normalize(psi) for psi in lll_basis.ground_basis(geo)]
        assert [psi.norm_const for psi in stacked] == [psi.norm_const for psi in one_by_one]
        if grid:
            g = gram_matrix(stacked, grid)
            assert np.max(np.abs(np.diag(g) - 1)) < tolerances.get("gram_identity_abs")

    def test_report_builds_one_quadrature(self, monkeypatch, geo3):
        # the report's grid is the one its translation matrix integrates on
        built = []
        init = Quadrature.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Quadrature, "__init__", counted)
        report = translation_report(geo3, geo3.L1 / 3, side=48)
        assert len(built) == 1
        assert report["grid"] == [48, 48]


class TestBatches:
    """The batch entry points give exactly the one-element values."""

    @pytest.mark.parametrize("level", [0, 1])
    @pytest.mark.parametrize("n", [3, 6])
    def test_translation_matrices_equal_one_by_one(self, n, level):
        # on-grid and off-grid displacements of the default grid (66 wide at
        # N = 3, 96 wide at N = 6; 0.37 + 0.21j is off both)
        geo = TorusGeometry.square(n)
        nodes = default_resolution(geo)
        displacements = [geo.L1 / 3, 8 * geo.L1 / nodes + 1j * geo.L2 / 2,
                         0.37 + 0.21j, (geo.L1 + 1j * geo.L2) / (2 * n),
                         -geo.L1 / n]
        kinds = [translations._lattice_steps(a, geo, nodes) is None
                 for a in displacements]
        assert any(kinds) and not all(kinds)
        batch = translation_matrices(geo, displacements, level)
        for a, tm in zip(displacements, batch):
            one = translation_matrix(geo, a, level)
            assert tm.a == one.a and tm.level == one.level == level
            assert np.array_equal(tm.entries, one.entries)
            assert np.array_equal(tm.projection_defects, one.projection_defects)

    @pytest.mark.parametrize("level", [0, 1])
    def test_translate_sections_equal_stack(self, geo3, level):
        sections = level_basis(geo3, level)
        rng = np.random.default_rng(4)
        scattered = rng.random(50) * 3 * geo3.L1 - 1j * rng.random(50) * geo3.L2
        for z in (Quadrature(geo3).z, scattered):
            for a in (geo3.L1 / 3, 0.37 + 0.21j):
                batch = translate_sections(a, sections, z)
                assert batch.shape == (geo3.N,) + z.shape
                assert np.array_equal(
                    batch, np.stack([translate_section(a, s, z) for s in sections]))

    def test_chunks_cover_a_large_level(self, monkeypatch):
        # 192^2 points per section at N = 12: two sections fill a chunk
        geo = TorusGeometry.square(12)
        quad = Quadrature(geo)
        basis, vals = _sampled_level(quad, 0)
        calls = count_translations(monkeypatch)
        tm = translations._project(quad, geo.L1 / 5, 0, basis, vals)
        assert calls == [2] * 6
        entries, defects = reference_projection(quad, geo.L1 / 5, basis, vals)
        assert np.max(np.abs(tm.entries - entries)) <= 1e-13
        assert np.max(np.abs(tm.projection_defects - defects)) <= 1e-13

    def test_translate_sections_geometry_mismatch(self, geo3):
        mixed = [level_basis(geo3, 0)[0], level_basis(TorusGeometry.square(2), 0)[0]]
        with pytest.raises(GeometryMismatch):
            translate_sections(0.1, mixed, Quadrature(geo3).z)


def reference_projection(quad, a, basis, vals):
    """The projection one section at a time, every T_a s_nu from translate_section."""
    n = len(basis)
    entries = np.zeros((n, n), dtype=complex)
    defects = np.zeros(n)
    for nu in range(n):
        shifted = translate_section(a, basis[nu], quad.z)[None]
        entries[nu] = quad.gram(vals, shifted)[:, 0]
        defects[nu] = quad.norms(shifted - np.tensordot(entries[nu], vals, axes=1))[0]
    return entries, defects


def count_translations(monkeypatch):
    """Record the number of sections of each translate_sections call."""
    chunks = []
    original = translations.translate_sections

    def counted(a, sections, z):
        chunks.append(len(sections))
        return original(a, sections, z)

    monkeypatch.setattr(translations, "translate_sections", counted)
    return chunks


class TestRolledProjection:
    """On the grid lattice T_a is an index roll of the held samples."""

    @pytest.mark.parametrize("kind", ["lattice", "half"])
    @pytest.mark.parametrize("ratio", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("n", [1, 6, 12, 30])
    def test_roll_matches_translate_section(self, monkeypatch, n, ratio, kind):
        geo = TorusGeometry.with_aspect(n, ratio)
        # N = 30 on a 4N grid: the two paths sum the same quadrature either way
        quad = Quadrature(geo, 4 * n) if n == 30 else Quadrature(geo)
        if kind == "lattice":
            a = (-2 * geo.L1 + 3j * geo.L2) / n
        else:
            a = (geo.L1 + 1j * geo.L2) / (2 * n)
        basis, vals = _sampled_level(quad, 0)
        calls = count_translations(monkeypatch)
        tm = translations._project(quad, a, 0, basis, vals)
        assert not calls
        entries, defects = reference_projection(quad, a, basis, vals)
        assert np.max(np.abs(tm.entries - entries)) <= 1e-13
        assert np.max(np.abs(tm.projection_defects - defects)) <= 1e-13
        if kind == "half":
            assert lattice_indices(a, geo) is None and tm.max_projection_defect > 1e-3

    def test_level_one_roll(self, monkeypatch):
        geo = TorusGeometry.with_aspect(4, 2.0)
        quad = Quadrature(geo)
        basis, vals = _sampled_level(quad, 1)
        for a in ((geo.L1 + 1j * geo.L2) / 4, geo.L1 / 8):
            calls = count_translations(monkeypatch)
            tm = translations._project(quad, a, 1, basis, vals)
            assert not calls
            entries, defects = reference_projection(quad, a, basis, vals)
            assert np.max(np.abs(tm.entries - entries)) <= 1e-13
            assert np.max(np.abs(tm.projection_defects - defects)) <= 1e-13

    @pytest.mark.parametrize("a", [0.37 + 0.21j, "lattice_off_grid"])
    def test_off_grid_uses_translate_section(self, monkeypatch, geo3, a):
        # L1/3 is a lattice point, but not a node of a 64-wide grid; the
        # 64^2 grid holds fewer than _BLOCK_POINTS points per section, so
        # the whole level is translated in one chunk
        a = geo3.L1 / 3 if a == "lattice_off_grid" else a
        quad = Quadrature(geo3, 64)
        basis, vals = _sampled_level(quad, 0)
        calls = count_translations(monkeypatch)
        tm = translations._project(quad, a, 0, basis, vals)
        assert calls == [geo3.N]
        entries, defects = reference_projection(quad, a, basis, vals)
        assert np.max(np.abs(tm.entries - entries)) <= 1e-13
        assert np.max(np.abs(tm.projection_defects - defects)) <= 1e-13

    def test_memory_bounded_at_n30(self):
        # the rolled stack is projected a block of nu at a time, with no
        # conjugated copy of the whole level
        geo = TorusGeometry.square(30)
        nx = default_resolution(geo)
        basis_bytes = geo.N * nx * nx * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            tm = translation_matrix(geo, geo.L1 / geo.N)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert nx == 480
        assert tm.max_projection_defect < tolerances.get("projection_defect_lattice")
        assert peak < 1.5 * basis_bytes
