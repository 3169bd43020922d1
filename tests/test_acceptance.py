"""Acceptance suite: one test per criterion, at full stated scope.

Each test prints a PASS/FAIL line with the measured numbers (visible with
pytest -s, or in the captured output on failure) and asserts the criterion
at its tolerance from the central table.
"""

import json
import math

import numpy as np
import pytest

from toruslandau import levels, lll_basis, tolerances, verify
from toruslandau.geometry import TorusGeometry, _flux_ratio
from toruslandau.levels import (Quadrature, ground_section, raise_section,
                                rayleigh_quotient)
from toruslandau.lll_basis import normalized_basis
from toruslandau.translations import translation_matrix


def report(result):
    print(str(result))
    assert result.passed, result.detail


def test_criterion_01_flux_quantization_gate():
    # exact (sqrt(N pi r), sqrt(N pi / r)) accepted for N<=10, r in {1/2,1,2};
    # relative perturbations of 1e-6 rejected
    report(verify.check_flux_gate(n_max=10))


def test_criterion_01_feeds_ratios_on_both_sides_of_n():
    # each exact torus has L1 L2/pi == N in double, where a gate that rounds
    # down or up still answers N; its nudged sides put the ratio the gate
    # sees strictly below and strictly above N
    for n in range(1, 11):
        for r in (0.5, 1.0, 2.0):
            L1 = math.sqrt(n * math.pi * r)
            below, above = verify._straddling_sides(L1, n * math.pi / L1, n)
            assert _flux_ratio(L1, below) < n < _flux_ratio(L1, above)


def test_criterion_02_ground_state_dimension():
    # exactly N sections per N<=10, Gram = identity within 1e-10
    report(verify.check_ground_dimension(n_max=10))


def test_criterion_03_poisson_duality():
    # Fourier vs Gaussian representations at 1000 random points per (N, nu),
    # N<=10, within 1e-12 of the sample scale
    assert verify._DUALITY_POINTS == 1000
    report(verify.check_poisson_duality(n_max=10))


def test_criterion_04_boundary_conditions():
    # twisted-periodicity residuals < 1e-12 relative on a 32x32 grid, and the
    # double-shift consistency with its (-1)^N factor
    assert verify._BOUNDARY_GRID == 32
    report(verify.check_boundary(n_max=10))


def test_criterion_05_symmetry_breaking_structure():
    # deviation maps for N = 1, 3, 6, 10 at levels 0 and 1: extrema on the
    # (n1 L1 + i n2 L2)/N lattice, Z_N x Z_N invariance to 1e-10, and d(N)
    # strictly decreasing with a log-linear fit residual < 10%
    assert verify._DENSITY_LEVELS == (0, 1)
    assert verify._FIGURE_NS == (1, 3, 6, 10)
    report(verify.check_symmetry_breaking(n_max=10))


def test_criterion_06_translation_algebra():
    # N<=6: lattice matrices unitary with defect < 1e-10, T_{L1/N} and
    # T_{iL2/N} the Z_N clock and shift within 1e-10, four-factor commutator
    # equals exp(2 pi i/N) I within 1e-9, half-lattice projection defects > 1e-4
    result = verify.check_translation_algebra(n_max=6)
    report(result)
    assert 0 < result.data["clock_shift_error"] < tolerances.get("projection_defect_lattice")


def test_criterion_07_wintner_obstruction():
    # exp(2 i N Im(conj(a) b)) = 1 on the lattice and > 0.1 away from 1 for
    # the half-lattice witness, N<=10
    report(verify.check_wintner(n_max=10))


def test_criterion_08_energy_ladder():
    # Rayleigh quotient 0 within 1e-12 on level 0, 2 within 1e-8 on level 1;
    # finite-difference |H f - E f| / |f| below 1e-8 on both levels
    # translated by the half-lattice midpoint (L1 + i L2)/(2N)
    report(verify.check_energy_ladder(n_max=6))


def test_criterion_09_mesh_flux_theorem():
    # per-triangle identity on 2*4^2, 2*8^2, 2*16^2 meshes; sum of cocycle
    # constants = flux within 1e-9; Weil verdicts for flux 2pi, 6pi, 3pi
    assert verify._MESH_SIZES == (4, 8, 16)
    assert verify._MESH_FLUX_QUANTA == (1.0, 3.0, 1.5)
    report(verify.check_cocycle_theorem())


def test_criterion_10_quadrature_convergence():
    # every Gram entry changes by < 1e-12 when the default grid doubles, N<=10
    report(verify.check_quadrature_convergence(n_max=10))


@pytest.mark.parametrize("n_max", [2])
def test_fault_injection_is_detected(n_max):
    # flipping the sign of the x boundary factor must break criterion 4
    from toruslandau.lll_basis import BoundaryPhases
    import math
    result = verify.check_boundary(n_max=n_max,
                                   fault_phases=BoundaryPhases(math.pi, 0.0))
    print(str(result))
    assert not result.passed


@pytest.mark.filterwarnings("error")
def test_all_criteria_pass_at_n_max_1():
    # a single N gives no d(N) fit: criterion 5 skips it, says so, and still
    # runs its density checks
    results = verify.run_acceptance(n_max=1)
    for result in results:
        report(result)
    assert len(results) == 10
    assert "d(N) fit skipped" in results[4].detail
    assert results[4].data["fits"] == {} and len(results[4].data["d"][0]) == 1


def test_results_are_json_serializable():
    # plain bool verdicts and plain numbers in data, so that a report can
    # be written with the standard json module
    for result in verify.run_acceptance(n_max=2):
        assert type(result.passed) is bool, result.name
        json.dumps({"passed": result.passed, "data": result.data})


def test_criterion_06_half_lattice_defects_match_per_call():
    # the shared level sampling gives exactly the defects of one
    # translation_matrix call per displacement
    defects = verify.check_translation_algebra(n_max=3).data["half_lattice_defects"]
    for n in (1, 2, 3):
        geo = TorusGeometry.square(n)
        assert defects[n] == [
            float(np.min(translation_matrix(geo, a).projection_defects))
            for a in (geo.L1 / (2 * n), 1j * geo.L2 / (2 * n),
                      (geo.L1 + 1j * geo.L2) / (2 * n))]


def count_grid_passes(monkeypatch):
    """Record the grid shape of each _fourier_grid pass."""
    shapes = []
    grid = lll_basis._fourier_grid

    def counted(psis, z, order):
        shapes.append(z.shape)
        return grid(psis, z, order)

    monkeypatch.setattr(lll_basis, "_fourier_grid", counted)
    return shapes


def test_criterion_06_samples_each_level_once(monkeypatch):
    # one translation_matrices call per N: one pass for the level at each N;
    # the default grid holds all eight displacements as nodes (the lattice
    # point, three midpoints and the commutator's four), so none adds a pass
    shapes = count_grid_passes(monkeypatch)
    assert verify.check_translation_algebra(n_max=4).passed
    assert len(shapes) == 4


def test_run_acceptance_grid_passes(monkeypatch):
    # per N <= 4: criterion 2 one pass (level 0 on the default grid), 3
    # none, 4 three (the boundary grid and its two shifts), 5 one (level
    # 1's order-1 stack; its order-0 stack and level 0 are criterion 2's),
    # 6 none (level 0 is kept), 8 four (two on each probe grid; its
    # Rayleigh quotients read the kept order-0 and order-1 stacks) and 10
    # one (the doubled grid; the default grid's Gram reads criterion 2's
    # stack); no pass normalizes a basis
    shapes = count_grid_passes(monkeypatch)
    assert all(r.passed for r in verify.run_acceptance(n_max=4))
    assert len(shapes) == 40


def test_run_acceptance_keeps_nothing_across_runs(monkeypatch):
    # the store lives for one run: a second run samples everything again,
    # and a check called on its own afterwards samples its level per N
    shapes = count_grid_passes(monkeypatch)
    verify.run_acceptance(n_max=4)
    shapes.clear()
    verify.run_acceptance(n_max=4)
    assert len(shapes) == 40
    shapes.clear()
    assert verify.check_translation_algebra(n_max=4).passed
    assert len(shapes) == 4


def test_run_acceptance_without_budget_keeps_nothing(monkeypatch):
    # with no bytes to keep, every criterion samples for itself, as
    # before the store: 16 passes per N
    monkeypatch.setattr(levels, "_STACK_BUDGET", 0)
    shapes = count_grid_passes(monkeypatch)
    verify.run_acceptance(n_max=4)
    assert len(shapes) == 64


def test_kept_stacks_are_read_only():
    geo = TorusGeometry.square(3)
    basis = normalized_basis(geo)
    assert Quadrature(geo).sample(basis).flags.writeable   # no block open
    with levels._sharing_stacks():
        kept = Quadrature(geo).sample(basis)
        assert Quadrature(geo).sample(basis) is kept
        with pytest.raises(ValueError, match="read-only"):
            kept[0, 0, 0] = 0
        # a grid other than the default one is never kept
        assert Quadrature(geo, 2 * kept.shape[-1]).sample(basis).flags.writeable
        assert len(levels._STACKS.get()) == 1
    assert levels._STACKS.get() is None


def test_store_stops_at_its_budget(monkeypatch):
    # criterion 5 at N <= 3 samples 0.8 MiB of default-grid stacks; the
    # store keeps what fits in half of that
    budget = 400 * 2**10
    monkeypatch.setattr(levels, "_STACK_BUDGET", budget)
    with levels._sharing_stacks():
        verify.check_symmetry_breaking(n_max=3)
        kept = levels._STACKS.get().values()
        assert kept and sum(s.nbytes for s in kept) <= budget


def test_run_acceptance_matches_each_check_on_its_own():
    # the shared stacks change no field of any result
    solo = [verify.check_flux_gate(3), verify.check_ground_dimension(3),
            verify.check_poisson_duality(3), verify.check_boundary(3),
            verify.check_symmetry_breaking(3), verify.check_translation_algebra(3),
            verify.check_wintner(3), verify.check_energy_ladder(3),
            verify.check_cocycle_theorem(), verify.check_quadrature_convergence(3)]
    assert list(map(repr, verify.run_acceptance(n_max=3))) == list(map(repr, solo))


def test_n_caps_and_detail_ranges():
    # every N-ranged criterion names the N range it ran
    assert (verify._N_CAP, verify._N_CAP_TRANSLATED) == (10, 6)
    results = verify.run_acceptance(n_max=2)
    for i, result in enumerate(results, 1):
        if i != 9:   # criterion 9 runs on meshes, not tori
            assert "N<=2" in result.detail or "N=1..2" in result.detail, i


@pytest.mark.parametrize("n_max", [0, -1])
def test_run_acceptance_rejects_empty_range(n_max):
    with pytest.raises(ValueError, match="n_max must be at least 1"):
        verify.run_acceptance(n_max=n_max)


@pytest.mark.parametrize("never_met", [False, True])
def test_criterion_08_verdict_matches_per_call(monkeypatch, never_met):
    # one section at a time, the values the criterion takes from its
    # batches; with every bound unmeetable, each measured value is in the
    # detail
    if never_met:
        for key in ("energy_level1_abs", "eigen_residual_rel"):
            monkeypatch.setitem(tolerances.TOLERANCES, key, (-1.0, "never met"))
    problems = []
    for n in (1, 2, 3):
        geo = TorusGeometry.square(n)
        a = (geo.L1 + 1j * geo.L2) / (2 * n)
        for psi in normalized_basis(geo):
            s0 = ground_section(psi)
            s1 = raise_section(s0)
            rq1 = rayleigh_quotient(s1)
            if abs(rq1 - 2.0) > tolerances.get("energy_level1_abs"):
                problems.append(f"N={n} nu={psi.nu}: level-1 RQ {rq1}")
            for level, s, energy in ((0, s0, 0.0), (1, s1, 2.0)):
                [r] = verify._eigen_residuals(a, [s], [energy])
                if r > tolerances.get("eigen_residual_rel"):
                    problems.append(f"N={n} nu={psi.nu}: level-{level} eigen residual {r:.1e}")
    result = verify.check_energy_ladder(n_max=3)
    assert result.passed == (not problems) == (not never_met)
    if never_met:
        assert result.detail == "; ".join(problems)


def test_criterion_08_worst_eigen_residual():
    # the stencil and rounding error of the finite-difference H stays
    # decades under eigen_residual_rel on both levels, N <= 6
    worst = 0.0
    for n in range(1, 7):
        geo = TorusGeometry.square(n)
        s0s = [ground_section(psi) for psi in normalized_basis(geo)]
        s1s = [raise_section(s0) for s0 in s0s]
        worst = max(worst, float(np.max(verify._eigen_residuals(
            (geo.L1 + 1j * geo.L2) / (2 * n), s0s + s1s, [0.0] * n + [2.0] * n))))
    assert verify._LADDER_PROBE == (8, (0.37, 0.21))
    assert worst <= 1e-9


def test_criterion_08_grid_passes(monkeypatch):
    # per N: two Rayleigh-quotient passes on the quadrature grid (the basis
    # is normalized by its closed-form constant, with no pass), then two
    # passes (orders 1 and 0) on each widened probe grid, 8 rows of 7 x 8
    # columns and 7 x 8 rows of 8 columns
    shapes = count_grid_passes(monkeypatch)
    assert verify.check_energy_ladder(n_max=3).passed
    quad = [(nx, nx) for nx in (64, 64, 66)]
    assert shapes == [grid for nx in quad
                      for grid in [nx] * 2 + [(8, 56)] * 2 + [(56, 8)] * 2]


def test_criterion_08_detects_an_evaluation_fault(monkeypatch):
    # a relative error of 1e-6 cos(2 pi x/L1) in every grid sample is smooth
    # and periodic, but it is not a Landau-level eigenfunction: the
    # finite-difference H sees it
    grid = lll_basis._fourier_grid

    def faulty(psis, z, order):
        out = grid(psis, z, order)
        return out * (1 + 1e-6 * np.cos(2 * np.pi * z.real / psis[0].geometry.L1))

    monkeypatch.setattr(lll_basis, "_fourier_grid", faulty)
    result = verify.check_energy_ladder(n_max=3)
    print(str(result))
    assert not result.passed
    assert "eigen residual" in result.detail
