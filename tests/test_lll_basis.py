import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruslandau import numdiff
from toruslandau.errors import IndexMismatch
from toruslandau.geometry import TorusGeometry
from toruslandau.levels import default_resolution, inner_product, periodic_grid
from toruslandau.lll_basis import (BoundaryPhases, _is_grid, boundary_factors,
                                   boundary_residual, double_shift_factors,
                                   eval_fourier, eval_gaussian, fourier_cutoff,
                                   ground_basis, normalize, normalized_basis,
                                   theta_basis, verify_recurrence)
from toruslandau.translations import reduce_to_fundamental

# Frozen reference: sum_n exp(-pi n^2), from the brute-force oracle below.
GAUSS_SUM = 1.0864348112133082


def brute_gaussian_sum(coeff, residue=0, modulus=1, tol=1e-18):
    """sum exp(-coeff * n^2) over n = residue (mod modulus), by partial sums."""
    total = 0.0
    n = residue
    while True:
        term = math.exp(-coeff * n * n)
        total += term
        if n != residue:
            total += math.exp(-coeff * (2 * residue - n) ** 2)
        if term < tol and n > residue:
            return total
        n += modulus


class TestFourierValues:
    def test_unit_flux_at_origin(self):
        geo = TorusGeometry.square(1)
        psi = theta_basis(geo, 0)
        oracle = brute_gaussian_sum(math.pi)
        assert oracle == pytest.approx(GAUSS_SUM, abs=1e-15)
        assert eval_fourier(psi, 0.0) == pytest.approx(GAUSS_SUM, rel=1e-13)

    def test_two_flux_odd_class_at_origin(self):
        # L1 = L2 = sqrt(2 pi): coefficients exp(-pi n^2/2) over odd n
        geo = TorusGeometry.square(2)
        psi = theta_basis(geo, 1)
        oracle = brute_gaussian_sum(math.pi / 2, residue=1, modulus=2)
        assert eval_fourier(psi, 0.0) == pytest.approx(oracle, rel=1e-13)
        # leading behaviour 2*exp(-pi/2)*cosh(0)
        assert oracle == pytest.approx(2 * math.exp(-math.pi / 2), rel=1e-4)

    def test_even_in_z_for_nu_zero(self):
        geo = TorusGeometry.square(1)
        psi = theta_basis(geo, 0)
        rng = np.random.default_rng(3)
        z = rng.random(20) * geo.L1 + 1j * rng.random(20) * geo.L2
        np.testing.assert_allclose(eval_fourier(psi, -z), eval_fourier(psi, z),
                                   rtol=1e-12)

    def test_index_reflection_parity(self):
        # psi_nu(-z) = psi_{N-nu}(z)
        geo = TorusGeometry.square(5)
        rng = np.random.default_rng(4)
        z = rng.random(10) * geo.L1 + 1j * rng.random(10) * geo.L2
        basis = ground_basis(geo)
        for nu in range(1, 5):
            lhs = eval_fourier(basis[nu], -z)
            rhs = eval_fourier(basis[5 - nu], z)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_scalar_and_shape_handling(self):
        geo = TorusGeometry.square(2)
        psi = theta_basis(geo, 0)
        assert isinstance(eval_fourier(psi, 0.1 + 0.2j), complex)
        grid = np.zeros((3, 4), dtype=complex)
        assert eval_fourier(psi, grid).shape == (3, 4)

    def test_nonfinite_rejected(self):
        psi = theta_basis(TorusGeometry.square(1), 0)
        with pytest.raises(ValueError):
            eval_fourier(psi, complex("inf"))

    def test_cutoff_tail_negligible(self):
        # widening the window beyond the rule must not move the value
        geo = TorusGeometry.square(3)
        psi = theta_basis(geo, 1)
        wide = type(psi)(geo, 1, psi.n_max * 2, psi.norm_const)
        z = np.array([0.1 + 1.9j, geo.L1 - 0.3 + 0.7j])
        a, b = eval_fourier(psi, z), eval_fourier(wide, z)
        assert np.max(np.abs(a - b)) <= 1e-15 * np.max(np.abs(a))

    def test_cutoff_rule_scales_with_domain(self):
        geo = TorusGeometry.square(2)
        assert fourier_cutoff(geo, 4 * geo.L2) > fourier_cutoff(geo, 2 * geo.L2)


class TestGaussianRepresentation:
    def test_matches_fourier_at_reference_point(self):
        geo = TorusGeometry.square(1)
        psi = theta_basis(geo, 0)
        f = eval_fourier(psi, 0.0)
        g = eval_gaussian(psi, 0.0)
        assert g == pytest.approx(f, rel=1e-12)

    def test_duality_at_random_points(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 5, 10):
            geo = TorusGeometry.square(n)
            z = rng.random(200) * geo.L1 + 1j * rng.random(200) * geo.L2
            for psi in ground_basis(geo):
                f = eval_fourier(psi, z)
                g = eval_gaussian(psi, z)
                scale = max(np.max(np.abs(f)), np.max(np.abs(g)))
                assert np.max(np.abs(f - g)) / scale < 1e-12

    def test_entire_at_large_imaginary_argument(self):
        psi = theta_basis(TorusGeometry.square(1), 0)
        value = eval_gaussian(psi, 10j)
        assert np.isfinite(value)
        assert eval_fourier(psi, 10j) == pytest.approx(value, rel=1e-11)

    def test_norm_const_scales_both_representations(self):
        geo = TorusGeometry.square(3)
        psi = theta_basis(geo, 2)
        scaled = type(psi)(geo, 2, psi.n_max, 2.5)
        z = 0.4 + 0.3j
        assert eval_fourier(scaled, z) == pytest.approx(2.5 * eval_fourier(psi, z))
        assert eval_gaussian(scaled, z) == pytest.approx(2.5 * eval_gaussian(psi, z))


class TestBoundaryConditions:
    def test_residuals_vanish_for_basis(self):
        geo = TorusGeometry.square(2)
        z = 0.3 + 0.4j
        for psi in ground_basis(geo):
            r1, r2 = boundary_residual(psi, z)
            scale = abs(psi(z + geo.L1))
            assert abs(r1) < 1e-12 * scale
            assert abs(r2) < 1e-12 * scale

    def test_flipped_phase_breaks_x_condition(self):
        geo = TorusGeometry.square(2)
        psi = theta_basis(geo, 0)
        z = 0.3 + 0.4j
        r1, r2 = boundary_residual(psi, z, BoundaryPhases(math.pi, 0.0))
        assert abs(r1) > 0.1 * abs(psi(z + geo.L1))   # deliberate failure
        assert abs(r2) < 1e-12 * abs(psi(z + 1j * geo.L2))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_double_shift_consistency(self, n):
        geo = TorusGeometry.square(n)
        z = 0.3 + 0.4j
        via_xy, via_yx, sym = double_shift_factors(geo, z)
        # both orders agree once L1 L2 = N pi
        assert abs(via_xy / via_yx - 1) < 1e-12
        # each order carries exp(-+ i L1 L2) = (-1)^N against the symmetric factor
        assert via_xy / sym == pytest.approx((-1.0) ** n, abs=1e-12)
        psi = theta_basis(geo, min(1, n - 1))
        lhs = psi(z + geo.L1 + 1j * geo.L2)
        rhs = psi(z) * via_xy
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_factors_match_direct_evaluation_on_grid(self):
        geo = TorusGeometry.square(4)
        xs = np.linspace(0, geo.L1, 8, endpoint=False)
        ys = np.linspace(0, geo.L2, 8, endpoint=False)
        z = xs[None, :] + 1j * ys[:, None]
        f1, f2 = boundary_factors(geo, z)
        for psi in ground_basis(geo):
            base = psi(z)
            lhs1, lhs2 = psi(z + geo.L1), psi(z + 1j * geo.L2)
            s1 = np.max(np.abs(lhs1))
            s2 = np.max(np.abs(lhs2))
            assert np.max(np.abs(lhs1 - base * f1)) < 1e-12 * s1
            assert np.max(np.abs(lhs2 - base * f2)) < 1e-12 * s2


class TestRecurrence:
    def test_unit_flux(self):
        assert verify_recurrence(TorusGeometry.square(1), 0, 3)

    def test_four_flux(self):
        assert verify_recurrence(TorusGeometry.square(4), 1, 5)

    def test_rectangular_torus(self):
        assert verify_recurrence(TorusGeometry.with_aspect(4, 2.0), 3, 11)

    def test_wrong_class_raises(self):
        with pytest.raises(IndexMismatch):
            verify_recurrence(TorusGeometry.square(4), 1, 6)


class TestNormalize:
    def test_idempotent(self):
        psi = normalize(theta_basis(TorusGeometry.square(2), 1))
        again = normalize(psi)
        assert again.norm_const == pytest.approx(psi.norm_const, rel=1e-12)

    def test_matches_finer_quadrature(self):
        geo = TorusGeometry.square(1)
        coarse = normalize(theta_basis(geo, 0))
        fine = normalize(theta_basis(geo, 0), nx=256, ny=256)  # 4x default
        assert coarse.norm_const == pytest.approx(fine.norm_const, rel=1e-12)

    def test_forgets_input_scale(self):
        geo = TorusGeometry.square(3)
        psi = theta_basis(geo, 2)
        scaled = type(psi)(geo, 2, psi.n_max, 7.0)
        assert normalize(scaled).norm_const == pytest.approx(
            normalize(psi).norm_const, rel=1e-12)

    def test_unit_norm_after(self):
        for psi in normalized_basis(TorusGeometry.square(2)):
            assert inner_product(psi, psi) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 3])
    def test_gaussian_tiling_closed_form(self, n):
        # e^{-2y^2} turns the x-integrated series into Gaussian strips that
        # tile the line exactly once: <psi|psi> = L1 sqrt(pi/2), any nu.
        geo = TorusGeometry.square(n)
        for psi in ground_basis(geo):
            ip = inner_product(psi, psi)
            assert ip == pytest.approx(geo.L1 * math.sqrt(math.pi / 2), rel=1e-12)


class TestDerivativesAndHolomorphy:
    def test_termwise_derivative_against_finite_differences(self):
        geo = TorusGeometry.square(3)
        psi = theta_basis(geo, 1)
        z = np.array([0.3 + 0.2j, 1.1 + 0.9j, 2.0 + 1.5j])
        dz_fd, _ = numdiff.wirtinger(lambda w: eval_fourier(psi, w), z)
        dz = eval_fourier(psi, z, order=1)
        assert np.max(np.abs(dz - dz_fd)) < 1e-9 * np.max(np.abs(dz))

    def test_second_derivative_consistency(self):
        geo = TorusGeometry.square(2)
        psi = theta_basis(geo, 0)
        z = np.array([0.4 + 0.3j, 1.0 + 1.2j])
        d2 = eval_fourier(psi, z, order=2)
        d1_fd, _ = numdiff.wirtinger(lambda w: eval_fourier(psi, w, 1), z)
        assert np.max(np.abs(d2 - d1_fd)) < 1e-8 * np.max(np.abs(d2))

    @pytest.mark.parametrize("n", [1, 4, 10])
    def test_holomorphy(self, n):
        geo = TorusGeometry.square(n)
        xs = (np.arange(12) + 0.3) * geo.L1 / 12
        ys = (np.arange(12) + 0.2) * geo.L2 / 12
        z = xs[None, :] + 1j * ys[:, None]
        for psi in normalized_basis(geo)[:3]:
            _, dbar = numdiff.wirtinger(lambda w: eval_fourier(psi, w), z)
            scale = np.max(np.abs(psi(z)))
            assert np.max(np.abs(dbar)) < 1e-8 * scale

    def test_gaussian_representation_derivative(self):
        geo = TorusGeometry.square(3)
        psi = theta_basis(geo, 2)
        z = np.array([0.5 + 0.4j, 1.7 + 1.1j])
        np.testing.assert_allclose(eval_gaussian(psi, z, 1),
                                   eval_fourier(psi, z, 1), rtol=1e-11)


class TestBoundaryPhases:
    def test_stored_mod_two_pi(self):
        p = BoundaryPhases(2 * math.pi + 0.5, -0.5)
        assert p.delta1 == pytest.approx(0.5)
        assert p.delta2 == pytest.approx(2 * math.pi - 0.5)

    def test_trivial(self):
        assert BoundaryPhases().is_trivial
        assert not BoundaryPhases(0.1, 0).is_trivial


class TestThetaBasisValidation:
    def test_nu_range(self):
        geo = TorusGeometry.square(3)
        with pytest.raises(ValueError):
            theta_basis(geo, 3)

    def test_basis_count(self):
        for n in (1, 4, 7):
            assert len(ground_basis(TorusGeometry.square(n))) == n


# The grid path against the pointwise path on the same points.  The bound is
# an order below the tightest value gate (1e-12) in the tolerance table.
GRID_BOUND = 1e-13


def weighted_rel_diff(z, got, ref):
    """max |e^{-|z|^2/2} (got - ref)| / max |e^{-|z|^2/2} ref|.

    The Gaussian weight makes a section's values O(1) all over the plane,
    so points far from the origin count as much as points near it.
    """
    w = np.exp(-np.abs(z) ** 2 / 2)
    return np.max(np.abs(w * (got - ref))) / np.max(np.abs(w * ref))


def grid_vs_pointwise(psi, z, order):
    assert _is_grid(z)
    got = eval_fourier(psi, z, order)
    ref = eval_fourier(psi, z.ravel(), order).reshape(z.shape)
    return weighted_rel_diff(z, got, ref)


def sample_classes(n):
    return sorted({0, n // 2, n - 1})


class TestGridPath:
    @pytest.mark.parametrize("n", [1, 6, 12, 30])
    @pytest.mark.parametrize("ratio", [0.25, 1.0, 4.0])
    def test_plain_grid(self, n, ratio):
        geo = TorusGeometry.with_aspect(n, ratio)
        z = periodic_grid(geo, 40, 36)
        for nu in sample_classes(n):
            for order in (0, 1, 2):
                assert grid_vs_pointwise(theta_basis(geo, nu), z, order) < GRID_BOUND

    # N = 30 is shifted on the square torus only: with aspect 4 or 1/4 the
    # shifted grids reach |z|^2/2 > 709, where e^{z^2/2} overflows a double.
    @pytest.mark.parametrize("n, ratio", [(1, 1.0), (6, 0.25), (6, 4.0), (12, 0.25),
                                          (12, 1.0), (12, 4.0), (30, 1.0)])
    @pytest.mark.parametrize("shift", ["L1", "iL2"])
    def test_grid_shifted_by_a_period(self, n, ratio, shift):
        geo = TorusGeometry.with_aspect(n, ratio)
        z = periodic_grid(geo, 40, 36) + (geo.L1 if shift == "L1" else 1j * geo.L2)
        for nu in sample_classes(n):
            for order in (0, 1, 2):
                assert grid_vs_pointwise(theta_basis(geo, nu), z, order) < GRID_BOUND

    @pytest.mark.parametrize("n", [1, 6, 12])
    @pytest.mark.parametrize("lattice", [True, False])
    def test_reduced_translation_grid(self, n, lattice):
        # z - a brought back into [0, L1) x [0, L2), as translate_section does
        geo = TorusGeometry.with_aspect(n, 2.0)
        if lattice:
            a = (geo.L1 + 2j * geo.L2) / n
        else:
            a = 0.37 * geo.L1 + 0.61j * geo.L2
        w0, _ = reduce_to_fundamental(geo, periodic_grid(geo, 40, 36) - a)
        for nu in sample_classes(n):
            for order in (0, 1, 2):
                assert grid_vs_pointwise(theta_basis(geo, nu), w0, order) < GRID_BOUND

    def test_normalization_carried(self):
        geo = TorusGeometry.square(6)
        psi = normalize(theta_basis(geo, 3))
        z = periodic_grid(geo, 24, 24)
        assert grid_vs_pointwise(psi, z, 0) < GRID_BOUND

    def test_other_inputs_stay_pointwise(self):
        geo = TorusGeometry.square(6)
        psi = theta_basis(geo, 2)
        z = periodic_grid(geo, 16, 12)
        rng = np.random.default_rng(5)
        jittered = z + 1e-3 * (rng.random(z.shape) + 1j * rng.random(z.shape))
        assert not _is_grid(jittered)
        assert not _is_grid(z.ravel())
        assert not _is_grid(z[None])
        for order in (0, 1, 2):
            got = eval_fourier(psi, jittered, order)
            ref = np.array([eval_fourier(psi, w, order) for w in jittered.ravel()])
            np.testing.assert_allclose(got.ravel(), ref, rtol=1e-15, atol=0)
            np.testing.assert_array_equal(
                eval_fourier(psi, z.ravel(), order),
                np.array([eval_fourier(psi, w, order) for w in z.ravel()]))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_separable_grids(self, data):
        n = data.draw(st.integers(1, 30), label="N")
        ratio = data.draw(st.floats(0.25, 4.0), label="L1/L2")
        geo = TorusGeometry.with_aspect(n, ratio)
        nu = data.draw(st.integers(0, n - 1), label="nu")
        order = data.draw(st.integers(0, 2), label="order")
        # The drawn coordinates are joined by 8 spread over each period, so
        # the grid never lies only next to zeros of the section, where the
        # relative difference would measure rounding noise against ~0.
        unit = st.lists(st.floats(-1.0, 1.5), min_size=1, max_size=10)
        spread = np.arange(8) / 8
        xs = np.concatenate([data.draw(unit, label="x / L1"), spread]) * geo.L1
        ys = np.concatenate([data.draw(unit, label="y / L2"), spread]) * geo.L2
        z = xs[None, :] + 1j * ys[:, None]
        assert grid_vs_pointwise(theta_basis(geo, nu), z, order) < GRID_BOUND

    def test_memory_bounded_at_large_n(self):
        geo = TorusGeometry.square(60)
        nx = default_resolution(geo)
        z = periodic_grid(geo, nx, nx)
        psi = theta_basis(geo, 30)
        tracemalloc.start()
        try:
            out = eval_fourier(psi, z)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (nx, nx) == (960, 960)
        assert np.all(np.isfinite(out))
        assert peak < 4 * out.nbytes
