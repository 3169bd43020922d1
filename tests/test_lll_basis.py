import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruslandau import lll_basis, numdiff, tolerances, verify
from toruslandau.errors import GeometryMismatch
from toruslandau.geometry import TorusGeometry
from toruslandau.levels import (Quadrature, default_resolution, gram_matrix,
                                ground_section, inner_product, periodic_grid,
                                raise_section)
from toruslandau.lll_basis import (BoundaryPhases, _is_grid,
                                   boundary_factors, boundary_residual,
                                   double_shift_factors, duality_residual,
                                   eval_fourier, eval_fourier_stack,
                                   eval_gaussian, fourier_cutoff, ground_basis,
                                   normalize, normalized_basis, theta_basis)
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
        # both series validate points the same way, with the same message
        psi = theta_basis(TorusGeometry.square(1), 0)
        for evaluate in (eval_fourier, eval_gaussian):
            for z in (complex("inf"), [0.1, complex("nan")]):
                with pytest.raises(ValueError, match="evaluation point must be finite"):
                    evaluate(psi, z)

    def test_cutoff_tail_negligible(self, monkeypatch):
        # widening the window beyond the rule must not move the value
        geo = TorusGeometry.square(3)
        psi = theta_basis(geo, 1)
        z = np.array([0.1 + 1.9j, geo.L1 - 0.3 + 0.7j])
        cutoff, a = fourier_cutoff(geo, 2 * geo.L2), eval_fourier(psi, z)
        monkeypatch.setattr(lll_basis, "_TAIL_MARGIN", 2 * lll_basis._TAIL_MARGIN)
        assert fourier_cutoff(geo, 2 * geo.L2) > cutoff
        b = eval_fourier(psi, z)
        assert np.max(np.abs(a - b)) <= 1e-15 * np.max(np.abs(a))

    def test_cutoff_rule_scales_with_domain(self):
        geo = TorusGeometry.square(2)
        assert fourier_cutoff(geo, 4 * geo.L2) > fourier_cutoff(geo, 2 * geo.L2)


class TestGaussianRepresentation:
    def test_duality_residual_is_max_over_larger_scale(self):
        geo = TorusGeometry.square(4)
        psi = normalize(theta_basis(geo, 3))
        rng = np.random.default_rng(5)
        z = rng.random(300) * geo.L1 + 1j * rng.random(300) * geo.L2
        f, g = eval_fourier(psi, z), eval_gaussian(psi, z)
        scale = max(np.max(np.abs(f)), np.max(np.abs(g)))
        assert duality_residual(psi, z) == np.max(np.abs(f - g)) / scale
        assert duality_residual(psi, z) < 1e-12

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
        scaled = dataclasses.replace(psi, norm_const=2.5)
        z = 0.4 + 0.3j
        assert eval_fourier(scaled, z) == pytest.approx(2.5 * eval_fourier(psi, z))
        assert eval_gaussian(scaled, z) == pytest.approx(2.5 * eval_gaussian(psi, z))


def mp_fourier_sums(geo: TorusGeometry, zs) -> np.ndarray:
    """e^{z^2/2} sum_{n = nu (mod N)} exp(-pi n^2 L2/(N L1) + 2 pi i n z/L1)
    at each z (columns) for every nu (rows), summed in 50-digit mpmath.

    A reference for either series: it takes the package's constants, pi as
    np.pi and the sides as the doubles L1 and L2, and leaves out only the
    terms below e^-120 of the largest at each point.  Each residue class is
    one Horner sum in w^N, w = e^{2 pi i z/L1}.
    """
    mpmath = pytest.importorskip("mpmath")
    n_flux = geo.N
    out = np.empty((n_flux, len(zs)), dtype=complex)
    with mpmath.workdps(50):
        pi, L1, L2 = mpmath.mpf(np.pi), mpmath.mpf(geo.L1), mpmath.mpf(geo.L2)
        a = pi * L2 / (n_flux * L1)
        reach = math.sqrt(120 / float(a))
        top = int(n_flux * np.max(np.abs(zs.imag)) / geo.L2 + reach) + 2 * n_flux
        coeff = {n: mpmath.exp(-a * n * n) for n in range(-top, top + 1)}
        for j, z in enumerate(zs):
            peak = -n_flux * z.imag / geo.L2          # n of the largest term
            z = mpmath.mpc(z.real, z.imag)
            w = mpmath.exp(2j * pi * z / L1)
            step, gauge = w ** n_flux, mpmath.exp(z * z / 2)
            for nu in range(n_flux):
                lo = math.floor((peak - reach - nu) / n_flux)
                acc = mpmath.mpc(0)
                for m in range(math.ceil((peak + reach - nu) / n_flux), lo - 1, -1):
                    acc = acc * step + coeff[nu + n_flux * m]
                out[nu, j] = complex(gauge * w ** (nu + n_flux * lo) * acc)
    return out


class TestDualityOracle:
    def test_oracle_matches_frozen_gauss_sum(self):
        # at z = 0 on the unit-flux square, psi_0 is sum_n exp(-pi n^2)
        geo = TorusGeometry.square(1)
        assert mp_fourier_sums(geo, np.zeros(1, dtype=complex))[0, 0] == \
            pytest.approx(GAUSS_SUM, rel=1e-15)

    @staticmethod
    def oracle_errors(geo, zs, evaluators):
        """Largest |value - oracle| of each evaluator over the normalized
        basis at zs, relative to the largest value of the section there.

        The oracle is summed at one in 50 of the points and at each
        section's three largest, where a relative error shows in full.
        """
        basis = normalized_basis(geo)
        series = {psi.nu: [evaluate(psi, zs) for evaluate in evaluators] for psi in basis}
        largest = [np.argsort(np.abs(values[0]))[-3:] for values in series.values()]
        picks = np.unique(np.concatenate([np.arange(0, len(zs), 50), *largest]))
        ref = mp_fourier_sums(geo, zs[picks])
        errors = []
        for psi in basis:
            exact = psi.norm_const * ref[psi.nu]
            scale = max(np.max(np.abs(values)) for values in series[psi.nu])
            errors.append([np.max(np.abs(values[picks] - exact)) / scale
                           for values in series[psi.nu]])
        return np.max(errors, axis=0)

    def test_each_series_within_a_tenth_of_the_tolerance(self):
        # criterion 3's points (its seed and draw order) and its scale, the
        # largest magnitude over all of them.  At N <= 10 each series is
        # within poisson_duality_rel / 10 of the oracle, so neither can hide
        # the other's error in the criterion
        tol = tolerances.get("poisson_duality_rel") / 10
        rng = np.random.default_rng(verify.DEFAULT_SEED)
        for n in range(1, 11):
            geo = TorusGeometry.square(n)
            zs = (rng.random(verify._DUALITY_POINTS) * geo.L1
                  + 1j * rng.random(verify._DUALITY_POINTS) * geo.L2)
            errors = self.oracle_errors(geo, zs, (eval_fourier, eval_gaussian))
            assert np.all(errors < tol), (n, errors)

    @pytest.mark.parametrize("geo, fraction", [
        (TorusGeometry.square(16), 10),
        (TorusGeometry.with_aspect(4, 1 / 4), 10),
        # the comb's sum can be e^{L2^2/4} ~ 7e6 smaller than its terms
        # here, and its long-double rounding reads up to 1.9e-13 on other
        # draws of 1000 points, so it is held to the tolerance itself
        (TorusGeometry.square(20), 1),
    ], ids=["N16", "N4-aspect-quarter", "N20"])
    def test_gaussian_beyond_criterion_scope(self, geo, fraction):
        # criterion 3's seed and point count on tori past its N <= 10
        tol = tolerances.get("poisson_duality_rel") / fraction
        rng = np.random.default_rng(verify.DEFAULT_SEED)
        zs = (rng.random(verify._DUALITY_POINTS) * geo.L1
              + 1j * rng.random(verify._DUALITY_POINTS) * geo.L2)
        (error,) = self.oracle_errors(geo, zs, (eval_gaussian,))
        assert error < tol


class TestBoundaryConditions:
    def test_residuals_vanish_for_basis(self):
        geo = TorusGeometry.square(2)
        z = 0.3 + 0.4j
        for psi in ground_basis(geo):
            assert boundary_residual(psi, z) < 1e-12

    def test_flipped_phase_breaks_x_condition(self):
        # a sign flip makes s(z+P) = -s(z) F: the difference is twice the
        # scale, whichever condition carries the flip
        geo = TorusGeometry.square(2)
        psi = theta_basis(geo, 0)
        z = 0.3 + 0.4j
        assert boundary_residual(psi, z, BoundaryPhases(math.pi, 0.0)) == pytest.approx(2.0)
        assert boundary_residual(psi, z, BoundaryPhases(0.0, math.pi)) == pytest.approx(2.0)

    def test_residual_scale_is_pointwise_max_of_both_sides(self):
        geo = TorusGeometry.square(3)
        psi = normalize(theta_basis(geo, 1))
        z = periodic_grid(geo, 16, 16)
        f1, f2 = boundary_factors(geo, z)
        direct = 0.0
        for shifted, expected in ((psi(z + geo.L1), psi(z) * f1),
                                  (psi(z + 1j * geo.L2), psi(z) * f2)):
            scale = np.max(np.maximum(np.abs(shifted), np.abs(expected)))
            direct = max(direct, float(np.max(np.abs(shifted - expected))) / scale)
        assert boundary_residual(psi, z) == direct
        # held samples stand in for s(z) and give the same number
        assert boundary_residual(psi, z, base=psi(z)) == direct

    @pytest.mark.parametrize("n", [1, 4])
    @pytest.mark.parametrize("z", [periodic_grid(TorusGeometry.square(4), 12, 10),
                                   np.array([0.3 + 0.4j, 1.7 + 0.2j, 2.9 + 3.1j])],
                             ids=["grid", "points"])
    @pytest.mark.parametrize("phases", [BoundaryPhases(), BoundaryPhases(math.pi, 0.0)],
                             ids=["trivial", "x_flip"])
    def test_stacked_residuals_match_one_section_calls(self, n, z, phases):
        # one stacked pass per point set, bit for bit the one-section values
        psis = normalized_basis(TorusGeometry.square(n))
        stacked = lll_basis.boundary_residuals(psis, z, phases)
        assert stacked == [boundary_residual(psi, z, phases) for psi in psis]
        base = eval_fourier_stack(psis, z)
        assert lll_basis.boundary_residuals(psis, z, phases, base=base) == stacked

    def test_stacked_residuals_reject_mixed_tori(self):
        mixed = [theta_basis(TorusGeometry.square(2), 0),
                 theta_basis(TorusGeometry.square(3), 0)]
        with pytest.raises(GeometryMismatch):
            lll_basis.boundary_residuals(mixed, np.array([0.3 + 0.4j]))

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


class TestNormalize:
    def test_idempotent(self):
        psi = normalize(theta_basis(TorusGeometry.square(2), 1))
        again = normalize(psi)
        assert again.norm_const == pytest.approx(psi.norm_const, rel=1e-12)

    def test_matches_finer_quadrature(self):
        geo = TorusGeometry.square(1)
        psi = normalize(theta_basis(geo, 0))
        fine = gram_matrix([psi], 256)[0, 0]   # 4x default
        assert math.sqrt(fine.real) == pytest.approx(1.0, rel=1e-12)

    def test_forgets_input_scale(self):
        geo = TorusGeometry.square(3)
        psi = theta_basis(geo, 2)
        scaled = dataclasses.replace(psi, norm_const=7.0)
        assert normalize(scaled).norm_const == pytest.approx(
            normalize(psi).norm_const, rel=1e-12)

    def test_unit_norm_after(self):
        for psi in normalized_basis(TorusGeometry.square(2)):
            assert inner_product(psi, psi) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("geo", [
        TorusGeometry.square(1), TorusGeometry.square(3), TorusGeometry.square(6),
        TorusGeometry.square(12), TorusGeometry.with_aspect(6, 1 / 8),
        TorusGeometry.with_aspect(3, 8)], ids=["1", "3", "6", "12", "6-1/8", "3-8"])
    def test_gaussian_tiling_closed_form(self, geo):
        # e^{-2y^2} turns the x-integrated series into Gaussian strips that
        # tile the line exactly once: <psi|psi> = L1 sqrt(pi/2), any nu and
        # any aspect ratio, and the creation operator keeps the norm.  The
        # closed-form norm_const of normalize rests on this; the default
        # quadrature reproduces it to 1.2e-14 at worst on these tori.
        quad = Quadrature(geo)
        psis = ground_basis(geo)
        raised = [raise_section(ground_section(psi)) for psi in psis]
        squares = quad.norms(np.concatenate([quad.sample(psis), quad.sample(raised)])) ** 2
        ref = geo.L1 * math.sqrt(math.pi / 2)
        assert np.max(np.abs(squares / ref - 1)) <= 1e-13
        assert normalize(psis[0]).norm_const == ref ** -0.5


class TestDerivativesAndHolomorphy:
    def test_termwise_derivative_against_finite_differences(self):
        geo = TorusGeometry.square(3)
        psi = theta_basis(geo, 1)
        xs, ys = np.array([0.3, 1.1, 2.0]), np.array([0.2, 0.9, 1.5])
        _, dz_fd, _, _ = numdiff.derivatives(lambda w: eval_fourier(psi, w), xs, ys)
        dz = eval_fourier(psi, xs[None, :] + 1j * ys[:, None], order=1)
        assert np.max(np.abs(dz - dz_fd)) < 1e-9 * np.max(np.abs(dz))

    def test_second_derivative_consistency(self):
        geo = TorusGeometry.square(2)
        psi = theta_basis(geo, 0)
        xs, ys = np.array([0.4, 1.0]), np.array([0.3, 1.2])
        d2 = eval_fourier(psi, xs[None, :] + 1j * ys[:, None], order=2)
        _, d1_fd, _, _ = numdiff.derivatives(lambda w: eval_fourier(psi, w, 1), xs, ys)
        assert np.max(np.abs(d2 - d1_fd)) < 1e-8 * np.max(np.abs(d2))

    @pytest.mark.parametrize("n", [1, 4, 10])
    def test_holomorphy(self, n):
        geo = TorusGeometry.square(n)
        xs = (np.arange(12) + 0.3) * geo.L1 / 12
        ys = (np.arange(12) + 0.2) * geo.L2 / 12
        z = xs[None, :] + 1j * ys[:, None]
        for psi in normalized_basis(geo)[:3]:
            _, _, dbar, _ = numdiff.derivatives(lambda w: eval_fourier(psi, w), xs, ys)
            scale = np.max(np.abs(psi(z)))
            assert np.max(np.abs(dbar)) < 1e-8 * scale

    def test_finite_differences_of_a_stacked_polynomial(self):
        # f = (z^3 zbar^2, zbar): d/dz, dbar and the Laplacian 4 d/dz dbar
        # in closed form, for a stack of two fields on a 3 x 4 grid
        xs, ys = np.array([0.1, 0.7, 1.3, 2.0]), np.array([-0.4, 0.5, 1.1])
        z = xs[None, :] + 1j * ys[:, None]
        zb = np.conj(z)
        calls = []

        def f(w):
            calls.append(w.shape)
            return np.stack([w**3 * np.conj(w)**2, np.conj(w)])

        vals, dz, dbar, lap = numdiff.derivatives(f, xs, ys)
        assert calls == [(3, 28), (21, 4)]
        np.testing.assert_allclose(vals, f(z), rtol=1e-15)
        np.testing.assert_allclose(dz[0], 3 * z**2 * zb**2, rtol=1e-9)
        np.testing.assert_allclose(dbar[0], 2 * z**3 * zb, rtol=1e-9)
        np.testing.assert_allclose(lap[0], 24 * z**2 * zb, rtol=1e-7)
        np.testing.assert_allclose(dz[1], 0, atol=1e-10)
        np.testing.assert_allclose(dbar[1], 1, rtol=1e-10)
        np.testing.assert_allclose(lap[1], 0, atol=1e-7)

    def test_gaussian_representation_derivative(self):
        geo = TorusGeometry.square(3)
        psi = theta_basis(geo, 2)
        z = np.array([0.5 + 0.4j, 1.7 + 1.1j])
        np.testing.assert_allclose(eval_gaussian(psi, z, 1),
                                   eval_fourier(psi, z, 1), rtol=1e-11)

    @pytest.mark.parametrize("n", [1, 6, 12])
    def test_gaussian_derivatives_match_fourier(self, n):
        # orders 1-3 of every section, at points spread over three periods,
        # within 1e-13 of the section's largest value there
        geo = TorusGeometry.square(n)
        rng = np.random.default_rng(3)
        z = ((rng.random(200) * 3 - 1) * geo.L1
             + 1j * (rng.random(200) * 3 - 1) * geo.L2)
        for psi in normalized_basis(geo):
            for order in (1, 2, 3):
                f, g = eval_fourier(psi, z, order), eval_gaussian(psi, z, order)
                assert np.max(np.abs(f - g)) < 1e-13 * np.max(np.abs(f)), (psi.nu, order)


class TestBoundaryPhases:
    def test_stored_mod_two_pi(self):
        p = BoundaryPhases(2 * math.pi + 0.5, -0.5)
        assert p.delta1 == pytest.approx(0.5)
        assert p.delta2 == pytest.approx(2 * math.pi - 0.5)


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


class TestStackedGridPath:
    """A stack of sections on one grid is bit-identical to one section at a time."""

    @pytest.mark.parametrize("n", [1, 6, 12])
    @pytest.mark.parametrize("ratio", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("shift", [0.0, 1.0])
    def test_stack_equals_single_sections(self, n, ratio, shift):
        geo = TorusGeometry.with_aspect(n, ratio)
        z = periodic_grid(geo, 40, 36) + shift * geo.L1
        psis = normalized_basis(geo)
        for order in (0, 1, 2):
            stack = eval_fourier_stack(psis, z, order)
            assert stack.shape == (n, 36, 40)
            for psi, got in zip(psis, stack):
                np.testing.assert_array_equal(got, eval_fourier(psi, z, order))

    @pytest.mark.parametrize("level", [0, 1])
    @pytest.mark.parametrize("n", [3, 6])
    def test_level_samples_equal_per_section(self, n, level):
        # a level-1 section needs psi and psi': Quadrature.sample takes each
        # order of the whole level in one pass
        geo = TorusGeometry.square(n)
        quad = Quadrature(geo, 48)
        sections = [ground_section(psi) for psi in ground_basis(geo)]
        if level:
            sections = [raise_section(s) * 0.7 for s in sections]
        vals = quad.sample(sections)
        for s, got in zip(sections, vals):
            np.testing.assert_array_equal(got, s(quad.z))

    def test_points_off_a_grid(self):
        geo = TorusGeometry.square(3)
        psis = ground_basis(geo)
        z = np.array([[0.1 + 0.2j, 0.4 + 0.9j], [1.3 + 0.3j, 2.0 + 1.1j]])
        assert not _is_grid(z)
        stack = eval_fourier_stack(psis, z, 1)
        assert stack.shape == (3, 2, 2)
        for psi, got in zip(psis, stack):
            np.testing.assert_array_equal(got, eval_fourier(psi, z, 1))
        assert eval_fourier_stack(psis, 0.3 + 0.1j).shape == (3,)
        assert eval_fourier_stack([], periodic_grid(geo, 8, 6)).shape == (0, 6, 8)

    def test_mixed_geometries_rejected_on_a_grid(self):
        a, b = TorusGeometry.square(2), TorusGeometry.square(3)
        with pytest.raises(GeometryMismatch):
            eval_fourier_stack([theta_basis(a, 0), theta_basis(b, 0)], periodic_grid(a, 8, 8))

    def test_level_one_holds_one_stack_at_a_time(self):
        # the psi' stack is added into the sections and released before the
        # psi stack is taken: the output plus one stack, not plus two
        geo = TorusGeometry.square(12)
        quad = Quadrature(geo)
        sections = [raise_section(ground_section(psi)) for psi in ground_basis(geo)]
        tracemalloc.start()
        try:
            vals = quad.sample(sections)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * vals.nbytes


class TestPointwiseBlocks:
    """Scattered points are summed a block of about _BLOCK_POINTS point-term
    pairs at a time, with the term window chosen from all the points."""

    @pytest.fixture(scope="class")
    def psi12(self):
        return normalized_basis(TorusGeometry.square(12))[5]

    @pytest.mark.parametrize("order", [0, 1])
    @pytest.mark.parametrize("evaluate", [eval_fourier, eval_gaussian])
    def test_blocks_equal_one_block(self, monkeypatch, psi12, evaluate, order):
        geo = psi12.geometry
        rng = np.random.default_rng(11)
        # spread over three periods, so the window is set by far points
        z = (rng.random((60, 50)) * 3 - 1) * geo.L1 + 1j * (rng.random((60, 50)) * 3 - 1) * geo.L2
        blocked = evaluate(psi12, z, order)
        monkeypatch.setattr(lll_basis, "_BLOCK_POINTS", 1 << 40)
        assert np.array_equal(blocked, evaluate(psi12, z, order))

    @pytest.mark.parametrize("evaluate, order", [(eval_fourier, 1), (eval_gaussian, 0)])
    def test_memory_bounded_at_200k_points(self, psi12, evaluate, order):
        # in one piece each (points x terms) long-double temporary was about
        # 176 MB here; blocked, the peak is a few times the 3.2 MB output
        # (measured 3.5x for eval_fourier at order 1, 3.0x for eval_gaussian)
        geo = psi12.geometry
        rng = np.random.default_rng(12)
        z = rng.random(200_000) * geo.L1 + 1j * rng.random(200_000) * geo.L2
        tracemalloc.start()
        try:
            values = evaluate(psi12, z, order)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(values))
        assert peak < 5 * values.nbytes
