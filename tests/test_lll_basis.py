import ast
import dataclasses
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruslandau import lll_basis, numdiff, tolerances, verify
from toruslandau.geometry import TorusGeometry
from toruslandau.levels import (Quadrature, default_resolution, gram_matrix,
                                ground_section, inner_product, periodic_grid,
                                raise_section)
from toruslandau.lll_basis import (BoundaryPhases, _is_grid,
                                   boundary_factors, boundary_residuals,
                                   double_shift_factors, duality_residuals,
                                   eval_fourier, eval_fourier_stack,
                                   eval_gaussian, eval_gaussian_stack, ground_basis,
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

    @pytest.mark.parametrize("z", [periodic_grid(TorusGeometry.square(3), 12, 10) - 0.4j,
                                   np.array([0.1 + 1.9j, 2.8 + 0.7j, -1.3 - 4.1j])],
                             ids=["grid", "points"])
    def test_window_tail_negligible(self, monkeypatch, z):
        # widening the window beyond the rule must not move the value
        geo = TorusGeometry.square(3)
        psi = theta_basis(geo, 1)
        reach, a = lll_basis._fourier_reach(geo), eval_fourier(psi, z)
        monkeypatch.setattr(lll_basis, "_TAIL_MARGIN", 2 * lll_basis._TAIL_MARGIN)
        assert lll_basis._fourier_reach(geo) > reach
        b = eval_fourier(psi, z)
        assert np.max(np.abs(a - b)) <= 1e-15 * np.max(np.abs(a))

    @pytest.mark.parametrize("geo", [
        TorusGeometry.with_aspect(1, 1e-300), TorusGeometry.with_aspect(1, 1e300),
        TorusGeometry(40.0, math.pi / 40, 1)], ids=["L1-tiny", "L2-tiny", "L1-40"])
    def test_torus_past_the_double_range_rejected(self, geo):
        # (L1^2 + L2^2)/2 >= ln(max double): both series raise one ValueError
        # naming the sides, before anything sized by the torus is allocated
        # (at L1 ~ 1e-150 the comb alone would take ~1e300 coefficients)
        psi = theta_basis(geo, 0)
        grid = periodic_grid(geo, 8, 8)
        points = grid.ravel()[1:]
        messages = []
        for evaluate, z in ((eval_fourier, grid), (eval_fourier, points),
                            (eval_gaussian, points)):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match=r"torus L1=.*, L2=.* overflow") as info:
                    evaluate(psi, z)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            messages.append(str(info.value))
            assert peak < 16_384
        assert messages == [f"the sections of the torus L1={geo.L1!r}, L2={geo.L2!r} "
                            "overflow a double on its cell: (L1^2 + L2^2)/2 must be "
                            "below 709.78"] * 3

    def test_torus_just_inside_the_double_range(self):
        # (L1^2 + L2^2)/2 = 705: |psi| grows like e^{|z|^2/2} to about e^684
        # at the grid's last node, and every path stays finite and agrees
        L1 = math.sqrt(705 + math.sqrt(705 ** 2 - math.pi ** 2))
        geo = TorusGeometry(L1, math.pi / L1, 1)
        assert (geo.L1 ** 2 + geo.L2 ** 2) / 2 == pytest.approx(705)
        psi = normalize(theta_basis(geo, 0))
        grid = periodic_grid(geo, 64, 64)
        on_grid, at_points = eval_fourier(psi, grid), eval_fourier(psi, grid.ravel())
        assert np.all(np.isfinite(on_grid)) and np.all(np.isfinite(at_points))
        last = on_grid[-1, -1]
        assert np.log(abs(last)) > 680
        assert at_points[-1] == pytest.approx(last, rel=1e-12)
        assert eval_gaussian(psi, grid[-1, -1]) == pytest.approx(last, rel=1e-12)


class TestGaussianRepresentation:
    def test_duality_residual_is_max_over_larger_scale(self):
        geo = TorusGeometry.square(4)
        psi = normalize(theta_basis(geo, 3))
        rng = np.random.default_rng(5)
        z = rng.random(300) * geo.L1 + 1j * rng.random(300) * geo.L2
        f, g = eval_fourier(psi, z), eval_gaussian(psi, z)
        scale = max(np.max(np.abs(f)), np.max(np.abs(g)))
        assert duality_residuals([psi], z) == [np.max(np.abs(f - g)) / scale]
        assert duality_residuals([psi], z)[0] < 1e-12

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


def criterion_3_points(n_max):
    """Criterion 3's points on the square tori N = 1..n_max, drawn as it
    draws them: its seed, its point count, one torus after another."""
    rng = np.random.default_rng(verify.DEFAULT_SEED)
    points = {}
    for n in range(1, n_max + 1):
        geo = TorusGeometry.square(n)
        points[n] = (rng.random(verify._DUALITY_POINTS) * geo.L1
                     + 1j * rng.random(verify._DUALITY_POINTS) * geo.L2)
    return points


class TestStackedGaussian:
    """A stack of sections through the comb is bit-identical to one section
    at a time."""

    @pytest.mark.parametrize("n", [1, 4, 10, 16])
    def test_stack_rows_equal_one_section_calls(self, n):
        psis = normalized_basis(TorusGeometry.square(n))
        zs = criterion_3_points(n)[n]
        for order in (0, 1):
            stack = eval_gaussian_stack(psis, zs, order)
            assert stack.shape == (n, len(zs))
            scalar = eval_gaussian_stack(psis, zs[7], order)
            assert scalar.shape == (n,)
            for psi, row, value in zip(psis, stack, scalar):
                np.testing.assert_array_equal(row, eval_gaussian(psi, zs, order))
                assert value == eval_gaussian(psi, zs[7], order)

    def test_criterion_3_is_its_worst_section(self):
        # one residual per section from one stacked pass per torus, each that
        # of its section alone; the criterion reads the largest of them
        per_section = []
        for n, zs in criterion_3_points(3).items():
            psis = normalized_basis(TorusGeometry.square(n))
            residuals = duality_residuals(psis, zs)
            assert residuals == [duality_residuals([psi], zs)[0] for psi in psis]
            per_section += residuals
        assert verify.check_poisson_duality(n_max=3).data["worst"] == max(per_section)


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

    @pytest.mark.parametrize("geo", [
        TorusGeometry.square(20), TorusGeometry.square(30), TorusGeometry.square(45),
        TorusGeometry.with_aspect(4, 1 / 8), TorusGeometry.with_aspect(4, 8)],
        ids=["N20", "N30", "N45", "N4-aspect-eighth", "N4-aspect-eight"])
    def test_fourier_beyond_criterion_scope(self, geo):
        # criterion 3's seed and point count on tori past its N <= 10: the
        # Fourier series sums about each point's peak term, so its error
        # does not grow with N or with the aspect ratio
        tol = tolerances.get("poisson_duality_rel") / 10
        rng = np.random.default_rng(verify.DEFAULT_SEED)
        zs = (rng.random(verify._DUALITY_POINTS) * geo.L1
              + 1j * rng.random(verify._DUALITY_POINTS) * geo.L2)
        (error,) = self.oracle_errors(geo, zs, (eval_fourier,))
        assert error < tol


class TestBoundaryConditions:
    def test_residuals_vanish_for_basis(self):
        geo = TorusGeometry.square(2)
        z = 0.3 + 0.4j
        for psi in ground_basis(geo):
            assert boundary_residuals([psi], z)[0] < 1e-12

    def test_flipped_phase_breaks_x_condition(self):
        # a sign flip makes s(z+P) = -s(z) F: the difference is twice the
        # scale, whichever condition carries the flip
        geo = TorusGeometry.square(2)
        psi = theta_basis(geo, 0)
        z = 0.3 + 0.4j
        assert boundary_residuals([psi], z, BoundaryPhases(math.pi, 0.0))[0] == pytest.approx(2.0)
        assert boundary_residuals([psi], z, BoundaryPhases(0.0, math.pi))[0] == pytest.approx(2.0)

    def test_residual_scale_is_pointwise_max_of_both_sides(self):
        geo = TorusGeometry.square(3)
        psi = normalize(theta_basis(geo, 1))
        z = periodic_grid(geo, 16, 16)
        # each law read at its period's preimage: s(z) against s(z - P) F_P(z - P)
        f1 = boundary_factors(geo, z - geo.L1)[0]
        f2 = boundary_factors(geo, z - 1j * geo.L2)[1]
        direct, held = 0.0, psi(z)
        for expected in (psi(z - geo.L1) * f1, psi(z - 1j * geo.L2) * f2):
            scale = np.max(np.maximum(np.abs(held), np.abs(expected)))
            direct = max(direct, float(np.max(np.abs(held - expected))) / scale)
        assert boundary_residuals([psi], z) == [direct]
        # held samples stand in for s(z) and give the same number
        assert boundary_residuals([psi], z, base=psi(z)[None]) == [direct]

    @pytest.mark.parametrize("n", [92, 225])
    def test_residuals_finite_on_large_tori(self, n):
        # read at each period's preimage, no sampled point leaves
        # |w|^2 <= L1^2 + L2^2, where psi and its factor stay inside a double
        # (at N = 92, psi(z + L1) overflowed and the residual read nan)
        geo = TorusGeometry.square(n)
        z = periodic_grid(geo, 128, 128)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (resid,) = boundary_residuals([normalize(theta_basis(geo, 0))], z)
        assert math.isfinite(resid)
        assert resid < tolerances.get("boundary_residual_rel")

    @pytest.mark.parametrize("n", [1, 4])
    @pytest.mark.parametrize("z", [periodic_grid(TorusGeometry.square(4), 12, 10),
                                   np.array([0.3 + 0.4j, 1.7 + 0.2j, 2.9 + 3.1j])],
                             ids=["grid", "points"])
    @pytest.mark.parametrize("phases", [BoundaryPhases(), BoundaryPhases(math.pi, 0.0)],
                             ids=["trivial", "x_flip"])
    def test_stacked_residuals_match_one_section_calls(self, n, z, phases):
        # one stacked pass per point set, bit for bit the one-section values
        psis = normalized_basis(TorusGeometry.square(n))
        stacked = boundary_residuals(psis, z, phases)
        assert stacked == [boundary_residuals([psi], z, phases)[0] for psi in psis]
        base = eval_fourier_stack(psis, z)
        assert boundary_residuals(psis, z, phases, base=base) == stacked

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


def test_fourier_series_leaves_long_double_through_two_helpers():
    # inside the Fourier series' two paths every exponential and every
    # reduction mod 2pi is a call of _exp_ld or _cis_ld, and the one 2pi of
    # the package is the double _TWO_PI
    package = Path(lll_basis.__file__).parent
    for path in package.glob("*.py"):
        names = {node.id for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Name)}
        assert "_TWO_PI_LD" not in names, path.name
    tree = ast.parse(Path(lll_basis.__file__).read_text())
    for name in ("_fourier_grid", "_fourier_points"):
        function = next(node for node in ast.walk(tree)
                        if isinstance(node, ast.FunctionDef) and node.name == name)
        numpy_calls = {node.attr for node in ast.walk(function)
                       if isinstance(node, ast.Attribute)
                       and isinstance(node.value, ast.Name) and node.value.id == "np"}
        assert not numpy_calls & {"exp", "mod", "rint"}, name
        helpers = {node.func.id for node in ast.walk(function)
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
        assert {"_exp_ld", "_cis_ld"} <= helpers, name


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

    @pytest.mark.parametrize("nu", [-1, 0.5, 1.0, np.float64(1.0), True, "1"])
    def test_nu_must_be_an_integer_in_range(self, nu):
        with pytest.raises(ValueError, match="must be an integer in"):
            theta_basis(TorusGeometry.square(3), nu)

    @pytest.mark.parametrize("nu", [np.int64(2), np.uint8(2)])
    def test_numpy_integer_nu(self, nu):
        psi = theta_basis(TorusGeometry.square(3), nu)
        assert psi == theta_basis(TorusGeometry.square(3), 2)
        assert type(psi.nu) is int

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

    @pytest.mark.parametrize("n, ratio", [(1, 1.0), (4, 1.0), (6, 0.25), (6, 4.0),
                                          (12, 1.0), (30, 1.0)])
    def test_far_points_and_peak_ties(self, n, ratio):
        # Re z in +-L1 and Im z in +-3 L2, far outside the cell,
        # and rows where n* - nu = -N y/L2 - nu is an odd multiple of N/2,
        # halfway between two indices of the class: the pointwise sum picks
        # its centre term by rounding there, and either choice must agree
        # with the grid path
        geo = TorusGeometry.with_aspect(n, ratio)
        xs = np.linspace(-1, 1, 25) * geo.L1
        for nu in sample_classes(n):
            ties = -(nu / n + np.arange(-3, 3) + 0.5) * geo.L2
            ys = np.concatenate([np.linspace(-3, 3, 19) * geo.L2, ties])
            z = xs[None, :] + 1j * ys[:, None]
            for order in (0, 1, 2):
                assert grid_vs_pointwise(theta_basis(geo, nu), z, order) < GRID_BOUND

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


class TestWeightedFrame:
    """_weighted gives e^{-|z|^2/2} d^k psi on the grid path, checked against
    no torus bound; scattered points are refused."""

    @pytest.mark.parametrize("n, ratio", [(1, 1.0), (6, 0.25), (6, 4.0), (12, 1.0)])
    def test_psi_times_its_weight(self, n, ratio):
        # on a grid shifted off the cell too, where |z| and |psi| are larger
        geo = TorusGeometry.with_aspect(n, ratio)
        psis = [theta_basis(geo, nu) for nu in sample_classes(n)]
        for z in (periodic_grid(geo, 40, 36), periodic_grid(geo, 40, 36) - 0.5 * geo.L1
                  + 0.5j * geo.L2):
            for order in (0, 1, 2):
                got = eval_fourier_stack(psis, z, order, _weighted=True)
                ref = np.exp(-np.abs(z) ** 2 / 2) * eval_fourier_stack(psis, z, order)
                assert np.max(np.abs(got - ref)) <= GRID_BOUND * np.max(np.abs(ref))

    @pytest.mark.parametrize("geo", [TorusGeometry(40.0, math.pi / 40, 1),
                                     TorusGeometry.square(300)], ids=["L1-40", "N-300"])
    def test_finite_past_the_double_range(self, geo):
        # psi overflows a double on these cells, and eval_fourier refuses
        # them; the weighted grid values are finite
        psis = [theta_basis(geo, nu) for nu in sample_classes(geo.N)]
        z = periodic_grid(geo, 48, 40)
        with pytest.raises(ValueError, match="overflow a double"):
            eval_fourier_stack(psis, z)
        for order in (0, 1, 2):
            assert np.all(np.isfinite(eval_fourier_stack(psis, z, order, _weighted=True)))

    def test_scattered_points_refused(self):
        geo = TorusGeometry.square(3)
        z = periodic_grid(geo, 8, 6)
        with pytest.raises(ValueError, match="tensor grids only"):
            eval_fourier_stack(ground_basis(geo), z.ravel(), _weighted=True)


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
            np.testing.assert_array_equal(got, quad.sample([s])[0])

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

    @pytest.mark.parametrize("geo", [TorusGeometry.square(3), TorusGeometry.with_aspect(4, 1 / 8)],
                             ids=["square", "aspect-eighth"])
    def test_scattered_points_every_order(self, geo):
        # the stack shares the points' casts, w's phase, the coefficients and
        # the Taylor rows; each section's values stay its own call's
        psis = normalized_basis(geo)
        rng = np.random.default_rng(6)
        z = (rng.random((5, 7)) * 3 - 1) * geo.L1 + 1j * (rng.random((5, 7)) * 3 - 1) * geo.L2
        assert not _is_grid(z)
        for order in (0, 1, 2):
            stack = eval_fourier_stack(psis, z, order)
            assert stack.shape == (geo.N, 5, 7)
            for psi, got in zip(psis, stack):
                np.testing.assert_array_equal(got, eval_fourier(psi, z, order))
                np.testing.assert_array_equal(got[2, 3], eval_fourier(psi, z[2, 3], order))
        assert eval_fourier_stack(psis, 0.3 + 0.1j).shape == (geo.N,)
        assert eval_fourier_stack([], periodic_grid(geo, 8, 6)).shape == (0, 6, 8)

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
        # (tracemalloc reads 1.9x for eval_fourier at order 1, 2.0x for eval_gaussian)
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
