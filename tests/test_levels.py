import ast
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from toruslandau import gridio, levels, tolerances
from toruslandau.errors import ZeroNorm
from toruslandau.geometry import TorusGeometry
from toruslandau.levels import (DensityMap, GridField, PolynomialSection,
                                Quadrature, dbar_section,
                                default_resolution, density_map, gram_matrix,
                                ground_section, inner_product, level_basis,
                                local_extrema, log_linear_fit, periodic_grid,
                                raise_section, rayleigh_quotient,
                                rayleigh_quotients)
from toruslandau.lll_basis import (_BLOCK_POINTS, boundary_factors,
                                   eval_fourier, eval_fourier_stack, eval_gaussian,
                                   ground_basis, normalized_basis)
from toruslandau.translations import translation_matrix, translation_report


@pytest.fixture(scope="module")
def geo2():
    return TorusGeometry.square(2)


@pytest.fixture(scope="module")
def basis2(geo2):
    return normalized_basis(geo2)


def hermitian_density(s1, s2, z):
    """The gauge-invariant density e^{-|z|^2} conj(s1(z)) s2(z)."""
    return np.exp(-np.abs(z) ** 2) * np.conj(s1(z)) * s2(z)


class TestHermitianDensity:
    def test_diagonal_is_nonnegative_real(self, basis2):
        rng = np.random.default_rng(0)
        geo = basis2[0].geometry
        z = rng.random(30) * geo.L1 + 1j * rng.random(30) * geo.L2
        h = hermitian_density(basis2[0], basis2[0], z)
        assert np.max(np.abs(h.imag)) < 1e-14 * np.max(h.real)
        assert np.all(h.real >= 0)

    def test_smooth_across_seams(self, geo2, basis2):
        # chart-match: the density is a function on the torus, so shifting
        # the argument by a full period reproduces it
        x = np.linspace(0, geo2.L1, 9, endpoint=False)
        for s1, s2 in ((basis2[0], basis2[0]), (basis2[0], basis2[1])):
            bottom = hermitian_density(s1, s2, x + 0j)
            top = hermitian_density(s1, s2, x + 1j * geo2.L2)
            scale = np.max(np.abs(bottom))
            assert np.max(np.abs(bottom - top)) < 1e-12 * scale
            left = hermitian_density(s1, s2, 1j * x)
            right = hermitian_density(s1, s2, geo2.L1 + 1j * x)
            assert np.max(np.abs(left - right)) < 1e-12 * np.max(np.abs(left))


class TestInnerProduct:
    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_normalized_diagonal(self, n):
        for psi in normalized_basis(TorusGeometry.square(n)):
            assert inner_product(psi, psi) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonality_two_flux(self, basis2):
        assert abs(inner_product(basis2[0], basis2[1])) < 1e-12

    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_doubling_resolution_stable(self, n):
        geo = TorusGeometry.square(n)
        basis = normalized_basis(geo)
        side = default_resolution(geo)
        pair = [basis[0], basis[-1]]
        a = gram_matrix(pair, side)
        b = gram_matrix(pair, 2 * side)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_resolution_floor(self, basis2):
        with pytest.raises(ValueError):
            gram_matrix(basis2[:1], 2)

    @pytest.mark.parametrize("side", [3, 4.5, 40.5, 48.7, 64.0, np.float64(64), True])
    @pytest.mark.parametrize("entry", [
        lambda geo, side: Quadrature(geo, side),
        lambda geo, side: gram_matrix(normalized_basis(geo), side),
        lambda geo, side: gram_matrix([], side),
        lambda geo, side: density_map(geo, 0, side),
        lambda geo, side: translation_matrix(geo, geo.L1 / 2, side=side),
        lambda geo, side: translation_report(geo, geo.L1 / 2, side=side)],
        ids=["Quadrature", "gram_matrix", "empty_gram_matrix", "density_map",
             "translation_matrix", "translation_report"])
    def test_grid_side_must_be_an_integer(self, geo2, entry, side):
        # every grid side is checked by the one rule, an empty basis's too
        with pytest.raises(ValueError, match="grid resolution must be an integer >= 4"):
            entry(geo2, side)

    @pytest.mark.parametrize("side", [None, 4, 16])
    def test_empty_basis_on_a_valid_side(self, side):
        assert gram_matrix([], side).shape == (0, 0)

    @pytest.mark.parametrize("name", ["z"])
    def test_quadrature_arrays_are_read_only(self, geo2, name):
        # every later integral of the quadrature reads them
        quad = Quadrature(geo2)
        with pytest.raises(ValueError, match="read-only"):
            getattr(quad, name)[0, 0] = 0


class TestGramMatrix:
    def test_identity_for_normalized(self):
        basis = normalized_basis(TorusGeometry.square(3))
        g = gram_matrix(basis)
        assert np.max(np.abs(g - np.eye(3))) < 1e-10

    @pytest.mark.parametrize("n", [2, 5, 8])
    @pytest.mark.parametrize("ratio", [0.5, 2.0])
    def test_identity_across_aspect_ratios(self, n, ratio):
        basis = normalized_basis(TorusGeometry.with_aspect(n, ratio))
        g = gram_matrix(basis)
        assert np.max(np.abs(g - np.eye(n))) < 1e-10

    def test_unnormalized_diagonal_positive(self):
        basis = ground_basis(TorusGeometry.square(3))
        g = gram_matrix(basis)
        off = g - np.diag(np.diag(g))
        assert np.max(np.abs(off)) < 1e-12 * np.max(np.abs(np.diag(g)))
        assert np.all(np.diag(g).real > 0)

    def test_raised_renormalized_identity(self):
        sections = level_basis(TorusGeometry.square(3), level=1)
        g = gram_matrix(sections)
        assert np.max(np.abs(g - np.eye(3))) < 1e-10

    def test_hermitian_by_construction(self, basis2):
        g = gram_matrix(basis2)
        np.testing.assert_array_equal(g, g.conj().T)

    def test_gram_conjugates_a_block_at_a_time(self):
        # no conjugated copy of the whole stack: the new allocations stay a
        # fraction of the samples (a full copy would be 1.0)
        geo = TorusGeometry.square(12)
        quad = Quadrature(geo)
        vals = quad.sample(normalized_basis(geo))
        tracemalloc.start()
        try:
            g = quad.gram(vals, vals)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.max(np.abs(g - np.eye(12))) < tolerances.get("gram_identity_abs")
        assert peak < 0.3 * vals.nbytes

    def test_level_block_is_the_off_grid_chunk(self):
        # arithmetic only: on every default grid (N = 1 to 225) a block is the
        # fewest whole eighths of the level (at least one section each) that
        # hold _BLOCK_POINTS grid values
        for n in range(1, 226):
            side = default_resolution(TorusGeometry.square(n))
            step = max(1, n // 8)
            chunk = step * -(-_BLOCK_POINTS // (step * side**2))
            assert Quadrature._block(SimpleNamespace(side=side), n) == chunk

    @pytest.mark.parametrize("n", [3, 12, 17])
    def test_gram_takes_a_level_block_in_one_product(self, n):
        # a block of the level v is conjugated, weighted and multiplied once,
        # whatever the length of u; the level takes ceil(n / block) products
        geo = TorusGeometry.square(n)
        quad = Quadrature(geo)
        vals = quad.sample(normalized_basis(geo))
        block = quad._block(n)
        taken = []

        class Sliced(np.ndarray):
            def __getitem__(self, key):
                if isinstance(key, slice):
                    taken.append(key)
                return super().__getitem__(key)

        for u, products in ((vals[:block], 1), (vals, -(-n // block))):
            taken.clear()
            g = quad.gram(u.view(Sliced), vals)
            assert len(taken) == products
            np.testing.assert_array_equal(g, quad.gram(u, vals))
        assert np.max(np.abs(g - np.eye(n))) < tolerances.get("gram_identity_abs")

    def test_gram_one_row_unchanged(self):
        # inner_product takes one row; it is the whole-stack formula
        # conj(u) @ v * cell of the weighted samples, bit for bit, and the
        # Hermitian product of psi itself with a weight of its own
        geo = TorusGeometry.square(3)
        quad = Quadrature(geo)
        vals = quad.sample(ground_basis(geo))
        u = vals[:1]
        np.testing.assert_array_equal(
            quad.gram(u, vals), np.conj(u).reshape(1, -1) @ vals.reshape(3, -1).T * quad.cell)
        psi = eval_fourier_stack(ground_basis(geo), quad.z)
        weight = np.exp(-np.abs(quad.z) ** 2)
        expected = (np.conj(psi[:1]).reshape(1, -1) * weight.ravel()) \
            @ psi.reshape(3, -1).T * quad.cell
        assert np.max(np.abs(quad.gram(u, vals) - expected)) < 1e-14 * abs(expected[0, 0])

    @pytest.mark.parametrize("side, bound", [(None, 1e-9), (128, 1e-14)])
    def test_identity_on_a_long_thin_torus(self, side, bound):
        # L1 = 30, L2 = pi/30: psi reaches e^{450} where e^{-|z|^2} is below
        # the smallest double, but the weighted samples stay bounded
        g = gram_matrix(level_basis(TorusGeometry(30.0, math.pi / 30, 1), 0), side)
        assert np.max(np.abs(g - np.eye(1))) < bound

    def test_identity_past_n_225(self):
        # (L1^2 + L2^2)/2 = 300 pi is past ln(max double), where psi itself
        # overflows; the weighted frame integrates it
        g = gram_matrix(normalized_basis(TorusGeometry.square(300))[:2], 400)
        assert np.max(np.abs(g - np.eye(2))) < 1e-12

    def test_identity_at_l1_40(self):
        # L2 = pi/40 keeps the Fourier window far inside _BLOCK_POINTS terms
        g = gram_matrix(normalized_basis(TorusGeometry(40.0, math.pi / 40, 1)), 128)
        assert np.max(np.abs(g - np.eye(1))) < 1e-14

    @pytest.mark.parametrize("l2", [1e-170, 1e-160, 1e-100, 1e-8])
    def test_fourier_window_is_sized_before_allocating(self, l2):
        # L2^2 underflows at 1e-170 and the window M is infinite at 1e-160;
        # at 1e-8 it is 632455534 terms: each is a ValueError naming L2,
        # raised before any window array exists
        basis = normalized_basis(TorusGeometry(math.pi / l2, l2, 1))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"L2={l2!r}"):
                gram_matrix(basis, 16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000


class TestCreationOperator:
    def test_definition_unrolled(self, basis2):
        # raise(psi) = -zbar psi + psi'
        psi = basis2[0]
        s = raise_section(ground_section(psi))
        assert s.degree == 1
        assert s.terms == ((0, psi, 1, 1.0), (1, psi, 0, -1.0))
        rng = np.random.default_rng(1)
        geo = psi.geometry
        z = rng.random(10) * geo.L1 + 1j * rng.random(10) * geo.L2
        np.testing.assert_allclose(
            s(z), eval_fourier(psi, z, 1) - np.conj(z) * psi(z), rtol=1e-13)

    def test_preserves_boundary_law(self, geo2, basis2):
        # a raised section still transforms with the same factors
        rng = np.random.default_rng(2)
        z = rng.random(25) * geo2.L1 + 1j * rng.random(25) * geo2.L2
        f1, f2 = boundary_factors(geo2, z)
        for psi in basis2:
            s = raise_section(ground_section(psi))
            base = s(z)
            r1 = s(z + geo2.L1) - base * f1
            r2 = s(z + 1j * geo2.L2) - base * f2
            scale = np.max(np.abs(s(z + geo2.L1)))
            assert np.max(np.abs(r1)) < 1e-10 * scale
            assert np.max(np.abs(r2)) < 1e-10 * scale

    def test_raised_orthogonality(self, basis2):
        raised = [raise_section(ground_section(p)) for p in basis2]
        g = gram_matrix(raised)
        assert abs(g[0, 1]) < 1e-12
        # creation preserves the norm of holomorphic sections
        assert g[0, 0].real == pytest.approx(1.0, abs=1e-12)

    def test_degree_two(self, basis2):
        s2 = raise_section(raise_section(ground_section(basis2[0])))
        assert s2.degree == 2


class TestHamiltonian:
    def test_dbar_lowers_degree(self, basis2):
        s = raise_section(ground_section(basis2[0]))
        down = dbar_section(s)
        assert down.degree == 0
        z = 0.4 + 0.2j
        assert complex(down(z)) == pytest.approx(-basis2[0](z), rel=1e-14)


class TestRayleighQuotient:
    def test_ground_level_zero(self, basis2):
        for psi in basis2:
            assert abs(rayleigh_quotient(ground_section(psi))) < 1e-12

    def test_first_level_energy(self, basis2):
        for psi in basis2:
            rq = rayleigh_quotient(raise_section(ground_section(psi)))
            assert rq == pytest.approx(2.0, abs=1e-8)

    def test_random_ground_combination(self, basis2):
        rng = np.random.default_rng(9)
        coeffs = rng.normal(size=2) + 1j * rng.normal(size=2)
        s = coeffs[0] * ground_section(basis2[0]) + coeffs[1] * ground_section(basis2[1])
        assert abs(rayleigh_quotient(s)) < 1e-12

    def test_positive_for_mixtures(self, basis2):
        rng = np.random.default_rng(10)
        for _ in range(5):
            c = rng.normal(size=3) + 1j * rng.normal(size=3)
            s0 = ground_section(basis2[0])
            s = c[0] * s0 + c[1] * raise_section(s0) \
                + c[2] * raise_section(ground_section(basis2[1]))
            assert rayleigh_quotient(s) >= -1e-12

    def test_zero_norm_raises(self, geo2):
        zero = PolynomialSection(geo2, ())
        with pytest.raises(ZeroNorm):
            rayleigh_quotient(zero)
        with pytest.raises(ZeroNorm):
            rayleigh_quotients([ground_section(normalized_basis(geo2)[0]), zero])

    @pytest.mark.parametrize("n", [2, 3])
    def test_batch_equals_one_by_one(self, n):
        # levels 0, 1 and 2 and a mixture, sampled in one pass: each quotient
        # is exactly the one-section value
        basis = normalized_basis(TorusGeometry.square(n))
        s0s = [ground_section(psi) for psi in basis]
        s1s = [raise_section(s) for s in s0s]
        sections = s0s + s1s + [raise_section(s1s[-1]), 0.5 * s0s[0] + 2j * s1s[-1]]
        assert rayleigh_quotients(sections) == [rayleigh_quotient(s) for s in sections]


def lattice_near_extremum(dev, n):
    ny, nx = dev.shape
    ext = local_extrema(dev)
    for i in range(n):
        for j in range(n):
            cx, cy = round(i * nx / n) % nx, round(j * ny / n) % ny
            if not any(ext[(cy + dy) % ny, (cx + dx) % nx]
                       for dx in (-1, 0, 1) for dy in (-1, 0, 1)):
                return False
    return True


class TestDensityMap:
    @pytest.mark.parametrize("level", [0, 1])
    def test_bumps_on_lattice(self, level):
        geo = TorusGeometry.square(3)
        dm = density_map(geo, level, 66)
        assert lattice_near_extremum(dm.deviation.values, 3)

    def test_lattice_shift_invariance(self):
        geo = TorusGeometry.square(4)
        dm = density_map(geo, 0, 64)
        rho = dm.rho.values
        for axis in (0, 1):
            shifted = np.roll(rho, 64 // 4, axis=axis)
            assert np.max(np.abs(shifted - rho)) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_mean_times_area_counts_states(self, n):
        geo = TorusGeometry.square(n)
        dm = density_map(geo, 0)
        assert dm.mean * geo.area == pytest.approx(n, abs=1e-10)

    def test_symmetry_visibly_broken_at_unit_flux(self):
        dm = density_map(TorusGeometry.square(1), 0)
        assert dm.relative_deviation > 0.5   # order-one bumps at N=1

    def test_density_sums_the_weighted_samples(self):
        # rho = sum_i e^{-|z|^2} |psi_i|^2, here from psi itself and a weight
        # of its own; density_map is it on the level, and the squared norms
        # integrate it one sample at a time
        geo = TorusGeometry.square(3)
        quad = Quadrature(geo, 48)
        vals = quad.sample(normalized_basis(geo))
        psis = eval_fourier_stack(normalized_basis(geo), quad.z)
        rho = sum(np.exp(-np.abs(quad.z) ** 2) * np.abs(psi) ** 2 for psi in psis)
        np.testing.assert_allclose(quad.density(vals), rho, rtol=1e-14, atol=0)
        np.testing.assert_array_equal(quad.density(vals), density_map(geo, 0, 48).rho.values)
        assert np.sum(quad.norms(vals) ** 2) == pytest.approx(
            np.sum(rho) * geo.area / 48**2, rel=1e-14)
        np.testing.assert_array_equal(quad.density(vals[:0]), np.zeros((48, 48)))

    def test_representations_agree(self):
        # the density rebuilt from the Gaussian series, term by term, matches;
        # the density grid at N = 3 is 66 wide, the level's own grid 64
        geo = TorusGeometry.square(3)
        z = periodic_grid(geo, 66, 66)
        for level in (0, 1):
            rho = np.zeros(z.shape)
            for s in level_basis(geo, level):
                vals = sum(w * np.conj(z) ** p * eval_gaussian(psi, z, k)
                           for p, psi, k, w in s.terms)
                rho += np.exp(-np.abs(z) ** 2) * np.abs(vals) ** 2
            fourier = density_map(geo, level).rho.values
            assert fourier.shape == z.shape
            assert np.max(np.abs(fourier - rho)) < 1e-11

    def test_deviation_decay_table(self):
        # d(N) from density_map falls with N, and log_linear_fit sees the decay
        ns = range(1, 5)
        d = [density_map(TorusGeometry.square(n), 0).relative_deviation for n in ns]
        assert np.all(np.diff(d) < 0)
        assert log_linear_fit(ns, d)["slope"] < -1.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("ns, ds", [([1], [0.5]), ([2, 2], [0.5, 0.4]), ([], [])])
    def test_log_linear_fit_needs_two_distinct_n(self, ns, ds):
        # one N leaves no variation to fit: an error, not inf/nan with warnings
        with pytest.raises(ValueError, match="two distinct N"):
            log_linear_fit(ns, ds)

    @pytest.mark.filterwarnings("error")
    def test_deviation_decay_needs_two_n(self):
        d = [density_map(TorusGeometry.square(1), 0).relative_deviation]
        with pytest.raises(ValueError, match="two distinct N"):
            log_linear_fit([1], d)
        fit = log_linear_fit([1, 2], [0.5, 0.2])   # two points: an exact line
        assert fit["fit_residual"] < 1e-12 and fit["slope"] == pytest.approx(np.log(0.4))

    def test_decay_fit_shared_with_criterion_5(self, monkeypatch):
        # criterion 5 fits its d table with log_linear_fit, so a fit of the
        # same density_map table reproduces its slope and residual exactly
        from toruslandau import verify
        table = {0: [0.9, 0.31, 0.12, 0.041], 1: [1.4, 0.52, 0.2, 0.083]}

        def fake_density_map(geo, level=0):
            d = table[level][geo.N - 1]
            ones = np.ones((8, 8))
            return DensityMap(GridField(geo, "rho", ones),
                              GridField(geo, "dev", 0 * ones), 1.0, d)

        monkeypatch.setattr(verify, "density_map", fake_density_map)
        fits = verify.check_symmetry_breaking(n_max=4).data["fits"]
        for level in (0, 1):
            ns = range(1, 5)
            d = [fake_density_map(TorusGeometry.square(n), level).relative_deviation
                 for n in ns]
            np.testing.assert_array_equal(d, table[level])
            expected = log_linear_fit(ns, d)
            assert fits[level]["slope"] == expected["slope"]
            assert fits[level]["fit_residual"] == expected["fit_residual"]

    def test_level_validation(self):
        with pytest.raises(ValueError):
            density_map(TorusGeometry.square(1), level=2)


def assert_rows_match_repr(tmp_path, values):
    """write_csv and write_matrix emit the bytes of the repr oracle,
    "\n".join(sep.join(map(repr, row)) for row in values.tolist()) + "\n",
    and write_json_grid those of json.dumps(payload, sort_keys=True) + "\n"."""
    field = GridField(TorusGeometry.square(2), "v", values)
    rows = [list(map(repr, row)) for row in values.tolist()]
    for write, sep in ((gridio.write_csv, ","), (gridio.write_matrix, " ")):
        got = write(field, tmp_path / "v.txt").read_bytes()
        want = ("\n".join(sep.join(row) for row in rows) + "\n").encode()
        if got != want:   # name the first wrong value, not a megabyte diff
            pairs = zip(got.replace(b"\n", sep.encode()).split(sep.encode()),
                        want.replace(b"\n", sep.encode()).split(sep.encode()))
            bad = next(((g, w) for g, w in pairs if g != w), "lengths differ")
            pytest.fail(f"{write.__name__}: wrote/repr {bad}")
    payload = {**gridio._header(field), "values": values.tolist()}
    got = gridio.write_json_grid(field, tmp_path / "v.json").read_bytes()
    want = (json.dumps(payload, sort_keys=True) + "\n").encode()
    if got != want:
        pairs = zip(got.split(b", "), want.split(b", "))
        bad = next(((g, w) for g, w in pairs if g != w), "lengths differ")
        pytest.fail(f"write_json_grid: wrote/json.dumps {bad}")


def shortest_digits(v: float) -> int:
    """Significant digits of repr(v)."""
    return len(repr(v).split("e")[0].lstrip("-").replace(".", "").strip("0"))


DIGIT_BRANCHES = {"power", "end_odd", "end_even", "lower_int_odd", "lower_int_even",
                  "lower_in", "lower_out", "over", "tie", "hundred"}


def digit_branches(v: float) -> set:
    """The cases of the writers' shortest-digits search (Dragonbox) that the
    finite double v > 0 = c 2^q meets, decided in exact rationals.

    In units of 10^-k, k = 2 - floor(q log10 2), the rounding interval runs
    from x to z, has width delta in [100, 1000), and the value is y.
    'power': c = 2^52, whose interval is shorter below.  'end_odd' and
    'end_even': z is an integer on a multiple of 1000, out of the interval
    of an odd c.  When floor(z) mod 1000 == floor(delta) x decides:
    'lower_int_odd' and 'lower_int_even' (x an integer), 'lower_in' and
    'lower_out'.  When the answer is at a hundredth and its estimate lands
    on a multiple of 100: 'over' (one too high), 'tie' (y is an integer)
    or 'hundred'.
    """
    bits = int(np.float64(v).view(np.uint64))
    exponent, frac = bits >> 52, bits & (2 ** 52 - 1)
    if frac == 0 and exponent > 1:
        return {"power"}
    c, q = frac | (exponent > 0) << 52, max(exponent, 1) - 1075
    unit = Fraction(2) ** (q - 1) * Fraction(10) ** (2 - math.floor(q * math.log10(2)))
    x, y, z, delta = (2 * c - 1) * unit, 2 * c * unit, (2 * c + 1) * unit, 2 * unit
    r, width = math.floor(z) % 1000, math.floor(delta)
    cases = set()
    if r == 0 and z == math.floor(z):
        if c % 2 == 0:
            return {"end_even"}
        cases.add("end_odd")
        r = 1000
    elif r == width:
        if x == math.floor(x):
            if c % 2 == 0:
                return {"lower_int_even"}
            cases.add("lower_int_odd")
        elif math.floor(x) % 2:
            return {"lower_in"}
        else:
            cases.add("lower_out")
    elif r < width:
        return cases
    dist = r - width // 2 + 50
    if dist % 100 == 0:
        cases.add("over" if math.floor(y) % 2 != (dist ^ 50) % 2
                  else "tie" if y == math.floor(y) else "hundred")
    return cases


class TestGridFieldAndSerialization:
    def test_validation(self, geo2):
        with pytest.raises(ValueError):
            GridField(geo2, "x", np.zeros(5))
        with pytest.raises(ValueError):
            GridField(geo2, "x", np.zeros((2, 8)))

    def test_csv_round_shape_and_determinism(self, tmp_path, geo2):
        values = np.arange(20.0).reshape(4, 5) / 3.0
        field = GridField(geo2, "demo", values)
        p1 = gridio.write_csv(field, tmp_path / "a.csv")
        text1 = p1.read_bytes()
        p2 = gridio.write_csv(field, tmp_path / "b.csv")
        assert text1 == p2.read_bytes()
        rows = text1.decode().strip().split("\n")
        assert len(rows) == 4 and len(rows[0].split(",")) == 5
        back = np.array([[float(tok) for tok in row.split(",")] for row in rows])
        np.testing.assert_array_equal(back, values)   # repr round-trips

    def test_writers_byte_exact(self, tmp_path, geo2):
        # repr keeps signed zeros, extreme exponents and the shortest
        # round-trip digits; the row writers and both JSON writers share that format
        values = np.array([[-0.0, 1e-300, 0.1, 1 / 3, 1e300]] * 4)
        field = GridField(geo2, "awkward", values)
        row = ["-0.0", "1e-300", "0.1", "0.3333333333333333", "1e+300"]
        csv = gridio.write_csv(field, tmp_path / "a.csv").read_bytes()
        assert csv == ((",".join(row) + "\n") * 4).encode()
        mat = gridio.write_matrix(field, tmp_path / "a.dat").read_bytes()
        assert mat == ((" ".join(row) + "\n") * 4).encode()
        side = repr(geo2.L1)
        geometry = f'"geometry": {{"L1": {side}, "L2": {side}, "N": 2}}'
        header = f'{geometry}, "nx": 5, "ny": 4, "quantity": "awkward"'
        rows = ", ".join(["[" + ", ".join(row) + "]"] * 4)
        grid = gridio.write_json_grid(field, tmp_path / "a.grid.json").read_bytes()
        assert grid == f'{{{header}, "values": [{rows}]}}\n'.encode()
        sidecar = gridio.write_sidecar(field, tmp_path / "a.json").read_bytes()
        assert sidecar == "\n".join([
            "{", '  "geometry": {', f'    "L1": {side},', f'    "L2": {side},',
            '    "N": 2', "  },", '  "nx": 5,', '  "ny": 4,', '  "quantity": "awkward",',
            '  "statistics": {', '    "max": 1e+300,', '    "mean": 2e+299,',
            '    "min": -0.0', "  }", "}", ""]).encode()

    def test_write_json_format(self, tmp_path):
        # sorted keys at every depth, an indent of 2, repr floats, a final newline
        path = gridio.write_json({"b": [1, 0.1], "a": {"d": -0.0, "c": "x"}},
                                 tmp_path / "r.json")
        assert path.read_bytes() == "\n".join([
            "{", '  "a": {', '    "c": "x",', '    "d": -0.0', "  },",
            '  "b": [', "    1,", "    0.1", "  ]", "}", ""]).encode()

    def test_rows_match_repr_on_random_bits(self, tmp_path):
        # a million random bit patterns: every exponent, subnormals, NaNs
        # with payloads and either sign; 1049 columns leave a short last block
        bits = np.random.default_rng(7).integers(0, 2**64, size=(1000, 1049),
                                                 dtype=np.uint64, endpoint=False)
        assert_rows_match_repr(tmp_path, bits.view(np.float64))

    def test_rows_match_repr_on_edge_cases(self, tmp_path):
        twos = 2.0 ** np.arange(-1074, 1024)
        tiny = np.array([1, 2, 3], dtype=np.uint64).view(np.float64)   # t < 3 and after
        special = [0.0, -0.0, np.inf, -np.inf, np.nan,
                   np.array(0xFFF8000000000000, dtype=np.uint64).view(np.float64)]
        bounds = np.array([1e-5, 1e-4, 1e16, 1e17])
        bounds = np.concatenate([bounds, np.nextafter(bounds, 0), np.nextafter(bounds, np.inf)])
        near_2_53 = 2.0 ** 53 + np.arange(-40.0, 41.0)
        rng = np.random.default_rng(3)
        by_length = [float(f"{rng.integers(10 ** (d - 1), 10 ** d)}e{e}")
                     for d in range(1, 18) for e in range(-320, 290, 7)]
        assert {shortest_digits(v) for v in by_length} == set(range(1, 18))
        # the doubles either side of decimals m 10^j halfway between two
        # doubles (m 5^j odd in (2^53, 2^54)): an interval end on the decimal
        midpoints = [float(m * 10 ** j + side * 2 ** j) for j in range(17, 24)
                     for m in [m for m in range(2 ** 53 // 5 ** j | 1, 2 ** 54 // 5 ** j, 2)
                               if m % 5][:8] for side in (-1, 1)]
        # odd quarters of 16 integer digits: 17-digit ties
        quarters = (2 * np.arange(2 ** 51 + 10 ** 14, 2 ** 51 + 10 ** 14 + 40) + 1) / 4
        # and a spread of magnitudes, for the rarer ends and hundredths
        scatter = np.random.default_rng(6)
        sample = scatter.random(2000) * 10.0 ** scatter.integers(-30, 30, 2000)
        reached = [digit_branches(v) for part in (twos, midpoints, quarters, sample)
                   for v in part]
        assert set().union(*reached) == DIGIT_BRANCHES
        values = np.concatenate([twos, -twos, tiny, -tiny, special, bounds, -bounds,
                                 near_2_53, 2.0 ** 52 + np.arange(-20, 21) / 2,
                                 by_length, np.negative(by_length), midpoints,
                                 np.negative(midpoints), quarters, -quarters, sample, -sample])
        values = np.concatenate([values, np.zeros(-len(values) % 16)])
        assert_rows_match_repr(tmp_path, values.reshape(-1, 16))

    @settings(max_examples=200, deadline=None)
    @given(values=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                                          min_side=4, max_side=40),
                             elements=st.floats()))
    def test_rows_match_repr_on_any_floats(self, tmp_path_factory, values):
        assert_rows_match_repr(tmp_path_factory.mktemp("rows"), values)

    def test_import_builds_no_format_table(self):
        # the float tables are built on the first write, not by the CLI import
        code = ("import toruslandau.cli\n"
                "from toruslandau import gridio\n"
                "print(gridio._tables.cache_info().currsize)\n")
        src = str(Path(gridio.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "0"

    def test_format_tables_unchanged(self):
        # sha256 over the dtype, shape and bytes of every table, as the
        # per-entry Python loops built them before the numpy construction
        digest = hashlib.sha256()
        for table in gridio._tables.__wrapped__():
            digest.update(repr((table.dtype.str, table.shape)).encode())
            digest.update(table.tobytes())
        assert digest.hexdigest() == \
            "017ef54ff6926facd7099603acb161c62463356b90f6e8d9ba69b80ed9efdfcb"

    def test_row_writer_memory_bounded(self, tmp_path):
        # formatted a block of rows at a time: the peak stays below twice the
        # grid itself (per-value strings or whole-grid index arrays are many times it)
        values = np.random.default_rng(5).standard_normal((384, 384))
        field = GridField(TorusGeometry.square(2), "v", values)
        gridio.write_csv(field, tmp_path / "warm.csv")
        tracemalloc.start()
        try:
            gridio.write_csv(field, tmp_path / "v.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * values.nbytes

    def test_matrix_format(self, tmp_path, geo2):
        field = GridField(geo2, "demo", np.ones((4, 4)))
        p = gridio.write_matrix(field, tmp_path / "m.dat")
        assert p.read_text().splitlines()[0] == "1.0 1.0 1.0 1.0"

    def test_sidecar(self, tmp_path, geo2):
        import json
        field = GridField(geo2, "demo", np.zeros((4, 4)))
        p = gridio.write_sidecar(field, tmp_path / "s.json", extra={"level": 0})
        data = json.loads(p.read_text())
        assert data["geometry"]["N"] == 2
        assert data["quantity"] == "demo"
        assert data["level"] == 0

    def test_complex_rejected(self, tmp_path, geo2):
        field = GridField(geo2, "demo", np.zeros((4, 4), dtype=complex))
        with pytest.raises(ValueError):
            gridio.write_csv(field, tmp_path / "c.csv")


class TestSectionAlgebraValidation:
    def test_periodic_grid_layout(self, geo2):
        z = periodic_grid(geo2, 8, 6)
        assert z.shape == (6, 8)
        assert z[0, 1] == pytest.approx(geo2.L1 / 8)
        assert z[1, 0] == pytest.approx(1j * geo2.L2 / 6)


class TestSectionSampler:
    """_sample_sections: a list of distinct unit ground-state terms of one
    order is that order's stack itself; any other list goes through the
    accumulator, one stack per order."""

    def recorded(self, quad):
        stacks = []

        def stack(psis, k):
            stacks.append(quad._stack(psis, k))
            return stacks[-1]

        return stack, stacks

    def test_ground_level_is_one_kept_stack(self, geo2):
        with levels._sharing_stacks():
            kept = Quadrature(geo2).sample(normalized_basis(geo2))
            assert Quadrature(geo2).sample(level_basis(geo2, 0)) is kept
            assert not kept.flags.writeable

    @pytest.mark.parametrize("k", [0, 1])
    def test_unit_terms_of_one_order_are_the_stack(self, geo2, k):
        quad = Quadrature(geo2, 16)
        stack, stacks = self.recorded(quad)
        units = [PolynomialSection(geo2, ((0, psi, k, 1.0),)) for psi in normalized_basis(geo2)]
        got = levels._sample_sections(units, quad.z, stack)
        assert len(stacks) == 1 and got is stacks[0]

    @pytest.mark.parametrize("case", ["psi-twice", "weight-not-one", "zbar-power"])
    def test_other_lists_take_the_accumulator(self, geo2, case):
        psi0, psi1 = normalized_basis(geo2)
        sections = {
            "psi-twice": [ground_section(psi0), ground_section(psi1), ground_section(psi0)],
            "weight-not-one": [ground_section(psi0), 2j * ground_section(psi1)],
            "zbar-power": [ground_section(psi0), PolynomialSection(geo2, ((1, psi1, 0, 1.0),))],
        }[case]
        quad = Quadrature(geo2, 16)
        stack, stacks = self.recorded(quad)
        got = levels._sample_sections(sections, quad.z, stack)
        assert stacks and all(got is not s for s in stacks)
        for value, s in zip(got, sections):
            assert value.tobytes() == quad.sample([s])[0].tobytes()


def test_only_quadrature_weights_grid_samples():
    # Quadrature samples in the weighted frame e^{-|z|^2/2} s, so gram, norms
    # and density, the one Hermitian product, are plain sums: no code of the
    # package reads a weight attribute, and only Quadrature's methods read
    # its cell.  The weighted frame is asked for (_weighted=True) in two
    # places only, Quadrature._stack and translations._project, and no
    # function outside lll_basis, which defines the keyword, takes a
    # _weighted or grid parameter to pass on.  Criterion
    # 8's probe weighs its own points, independently, by a local weight.
    def visit(node, owner=None, function=None):
        if isinstance(node, ast.ClassDef):
            owner = node.name
        if isinstance(node, ast.FunctionDef):
            function = node.name
        yield node, owner, function
        for child in ast.iter_child_nodes(node):
            yield from visit(child, owner, function)

    package = Path(levels.__file__).parent
    weights, cells, requests, passed_on = [], [], [], []
    for path in sorted(package.glob("*.py")):
        for node, owner, function in visit(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "weight":
                weights.append((path.name, node.lineno))
            if isinstance(node, ast.Attribute) and node.attr == "cell" \
                    and not (owner == "Quadrature" and getattr(node.value, "id", None) == "self"):
                cells.append((path.name, node.lineno))
            if isinstance(node, ast.keyword) and node.arg == "_weighted":
                assert isinstance(node.value, ast.Constant) and node.value.value is True
                requests.append((path.name, owner, function))
            if isinstance(node, ast.arg) and node.arg in ("_weighted", "grid") \
                    and path.name != "lll_basis.py":
                passed_on.append((path.name, function, node.arg))
    assert weights == [] and cells == [] and passed_on == []
    assert sorted(requests) == [("levels.py", "Quadrature", "_stack"),
                                ("translations.py", None, "_project")]
    verify_tree = ast.parse((package / "verify.py").read_text())
    probe = next(node for node in ast.walk(verify_tree)
                 if isinstance(node, ast.FunctionDef) and node.name == "_eigen_residuals")
    assert "weight" in {target.id for node in ast.walk(probe) if isinstance(node, ast.Assign)
                        for target in node.targets if isinstance(target, ast.Name)}
