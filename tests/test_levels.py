import numpy as np
import pytest

from toruslandau import gridio
from toruslandau.errors import GeometryMismatch, ZeroNorm
from toruslandau.geometry import TorusGeometry
from toruslandau.levels import (GridField, PolynomialSection,
                                apply_hamiltonian, dbar_section,
                                default_resolution, density_map,
                                deviation_decay, gram_matrix, ground_section,
                                hermitian_density, inner_product, level_basis,
                                local_extrema, log_linear_fit, periodic_grid,
                                raise_section, rayleigh_quotient)
from toruslandau.lll_basis import (boundary_factors, eval_fourier,
                                   eval_gaussian, ground_basis,
                                   normalized_basis, theta_basis)


@pytest.fixture(scope="module")
def geo2():
    return TorusGeometry.square(2)


@pytest.fixture(scope="module")
def basis2(geo2):
    return normalized_basis(geo2)


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

    def test_sesquilinear(self, basis2):
        z = 0.7 + 0.3j
        s = ground_section(basis2[1])
        h1 = hermitian_density(basis2[0], s, z)
        h2 = hermitian_density(basis2[0], s * 1j, z)
        assert complex(h2) == pytest.approx(complex(1j * h1), rel=1e-14)
        h3 = hermitian_density(ground_section(basis2[0]) * 1j, s, z)
        assert complex(h3) == pytest.approx(complex(-1j * h1), rel=1e-14)

    def test_geometry_mismatch(self, basis2):
        other = theta_basis(TorusGeometry.square(3), 0)
        with pytest.raises(GeometryMismatch):
            hermitian_density(basis2[0], other, 0.1)


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
        nx = default_resolution(geo)
        for s1, s2 in ((basis[0], basis[0]), (basis[0], basis[-1])):
            a = inner_product(s1, s2, nx, nx)
            b = inner_product(s1, s2, 2 * nx, 2 * nx)
            assert abs(a - b) < 1e-12

    def test_resolution_floor(self, basis2):
        with pytest.raises(ValueError):
            inner_product(basis2[0], basis2[0], 2, 2)


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
    def test_annihilates_ground_level(self, basis2):
        h = apply_hamiltonian(ground_section(basis2[0]))
        assert h.is_zero
        z = np.array([0.2 + 0.1j, 1.5 + 2.0j])
        np.testing.assert_array_equal(h(z), 0)

    def test_first_level_eigenvalue(self, basis2):
        geo = basis2[0].geometry
        rng = np.random.default_rng(5)
        z = rng.random(40) * geo.L1 + 1j * rng.random(40) * geo.L2
        for psi in basis2:
            s = raise_section(ground_section(psi))
            hs = apply_hamiltonian(s)
            np.testing.assert_allclose(hs(z), 2.0 * s(z), rtol=1e-12)

    def test_linearity(self, basis2):
        s1 = raise_section(ground_section(basis2[0]))
        s2 = raise_section(ground_section(basis2[1]))
        a = 0.7 - 1.2j
        combo = apply_hamiltonian(a * s1 + s2)
        z = np.array([0.3 + 0.5j, 1.1 + 0.4j, 2.0 + 1.0j])
        np.testing.assert_allclose(
            combo(z), a * apply_hamiltonian(s1)(z) + apply_hamiltonian(s2)(z),
            rtol=1e-12)

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
        dm = density_map(geo, level, 66, 66)
        assert lattice_near_extremum(dm.deviation.values, 3)

    def test_lattice_shift_invariance(self):
        geo = TorusGeometry.square(4)
        dm = density_map(geo, 0, 64, 64)
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

    def test_representations_agree(self):
        # the density rebuilt from the Gaussian series, term by term, matches
        geo = TorusGeometry.square(3)
        z = periodic_grid(geo, 66, 66)
        for level in (0, 1):
            rho = np.zeros(z.shape)
            for s in level_basis(geo, level, 66, 66):
                vals = sum(w * np.conj(z) ** p * eval_gaussian(psi, z, k)
                           for p, psi, k, w in s.terms)
                rho += np.exp(-np.abs(z) ** 2) * np.abs(vals) ** 2
            fourier = density_map(geo, level, 66, 66).rho.values
            assert np.max(np.abs(fourier - rho)) < 1e-11

    def test_deviation_decay_table(self):
        table = deviation_decay(TorusGeometry.square, levels=(0,),
                                n_values=range(1, 5))
        d = table[0]["d"]
        assert np.all(np.diff(d) < 0)
        assert table[0]["slope"] < -1.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("ns, ds", [([1], [0.5]), ([2, 2], [0.5, 0.4]), ([], [])])
    def test_log_linear_fit_needs_two_distinct_n(self, ns, ds):
        # one N leaves no variation to fit: an error, not inf/nan with warnings
        with pytest.raises(ValueError, match="two distinct N"):
            log_linear_fit(ns, ds)

    @pytest.mark.filterwarnings("error")
    def test_deviation_decay_needs_two_n(self):
        with pytest.raises(ValueError, match="two distinct N"):
            deviation_decay(TorusGeometry.square, n_values=[1])
        fit = log_linear_fit([1, 2], [0.5, 0.2])   # two points: an exact line
        assert fit["fit_residual"] < 1e-12 and fit["slope"] == pytest.approx(np.log(0.4))

    def test_decay_fit_shared_with_criterion_5(self, monkeypatch):
        # deviation_decay and check_symmetry_breaking fit the same d table
        # identically
        from toruslandau import levels, verify
        table = {0: [0.9, 0.31, 0.12, 0.041], 1: [1.4, 0.52, 0.2, 0.083]}

        def fake_density_map(geo, level=0, nx=None, ny=None):
            d = table[level][geo.N - 1]
            ones = np.ones((8, 8))
            return levels.DensityMap(GridField(geo, "rho", ones),
                                     GridField(geo, "dev", 0 * ones), 1.0, d)

        monkeypatch.setattr(levels, "density_map", fake_density_map)
        monkeypatch.setattr(verify, "density_map", fake_density_map)
        decay = deviation_decay(TorusGeometry.square, levels=(0, 1),
                                n_values=range(1, 5))
        fits = verify.check_symmetry_breaking(n_max=4, figure_ns=()).data["fits"]
        for level in (0, 1):
            np.testing.assert_array_equal(decay[level]["d"], table[level])
            assert fits[level]["slope"] == decay[level]["slope"]
            assert fits[level]["fit_residual"] == decay[level]["fit_residual"]

    def test_level_validation(self):
        with pytest.raises(ValueError):
            density_map(TorusGeometry.square(1), level=2)


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
    def test_mismatched_addition(self, basis2):
        other = ground_section(theta_basis(TorusGeometry.square(3), 0))
        with pytest.raises(GeometryMismatch):
            ground_section(basis2[0]) + other

    def test_periodic_grid_layout(self, geo2):
        z = periodic_grid(geo2, 8, 6)
        assert z.shape == (6, 8)
        assert z[0, 1] == pytest.approx(geo2.L1 / 8)
        assert z[1, 0] == pytest.approx(1j * geo2.L2 / 6)
