import math

import numpy as np
import pytest

from toruslandau.errors import NonIntegralFlux
from toruslandau.geometry import (PhysicalConfig, TorusGeometry,
                                  dirac_quantize, parse_config,
                                  resolve_geometry, to_natural)


def config_with_natural_sides(l1_nat, l2_nat, B=1e5):
    """Physical config whose natural-unit sides are exactly (l1_nat, l2_nat)."""
    probe = PhysicalConfig(B=B, L1_phys=1.0, L2_phys=1.0)
    unit = probe.length_unit
    return PhysicalConfig(B=B, L1_phys=l1_nat * unit, L2_phys=l2_nat * unit)


class TestToNatural:
    def test_unit_cell_gives_single_quantum(self):
        cfg = config_with_natural_sides(math.sqrt(math.pi), math.sqrt(math.pi))
        geo = to_natural(cfg)
        assert geo.N == 1
        assert geo.L1 == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_flux_scales_with_area(self):
        s = math.sqrt(3.0)
        cfg = config_with_natural_sides(s * math.sqrt(math.pi),
                                        s * math.sqrt(math.pi))
        assert to_natural(cfg).N == 3

    def test_nonintegral_flux_rejected(self):
        cfg = config_with_natural_sides(math.sqrt(1.5 * math.pi),
                                        math.sqrt(1.5 * math.pi))
        with pytest.raises(NonIntegralFlux) as err:
            to_natural(cfg)
        assert abs(err.value.flux_ratio - 1.5) < 1e-9

    @pytest.mark.parametrize("B", [math.inf, 1e308, 1e-320])
    def test_length_unit_zero_or_infinite_rejected(self, B):
        # a field so strong that the unit is 0, or so weak that m*omega
        # underflows and the unit is inf
        with pytest.raises(ValueError, match="natural length unit"):
            to_natural(PhysicalConfig(B=B, L1_phys=1.0, L2_phys=1.0))

    def test_result_satisfies_construction_invariant(self):
        # 1e-9 input noise must be snapped to the 1e-12 construction gate
        side = math.sqrt(2 * math.pi) * (1 + 3e-10)
        geo = to_natural(config_with_natural_sides(side, side))
        assert abs(geo.area - 2 * math.pi) <= 1e-12 * 2 * math.pi
        assert geo.L1 / geo.L2 == pytest.approx(1.0, rel=1e-14)


class TestDiracQuantize:
    def test_single_quantum(self):
        assert dirac_quantize(math.sqrt(math.pi), math.sqrt(math.pi)) == 1

    def test_three_quanta(self):
        assert dirac_quantize(math.sqrt(3 * math.pi), math.sqrt(3 * math.pi)) == 3

    def test_unit_square_rejected(self):
        with pytest.raises(NonIntegralFlux) as err:
            dirac_quantize(1.0, 1.0)
        assert err.value.flux_ratio == pytest.approx(1 / math.pi)

    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("ratio", [0.5, 1.0, 2.0])
    def test_accepts_exact_and_rejects_perturbed(self, n, ratio):
        L1 = math.sqrt(n * math.pi * ratio)
        L2 = n * math.pi / L1
        assert dirac_quantize(L1, L2) == n
        with pytest.raises(NonIntegralFlux):
            dirac_quantize(L1 * (1 + 1e-6), L2)
        with pytest.raises(NonIntegralFlux):
            dirac_quantize(L1, L2 * (1 - 1e-6))

    def test_nonpositive_sides(self):
        with pytest.raises(ValueError):
            dirac_quantize(-1.0, 1.0)

    @pytest.mark.parametrize("L1, L2", [(math.inf, 1.0), (1.0, math.nan),
                                        (1e308, 1e308)])
    def test_nonfinite_sides_or_flux(self, L1, L2):
        with pytest.raises(ValueError, match="finite|overflows"):
            dirac_quantize(L1, L2)


class TestTorusGeometry:
    def test_round_trip_property(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 11))
            ratio = float(rng.uniform(0.2, 5.0))
            geo = TorusGeometry.with_aspect(n, ratio)
            assert dirac_quantize(geo.L1, geo.L2) == geo.N == n

    def test_aspect_ratio_freedom(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            L1 = float(rng.uniform(0.5, 10.0))
            geo = TorusGeometry(L1, 4 * math.pi / L1, 4)
            assert geo.N == 4

    def test_unquantized_area_rejected(self):
        with pytest.raises(NonIntegralFlux):
            TorusGeometry(1.0, 1.0, 1)

    def test_wrong_n_rejected(self):
        with pytest.raises(NonIntegralFlux):
            TorusGeometry(math.sqrt(2 * math.pi), math.sqrt(2 * math.pi), 3)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            TorusGeometry(0.0, 1.0, 1)

    @pytest.mark.parametrize("L1, L2", [(math.inf, 1.0), (1.0, math.nan),
                                        (1e200, 1e200)])
    def test_nonfinite_sides_or_flux_rejected(self, L1, L2):
        with pytest.raises(ValueError, match="finite|overflows"):
            TorusGeometry(L1, L2, 1)

    def test_square_factory(self):
        geo = TorusGeometry.square(5)
        assert geo.L1 == geo.L2 == pytest.approx(math.sqrt(5 * math.pi))

    @pytest.mark.parametrize("n", [np.int64(3), np.int32(3), np.uint8(3)])
    def test_numpy_integer_flux_count(self, n):
        geo = TorusGeometry.square(n)
        assert geo == TorusGeometry.square(3)
        assert type(geo.N) is int

    @pytest.mark.parametrize("n", [True, 3.0, np.float64(3.0), "3"])
    def test_non_integer_flux_count_rejected(self, n):
        with pytest.raises(ValueError):
            TorusGeometry(math.sqrt(3 * math.pi), math.sqrt(3 * math.pi), n)


class TestPhysicalConfig:
    def test_positive_fields_required(self):
        with pytest.raises(ValueError):
            PhysicalConfig(B=-1.0, L1_phys=1.0, L2_phys=1.0)
        with pytest.raises(ValueError):
            PhysicalConfig(B=1.0, L1_phys=0.0, L2_phys=1.0)


class TestConfigParsing:
    def test_basic_file(self):
        text = "# comment\nunits = natural\nL1 = 2.5\nL2=2.5132741228718345\n"
        cfg = parse_config(text)
        assert cfg == {"units": "natural", "L1": 2.5, "L2": 2.5132741228718345}

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config("bogus = 3\n")

    def test_bad_units(self):
        with pytest.raises(ValueError, match="natural"):
            parse_config("units = furlongs\n")

    def test_missing_equals(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_config("L1 2.5\n")


class TestResolveGeometry:
    def test_n_alone_is_square(self):
        geo = resolve_geometry({"N": 4})
        assert geo.L1 == geo.L2 and geo.N == 4

    def test_sides_determine_n(self):
        s = math.sqrt(2 * math.pi)
        assert resolve_geometry({"L1": s, "L2": s}).N == 2

    def test_n_and_one_side(self):
        geo = resolve_geometry({"N": 3, "L1": 2.0})
        assert geo.L2 == pytest.approx(3 * math.pi / 2.0)

    def test_conflicting_n(self):
        s = math.sqrt(2 * math.pi)
        with pytest.raises(ValueError, match="conflicts"):
            resolve_geometry({"N": 5, "L1": s, "L2": s})

    def test_physical_path(self):
        probe = PhysicalConfig(B=1e5, L1_phys=1.0, L2_phys=1.0)
        side = math.sqrt(2 * math.pi) * probe.length_unit
        geo = resolve_geometry({"units": "physical", "B": 1e5,
                                "L1": side, "L2": side})
        assert geo.N == 2

    def test_physical_requires_field(self):
        with pytest.raises(ValueError, match="require B"):
            resolve_geometry({"units": "physical", "L1": 1.0, "L2": 1.0})

    def test_nothing_given(self):
        with pytest.raises(ValueError):
            resolve_geometry({})
