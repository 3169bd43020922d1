"""Injected faults and the acceptance criteria that catch them.

Each fault is a named monkeypatch that wraps or replaces one function of
the package, except the x boundary sign fault, which run_acceptance takes as
fault_phases; each test runs the acceptance suite under it and asserts the
exact set of failing criteria, so that a check which stops failing is
caught, and so is one which starts failing on a fault it should not see.
"""

import dataclasses
import math

import pytest

from toruslandau import cocycle, geometry, levels, lll_basis, translations, verify


def scale_grid_values(monkeypatch, factor):
    """Every sample of the grid path times factor: a uniform-scale fault."""
    grid = lll_basis._fourier_grid
    monkeypatch.setattr(lll_basis, "_fourier_grid",
                        lambda psis, z, order, weighted: grid(psis, z, order, weighted) * factor)


def drop_gaussian_nu_squared(monkeypatch):
    """The Gaussian series without the nu^2 term of its Poisson constant
    e^{-nu^2 L2^2/N^2}: each row of the stack times its own e^{(nu L2/N)^2}.
    The criteria reach the series only through lll_basis.duality_residuals,
    which looks up eval_gaussian_stack in lll_basis."""
    stack = lll_basis.eval_gaussian_stack

    def faulty(psis, z, order=0):
        out = stack(psis, z, order)
        for row, psi in zip(out, psis):
            geo = psi.geometry
            row *= math.exp((psi.nu * geo.L2 / geo.N) ** 2)
        return out

    monkeypatch.setattr(lll_basis, "eval_gaussian_stack", faulty)


def shift_fourier_class(monkeypatch):
    """Both Fourier paths, grid and pointwise, sum the residue class nu + 1
    (mod N) in place of nu: a relabelled basis."""
    grid, points = lll_basis._fourier_grid, lll_basis._fourier_points

    def relabel(psi):
        return dataclasses.replace(psi, nu=(psi.nu + 1) % psi.geometry.N)

    monkeypatch.setattr(lll_basis, "_fourier_grid",
                        lambda psis, z, order, weighted:
                        grid([relabel(p) for p in psis], z, order, weighted))
    monkeypatch.setattr(lll_basis, "_fourier_points",
                        lambda psis, arr, order: points([relabel(p) for p in psis], arr, order))


# The x boundary sign fault: criterion 4 expects psi(z) to be
# psi(z - L1) F1(z - L1) with the opposite sign, as for a bundle of
# boundary phase delta1 = pi.
X_SIGN_FAULT = lll_basis.BoundaryPhases(math.pi, 0.0)


def flip_creation_zbar_sign(monkeypatch):
    """The creation operator as d/dz + zbar: each term zbar^p psi^(k) goes to
    zbar^p psi^(k+1) + zbar^(p+1) psi^(k).  Level bases (levels) and
    criterion 8 (verify) each look up raise_section in their own module."""
    def faulty(s):
        s = levels.as_section(s)
        return levels.PolynomialSection(s.geometry, tuple(
            term for p, psi, k, w in s.terms
            for term in ((p, psi, k + 1, w), (p + 1, psi, k, w))))

    monkeypatch.setattr(levels, "raise_section", faulty)
    monkeypatch.setattr(verify, "raise_section", faulty)


def scale_chi(monkeypatch, factor):
    """Every transition function of the mesh cocycle times factor."""
    chi = cocycle.chi
    monkeypatch.setattr(cocycle, "chi", lambda *args: chi(*args) * factor)


def conjugate_commutator_phase(monkeypatch):
    """The closed-form commutator phase exp(conj(a) b - a conj(b)) conjugated."""
    phase = translations.commutator_phase
    monkeypatch.setattr(translations, "commutator_phase",
                        lambda a, b: phase(a, b).conjugate())


def keep_degree_zero_in_dbar(monkeypatch):
    """dbar_section keeps each degree-0 term as it is, where dbar drops it:
    the level-0 Rayleigh quotient becomes 2, and each level-1 section's
    psi^(1) term survives into its dbar."""
    def faulty(s):
        s = levels.as_section(s)
        return levels.PolynomialSection(s.geometry, tuple(
            (p - 1, psi, k, p * w) if p else (p, psi, k, w) for p, psi, k, w in s.terms))

    monkeypatch.setattr(levels, "dbar_section", faulty)


def scale_dbar_coefficient(monkeypatch, factor):
    """dbar_section's coefficient p times factor: each term zbar^p psi^(k)
    goes to factor p zbar^(p-1) psi^(k)."""
    def faulty(s):
        s = levels.as_section(s)
        return levels.PolynomialSection(s.geometry, tuple(
            (p - 1, psi, k, p * w * factor) for p, psi, k, w in s.terms if p))

    monkeypatch.setattr(levels, "dbar_section", faulty)


def drop_wrap_crossing_term(monkeypatch):
    """lll_basis._wrap_exponent without its n1 n2 N pi term, where the
    boundary factors (lll_basis) and the translations (translations) look
    it up."""
    wrap = lll_basis._wrap_exponent

    def faulty(geometry, w0, n1, n2):
        return wrap(geometry, w0, n1, n2) - 1j * (n1 * n2 * geometry.N) * math.pi

    monkeypatch.setattr(lll_basis, "_wrap_exponent", faulty)
    monkeypatch.setattr(translations, "_wrap_exponent", faulty)


def wintner_with_one_more_quantum(monkeypatch):
    """Criterion 7's determinant phase taken with N + 1 in place of N."""
    check = translations.wintner_check
    monkeypatch.setattr(verify, "wintner_check", lambda n_dim, a, b: check(n_dim + 1, a, b))


def quantize_by(monkeypatch, rounding):
    """dirac_quantize takes rounding(L1 L2/pi), math.floor or math.ceil, in
    place of round."""
    monkeypatch.setattr(geometry, "round", rounding, raising=False)


def failing(results):
    return {i for i, r in enumerate(results, 1) if not r.passed}


def test_uniform_grid_scale_fault(monkeypatch):
    # a quadrature normalization would absorb a uniform scale; the
    # closed-form norm does not, so the Gram diagonal, the density mean and
    # the translation matrices' unitarity all read |1 + 1e-9|^2 - 1
    scale_grid_values(monkeypatch, 1 + 1e-9)
    results = verify.run_acceptance(n_max=3)
    assert failing(results) == {2, 5, 6}
    assert results[1].data["worst"] == pytest.approx(2e-9, rel=1e-3)


def test_gaussian_poisson_constant_fault(monkeypatch):
    # the comb keeps its own Poisson constant, not one derived from the
    # Fourier series, so only the duality check can see it go wrong
    drop_gaussian_nu_squared(monkeypatch)
    assert failing(verify.run_acceptance(n_max=3)) == {3}


def test_fourier_residue_class_fault(monkeypatch):
    # a relabelled basis is still orthonormal and periodic, and its density
    # is the same sum; the Gaussian series, which keeps its own nu, sees it
    # (criterion 3), and so does criterion 6, whose clock T_{L1/N} has the
    # phase of nu + 1 on the diagonal of row nu
    shift_fourier_class(monkeypatch)
    assert failing(verify.run_acceptance(n_max=3)) == {3, 6}


def test_x_boundary_sign_fault():
    # run_acceptance passes the phases to criterion 4 alone
    assert failing(verify.run_acceptance(n_max=2, fault_phases=X_SIGN_FAULT)) == {4}


def test_creation_operator_sign_fault(monkeypatch):
    # d/dz + zbar keeps neither the norm nor the boundary law: the level-1
    # density maps lose their mean and their lattice invariance, and the
    # energy ladder fails; criterion 6 projects level 0 only
    flip_creation_zbar_sign(monkeypatch)
    assert failing(verify.run_acceptance(n_max=3)) == {5, 8}


def test_cocycle_chi_scale_fault(monkeypatch):
    # only the mesh theorem sums transition functions
    scale_chi(monkeypatch, 1 + 1e-6)
    assert failing(verify.run_acceptance(n_max=3)) == {9}


def test_commutator_phase_fault(monkeypatch):
    # the four projected matrices multiply to the true phase, so the
    # conjugate misses it where exp(2 pi i/N) is not real (N = 3)
    conjugate_commutator_phase(monkeypatch)
    assert failing(verify.run_acceptance(n_max=3)) == {6}


def test_dbar_degree_zero_fault(monkeypatch):
    # every level-1 section has a degree-0 term, so its Rayleigh quotient
    # sees the fault without the level-0 quotient that is 0 by construction
    keep_degree_zero_in_dbar(monkeypatch)
    results = verify.run_acceptance(n_max=3)
    assert failing(results) == {8}
    assert "level-1 RQ" in results[7].detail


def test_dbar_coefficient_fault(monkeypatch):
    # only the Rayleigh quotients take dbar_section: level 1's read 2.004
    scale_dbar_coefficient(monkeypatch, 1.001)
    results = verify.run_acceptance(n_max=3)
    assert failing(results) == {8}
    assert "level-1 RQ" in results[7].detail


def test_wrap_crossing_term_fault(monkeypatch):
    # the dropped term is a multiple of i pi: it flips the sign of odd-N
    # wraps, which the projection's wrapped samples (criterion 6) and the
    # translated probe sections (criterion 8) both see; criterion 4's
    # boundary factors step one period, where the term is 0
    drop_wrap_crossing_term(monkeypatch)
    assert failing(verify.run_acceptance(n_max=3)) == {6, 8}


def test_wintner_phase_fault(monkeypatch):
    # criterion 7 alone calls wintner_check through verify
    wintner_with_one_more_quantum(monkeypatch)
    assert failing(verify.run_acceptance(n_max=3)) == {7}


@pytest.mark.parametrize("rounding", [math.floor, math.ceil], ids=["floor", "ceil"])
def test_flux_gate_rounding_fault(monkeypatch, rounding):
    # criterion 1 alone calls dirac_quantize; its tori a few ulps below and
    # above N quantize to N - 1 or N + 1 under the fault
    quantize_by(monkeypatch, rounding)
    results = verify.run_acceptance(n_max=3)
    assert failing(results) == {1}
    assert ("just below" if rounding is math.floor else "just above") in results[0].detail
