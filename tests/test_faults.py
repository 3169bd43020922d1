"""Injected faults and the acceptance criteria that catch them.

Each fault is a named monkeypatch that wraps one function of the package;
each test runs the acceptance suite under it and asserts the exact set of
failing criteria, so that a check which stops failing is caught, and so is
one which starts failing on a fault it should not see.
"""

import dataclasses
import math

import pytest

from toruslandau import lll_basis, verify


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
    # a relabelled basis is still orthonormal and periodic, its density is
    # the same sum, and its translation matrices are only permuted, so only
    # the Gaussian series, which keeps its own nu, sees it: criterion 3
    # compares that series with the pointwise Fourier sum
    shift_fourier_class(monkeypatch)
    assert failing(verify.run_acceptance(n_max=3)) == {3}
