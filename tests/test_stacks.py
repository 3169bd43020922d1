"""One torus per stack: every stacked entry point rejects sections of two
tori with GeometryMismatch, and gives an empty result for an empty stack.
Sections are checked where they are built, and samples where they are
taken, against the torus they belong to."""

import numpy as np
import pytest

from toruslandau.errors import GeometryMismatch
from toruslandau.geometry import TorusGeometry
from toruslandau.levels import (PolynomialSection, Quadrature, gram_matrix, ground_section,
                                inner_product, level_basis, periodic_grid, rayleigh_quotients)
from toruslandau.lll_basis import (boundary_residuals, duality_residuals, eval_fourier_stack,
                                   eval_gaussian_stack, normalized_basis, theta_basis)
from toruslandau.translations import translate_sections

A, B = TorusGeometry.square(2), TorusGeometry.square(3)
GRID = periodic_grid(A, 8, 6)
POINTS = np.array([0.3 + 0.4j, 1.1 - 0.2j, -0.5 + 2.0j])
MIXED = [theta_basis(A, 0), theta_basis(B, 0)]

# each stacked entry point, and the empty result it gives for an empty stack
STACKED = {
    "eval_fourier_stack-grid": (lambda s: eval_fourier_stack(s, GRID),
                                np.empty((0, 6, 8), dtype=complex)),
    "eval_fourier_stack-points": (lambda s: eval_fourier_stack(s, POINTS),
                                  np.empty((0, 3), dtype=complex)),
    "eval_gaussian_stack": (lambda s: eval_gaussian_stack(s, GRID),
                            np.empty((0, 6, 8), dtype=complex)),
    "duality_residuals": (lambda s: duality_residuals(s, POINTS), []),
    "boundary_residuals": (lambda s: boundary_residuals(s, POINTS), []),
    "gram_matrix": (lambda s: gram_matrix(s, 16), np.zeros((0, 0), dtype=complex)),
    "rayleigh_quotients": (rayleigh_quotients, []),
    "Quadrature.sample": (lambda s: Quadrature(A, 16).sample(s),
                          np.empty((0, 16, 16), dtype=complex)),
    "translate_sections": (lambda s: translate_sections(0.1, s, GRID),
                           np.empty((0, 6, 8), dtype=complex)),
}


@pytest.mark.parametrize("call", [call for call, _ in STACKED.values()], ids=list(STACKED))
def test_mixed_stack_rejected(call):
    with pytest.raises(GeometryMismatch):
        call(MIXED)


@pytest.mark.parametrize("call, empty", STACKED.values(), ids=list(STACKED))
def test_empty_stack_gives_empty_result(call, empty):
    got = call([])
    assert type(got) is type(empty)
    if isinstance(empty, np.ndarray):
        assert got.shape == empty.shape and got.dtype == empty.dtype
    else:
        assert got == empty


# a section or a pair built from, or sampled on, two tori
BUILT_ON_TWO_TORI = {
    "term-on-another-torus": lambda: PolynomialSection(A, ((0, theta_basis(B, 0), 0, 1.0),)),
    "sum": lambda: ground_section(theta_basis(A, 0)) + ground_section(theta_basis(B, 0)),
    "sum-of-zero-sections": lambda: PolynomialSection(A) + PolynomialSection(B),
    "inner_product": lambda: inner_product(theta_basis(A, 0), theta_basis(B, 0)),
    "sample-of-other-ground-states": lambda: Quadrature(A).sample(normalized_basis(B)),
    "sample-of-other-sections": lambda: Quadrature(A).sample(level_basis(B, 0)),
}


@pytest.mark.parametrize("build", BUILT_ON_TWO_TORI.values(), ids=list(BUILT_ON_TWO_TORI))
def test_two_tori_rejected(build):
    with pytest.raises(GeometryMismatch):
        build()
