import math

import numpy as np
import pytest

from toruslandau.cocycle import (Triangulation, _identity_parts,
                                 chart_potential, chi,
                                 cocycle_constant, edge_cancellation_total,
                                 mesh_from_json, mesh_to_json, total_flux,
                                 triangle_identity, uniform_mesh)
from toruslandau.errors import NotConstant


class TestChi:
    def test_same_chart_vanishes(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            c = rng.normal(size=2)
            p = rng.normal(size=2)
            assert chi(c, c, p, B=2.7) == 0.0

    def test_antisymmetric(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            ca, cb, p = rng.normal(size=(3, 2))
            assert chi(ca, cb, p, 1.3) + chi(cb, ca, p, 1.3) == pytest.approx(0.0)

    def test_gradient_reproduces_potential_difference(self):
        # d(chi_ab) = A_a - A_b, checked by central differences
        b = 3.1
        ca = np.array([0.2, 0.7])
        cb = np.array([1.4, -0.3])
        p = np.array([0.9, 0.5])
        h = 1e-6
        grad = np.array([
            (chi(ca, cb, p + [h, 0], b) - chi(ca, cb, p - [h, 0], b)) / (2 * h),
            (chi(ca, cb, p + [0, h], b) - chi(ca, cb, p - [0, h], b)) / (2 * h),
        ])
        expect = chart_potential(ca, p, b) - chart_potential(cb, p, b)
        np.testing.assert_allclose(grad, expect, atol=1e-10)


class TestUniformMesh:
    def test_counts_and_area(self):
        mesh = uniform_mesh(4, 2.0, 1.5, 1.0)
        assert mesh.n_triangles == 32
        assert len(mesh.vertices) == 16
        total = sum(mesh.signed_area(t) for t in range(mesh.n_triangles))
        assert total == pytest.approx(3.0, rel=1e-14)

    def test_too_coarse_rejected(self):
        with pytest.raises(ValueError):
            uniform_mesh(2, 1.0, 1.0, 1.0)

    def test_validation_catches_bad_orientation(self):
        mesh = uniform_mesh(3, 1.0, 1.0, 1.0)
        tris = mesh.triangles.copy()
        tris[0] = tris[0][::-1]
        wraps = mesh.wraps.copy()
        wraps[0] = -wraps[0][::-1]
        with pytest.raises(ValueError, match="oriented"):
            Triangulation(1.0, 1.0, 1.0, mesh.vertices, tris, wraps)

    def test_validation_catches_missing_triangle(self):
        mesh = uniform_mesh(3, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            Triangulation(1.0, 1.0, 1.0, mesh.vertices,
                          mesh.triangles[:-1], mesh.wraps[:-1])


class TestCocycleConstant:
    def test_zero_without_wraps(self):
        mesh = uniform_mesh(8, 1.0, 1.0, 6 * math.pi)
        for t in range(mesh.n_triangles):
            if np.all(mesh.wraps[t] == 0):
                assert cocycle_constant(mesh, t) == pytest.approx(0.0, abs=1e-14)

    def test_x_seam_triangle_value(self):
        # n = 4 unit torus: the lower triangle of the seam square (i=3, j=0)
        # has lifted vertices A=(3/4,0), B=(1,0), C=(1,1/4) with B, C wrapped.
        # Working through the three edge-anchored transition functions by hand
        # gives c = B/8 (= B * L1 * y-extent / 2 with y-extent 1/4).
        b = 6 * math.pi
        mesh = uniform_mesh(4, 1.0, 1.0, b)
        t = 2 * (0 * 4 + 3)   # first triangle of square (i=3, j=0)
        assert np.any(mesh.wraps[t] != 0)
        assert cocycle_constant(mesh, t) == pytest.approx(b / 8, rel=1e-12)

    def test_inconsistent_lift_detected(self):
        mesh = uniform_mesh(4, 1.0, 1.0, 2 * math.pi)
        mesh.wraps[5, 1] = mesh.wraps[5, 1] + 1   # break closure in place
        with pytest.raises(NotConstant):
            cocycle_constant(mesh, 5)

    def test_wrapped_triangles_carry_all_flux(self):
        flux = 4 * math.pi
        mesh = uniform_mesh(8, 1.0, 1.0, flux)
        wrapped = sum(cocycle_constant(mesh, t) for t in range(mesh.n_triangles)
                      if np.any(mesh.wraps[t] != 0))
        assert wrapped == pytest.approx(flux, rel=1e-12)

    @pytest.mark.parametrize("quanta", [1.0, 1.5])
    def test_equals_cocycle_term_of_identity(self, quanta):
        mesh = uniform_mesh(4, 1.0, 1.3, 2 * math.pi * quanta)
        for t in range(mesh.n_triangles):
            assert cocycle_constant(mesh, t) == _identity_parts(mesh, t)[1]


class TestTriangleIdentity:
    @pytest.mark.parametrize("n", [4, 8])
    @pytest.mark.parametrize("quanta", [1.0, 3.0, 1.5])
    def test_holds_on_every_triangle(self, n, quanta):
        mesh = uniform_mesh(n, 1.0, 1.0, 2 * math.pi * quanta)
        for t in range(mesh.n_triangles):
            lhs, rhs = triangle_identity(mesh, t)
            assert abs(lhs - rhs) <= 1e-10 * abs(lhs) + 1e-14

    def test_zero_field(self):
        mesh = uniform_mesh(4, 1.0, 1.0, 0.0)
        for t in (0, 7, 31):
            lhs, rhs = triangle_identity(mesh, t)
            assert lhs == 0.0 and abs(rhs) < 1e-15

    def test_degenerate_triangle_collapses(self):
        # collinear vertices: area term and boundary pieces cancel to zero
        b = 2.0
        pts = [np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([2.0, 0.0])]
        csum = sum(chi(pts[k], pts[(k + 1) % 3], pts[0], b) for k in range(3))
        vertex = sum(chi(pts[k], pts[(k + 1) % 3], pts[k], b)
                     + chi(pts[k], pts[(k + 1) % 3], pts[(k + 1) % 3], b)
                     for k in range(3))
        edge = 0.0
        for k in range(3):
            p1, p2 = pts[k], pts[(k + 1) % 3]
            mid = (p1 + p2) / 2
            a_sum = chart_potential(p1, mid, b) + chart_potential(p2, mid, b)
            edge += float(np.dot(a_sum, p2 - p1))
        rhs = csum - vertex / 2 + edge / 2
        assert rhs == pytest.approx(0.0, abs=1e-14)


class TestTotalFlux:
    def test_three_quanta(self):
        mesh = uniform_mesh(8, 1.0, 1.0, 6 * math.pi)
        result = total_flux(mesh)
        assert result.sum_cocycles == pytest.approx(6 * math.pi, rel=1e-12)
        assert result.theorem_holds and result.weil_integral
        assert result.flux_quanta == pytest.approx(3.0)

    def test_zero_field(self):
        result = total_flux(uniform_mesh(4, 1.0, 1.0, 0.0))
        assert result.sum_cocycles == pytest.approx(0.0, abs=1e-14)
        assert result.flux == 0.0
        assert result.theorem_holds and result.weil_integral

    def test_nonintegral_flux_still_satisfies_theorem(self):
        mesh = uniform_mesh(8, 1.0, 1.0, 3 * math.pi)
        result = total_flux(mesh)
        assert result.theorem_holds
        assert not result.weil_integral
        assert result.flux_quanta == pytest.approx(1.5)

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_mesh_independence(self, n):
        mesh = uniform_mesh(n, 1.0, 1.0, 2 * math.pi * 2)
        result = total_flux(mesh)
        assert result.sum_cocycles == pytest.approx(4 * math.pi, rel=1e-9)

    def test_rectangular_torus(self):
        mesh = uniform_mesh(8, 2.0, 0.7, 5.0)
        assert total_flux(mesh).sum_cocycles == pytest.approx(5.0 * 1.4, rel=1e-12)

    def test_edge_terms_cancel_over_mesh(self):
        mesh = uniform_mesh(8, 1.0, 1.0, 4 * math.pi)
        assert edge_cancellation_total(mesh) < 1e-10


class TestMeshSerialization:
    def test_round_trip(self):
        mesh = uniform_mesh(4, 1.5, 2 * math.pi / 1.5, 3.0)
        text = mesh_to_json(mesh)
        back = mesh_from_json(text)
        np.testing.assert_array_equal(back.vertices, mesh.vertices)
        np.testing.assert_array_equal(back.triangles, mesh.triangles)
        np.testing.assert_array_equal(back.wraps, mesh.wraps)
        assert total_flux(back).sum_cocycles == pytest.approx(
            total_flux(mesh).sum_cocycles)

    def test_serialization_deterministic(self):
        mesh = uniform_mesh(3, 1.0, 1.0, 1.0)
        assert mesh_to_json(mesh) == mesh_to_json(mesh_from_json(mesh_to_json(mesh)))
