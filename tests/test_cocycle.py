import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruslandau import cocycle, tolerances, verify
from toruslandau.cocycle import (Triangulation, chart_potential, chi,
                                 cocycle_constant, total_flux, triangle_identity,
                                 uniform_mesh)
from toruslandau.errors import NotConstant

# the two triangles of a grid square for either diagonal, as corner offsets
SPLITS = np.array([[[[0, 0], [1, 0], [1, 1]], [[0, 0], [1, 1], [0, 1]]],
                   [[[0, 0], [1, 0], [0, 1]], [[1, 0], [1, 1], [0, 1]]]])
NEXT = [1, 2, 0]


def jittered_mesh(n, L1, L2, B, displacement, diagonals):
    """n x n grid mesh with vertex j*n + i moved by displacement[j*n + i]
    and square j*n + i split along diagonal 0 (as uniform_mesh) or 1.

    A vertex pushed below 0 keeps a canonical position in [0, L) and its
    sheet index enters the wraps, so every lift stays consistent.
    """
    L = np.array([L1, L2])
    j, i = np.divmod(np.arange(n * n), n)
    grid = np.stack([i, j], axis=1)
    raw = grid * L / n + displacement
    sheet = np.floor(raw / L).astype(int)
    corners = grid[:, None, None] + SPLITS[diagonals]
    ids = (corners[..., 1] % n) * n + corners[..., 0] % n
    lifted_sheet = sheet[ids] + corners // n
    wraps = lifted_sheet[:, :, NEXT] - lifted_sheet
    return Triangulation(L1, L2, B, raw - sheet * L, ids.reshape(-1, 3),
                         wraps.reshape(-1, 3, 2))


def random_jittered_mesh(n, L1, L2, B, seed, jitter):
    """Random diagonals; each vertex moves by less than jitter * spacing."""
    rng = np.random.default_rng(seed)
    radius = jitter * min(L1, L2) / n * np.sqrt(rng.random(n * n))
    angle = 2 * np.pi * rng.random(n * n)
    step = radius[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    return jittered_mesh(n, L1, L2, B, step, rng.integers(0, 2, n * n))


def reference_triangle(mesh, t):
    """Loop form of triangle t's flux identity, one vertex at a time: (lhs, c, rhs)."""
    tri, b = mesh.triangles[t], mesh.B
    shift = mesh.wraps[t] * np.array([mesh.L1, mesh.L2])
    edge = [mesh.vertices[tri[NEXT[k]]] + shift[k] - mesh.vertices[tri[k]]
            for k in range(3)]
    p0 = mesh.vertices[tri[0]]
    lifted = [p0, p0 + edge[0], p0 + edge[0] + edge[1]]
    charts = []
    for k in range(3):
        p1, p2 = lifted[k], lifted[NEXT[k]]
        off = (mesh.vertices[tri[k]] - p1 if tri[k] <= tri[NEXT[k]]
               else mesh.vertices[tri[NEXT[k]]] - p2)
        charts.append((p1 + off, p2 + off, off))
    c = float(np.mean([sum(chi(c1, c2, v + off, b) for c1, c2, off in charts)
                       for v in lifted]))
    vertex = sum(chi(c1, c2, c1, b) + chi(c1, c2, c2, b) for c1, c2, _ in charts)
    edge_term = 0.0
    for k in range(3):
        p1, p2 = lifted[k], lifted[NEXT[k]]
        mid = (p1 + p2) / 2
        a_sum = chart_potential(p1, mid, b) + chart_potential(p2, mid, b)
        edge_term += float(np.dot(a_sum, p2 - p1))
    e1, e2 = lifted[1] - lifted[0], lifted[2] - lifted[0]
    lhs = b * 0.5 * (e1[0] * e2[1] - e1[1] * e2[0])
    return lhs, c, c - vertex / 2 + edge_term / 2


def positive_wraps(vertices, triangles, L1, L2):
    """Wraps that lift every triangle with positive orientation, found by
    trying the copies of its last two corners in the 3 x 3 neighbouring cells."""
    L = np.array([L1, L2])
    sheets = [np.array(s) for s in np.ndindex(3, 3)]

    def positive(e1, e2):
        return e1[0] * e2[1] - e1[1] * e2[0] > 0

    wraps = []
    for tri in triangles:
        p, q, r = vertices[tri]
        for sq in sheets:
            sr = next((s for s in sheets
                       if positive(q + (sq - 1) * L - p, r + (s - 1) * L - p)), None)
            if sr is not None:
                wraps.append([sq - 1, sr - sq, 1 - sr])
                break
    return np.array(wraps)


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
        total = mesh.signed_areas().sum()
        assert total == pytest.approx(3.0, rel=1e-14)

    def test_lifts_follow_the_wraps(self):
        mesh = uniform_mesh(4, 2.0, 1.5, 1.0)
        lifted = mesh.lifts()
        assert lifted.shape == (32, 3, 2)
        np.testing.assert_array_equal(lifted[:, 0], mesh.vertices[mesh.triangles[:, 0]])
        for t in range(mesh.n_triangles):
            for k in range(3):
                start, end = mesh.triangles[t, k], mesh.triangles[t, NEXT[k]]
                expect = (mesh.vertices[end] - mesh.vertices[start]
                          + mesh.wraps[t, k] * [2.0, 1.5])
                np.testing.assert_allclose(lifted[t, NEXT[k]] - lifted[t, k], expect,
                                           atol=1e-15)
        np.testing.assert_allclose(mesh.signed_areas(), 3.0 / 32, rtol=1e-14)

    def test_matches_grid_builder_without_jitter(self):
        # the test builder reproduces uniform_mesh's arrays exactly
        n, L1, L2 = 5, 1.3, 0.7
        mesh = uniform_mesh(n, L1, L2, 2.0)
        grid = jittered_mesh(n, L1, L2, 2.0, np.zeros((n * n, 2)),
                             np.zeros(n * n, dtype=int))
        for name in ("vertices", "triangles", "wraps"):
            np.testing.assert_array_equal(getattr(grid, name), getattr(mesh, name))
            assert getattr(grid, name).dtype == getattr(mesh, name).dtype

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


def _reversed_first_triangle():
    # triangle 0 listed backwards, lifted positively through a wrap: its
    # edges now run the same way as in its three neighbours
    mesh = uniform_mesh(3, 1.0, 1.0, 1.0)
    tris = mesh.triangles.copy()
    tris[0] = tris[0][::-1]
    wraps = mesh.wraps.copy()
    wraps[0] = positive_wraps(mesh.vertices, tris[:1], 1.0, 1.0)[0]
    return mesh.vertices, tris, wraps


def _pillow():
    # two triangles glued along all three edges: every vertex has valence 2
    verts = np.array([[0.1, 0.1], [0.5, 0.2], [0.3, 0.6]])
    tris = np.array([[0, 1, 2], [0, 2, 1]])
    return verts, tris, positive_wraps(verts, tris, 1.0, 1.0)


def _tetrahedron():
    # a closed sphere (V - E + T = 2) with valence 3 everywhere
    verts = np.array([[0.1, 0.1], [0.6, 0.2], [0.4, 0.7], [0.8, 0.8]])
    tris = np.array([[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]])
    return verts, tris, positive_wraps(verts, tris, 1.0, 1.0)


def _double_cover():
    # a 2 x 1 torus mesh folded onto the unit torus: a valid closed mesh
    # whose lifts cover the torus twice
    mesh = uniform_mesh(6, 2.0, 1.0, 1.0)
    sheet = (mesh.vertices[:, 0] >= 1.0).astype(int)
    wraps = mesh.wraps.copy()
    wraps[..., 0] = (2 * wraps[..., 0] + sheet[mesh.triangles[:, NEXT]]
                     - sheet[mesh.triangles])
    verts = mesh.vertices - sheet[:, None] * [1.0, 0.0]
    return verts, mesh.triangles, wraps


def _unit_mesh_with(**change):
    mesh = uniform_mesh(3, 1.0, 1.0, 1.0)
    arrays = {"vertices": mesh.vertices, "triangles": mesh.triangles.copy(),
              "wraps": mesh.wraps}
    for name, edit in change.items():
        arrays[name] = edit(arrays[name])
    return arrays["vertices"], arrays["triangles"], arrays["wraps"]


def _set_first_id(value):
    def edit(tris):
        tris[0, 0] = value
        return tris
    return edit


class TestValidation:
    @pytest.mark.parametrize("build, message", [
        (lambda: _unit_mesh_with(vertices=lambda v: v[:, :1]), "vertices must be"),
        (lambda: _unit_mesh_with(vertices=lambda v: np.where(v > 0.5, np.nan, v)),
         "vertices must be a finite"),
        (lambda: _unit_mesh_with(wraps=lambda w: w[:-1]), "wraps"),
        (lambda: _unit_mesh_with(triangles=_set_first_id(9)), r"ids must lie"),
        (lambda: _unit_mesh_with(triangles=_set_first_id(-1)), r"ids must lie"),
        (lambda: _unit_mesh_with(triangles=lambda t: t[:-1], wraps=lambda w: w[:-1]),
         "shared by two opposite"),
        (lambda: _unit_mesh_with(triangles=lambda t: np.concatenate([t, t]),
                                 wraps=lambda w: np.concatenate([w, w])),
         "shared by two opposite"),
        (_reversed_first_triangle, "shared by two opposite"),
        (_pillow, "vertex star is degenerate"),
        (_tetrahedron, "not a closed torus"),
        (_double_cover, "does not tile the torus once"),
    ], ids=["vertex-shape", "vertex-nan", "wrap-shape", "id-too-large", "id-negative",
            "unpaired-edge", "edge-used-four-times", "same-direction-edge", "valence-2",
            "euler-characteristic", "double-cover"])
    def test_rejection(self, build, message):
        verts, tris, wraps = build()
        with pytest.raises(ValueError, match=message):
            Triangulation(1.0, 1.0, 1.0, verts, tris, wraps)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("side", [1e200, 1.5e154], ids=["triangles", "sum"])
    def test_area_overflow_rejected(self, side):
        # the triangle areas overflow, or only their sum does; either way no
        # overflow warning escapes and the sum L1*L2 = inf is not accepted
        with pytest.raises(ValueError, match="mesh area inf is not finite"):
            uniform_mesh(3, side, side, 1.0)


class TestJitteredMeshes:
    """The theorem claims any valid mesh, not only uniform_mesh's grid."""

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(3, 12), seed=st.integers(0, 2**32 - 1),
           jitter=st.floats(0.0, 0.249), aspect=st.floats(0.25, 4.0),
           quanta=st.floats(-4.0, 4.0))
    def test_identity_sum_and_cancellation(self, n, seed, jitter, aspect, quanta):
        L1 = math.sqrt(aspect)
        L2 = 1.0 / L1
        b = 2 * math.pi * quanta / (L1 * L2)
        mesh = random_jittered_mesh(n, L1, L2, b, seed, jitter)
        lhs, rhs = triangle_identity(mesh)
        tol_id = tolerances.get("triangle_identity_rel")
        assert np.all(np.abs(lhs - rhs) <= tol_id * np.abs(lhs) + 1e-14)
        result = total_flux(mesh)
        assert result.theorem_holds and result.identity_holds and result.edges_cancel
        assert result.edge_cancellation <= tolerances.get("edge_cancellation_abs")

    def test_jitter_crosses_the_seam(self):
        # vertices pushed below 0 get canonical positions near L and wraps
        n = 4
        step = np.full((n * n, 2), -0.2 / n)
        mesh = jittered_mesh(n, 1.0, 1.0, 4 * math.pi, step, np.arange(n * n) % 2)
        assert np.all(mesh.vertices[0] > 0.9)
        assert total_flux(mesh).sum_cocycles == pytest.approx(4 * math.pi, rel=1e-12)


class TestCocycleConstant:
    def test_zero_without_wraps(self):
        mesh = uniform_mesh(8, 1.0, 1.0, 6 * math.pi)
        unwrapped = np.all(mesh.wraps == 0, axis=(1, 2))
        assert unwrapped.any()
        assert np.all(np.abs(cocycle_constant(mesh)[unwrapped]) <= 1e-14)

    def test_x_seam_triangle_value(self):
        # n = 4 unit torus: the lower triangle of the seam square (i=3, j=0)
        # has lifted vertices A=(3/4,0), B=(1,0), C=(1,1/4) with B, C wrapped.
        # Working through the three edge-anchored transition functions by hand
        # gives c = B/8 (= B * L1 * y-extent / 2 with y-extent 1/4).
        b = 6 * math.pi
        mesh = uniform_mesh(4, 1.0, 1.0, b)
        t = 2 * (0 * 4 + 3)   # first triangle of square (i=3, j=0)
        assert np.any(mesh.wraps[t] != 0)
        assert cocycle_constant(mesh)[t] == pytest.approx(b / 8, rel=1e-12)

    def test_inconsistent_lift_detected(self):
        mesh = uniform_mesh(4, 1.0, 1.0, 2 * math.pi)
        mesh.wraps[5, 1] = mesh.wraps[5, 1] + 1   # break closure in place
        with pytest.raises(NotConstant, match="triangle 5:"):
            cocycle_constant(mesh)
        with pytest.raises(NotConstant, match="triangle 5:"):
            triangle_identity(mesh)

    def test_wrapped_triangles_carry_all_flux(self):
        flux = 4 * math.pi
        mesh = uniform_mesh(8, 1.0, 1.0, flux)
        wrapped = cocycle_constant(mesh)[np.any(mesh.wraps != 0, axis=(1, 2))].sum()
        assert wrapped == pytest.approx(flux, rel=1e-12)

    @pytest.mark.parametrize("quanta", [1.0, 1.5])
    def test_equals_cocycle_term_of_identity(self, quanta):
        mesh = uniform_mesh(4, 1.0, 1.3, 2 * math.pi * quanta)
        np.testing.assert_array_equal(cocycle_constant(mesh), total_flux(mesh).cocycles)

    def test_inconstant_cocycle_detected(self, monkeypatch):
        # a chart transition that is not affine makes c differ between the
        # three vertices: the spread check names the first such triangle
        from toruslandau import cocycle
        monkeypatch.setattr(cocycle, "chi", lambda a, b, p, B: chi(a, b, p, B) + p[..., 0] ** 2)
        with pytest.raises(NotConstant, match="triangle 0: cocycle varies"):
            cocycle_constant(uniform_mesh(4, 1.0, 1.0, 2 * math.pi))

    @pytest.mark.parametrize("build", [
        lambda: uniform_mesh(4, 1.0, 1.3, 3 * math.pi),
        lambda: uniform_mesh(5, 2.0, 0.7, -1.3),
        lambda: random_jittered_mesh(5, 1.2, 0.9, 7.0, seed=3, jitter=0.24),
    ], ids=["uniform", "rectangular", "jittered"])
    def test_matches_per_triangle_loop(self, build):
        # the array forms reproduce a one-triangle-at-a-time evaluation: c and
        # B*area bit for bit, rhs up to the summation order of its edge term
        mesh = build()
        ref = np.array([reference_triangle(mesh, t) for t in range(mesh.n_triangles)])
        lhs, rhs = triangle_identity(mesh)
        np.testing.assert_array_equal(lhs, ref[:, 0])
        np.testing.assert_array_equal(cocycle_constant(mesh), ref[:, 1])
        scale = abs(mesh.B) * max(mesh.L1, mesh.L2) ** 2
        np.testing.assert_allclose(rhs, ref[:, 2], rtol=0,
                                   atol=64 * np.finfo(float).eps * scale)


class TestTriangleIdentity:
    @pytest.mark.parametrize("n", [4, 8])
    @pytest.mark.parametrize("quanta", [1.0, 3.0, 1.5])
    def test_holds_on_every_triangle(self, n, quanta):
        mesh = uniform_mesh(n, 1.0, 1.0, 2 * math.pi * quanta)
        lhs, rhs = triangle_identity(mesh)
        assert lhs.shape == rhs.shape == (mesh.n_triangles,)
        assert np.all(np.abs(lhs - rhs) <= 1e-10 * np.abs(lhs) + 1e-14)

    def test_zero_field(self):
        mesh = uniform_mesh(4, 1.0, 1.0, 0.0)
        lhs, rhs = triangle_identity(mesh)
        assert np.all(lhs == 0.0) and np.all(np.abs(rhs) < 1e-15)

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
        # both sides of every identity vanish: no 0/0 in the relative worst
        assert result.identity_holds and result.worst_identity_rel == 0.0

    @pytest.mark.parametrize("quanta", [1.0, 1.5])
    def test_identity_fields_match_triangle_identity(self, quanta):
        mesh = uniform_mesh(8, 1.0, 1.3, 2 * math.pi * quanta)
        lhs, rhs = triangle_identity(mesh)
        result = total_flux(mesh)
        gap = np.abs(lhs - rhs)
        assert result.worst_identity_rel == np.max(gap / np.abs(lhs))
        tol = tolerances.get("triangle_identity_rel")
        assert result.identity_holds == bool(np.all(
            gap <= tol * np.abs(lhs) + tolerances.get("triangle_identity_abs")))

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
        assert total_flux(mesh).edge_cancellation < 1e-10

    @pytest.mark.parametrize("key, field", [("cocycle_sum_rel", "theorem_holds"),
                                            ("weil_integrality_rel", "weil_integral"),
                                            ("triangle_identity_rel", "identity_holds"),
                                            ("triangle_identity_abs", "identity_holds"),
                                            ("edge_cancellation_abs", "edges_cancel")])
    def test_thresholds_read_from_table(self, monkeypatch, key, field):
        # a negative threshold can never be met: the verdict follows the table
        mesh = uniform_mesh(4, 1.0, 1.0, 4 * math.pi)
        assert getattr(total_flux(mesh), field)
        monkeypatch.setitem(tolerances.TOLERANCES, key, (-1.0, "never met"))
        assert not getattr(total_flux(mesh), field)

    def test_criterion_9_reads_edge_cancellation_threshold(self, monkeypatch):
        assert verify.check_cocycle_theorem().passed
        monkeypatch.setitem(tolerances.TOLERANCES, "edge_cancellation_abs", (-1.0, "never met"))
        result = verify.check_cocycle_theorem()
        assert not result.passed and "vertex and edge pieces" in result.detail

    def test_criterion_9_passes_over_each_mesh_once(self, monkeypatch):
        # total_flux reads the identity, the cancellation and the sum from
        # one _cocycles pass per mesh
        calls = []
        original = cocycle._cocycles

        def counted(tri):
            calls.append(1)
            return original(tri)

        monkeypatch.setattr(cocycle, "_cocycles", counted)
        assert verify.check_cocycle_theorem().passed
        assert len(calls) == len(verify._MESH_SIZES) * len(verify._MESH_FLUX_QUANTA) == 9

    def test_triangle_identity_memory_bounded(self):
        # peak traced memory stays a fixed multiple of the mesh's own arrays
        mesh = uniform_mesh(128, 1.0, 1.0, 2 * math.pi)
        own = mesh.vertices.nbytes + mesh.triangles.nbytes + mesh.wraps.nbytes
        tracemalloc.start()
        try:
            triangle_identity(mesh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * own

