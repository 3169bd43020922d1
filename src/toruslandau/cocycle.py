"""Line-bundle cocycles on a triangulated torus and the discrete flux theorem.

Each vertex alpha carries a chart over its star with the radial-gauge
potential A_alpha = B/2 ((x - x_a) dy - (y - y_a) dx) centered at the vertex.
Chart differences are exact, A_alpha - A_beta = d chi_ab with the closed form

    chi_ab(p) = B/2 ((x_b - x_a) * y - (y_b - y_a) * x),

where the centers and the point are expressed in the edge's own planar lift
(anchored at the lower-indexed endpoint's canonical position, which makes
chi_ab a single function shared by both adjacent triangles and antisymmetric
in its charts).  The triple sum c = chi_ab + chi_bc + chi_ca is constant on
each triangle; it vanishes whenever the three lifts share one fundamental
copy and carries the seam contributions otherwise.  Summed over a mesh the
constants reproduce the total flux B*L1*L2 exactly, and a consistent line
bundle exists only when that flux is an integer multiple of 2 pi.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotConstant

COCYCLE_CONSTANT_ATOL = 1e-10
LIFT_CLOSURE_ATOL = 1e-9


def chart_potential(center, point, B: float):
    """Radial-gauge potential (A_x, A_y) of the chart centered at `center`."""
    cx, cy = center
    x, y = point
    return np.array([-0.5 * B * (y - cy), 0.5 * B * (x - cx)])


def chi(center_a, center_b, point, B: float) -> float:
    """Transition function with d(chi) = A_a - A_b, antisymmetric in a, b."""
    return 0.5 * B * ((center_b[0] - center_a[0]) * point[1]
                      - (center_b[1] - center_a[1]) * point[0])


@dataclass
class Triangulation:
    """Torus mesh with planar lifts encoded as per-edge wrap offsets.

    vertices[v] is the canonical position in [0,L1) x [0,L2); wraps[t, k]
    holds integers (w1, w2) so the directed edge from triangles[t, k] to
    triangles[t, (k+1) % 3] has true planar vector
    vertices[end] + (w1*L1, w2*L2) - vertices[start].  Triangles are
    positively oriented in their lifts and tile the torus exactly once.
    Treat instances as immutable after construction.
    """

    L1: float
    L2: float
    B: float
    vertices: np.ndarray   # (V, 2) float
    triangles: np.ndarray  # (T, 3) int
    wraps: np.ndarray      # (T, 3, 2) int

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.triangles = np.asarray(self.triangles, dtype=int)
        self.wraps = np.asarray(self.wraps, dtype=int)
        self.validate()

    # -- structure ---------------------------------------------------------

    def edge_vector(self, t: int, k: int) -> np.ndarray:
        """True planar vector of directed edge k of triangle t."""
        i1 = self.triangles[t, k]
        i2 = self.triangles[t, (k + 1) % 3]
        shift = self.wraps[t, k] * np.array([self.L1, self.L2])
        return self.vertices[i2] + shift - self.vertices[i1]

    def lift(self, t: int) -> np.ndarray:
        """Coherent planar positions of triangle t's vertices, (3, 2).

        Anchored at the first vertex's canonical position; raises NotConstant
        if the recorded wraps do not close up.
        """
        p0 = self.vertices[self.triangles[t, 0]].astype(float)
        pts = [p0, p0 + self.edge_vector(t, 0)]
        pts.append(pts[1] + self.edge_vector(t, 1))
        closure = pts[2] + self.edge_vector(t, 2) - pts[0]
        if np.max(np.abs(closure)) > LIFT_CLOSURE_ATOL:
            raise NotConstant(f"triangle {t}: edge wraps do not close a lift")
        return np.array(pts)

    def signed_area(self, t: int) -> float:
        v = self.lift(t)
        e1, e2 = v[1] - v[0], v[2] - v[0]
        return 0.5 * float(e1[0] * e2[1] - e1[1] * e2[0])

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def validate(self):
        """Check the mesh is a positively-oriented one-cover of the torus."""
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ValueError("vertices must be a (V, 2) array")
        if self.triangles.shape[1:] != (3,) or self.wraps.shape != (*self.triangles.shape, 2):
            raise ValueError("triangles must be (T, 3) with wraps (T, 3, 2)")
        area = 0.0
        edge_use: dict = {}
        for t in range(self.n_triangles):
            a = self.signed_area(t)
            if a <= 0:
                raise ValueError(f"triangle {t} is not positively oriented")
            area += a
            for k in range(3):
                i1 = int(self.triangles[t, k])
                i2 = int(self.triangles[t, (k + 1) % 3])
                edge_use.setdefault(frozenset((i1, i2)), []).append((i1, i2))
        target = self.L1 * self.L2
        if abs(area - target) > 1e-12 * target:
            raise ValueError(f"mesh area {area} does not tile the torus once")
        valence = np.zeros(len(self.vertices), dtype=int)
        for uses in edge_use.values():
            if len(uses) != 2 or uses[0] != (uses[1][1], uses[1][0]):
                raise ValueError("every edge must be shared by two opposite triangles")
        for tri in self.triangles:
            valence[tri] += 1
        if np.any(valence < 3):
            raise ValueError("mesh too coarse: a vertex star is degenerate")
        # Euler characteristic of the torus
        if len(self.vertices) - len(edge_use) + self.n_triangles != 0:
            raise ValueError("mesh is not a closed torus triangulation")

    # -- per-triangle chart data --------------------------------------------

    def _edge_charts(self, t: int, lifted: np.ndarray):
        """Per edge: chart centers and point offset in the edge's own lift.

        The edge lift anchors the lower-indexed endpoint at its canonical
        position; the returned offset translates triangle-lift coordinates
        into that lift.  Using one lift per undirected edge is what lets the
        cocycle pick up the seam contributions.
        """
        charts = []
        for k in range(3):
            i1 = int(self.triangles[t, k])
            i2 = int(self.triangles[t, (k + 1) % 3])
            p1, p2 = lifted[k], lifted[(k + 1) % 3]
            anchor_pos, anchor_lift = (self.vertices[i1], p1) if i1 <= i2 \
                else (self.vertices[i2], p2)
            offset = np.asarray(anchor_pos, dtype=float) - anchor_lift
            charts.append((p1 + offset, p2 + offset, offset))
        return charts


def _vertex_cocycles(tri: Triangulation, t: int):
    """(lift, edge charts, chi_ab + chi_bc + chi_ca at each lifted vertex)."""
    lifted = tri.lift(t)
    charts = tri._edge_charts(t, lifted)
    values = [sum(chi(c1, c2, vertex + off, tri.B) for c1, c2, off in charts)
              for vertex in lifted]
    return lifted, charts, values


def cocycle_constant(tri: Triangulation, t: int) -> float:
    """The constant c = chi_ab + chi_bc + chi_ca on triangle t.

    Evaluates the sum at the three vertices and checks they agree within
    1e-10 (NotConstant otherwise, which signals corrupted wrap offsets).
    Zero for triangles whose lifts stay in one fundamental copy.
    """
    _, _, values = _vertex_cocycles(tri, t)
    spread = max(values) - min(values)
    if spread > COCYCLE_CONSTANT_ATOL * max(1.0, max(abs(v) for v in values)):
        raise NotConstant(f"triangle {t}: cocycle varies by {spread:.3e}")
    return float(np.mean(values))


def _identity_parts(tri: Triangulation, t: int):
    """(B*area, cocycle term, vertex term, edge term) of the flux identity."""
    lifted, charts, values = _vertex_cocycles(tri, t)
    b = tri.B
    cocycle_term = float(np.mean(values))
    vertex_term = 0.0
    edge_term = 0.0
    for k, (c1, c2, off) in enumerate(charts):
        p1, p2 = lifted[k], lifted[(k + 1) % 3]
        vertex_term += chi(c1, c2, p1 + off, b) + chi(c1, c2, p2 + off, b)
        # midpoint rule, exact: the radial-gauge forms are affine along edges
        mid = (p1 + p2) / 2
        a_sum = chart_potential(p1, mid, b) + chart_potential(p2, mid, b)
        edge_term += float(np.dot(a_sum, p2 - p1))
    e1, e2 = lifted[1] - lifted[0], lifted[2] - lifted[0]
    lhs = b * 0.5 * float(e1[0] * e2[1] - e1[1] * e2[0])
    return lhs, cocycle_term, vertex_term, edge_term


def triangle_identity(tri: Triangulation, t: int):
    """Both sides of the per-triangle flux identity.

    lhs = B * area(t); rhs = c - (vertex pairs)/2 + (edge integrals)/2.
    They agree to rounding for every triangle; the vertex and edge pieces
    cancel pairwise when summed over a closed mesh, leaving flux = sum of c.
    """
    lhs, cocycle_term, vertex_term, edge_term = _identity_parts(tri, t)
    return float(lhs), float(cocycle_term - vertex_term / 2 + edge_term / 2)


@dataclass(frozen=True)
class FluxResult:
    """Totals of the discrete flux theorem over one mesh."""

    sum_cocycles: float
    flux: float
    theorem_holds: bool
    weil_integral: bool     # flux in 2*pi*Z within 1e-9
    flux_quanta: float      # flux / (2*pi)


def total_flux(tri: Triangulation, rtol: float = 1e-9) -> FluxResult:
    """Sum the per-triangle constants and compare with the flux B*L1*L2.

    The theorem (sum equals flux) holds for any B; the Weil verdict reports
    whether flux/(2 pi) is an integer within 1e-9, i.e. whether a consistent
    bundle exists.
    """
    total = sum(cocycle_constant(tri, t) for t in range(tri.n_triangles))
    flux = tri.B * tri.L1 * tri.L2
    scale = max(abs(flux), 1.0)
    holds = abs(total - flux) <= rtol * scale
    quanta = flux / (2 * math.pi)
    integral = abs(quanta - round(quanta)) <= rtol * max(1.0, abs(quanta))
    return FluxResult(total, flux, holds, integral, quanta)


def edge_cancellation_total(tri: Triangulation) -> float:
    """|sum over all triangles of the vertex and edge pieces| (should vanish)."""
    acc = 0.0
    for t in range(tri.n_triangles):
        _, _, vertex_term, edge_term = _identity_parts(tri, t)
        acc += -vertex_term / 2 + edge_term / 2
    return abs(acc)


def uniform_mesh(n: int, L1: float, L2: float, B: float) -> Triangulation:
    """Right-triangle subdivision of an n x n grid (2 n^2 triangles).

    n >= 3 keeps every vertex star simply connected.
    """
    if n < 3:
        raise ValueError("need n >= 3 for nondegenerate vertex stars")
    verts = np.array([[i * L1 / n, j * L2 / n]
                      for j in range(n) for i in range(n)])
    tris, wraps = [], []

    def vid(i, j):
        return (j % n) * n + (i % n)

    for j in range(n):
        for i in range(n):
            corners = ((i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1))
            for tri_idx in ((0, 1, 2), (0, 2, 3)):
                ids = [vid(*corners[q]) for q in tri_idx]
                w = []
                for k in range(3):
                    a1, b1 = corners[tri_idx[k]]
                    a2, b2 = corners[tri_idx[(k + 1) % 3]]
                    w.append((a2 // n - a1 // n, b2 // n - b1 // n))
                tris.append(ids)
                wraps.append(w)
    return Triangulation(L1, L2, B, verts, np.array(tris), np.array(wraps))


def mesh_to_json(tri: Triangulation) -> str:
    """Serialize a mesh (vertices, triangles, wrap offsets) to JSON."""
    payload = {
        "L1": tri.L1,
        "L2": tri.L2,
        "B": tri.B,
        "vertices": tri.vertices.tolist(),
        "triangles": tri.triangles.tolist(),
        "wraps": tri.wraps.tolist(),
    }
    return json.dumps(payload, sort_keys=True)


def mesh_from_json(text: str) -> Triangulation:
    data = json.loads(text)
    return Triangulation(
        L1=float(data["L1"]), L2=float(data["L2"]), B=float(data["B"]),
        vertices=np.array(data["vertices"], dtype=float),
        triangles=np.array(data["triangles"], dtype=int),
        wraps=np.array(data["wraps"], dtype=int),
    )
