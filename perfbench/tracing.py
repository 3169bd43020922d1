"""In-memory span tracer around the package's public functions.

The tracer replaces each traced function with a wrapper that records a span
(name, parent span, root span, start, end, points, bytes).  The root span,
one CLI command or one `run_acceptance` call, identifies the operation that
every span under it serves.  Modules bind one
another's functions by from-import (`from .lll_basis import eval_fourier`),
so the wrapper is written into every package module that binds the original
object, or those internal calls would go unseen.  Spans stay in memory until
the run ends.  A span's self time is its duration minus that of its children.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np


class Span:
    __slots__ = ("name", "parent", "root", "start", "end", "child_s", "points", "bytes")

    def __init__(self, name, parent, root, points):
        self.name, self.parent, self.root, self.points = name, parent, root, points
        self.start = self.end = self.child_s = 0.0
        self.bytes = 0

    def as_list(self):
        return [self.name, self.parent, self.root, self.start, self.end,
                self.child_s, self.points, self.bytes]


def _size_of(position: int, keyword: str):
    """Number of evaluation points in argument `position` / `keyword`."""
    def points(args, kwargs):
        z = args[position] if len(args) > position else kwargs[keyword]
        return int(np.size(z))
    return points


def _file_bytes(path) -> int:
    return path.stat().st_size


def targets(tl):
    """(owner, attribute, span name, options) of every traced function.

    geometry, tolerances and errors are negligible and not traced.  numdiff
    is reached only through translations.hamiltonian_commutation_residual,
    which no workload calls, so it is not traced either.
    """
    lb, lv, tr, cc, gi, vf = (tl.lll_basis, tl.levels, tl.translations,
                              tl.cocycle, tl.gridio, tl.verify)

    def arg(position, keyword):
        return lambda args, kwargs: args[position] if len(args) > position else kwargs[keyword]

    def lattice_kind(prefix, a_of, geometry_of):
        """Span name split by whether the displacement is on the Z_N lattice."""
        def name(*args, **kwargs):
            on = tr.lattice_indices(a_of(args, kwargs), geometry_of(args, kwargs))
            return f"{prefix}.{'off_lattice' if on is None else 'lattice'}"
        return name

    out = [
        (lb, "eval_fourier", "lll_basis.eval_fourier", {"points": _size_of(1, "z")}),
        (lb, "eval_gaussian", "lll_basis.eval_gaussian", {"points": _size_of(1, "z")}),
        (lb, "normalize", "lll_basis.normalize", {}),
        (lv, "inner_product", "levels.inner_product", {}),
        (lv, "gram_matrix", "levels.gram_matrix", {}),
        (lv.PolynomialSection, "__call__", "levels.section_eval",
         {"points": _size_of(1, "z")}),
        (lv, "level_basis", "levels.level_basis", {}),
        (lv, "rayleigh_quotient", "levels.rayleigh_quotient", {}),
        (lv, "density_map", "levels.density_map", {}),
        (tr, "translation_matrix", None, {"namer": lattice_kind(
            "translations.translation_matrix", arg(1, "a"), arg(0, "geometry"))}),
        (tr, "translate_section", None, {
            "namer": lattice_kind("translations.translate_section", arg(0, "a"),
                                  lambda args, kwargs: arg(1, "s")(args, kwargs).geometry),
            "points": _size_of(2, "z")}),
        (tr, "commutator_matrix_residual", "translations.commutator_matrix_residual", {}),
        (cc, "uniform_mesh", "cocycle.uniform_mesh", {}),
        (cc, "triangle_identity", "cocycle.triangle_identity", {}),
        (cc, "cocycle_constant", "cocycle.cocycle_constant", {}),
        (cc, "total_flux", "cocycle.total_flux", {}),
        (vf, "run_acceptance", "verify.run_acceptance", {}),
        (tl.cli, "main", "cli.main", {}),
    ]
    out += [(gi, w, "gridio.write", {"nbytes": _file_bytes})
            for w in ("write_csv", "write_matrix", "write_json_grid", "write_sidecar")]
    out += [(vf, fn.__name__, f"verify.c{key}", {}) for key, fn in vf.ALL_CHECKS]
    return out


class Tracer:
    """Records spans while installed; `uninstall` restores every binding."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name, fn, points=None, nbytes=None, namer=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = Span(namer(*args, **kwargs) if namer else name, parent,
                        spans[parent].root if stack else len(spans),
                        points(args, kwargs) if points else 0)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent >= 0:
                    spans[span.parent].child_s += span.end - span.start
            if nbytes:
                span.bytes = nbytes(result)
            return result

        return traced

    def install(self, tl):
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == tl.__name__ or k.startswith(tl.__name__ + ".")]
        for owner, attr, name, options in targets(tl):
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, **options)
            owners = [owner] if isinstance(owner, type) else modules
            for mod in owners:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def summary(self) -> dict:
        """Per span name: calls, points, bytes, inclusive s and self_s."""
        agg = defaultdict(lambda: {"calls": 0, "points": 0, "bytes": 0,
                                   "s": 0.0, "self_s": 0.0})
        for sp in self.spans:
            a = agg[sp.name]
            a["calls"] += 1
            a["points"] += sp.points
            a["bytes"] += sp.bytes
            a["s"] += sp.end - sp.start
            a["self_s"] += sp.end - sp.start - sp.child_s
        return dict(agg)

    def self_total(self) -> float:
        return sum(sp.end - sp.start - sp.child_s for sp in self.spans)
