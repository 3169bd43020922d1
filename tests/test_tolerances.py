"""The tolerance table is the one place a threshold lives, and all of it is in force."""

import ast
import math
import re
from pathlib import Path

import pytest

import toruslandau
from toruslandau import tolerances, verify
from toruslandau.cocycle import cocycle_constant, uniform_mesh
from toruslandau.errors import NonIntegralFlux, NotAPeriod, NotConstant
from toruslandau.geometry import TorusGeometry, dirac_quantize
from toruslandau.translations import (bundle_shift_phase, lattice_indices,
                                      wintner_check)

SOURCES = sorted(Path(toruslandau.__file__).parent.glob("*.py"))
GEO3 = TorusGeometry.square(3)
MESH = uniform_mesh(4, 1.0, 1.0, 2 * math.pi)


def _completes(call, error) -> bool:
    """True when call() returns, False when it raises `error`."""
    try:
        call()
    except error:
        return False
    return True


# (key, consumer, verdict): the verdict is True with the table as shipped
VERDICTS = [
    ("flux_integrality_rel", "dirac_quantize",
     lambda: _completes(lambda: dirac_quantize(GEO3.L1, GEO3.L2), NonIntegralFlux)),
    ("geometry_area_rel", "TorusGeometry",
     lambda: _completes(lambda: TorusGeometry(GEO3.L1, GEO3.L2, 3), NonIntegralFlux)),
    ("wintner_abs", "wintner_check",
     lambda: wintner_check(3, GEO3.L1 / 3, 1j * GEO3.L2 / 3).consistent),
    ("wintner_abs", "criterion 7", lambda: verify.check_wintner(n_max=3).passed),
    ("lattice_abs", "lattice_indices", lambda: lattice_indices(GEO3.L1 / 3, GEO3) == (1, 0)),
    ("lattice_abs", "bundle_shift_phase",
     lambda: _completes(lambda: bundle_shift_phase(0.0, GEO3.L1, GEO3), NotAPeriod)),
    ("commutator_phase_abs", "criterion 6",
     lambda: verify.check_translation_algebra(n_max=1).passed),
    ("triangle_identity_abs", "criterion 9",
     lambda: verify.check_cocycle_theorem().passed),
    ("cocycle_constancy_rel", "cocycle_constant",
     lambda: _completes(lambda: cocycle_constant(MESH), NotConstant)),
    ("lift_closure_abs", "Triangulation.lifts",
     lambda: _completes(MESH.lifts, NotConstant)),
    ("mesh_area_rel", "Triangulation.validate",
     lambda: _completes(MESH.validate, ValueError)),
]


@pytest.mark.parametrize("key, consumer, verdict", VERDICTS,
                         ids=[f"{key}-{consumer}" for key, consumer, _ in VERDICTS])
def test_threshold_read_from_table(monkeypatch, key, consumer, verdict):
    # a negative bound can never be met, so the verdict follows the table
    assert verdict()
    monkeypatch.setitem(tolerances.TOLERANCES, key, (-1.0, "never met"))
    assert not verdict()


def test_every_key_is_read():
    text = "\n".join(path.read_text() for path in SOURCES)
    unread = [key for key in tolerances.TOLERANCES
              if f'tolerances.get("{key}")' not in text]
    assert not unread


def test_no_tolerance_outside_the_table():
    constant = re.compile(r"_(A|R)?TOL$")
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        targets = [t for stmt in tree.body if isinstance(stmt, ast.Assign) for t in stmt.targets]
        targets += [stmt.target for stmt in tree.body if isinstance(stmt, ast.AnnAssign)]
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        assert not [n for n in names if constant.search(n)], path.name
        params = [arg.arg for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.Lambda))
                  for arg in node.args.args + node.args.kwonlyargs]
        assert not [p for p in params if p in ("tol", "atol", "rtol")], path.name
