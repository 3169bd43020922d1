"""Serialization of grid fields: CSV, bare matrix, and a JSON sidecar.

All writers format floats with repr (shortest round-trip) and keep dict keys
sorted, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .levels import GridField


def _require_real(field: GridField):
    if np.iscomplexobj(field.values):
        raise ValueError(
            "serialize complex fields as two real ones (values.real / values.imag)")


def _write_rows(field: GridField, path, sep: str) -> Path:
    """One line per y-row, the repr of each value, separated by sep."""
    _require_real(field)
    path = Path(path)
    rows = [sep.join(repr(float(v)) for v in row) for row in field.values]
    path.write_text("\n".join(rows) + "\n")
    return path


def write_csv(field: GridField, path) -> Path:
    """One row per y-line, columns along x, comma separated."""
    return _write_rows(field, path, ",")


def write_matrix(field: GridField, path) -> Path:
    """Whitespace-delimited matrix for external plotters."""
    return _write_rows(field, path, " ")


def _header(field: GridField) -> dict:
    """Quantity, resolution and geometry, shared by the JSON writers."""
    geo = field.geometry
    return {"quantity": field.name, "nx": field.nx, "ny": field.ny,
            "geometry": {"L1": geo.L1, "L2": geo.L2, "N": geo.N}}


def write_json_grid(field: GridField, path) -> Path:
    """Whole grid as one JSON document: metadata plus the value rows."""
    _require_real(field)
    path = Path(path)
    payload = {**_header(field), "values": np.asarray(field.values, dtype=float).tolist()}
    path.write_text(json.dumps(payload, sort_keys=True) + "\n")
    return path


def write_sidecar(field: GridField, path, extra: dict | None = None) -> Path:
    """JSON sidecar with geometry, resolution and field statistics."""
    vals = field.values
    stats = {
        "min": float(np.min(vals.real)),
        "max": float(np.max(vals.real)),
        "mean": float(np.mean(vals.real)),
    }
    if np.iscomplexobj(vals):
        stats["max_abs"] = float(np.max(np.abs(vals)))
    payload = {**_header(field), "statistics": stats}
    if extra:
        payload.update(extra)
    path = Path(path)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return path
