"""Serialization of grid fields: CSV, bare matrix, and a JSON sidecar.

All writers keep dict keys sorted and print every float as Python's repr
does, so identical inputs produce byte-identical files.

The CSV and matrix writers emit exactly the bytes of

    "\n".join(sep.join(map(repr, row)) for row in values.tolist()) + "\n"

for every float64, signed zeros, subnormals, inf and nan included, but
format a block of values at a time in numpy rather than one repr per value:

  digits   Schubfach (R. Giulietti, "The Schubfach way to render doubles",
           2020) finds, from the raw bits and in fixed-width integer
           arithmetic, the shortest decimal that reads back as the double
           and, of two such, the closer (ties to even), which is repr's
           choice.  It takes one 126-bit power of ten g(k) from a 617-entry
           table and three 64 x 128-bit products in 32-bit limbs, for the
           value and its two rounding bounds.  Integers below 2^53 are their
           own digits.  Trailing zeros are then stripped.
  text     A template per (sign, digit count, point position or exponent
           form) lists which byte of a per-value pool (the 17 digits, the
           exponent text, '-', '.', '0', 'e', the separator) goes where;
           one gather per block lays out the text.
  blocks   Whole rows of about _BLOCK values, each block written to the
           open file once formatted, so memory follows the block, not the
           grid.
  tables   g(k) and the templates are built on the first write, not at
           import.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np

from .levels import GridField

_BLOCK = 4096                 # values formatted per block (whole rows)

# binary64: a finite nonzero double is c 2^q with c < 2^53
_Q_MIN = -1074                # q of the subnormals
_C_MIN = 1 << 52              # the hidden bit
_C_TINY = 3                   # subnormal c below this are scaled by 10 first
_K_MIN, _K_MAX = -324, 292    # range of the decimal exponent k of g(k)
_MASK63 = (1 << 63) - 1
_MASK32 = (1 << 32) - 1
_POW10 = np.array([10 ** i for i in range(1, 18)], dtype=np.uint64)

# text pool of one value: 17 right-aligned digits, then these columns
_DIGITS, _MINUS, _POINT, _ZERO, _E = 17, 17, 18, 19, 20
_EXP_SIGN, _EXP_DIGITS, _TERM = 21, 22, 25      # exponent sign, 3 digits, separator
_I, _N, _F, _A, _NUL = 26, 27, 28, 29, 30         # NUL pads templates, deleted after
_POOL_WIDTH = 31
_FIXED = 20                   # point positions -3..16 print without exponent
_LAYOUTS = _FIXED + 2         # then exponent forms with 2 and 3 exponent digits
_INF = 2 * 17 * _LAYOUTS      # keys of inf, -inf and nan follow the number keys


def _flog10pow2(e):
    """floor(log10(2^e)), exact for |e| < 5000; ints or int64 arrays."""
    return (e * 661971961083) >> 41


def _flog10_three_quarters_pow2(e):
    """floor(log10(3/4 2^e)), exact for |e| < 5000."""
    return (e * 661971961083 - 274743187321) >> 41


def _flog2pow10(e):
    """floor(log2(10^e)), exact for |e| < 1200."""
    return (e * 913124641741) >> 38


def _template(neg: int, n: int, layout: int) -> list[int]:
    """Pool columns spelling one number: sign, n digits, point or exponent."""
    digits = list(range(_DIGITS - n, _DIGITS))
    cols = [_MINUS] if neg else []
    if layout < _FIXED:
        point = layout - 3          # digits before the decimal point
        if point <= 0:
            cols += [_ZERO, _POINT] + [_ZERO] * -point + digits
        elif point < n:
            cols += digits[:point] + [_POINT] + digits[point:]
        else:
            cols += digits + [_ZERO] * (point - n) + [_POINT, _ZERO]
    else:
        exp_digits = 2 if layout == _FIXED else 3
        cols += digits[:1] + ([_POINT] + digits[1:] if n > 1 else [])
        cols += [_E, _EXP_SIGN] + list(range(_EXP_DIGITS + 3 - exp_digits, _EXP_DIGITS + 3))
    return cols + [_TERM]


@functools.cache
def _tables():
    """(g1, g0, templates, exponent text), built once.

    g(k) = floor(10^-k 2^-r) + 1 with r = floor(log2(10^-k)) - 125, a
    126-bit upper bound on 10^-k scaled to [2^125, 2^126), kept as two
    contiguous arrays of its high and low 63 bits.
    """
    g1, g0 = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        r = _flog2pow10(-k) - 125
        num, den = (10 ** -k, 1) if k <= 0 else (1, 10 ** k)
        if r < 0:
            num <<= -r
        else:
            den <<= r
        g = num // den + 1
        g1.append(g >> 63)
        g0.append(g & _MASK63)
    keys = [_template(neg, n, layout) for neg in (0, 1)
            for n in range(1, 18) for layout in range(_LAYOUTS)]
    keys += [[_I, _N, _F, _TERM], [_MINUS, _I, _N, _F, _TERM], [_N, _A, _N, _TERM]]
    width = max(map(len, keys))
    templates = np.array([cols + [_NUL] * (width - len(cols)) for cols in keys])
    # printed exponents run from -324 (5e-324) to 308 (1.8e+308)
    exponents = np.array([[ord("-" if e < 0 else "+")] + [ord(d) for d in f"{abs(e):03d}"]
                          for e in range(_K_MIN, 309)], dtype=np.uint8)
    return (np.array(g1, dtype=np.uint64), np.array(g0, dtype=np.uint64),
            templates, exponents)


def _mulhi(a1, a0, b1, b0):
    """floor(a b / 2^64) for a = a1 2^32 + a0 < 2^63 and b = b1 2^32 + b0 < 2^59.

    With a1 < 2^31 and b1 < 2^27 the two middle products sum below 2^64.
    """
    cross = a1 * b0 + a0 * b1
    low = (cross & _MASK32) + ((a0 * b0) >> 32)
    return a1 * b1 + (cross >> 32) + (low >> 32)


def _rop(g1, g0, cp):
    """g cp / 2^127 rounded to odd, g = g1 2^63 + g0 (Schubfach's r_o').

    Follows the Java reference step for step; cp < 2^59.
    """
    cp1, cp0 = cp >> 32, cp & _MASK32
    z = ((g1 * cp) >> 1) + _mulhi(g0 >> 32, g0 & _MASK32, cp1, cp0)
    vbp = _mulhi(g1 >> 32, g1 & _MASK32, cp1, cp0) + (z >> 63)
    return vbp | (((z & _MASK63) + _MASK63) >> 63)


def _shortest(c, q, g1, g0):
    """Shortest, closest decimal f 10^e of the doubles c 2^q.

    Schubfach on uint64 arrays.  Unlike Java's Double.toString, which needs
    two digits, one digit is allowed, so the shorter candidate is tried for
    every s; the subnormals scaled by 10 then take the exponent k - 1 on
    both branches.  The results for zero, inf and nan mean nothing; the
    caller discards them.
    """
    tiny = c < _C_TINY
    c = np.where(tiny, c * 10, c)
    out = c & 1                     # odd c: the interval excludes its ends
    cb = c << 2
    regular = (c != _C_MIN) | (q == _Q_MIN)
    cbl = cb - np.where(regular, np.uint64(2), np.uint64(1))
    k = np.where(regular, _flog10pow2(q), _flog10_three_quarters_pow2(q))
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    g1, g0 = g1[k - _K_MIN], g0[k - _K_MIN]
    vb, vbl, vbr = _rop(g1, g0, np.stack([cb, cbl, cb + 2]) << h)
    vbl += out
    vbr -= out
    s = vb >> 2
    sp10 = s // 10 * 10
    upin = vbl <= sp10 << 2
    wpin = sp10 + 10 << 2 <= vbr
    uin = vbl <= s << 2
    win = s + 1 << 2 <= vbr
    mid = s << 2 | 2
    closer = (vb < mid) | ((vb == mid) & (s & 1 == 0))
    f = np.where(upin != wpin, np.where(upin, sp10, sp10 + 10),
                 np.where(np.where(uin != win, uin, closer), s, s + 1))
    return f, k - tiny


def _format(values: np.ndarray, term: np.ndarray) -> bytes:
    """repr of each float64 in values, each followed by its term byte."""
    g1, g0, templates, exponents = _tables()
    bits = values.view(np.uint64)
    neg = (bits >> 63).astype(np.intp)
    bq = ((bits >> 52) & 0x7FF).astype(np.int64)
    c = bits & (_C_MIN - 1)
    nan = (bq == 0x7FF) & (c != 0)
    c = np.where(bq > 0, c | _C_MIN, c)
    q = np.maximum(bq, 1) - 1075
    # _shortest runs on every value; integers below 2^53 (zero too) take
    # their own digits instead, and inf and nan have keys of their own
    shift = np.clip(-q, 0, 63).astype(np.uint64)
    whole = c >> shift
    exact = ((q <= 0) & (q > -53) & (whole << shift == c)) | (c == 0)
    f, e = _shortest(c, q, g1, g0)
    f = np.where(exact, whole, f)
    e = np.where(exact, 0, e)
    while True:
        tens = f // 10
        strip = (tens * 10 == f) & (f != 0)
        if not strip.any():
            break
        f = np.where(strip, tens, f)
        e += strip
    n = np.searchsorted(_POW10, f, side="right") + 1
    point = n + e
    layout = np.where((point > -4) & (point <= 16), point + 3,
                      np.where(np.abs(point - 1) < 100, _FIXED, _FIXED + 1))
    key = (neg * 17 + n - 1) * _LAYOUTS + layout
    key = np.where(bq == 0x7FF, np.where(nan, _INF + 2, _INF + neg), key)

    # the pool is column-major: row j holds byte j of every value's pool;
    # the digits come as a 9-digit and an 8-digit half in uint32
    size = len(values)
    pool = np.empty((_POOL_WIDTH, size), dtype=np.uint8)
    high = f // 10 ** 8
    halves = np.stack([high, f - high * 10 ** 8]).astype(np.uint32)
    for i in range(8):
        tens = halves // 10
        pool[8 - i:17 - i:8] = halves - tens * 10
        halves = tens
    pool[0] = halves[0]
    pool[:_DIGITS] += ord("0")
    pool[_MINUS:_EXP_SIGN] = np.frombuffer(b"-.0e", dtype=np.uint8)[:, None]
    pool[_EXP_SIGN:_TERM] = exponents.take(
        np.clip(point - 1 - _K_MIN, 0, len(exponents) - 1), axis=0).T
    pool[_TERM] = term
    pool[_I:] = np.frombuffer(b"infa\0", dtype=np.uint8)[:, None]
    index = (templates * size).take(key, axis=0)
    index += np.arange(size)[:, None]
    return pool.ravel().take(index).tobytes().translate(None, b"\0")


def _require_real(field: GridField):
    if np.iscomplexobj(field.values):
        raise ValueError(
            "serialize complex fields as two real ones (values.real / values.imag)")


def _write_rows(field: GridField, path, sep: str) -> Path:
    """One line per y-row, the repr of each value, separated by sep."""
    _require_real(field)
    path = Path(path)
    values = np.asarray(field.values, dtype=float)
    rows = max(1, _BLOCK // field.nx)
    term = np.full((rows, field.nx), ord(sep), dtype=np.uint8)
    term[:, -1] = ord("\n")
    with path.open("wb") as fh:
        for start in range(0, field.ny, rows):
            block = np.ascontiguousarray(values[start:start + rows]).ravel()
            fh.write(_format(block, term.ravel()[:len(block)]))
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
