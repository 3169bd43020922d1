"""Serialization of grid fields (CSV, bare matrix, and JSON) and of reports.

All writers keep dict keys sorted and print every float as Python's repr
does, so identical inputs produce byte-identical files.  write_json holds
the one format of every JSON report, sidecar and manifest:
json.dumps(payload, sort_keys=True, indent=2) + "\n".  The CSV and matrix
writers emit exactly "\n".join(sep.join(map(repr, row)) for row in
values.tolist()) + "\n" for every float64 (signed zeros, subnormals, inf
and nan included), the JSON grid writer json.dumps(payload, sort_keys=True)
+ "\n".  A block of values is formatted at a time in numpy:

  digits   Dragonbox (J. Jeon 2020) finds from the raw bits the shortest
           decimal that reads back as the double and, of two such, the
           closer (ties to even): repr's choice.  One 64 x 128-bit product
           u G(k) in 32-bit limbs gives the upper end z of the rounding
           interval in units of 10^-k, and a table its width.  Most values
           are settled by z mod 1000 against the width, or by rounding at a
           hundredth of it.  The few on an interval end or a possible tie
           subtract G(k) 2^beta from the product, once and twice, for the
           lower end and the value itself.  Powers of two, whose interval is
           shorter below, take their digits from a table.  Trailing zeros
           are divided out in steps of 16, 8, 4, 2 and 1 digits.
  text     Each value is a row of four 8-byte words: its prefix ('-', '0.'
           and the zeros of 0.000ddd) and 17 digits from a table of 4-digit
           groups, the decimal point let in by masks chosen by point
           position and digit count, then the exponent and the separator.
           The unused bytes are NUL, deleted from the block's text in one
           pass.  JSON's separators and its NaN and Infinity are substituted
           in the finished text.
  blocks   Whole rows of about _BLOCK values, each written to the open file
           once formatted, so memory follows the block.  The tables are
           built on the first write, not at import.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np

from .levels import GridField

_BLOCK = 4096                 # values formatted per block (whole rows)
_M32 = (1 << 32) - 1
_K_MIN, _K_MAX = -292, 326    # decimal exponents k of the powers of ten G(k)
_ROWS = np.array([[0], [2048]])   # the rows g1 and g0 of by_exp
_LEAD = 6                     # row byte of the leading digit; a prefix ends there
_MASKS = np.arange(0, 9 * 22 * 18, 22 * 18)[:, None]   # the rows of masks
_LOG10_2, _LOG2_10 = (661971961083, 41), (913124641741, 38)
_word = functools.partial(int.from_bytes, byteorder="little")   # 8 bytes of text


def _flog(e, mul: int, shift: int, sub: int = 0):
    """floor(e log10 2) with (mul, shift) = _LOG10_2, floor(log10(3/4 2^e))
    with sub = 274743187321 as well, exact for |e| <= 1200, and floor(e log2
    10) with _LOG2_10, exact for |e| <= 400 (Dragonbox's constants)."""
    return (e * mul - sub) >> shift


@functools.cache
def _tables():
    """Constants of the digits and text stages, built once.

    G(k) = ceil(10^k 2^(127 - floor(log2 10^k))) = g1 2^64 + g0 is
    Dragonbox's power of ten.  by_exp has a column per biased exponent
    (2047, inf and nan, repeats 2046) and, for k = 2 - floor(log10 2^q),
    rows of: g1 and g0; the shift beta + 1 and the offset making u = (2c +
    1) 2^beta from the fraction bits; the width delta; the exponent 2 - k
    (mod 2^64); and the digits and exponent of 2^52 2^q by the
    shorter-interval rule.
    """
    # ten = 10^|k|: for k < 0, G(k) is 2^r / ten rounded up; for k >= 0 it
    # is ten shifted, rounding up when shifted down
    g, ten = [], 10 ** -_K_MIN
    for k in range(_K_MIN, _K_MAX + 1):
        r = 127 - _flog(k, *_LOG2_10)
        if k < 0:
            x = -(-(1 << r) // ten)
            ten //= 10
        else:
            x = ten << r if r >= 0 else -(-ten >> -r)
            ten *= 10
        g += x >> 64, x & 0xFFFFFFFFFFFFFFFF
    g1, g0 = np.array(g, dtype=np.uint64).reshape(-1, 2).T
    q = np.clip(np.arange(2048), 1, 2046) - 1075
    k = 2 - _flog(q, *_LOG10_2)
    beta = (q + _flog(k, *_LOG2_10)).astype(np.uint64)
    hi, lo = g1[k - _K_MIN], g0[k - _K_MIN]
    # the power of two: its interval reaches only a quarter unit below
    mk = _flog(q, *_LOG10_2, 274743187321)
    top = g1[-mk - _K_MIN]
    shift = (11 - q - _flog(-mk, *_LOG2_10)).astype(np.uint64)
    low = ((top - (top >> 54)) >> shift) + ((q < 2) | (q > 3))
    high = ((top + (top >> 53)) >> shift) // 10
    near = ((top >> (shift - 1)) + 1) >> 1
    near += np.where((near & 1 == 1) & (q == -77), -1, near < low).astype(np.uint64)
    fits = high * 10 >= low
    by_exp = np.array([hi, lo, beta + 1, ((np.arange(2048) > 0).astype(np.uint64) << 53 | 1)
                       << beta, hi >> (63 - beta), (2 - k).astype(np.uint64),
                       np.where(fits, high, near), (mk + fits).astype(np.uint64)])
    # per (point position p clipped to -4..17, digit count n), 24 bytes
    # each: those kept before the point (up to it at j, else all m digits),
    # those moved one on after it, and the point; a point inside the digits
    # sits after digit p, an exponent's after the first of several
    p, n, b = np.arange(-4, 18)[:, None, None], np.arange(18)[:, None], np.arange(24)
    inside = (0 < p) & (p <= 16)
    j = np.where(inside, p, ((p < -3) | (p > 16)) & (n > 1))
    m = np.where(inside & (p >= n), p + 1, np.maximum(n, 1))
    text = np.stack([b < _LEAD + np.where(j > 0, j, m),
                     (j > 0) & (b > _LEAD + j) & (b <= _LEAD + m),
                     (j > 0) & (b == _LEAD + j)], axis=2) * np.array([[0xFF], [0xFF], [ord(".")]],
                                                                   dtype=np.uint8)
    masks = text.view("<u8").astype(np.uint64).reshape(-1, 9).T.copy()
    # and the prefixes, a sign and the '0.' and zeros of 0.000ddd
    leads = (b"0." + b"0" * -p if -3 <= p <= 0 else b"" for p in range(-4, 18))
    prefixes = np.repeat(np.array([[_word((sign + lead).rjust(_LEAD, b"\0")) for sign in (b"", b"-")]
                                   for lead in leads], dtype=np.uint64), 18, axis=0).ravel()
    # by point position -400..399: the first key, and the exponent text
    starts = (np.clip(np.arange(-400, 400), -4, 17) + 4) * 18
    suffixes = [0 if -3 <= p <= 16 else _word(b"e%+03d" % (p - 1)) for p in range(-400, 400)]
    digits = np.arange(10 ** 4)      # the text of 0000..9999, one word each, and its zeros
    quads = sum((digits // 10 ** (3 - i) % 10 + 48).astype(np.uint64) << 8 * i for i in range(4))
    zeros = sum((digits % 10 ** p == 0).astype(np.uint8) for p in range(1, 5))
    x = np.arange(2048) - 1023      # float exponent of an integer f: f has the
    counts = np.where(x >= 0, _flog(x, *_LOG10_2) + 1, 1)   # digits of 2^x or one more
    powers = np.array([10 ** i for i in range(20)] + [2 ** 64 - 1], dtype=np.uint64)
    tens = powers.take(np.where((x >= 0) & (counts < 20), counts, 20))
    specials = np.array([_word(w) for w in (b"inf", b"-inf", b"nan")], dtype=np.uint64)
    return (by_exp, masks, prefixes,
            starts, np.array(suffixes, dtype=np.uint64), quads, zeros, powers, counts, tens,
            specials)


def _mulhi(a, b1, b0):
    """floor(a b / 2^64) for uint64 a and b = b1 2^32 + b0, limbs below 2^32."""
    a1, a0 = a >> 32, a & _M32
    mixed = a1 * b0
    cross = (a0 * b0 >> 32) + (mixed & _M32) + a0 * b1
    return a1 * b1 + (mixed >> 32) + (cross >> 32)


def _minus(a2, a1, a0, d2, d1, d0):
    """(a2, a1, a0) - (d2, d1, d0) for three-word integers, modulo 2^192."""
    borrow = a0 < d0
    return a2 - d2 - ((a1 < d1) | (a1 == d1) & borrow), a1 - d1 - borrow, a0 - d0


def _shortest(frac, bq):
    """Shortest, closest decimal f 10^e of the doubles with these fraction
    bits and biased exponents; f may end in zeros.

    Dragonbox, ties to even.  z = u G(k) 2^-128 is the interval's upper end
    in units of 10^-k, with its fraction in the middle word; the width delta
    is in [100, 1000).  The multiple of 1000 below z is the answer when in
    the interval, r = z mod 1000 < delta (an integral z is out for odd c),
    else the multiple of 100 closest to the value.  At r == delta the lower
    end x decides, at an estimate on a multiple of 100 (one over, or a tie)
    the value y: their products are u G(k) less G(k) 2^beta once and twice.
    Results for zero, inf and nan mean nothing.
    """
    by_exp = _tables()[0]
    i = bq.view(np.int64)
    g = by_exp[:2].ravel().take(i + _ROWS)
    shift, u0, delta, e = (row.take(i) for row in by_exp[2:6])
    u = (frac << shift) + u0
    hi, mid_hi = _mulhi(u, g >> 32, g & _M32)
    low = u * g[0]
    mid = low + mid_hi
    z = hi + (mid < low)
    s = z // 1000
    r = z - s * 1000
    wide = r < delta
    dist = r - (delta >> 1) + 50
    step = dist // 100
    f = s * 10 + step
    lanes = np.flatnonzero((r == 0) | (r == delta) | (step * 100 == dist) | (frac == 0))
    if lanes.size:
        (g1, g0), beta = g[:, lanes], shift[lanes] - 1
        d = g1 >> (64 - beta), g1 << beta | g0 >> (64 - beta), g0 << beta   # G 2^beta
        y = _minus(z[lanes], mid[lanes], u[lanes] * g0, *d)
        x = _minus(*y, *d)
        rl, sl, dl, odd = r[lanes], s[lanes], delta[lanes], frac[lanes] & 1 == 1
        out = (rl == 0) & (mid[lanes] == 0) & odd
        rl = np.where(out, 1000, rl)
        dist = rl - (dl >> 1) + 50
        near = (sl - out) * 10 + dist // 100
        near -= (dist // 100 * 100 == dist) & (
            ((y[0] & 1) != (dist ^ 50) & 1) | (y[1] == 0) & (near & 1 == 1))
        f[lanes] = near
        wide[lanes] = (rl < dl) | (rl == dl) & ((x[0] & 1 == 1) | (x[1] == 0) & ~odd)
    f = np.where(wide, s, f)
    e = e.view(np.int64) + wide
    lanes = lanes[(frac[lanes] == 0) & (bq[lanes] > 1)]
    f[lanes], e[lanes] = by_exp[6:, i[lanes]]
    return f, e


def _format(values: np.ndarray, term: np.ndarray) -> bytes:
    """repr of each float64 in values, each followed by its term byte,
    given as the word term << 40."""
    _, masks, prefixes, starts, suffixes, quads, zeros, powers, counts, tens, specials = _tables()
    bits = values.view(np.uint64)
    bq = bits >> 52 & 0x7FF
    frac = bits & ((1 << 52) - 1)
    neg = (bits >> 63).view(np.int64)
    f, e = _shortest(frac, bq)
    keep = (bits << 1 != 0) & (bq != 0x7FF)   # zero is 0 10^0; inf and nan come last
    f *= keep
    e *= keep
    x = (f.astype(np.float64).view(np.uint64) >> 52).view(np.int64)
    n = counts.take(x) + (f >= tens.take(x))
    point = n + e + 400     # digits before the point, offset for starts and suffixes
    # the prefix, then the 17 digits from byte _LEAD on, in three words; the
    # trailing zeros of the four groups of four are not significant digits
    f *= powers.take(17 - n)
    high = f // 10 ** 8
    lead = high // 10 ** 8
    fours = np.stack([high - lead * 10 ** 8, f - high * 10 ** 8])
    upper = fours // 10 ** 4
    lower = fours - upper * 10 ** 4
    (q1, q3), (q2, q4) = quads.take(upper), quads.take(lower)
    (z1, z3), (z2, z4) = zeros.take(upper), zeros.take(lower)
    n = 17 - (z4 + (z4 == 4) * (z3 + (z3 == 4) * (z2 + (z2 == 4) * z1)))
    key = starts.take(point) + n
    b0 = prefixes.take(2 * key + neg) | (lead + 48) << 48 | q1 << 56
    b1 = q1 >> 8 | q2 << 24 | q3 << 56
    b2 = q3 >> 8 | q4 << 24
    # the bytes before the point stay, those after it move on by one
    lo0, lo1, lo2, hi0, hi1, hi2, dot0, dot1, dot2 = masks.ravel().take(key + _MASKS)
    row = np.empty((len(values), 4), dtype=np.uint64)
    row[:, 0] = b0 & lo0 | b0 << 8 & hi0 | dot0
    row[:, 1] = b1 & lo1 | (b1 << 8 | b0 >> 56) & hi1 | dot1
    row[:, 2] = b2 & lo2 | (b2 << 8 | b1 >> 56) & hi2 | dot2
    row[:, 3] = suffixes.take(point) | term
    lanes = np.flatnonzero(bq == 0x7FF)
    row[lanes, :3] = 0
    row[lanes, 0] = specials.take(np.where(frac[lanes] != 0, 2, neg[lanes]))
    return row.astype("<u8", copy=False).tobytes().translate(None, b"\0")


def _blocks(field: GridField, sep: str):
    """The text of the values, one line per y-row, a block of rows at a time."""
    if np.iscomplexobj(field.values):
        raise ValueError(
            "serialize complex fields as two real ones (values.real / values.imag)")
    values = np.asarray(field.values, dtype=float)
    rows = max(1, _BLOCK // field.nx)
    term = np.full((rows, field.nx), ord(sep) << 40, dtype=np.uint64)
    term[:, -1] = ord("\n") << 40
    return (_format(np.ascontiguousarray(values[start:start + rows]).ravel(),
                    term[:field.ny - start].ravel()) for start in range(0, field.ny, rows))


def _write_rows(field: GridField, path, sep: str) -> Path:
    """One line per y-row, the repr of each value, separated by sep."""
    blocks, path = _blocks(field, sep), Path(path)
    with path.open("wb") as fh:
        for text in blocks:
            fh.write(text)
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
    """Whole grid as one JSON document: metadata, then ("values" sorts last)
    the value rows, each a CSV line turned into a JSON list."""
    blocks, path = _blocks(field, ","), Path(path)
    with path.open("wb") as fh:
        text = (json.dumps(_header(field), sort_keys=True)[:-1] + ', "values": [[').encode()
        for block in blocks:
            fh.write(text)
            text = block.replace(b",", b", ").replace(b"\n", b"], [")
            if b"n" in text:   # no digit, point, sign or exponent has an n
                text = text.replace(b"nan", b"NaN").replace(b"inf", b"Infinity")
        fh.write(text[:-4] + b"]]}\n")
    return path


def write_sidecar(field: GridField, path, extra: dict | None = None) -> Path:
    """JSON sidecar with geometry, resolution and field statistics."""
    vals = field.values
    stats = {"min": float(np.min(vals.real)), "max": float(np.max(vals.real)),
             "mean": float(np.mean(vals.real))}
    if np.iscomplexobj(vals):
        stats["max_abs"] = float(np.max(np.abs(vals)))
    payload = {**_header(field), "statistics": stats}
    if extra:
        payload.update(extra)
    return write_json(payload, path)


def write_json(payload: dict, path) -> Path:
    """payload as indented JSON with sorted keys and a final newline."""
    path = Path(path)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return path
