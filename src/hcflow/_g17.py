"""CSV text of float64 tables, every cell exactly ``'%.17g' % v``, built as arrays.

This is the Python lane's formatter (``core.csv_text`` where no C library
is built).  The compiled lane's, ``_g17.c``, takes the same proof one cell at
a time, from this module's constants and ``_powers()`` table, which
``_core_gen`` renders into its header; so an edit here builds a new library.

``%.17g`` writes the 17-digit correctly rounded (half-even) decimal of v:
N = round(|v| * 10**(16 - X)) in [10**16, 10**17), where X is the decimal
exponent.  It lays N out as fixed-point for -4 <= X <= 16 and as
``d.ddde±XX`` otherwise, strips trailing fractional zeros (and a bare
point), and writes at least two exponent digits.  ``_round17`` finds N and X
for a whole array without a per-cell dtoa (Gay 1990):

- guess X = floor(log10 |v|);
- split the product |v| * 10**(16 - X) into p = fl(|v| * hi) and the rest
  r = e + |v| * lo, where hi + lo is 10**(16 - X) to 106 bits (a table built
  on first use from exact integers) and p + e = |v| * hi exactly (Dekker
  1971; numpy has no fma, so both factors are Veltkamp-split).  Every term
  is a normal double, so r is within ~1e-14 of the exact rest, and
  p >= 2**53 is an integer;
- round half-even on the fraction of r; a fraction within 1e-9 of .5, an
  exact tie included, is not proven;
- a product whose integer part is below 10**16, or that rounds above
  10**17, means the decade guess missed and is not proven; one that rounds
  to exactly 10**17 carries to 10**16 and X + 1 (the digits the next decade
  gives too).

``_format_rows`` splits N into its lead digit and four 4-digit groups, reads
their ASCII and trailing-zero counts from tables, and lays each cell out in
a fixed 46-byte template: sign, ``0.000`` prefix, the 17 digits, a point,
digits 1-16 again, ``e±ddd``, separator.  One keep-mask row per layout,
chosen by (form, X, trailing zeros, sign), zeroes the bytes the cell does
not use, and ``bytes.translate`` drops all zero bytes in one pass (faster
than ``np.compress``, which mispredicts a branch per byte on these masks,
and far faster than boolean indexing).  Zeros come out right as N = X = 0.
Cells that are not finite, whose |v| lies outside [1e-275, 1e290) (where a
table entry or a split part would leave the normal range), or that are not
proven, are formatted with ``'%.17g' % v`` and written into their template
whole.
"""
from __future__ import annotations

import functools

import numpy as np

#: rows formatted in one array pass; the scratch arrays take ~0.3 kB per cell
CHUNK_ROWS = 256

# one cell's template: "-0.000", the lead digit, digits 1-16, ".", digits
# 1-16 again, "e+ddd" and the separator
_CELL = np.dtype([("head", "S6"), ("lead", "u1"), ("digits", "S16"), ("point", "S1"),
                  ("frac", "S16"), ("exp", "S5"), ("sep", "S1")])
_SIGN, _PREFIX = 0, 1
_LEAD, _POINT, _FRAC, _EXP, _SEP = (_CELL.fields[f][1] for f in ("lead", "point", "frac",
                                                                  "exp", "sep"))
_WIDTH = _CELL.itemsize

# keep-mask rows: layout (0-20 fixed with X = layout - 4; 21 and 22
# scientific with 2 and 3 exponent digits) x trailing zeros of N (0-16) x
# sign, then one row for a fallback string (at most 24 bytes, NUL-padded)
_N_LAYOUTS = 23 * 17 * 2
_FALLBACK = _N_LAYOUTS

_MIN, _MAX = 1e-275, 1e290
_K_MIN, _K_MAX = -275, 293  # 16 - X over [_MIN, _MAX), a decade to spare
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter
_TIE = 1e-9
_X_MIN = -400  # exponent tables cover X in [-400, 400]


@functools.cache
def _powers():
    """10**k for k in [_K_MIN, _K_MAX] as hi + lo, with hi split in two
    halves; built on first use."""
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        if k >= 0:
            p = 10**k
            h = float(p)
            lo.append(float(p - int(h)))
        else:
            q = 10**-k
            h = 1 / q  # int division is correctly rounded
            a, b = h.as_integer_ratio()
            lo.append((b - a * q) / (b * q))
        hi.append(h)
    hi = np.array(hi)
    c = _SPLIT * hi
    hi_h = c - (c - hi)
    return hi, hi_h, hi - hi_h, np.array(lo)


@functools.cache
def _layouts():
    """Keep masks, and per-exponent and per-4-digit-group lookups; built on
    first use."""
    x = np.arange(_X_MIN, -_X_MIN + 1)
    # the first keep-mask row of each exponent's layout (17 zero counts x 2 signs each)
    layout = np.where((x >= -4) & (x <= 16), x + 4, 21 + ((x <= -100) | (x >= 100))) * 34
    exps = np.array([b"e%+04d" % e for e in x.tolist()], dtype="S5")
    g = np.arange(10_000)
    ascii4 = np.empty((10_000, 4), dtype=np.uint8)
    zeros4 = np.zeros(10_000, dtype=np.int64)
    for i, p in enumerate((1000, 100, 10, 1)):
        ascii4[:, i] = g // p % 10 + ord("0")
        zeros4 += g % (10 * p) == 0
    return _keep_masks(), layout, exps, ascii4.view("S4")[:, 0], zeros4


def _keep_masks() -> np.ndarray:
    key = np.arange(_N_LAYOUTS)[:, None]
    layout, zeros, neg = key // 34, key // 2 % 17, key % 2
    sci = layout > 20
    x = np.where(sci, 0, layout - 4)  # scientific keeps the digits fixed X = 0 keeps
    lead = np.where(x >= 0, x + 1, 17 - zeros)
    frac = np.where(x >= 0, np.maximum(0, 16 - x - zeros), 0)
    start = _FRAC + np.maximum(x, 0)
    col = np.arange(_WIDTH)
    keep = ((col == _SIGN) & (neg == 1)
            | (col >= _PREFIX) & (col < _PREFIX + np.where(x < 0, 1 - x, 0))
            | (col >= _LEAD) & (col < _LEAD + lead)
            | (col == _POINT) & (frac > 0)
            | (col >= start) & (col < start + frac)
            | sci & (col >= _EXP) & (col < _SEP) & ((col != _EXP + 2) | (layout == 22))
            | (col == _SEP))
    fallback = (col < 24) | (col == _SEP)
    return np.concatenate([keep, fallback[None]])


@functools.cache
def _blank_row(n_cols: int) -> np.ndarray:
    """The templates of one row of ``n_cols`` cells, separators in place."""
    row = np.frombuffer(b"-0.000" + b"0" * 17 + b"." + b"0" * 16 + b"e+000,", dtype=np.uint8)
    t = np.tile(row, (n_cols, 1))
    t[-1, _SEP] = ord("\n")
    return t


def csv_text(header: str, table: np.ndarray) -> str:
    """CSV text of a 2-D float64 table under an ASCII ``header`` line: each
    cell ``'%.17g' % v``, cells joined by commas, each row ended by a newline."""
    n_cols = table.shape[1]
    cells = np.ascontiguousarray(table, dtype=np.float64).ravel()
    step = CHUNK_ROWS * n_cols
    return b"".join([(header + "\n").encode(), *(
        _format_rows(cells[i:i + step], n_cols) for i in range(0, len(cells), step))
    ]).decode("ascii")


def _decade(a: np.ndarray) -> np.ndarray:
    """floor(log10 a): a guess, which may be one off next to a power of ten."""
    return np.floor(np.log10(a)).astype(np.int64)


def _round17(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(N, X, proven) per cell: N and X as ``%.17g`` has them where proven,
    else N = X = 0 (zeros are not proven but come out right as N = X = 0)."""
    hi, hi_h, hi_l, lo = _powers()
    a = np.abs(v)
    regular = (a >= _MIN) & (a < _MAX)
    a = np.where(regular, a, 1.0)
    x = _decade(a)
    k = (16 - _K_MIN) - x
    p = a * hi.take(k)
    c = _SPLIT * a
    a_h = c - (c - a)
    a_l = a - a_h
    b_h, b_l = hi_h.take(k), hi_l.take(k)
    r = (((a_h * b_h - p) + a_h * b_l + a_l * b_h) + a_l * b_l) + a * lo.take(k)
    whole = np.floor(r)
    frac = r - whole
    n = p.astype(np.int64) + whole.astype(np.int64)
    proven = regular & (np.abs(frac - 0.5) >= _TIE) & (n >= 10**16)
    n += frac > 0.5
    proven &= n <= 10**17
    carry = n == 10**17
    n[carry] = 10**16
    x += carry
    n[~proven] = 0
    x[~proven] = 0
    return n, x, proven


def _format_rows(v: np.ndarray, n_cols: int) -> bytes:
    keep, layout, exps, ascii4, zeros4 = _layouts()
    n, x, proven = _round17(v)
    m = len(v)
    top = n // 10**8
    lead = top // 10**8
    halves = np.stack([top - lead * 10**8, n - top * 10**8], axis=1)
    quarters = halves // 10**4
    groups = np.stack([quarters, halves - quarters * 10**4], axis=2).reshape(m, 4)
    z = zeros4.take(groups)
    empty = groups == 0
    zeros = z[:, 3] + empty[:, 3] * (z[:, 2] + empty[:, 2] * (z[:, 1] + empty[:, 1] * z[:, 0]))
    key = layout.take(x - _X_MIN) + 2 * zeros + np.signbit(v)

    t = np.tile(_blank_row(n_cols), (m // n_cols, 1))
    cell = t.view(_CELL)[:, 0]
    digits = ascii4.take(groups).view("S16")[:, 0]
    cell["lead"] += lead.astype(np.uint8)
    cell["digits"] = digits
    cell["frac"] = digits
    cell["exp"] = exps.take(x - _X_MIN)
    slow = np.flatnonzero(~proven & (v != 0))
    if len(slow):
        text = np.array(["%.17g" % f for f in v[slow].tolist()], dtype="S24")
        t[slow, :24] = text.view(np.uint8).reshape(-1, 24)
        key[slow] = _FALLBACK
    t *= keep.take(key, axis=0)
    return t.tobytes().translate(None, b"\0")
