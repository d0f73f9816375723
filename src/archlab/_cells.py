"""Table cells as text: the byte-matrix formatter behind
:func:`archlab.numerics.write_table`.

A chunk of rows is laid out as one row-major byte matrix in which every
cell has a fixed-width slot; the bytes a cell leaves unused are NUL, and
deleting every NUL leaves the text.  Floats print as ``'%.17g' % x``, ints
as ``%d`` and labels as ``%s``, byte for byte, with no Python object per
cell.
"""

from __future__ import annotations

import functools
import math

import numpy as np


def format_chunk(names, cols, csv: bool) -> bytearray:
    """The rows of the equal-length ``cols``, keyed by ``names`` in JSON, as
    ASCII: CSV lines, or JSON objects each led by ", "."""
    n = len(cols[0])
    kinds = ["f" if c.dtype.kind == "f" else "i" if c.dtype.kind in "iu" else "s"
             for c in cols]
    slots = {}
    for kind, text in (("f", functools.partial(_float_text, csv=csv)),
                       ("i", _int_text)):
        at = [j for j, k in enumerate(kinds) if k == kind]
        if at:  # all cells of a kind at once, in row-major order
            cells = text([cols[j] for j in at]).reshape(n, len(at), -1)
            slots.update((j, cells[:, i]) for i, j in enumerate(at))
    row, spans = b"", []
    for j, (name, kind) in enumerate(zip(names, kinds)):
        if kind == "s":
            slots[j] = _label_text(cols[j])
        quote = b'"' if kind == "s" and not csv else b""
        if csv:
            row += b"," if j else b""
        else:
            row += (b", " if j else b", {") + _dumps(name).encode() + b": " + quote
        spans.append((len(row), slots[j]))
        row += bytes(slots[j].shape[1]) + quote
    row += b"\n" if csv else b"}"
    buf = bytearray(row * n)
    mat = np.frombuffer(buf, dtype=np.uint8).reshape(n, len(row))
    for at, cells in spans:
        mat[:, at:at + cells.shape[1]] = cells
    return buf.translate(None, b"\0")


def _dumps(value) -> str:
    """``json.dumps(value)``, importing json only when JSON is written."""
    import json

    return json.dumps(value)


def _label_text(col: np.ndarray) -> np.ndarray:
    """``%s`` of each cell as a NUL-padded byte matrix; raises ValueError on
    a label that CSV or JSON could not hold verbatim.  A bytes column is
    taken as it is; a bytes label is checked decoded as Latin-1."""
    is_bytes = col.dtype.kind == "S"
    for value in np.unique(col).tolist() if is_bytes else set(col.tolist()):
        text = value.decode("latin-1") if isinstance(value, bytes) else str(value)
        if not (text.isascii() and text.isprintable()) or any(
                c in text for c in ',"\\'):
            raise ValueError(f"cannot write the label {text!r}: labels must be "
                             'printable ASCII without ",", \'"\' or "\\"')
    labels = np.ascontiguousarray(col) if is_bytes else col.astype("S")
    return labels.view(np.uint8).reshape(labels.size, labels.itemsize)


# -- numbers ---------------------------------------------------------------
#
# A number's slot is built from 4- or 8-byte words: a per-cell template
# word, looked up by the cell's layout, is ANDed with a data word.  In a
# template, a kept literal byte is that literal, a kept data byte is 0xFF
# and a dropped byte is 0; a data word holds 0xFF where the template has
# its literals.

#: Magnitudes the double-double path scales: inside this range neither
#: the power-of-ten table nor the Dekker split can overflow or underflow.
_FAST_MIN, _FAST_MAX = 1e-270, 1e270
#: Decimal exponents E = floor(log10|x|) the tables cover: the range above
#: and one step of slack on each side.
_E_MIN, _E_MAX = -272, 272
#: A scaled value whose fraction is this close to 1/2 may be a decimal tie,
#: or too close to one to round in double-double; it falls back.
_TIE_MARGIN = 1e-6
_DEKKER = 134217729.0  # 2^27 + 1: splits a double into two 26-bit halves


def _groups4(m: np.ndarray, count: int) -> list[np.ndarray]:
    """``count`` 4-digit groups of each integer ``m``, most significant
    first; the first holds everything above the others."""
    ten4 = m.dtype.type(10000)
    groups = []
    for _ in range(count - 1):
        q = m // ten4
        groups.append((m - q * ten4).astype(np.intp, copy=False))
        m = q
    return [m.astype(np.intp, copy=False)] + groups[::-1]


@functools.cache
def _digit_words() -> tuple[np.ndarray, np.ndarray]:
    """The ASCII digits of 0000..9999: packed in a uint32 each, and spread
    over the even bytes of a uint64 each with 0xFF in the odd bytes."""
    v = np.arange(10000, dtype=np.uint16)
    digits = np.empty((10000, 4), dtype=np.uint8)
    for i, unit in enumerate((1000, 100, 10, 1)):
        digits[:, i] = v // unit % 10 + ord("0")
    spread = np.full((10000, 8), 0xFF, dtype=np.uint8)
    spread[:, ::2] = digits
    return digits.view(np.uint32).ravel(), spread.view(np.uint64).ravel()


@functools.cache
def _int_layouts(groups: int) -> np.ndarray:
    """Templates of the int slot, a uint32 word for the sign and then
    ``groups`` words of digits, indexed by 2 * digits + negative."""
    width = 4 * (groups + 1)
    table = np.zeros((42, width), dtype=np.uint8)
    for nd in range(1, min(20, 4 * groups) + 1):
        table[2 * nd:2 * nd + 2, width - nd:] = 0xFF
        table[2 * nd + 1, 0] = ord("-")
    return table.view(np.uint32)


def _int_text(cols: list[np.ndarray]) -> np.ndarray:
    """``%d`` of each cell of the row-major (rows, len(cols)) int table, one
    slot per row of the result."""
    mag = np.empty((len(cols[0]), len(cols)), dtype=np.uint64)
    neg = np.zeros(mag.shape, dtype=bool)
    for k, col in enumerate(cols):
        if col.dtype.kind == "u":
            mag[:, k] = col
        else:  # two's complement: |min int64| still fits a uint64
            col = col.astype(np.int64, copy=False)
            neg[:, k] = col < 0
            mag[:, k] = np.where(neg[:, k], -col.view(np.uint64), col.view(np.uint64))
    mag, neg = mag.reshape(-1), neg.reshape(-1)
    powers = np.uint64(10) ** np.arange(1, 20, dtype=np.uint64)
    ndigits = np.searchsorted(powers, mag, side="right") + 1
    groups = (int(ndigits.max()) + 3) // 4
    words = np.take(_int_layouts(groups), 2 * ndigits + neg, axis=0)
    packed = _digit_words()[0]
    for k, g in enumerate(_groups4(mag, groups)):
        words[:, k + 1] &= packed.take(g)
    return words.view(np.uint8)


@functools.cache
def _pow10_table() -> np.ndarray:
    """10^(16 - E) for E in [_E_MIN, _E_MAX] as double-doubles, one row per
    E: the nearest double split into Dekker halves, and the nearest double
    to what it misses.  Built from exact integer ratios."""
    rows = []
    for p in range(16 - _E_MIN, 16 - _E_MAX - 1, -1):
        num, den = (10 ** p, 1) if p >= 0 else (1, 10 ** -p)
        hi = num / den  # int true division rounds correctly
        a, b = hi.as_integer_ratio()
        lo = (num * b - a * den) / (den * b)
        c = _DEKKER * hi
        hi_hi = c - (c - hi)
        rows.append((hi_hi, hi - hi_hi, lo))
    return np.array(rows).T.copy()


def _scaled(ax: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ax * 10^(16 - e) as a normalised double-double (hi, lo), with a
    relative error near 2^-104; needs ax and e inside the tables' range."""
    p_hi_hi, p_hi_lo, p_lo = (t.take(e - _E_MIN) for t in _pow10_table())
    c = _DEKKER * ax
    a_hi = c - (c - ax)
    a_lo = ax - a_hi
    prod = ax * (p_hi_hi + p_hi_lo)
    err = ((a_hi * p_hi_hi - prod) + a_hi * p_hi_lo + a_lo * p_hi_hi) + a_lo * p_hi_lo
    tail = err + ax * p_lo
    hi = prod + tail
    return hi, tail - (hi - prod)


def _scaled_range(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """-1, 0 or +1 as hi + lo is below 10^16, inside [10^16, 10^17) or not
    below 10^17, judged on the full double-double."""
    return ((hi > 1e17) | ((hi == 1e17) & (lo >= 0))).astype(np.int64) - \
        ((hi < 1e16) | ((hi == 1e16) & (lo < 0)))


@functools.cache
def _float_layouts() -> tuple[np.ndarray, ...]:
    """The float slot, six uint64 words::

        0   '-'  '0.000'  d0 '.'     sign, leading zeros of |x| < 1
        8   d1 '.' d2 '.' ... d16 '.'   each digit with a candidate '.'
        40  'e' sign h t u              exponent

    Returns the templates, indexed by 2 * (17 * mode + s - 1) + negative
    for s significant digits once trailing zeros are stripped, where modes
    0..20 are fixed notation with E = mode - 4 and modes 21 and 22 are
    scientific with a 2- and a 3-digit exponent; the lead words of d0 =
    0..9; the exponent words of E = _E_MIN.._E_MAX; and, per 4-digit
    group k of d1..d16, the significant-digit count that group's last
    nonzero digit implies (0 for a zero group)."""
    rows = []
    for mode in range(23):
        for s in range(1, 18):
            row = bytearray(48)
            e = mode - 4
            if mode > 20:  # d0 [. d1...] e sign [h] t u
                digits, dot = s, 0 if s > 1 else None
                row[40:45] = b"e\xff\xff\xff\xff" if mode == 22 else b"e\xff\0\xff\xff"
            elif e >= 0:  # d0..dE [. dE+1...]
                digits, dot = max(e + 1, s), e if s > e + 1 else None
            else:  # 0.[000]d0...
                digits, dot = s, None
                row[1:2 - e] = b"0.000"[:1 - e]
            row[6:6 + 2 * digits:2] = b"\xff" * digits
            if dot is not None:
                row[7 + 2 * dot] = ord(".")
            rows += [row, b"-" + row[1:]]
    table = np.frombuffer(bytearray(b"".join(rows)), dtype=np.uint64).reshape(-1, 6)
    digits = _digit_words()[0].view(np.uint8).reshape(-1, 4)
    lead = np.full((10, 8), 0xFF, dtype=np.uint8)
    lead[:, 6] = digits[:10, 3]
    e = np.arange(_E_MIN, _E_MAX + 1)
    expo = np.full((e.size, 8), 0xFF, dtype=np.uint8)
    expo[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    expo[:, 2:5] = digits[np.abs(e), 1:]
    last = np.zeros(10000, dtype=np.int8)  # position of the last nonzero digit
    for pos in range(1, 5):
        last[digits[:, pos - 1] > ord("0")] = pos
    sig = np.zeros((4, 10000), dtype=np.int8)
    for k in range(4):
        sig[k, last > 0] = 1 + 4 * k + last[last > 0]
    return table, lead.view(np.uint64).ravel(), expo.view(np.uint64).ravel(), sig


def _round17(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """E = floor(log10|x|) and the 17 digits N = round(|x| 10^(16 - E)) of
    each float, and whether N was settled; a zero has E = 0 and N = 0.

    The product is formed in double-double arithmetic (Dekker, 1971) to
    about 1e-14 absolute, and E is corrected by one where the full product
    falls outside [10^16, 10^17), so N is correctly rounded unless its
    fraction lies within ``_TIE_MARGIN`` of 1/2.  Those cells, non-finite
    ones, the ones outside the tables' range and an N that rounds up to
    10^17 are not settled (N is then 10^16)."""
    ax = np.abs(x)
    ok = (ax >= _FAST_MIN) & (ax <= _FAST_MAX)  # False for 0, nan, inf
    ax = np.where(ok, ax, 1.0)
    e = np.floor(np.log10(ax)).astype(np.int64)
    hi, lo = _scaled(ax, e)
    off = _scaled_range(hi, lo)
    redo = np.flatnonzero(off)
    if redo.size:  # log10 rounded across a power of ten
        e[redo] += off[redo]
        hi[redo], lo[redo] = _scaled(ax[redo], e[redo])
        ok[redo] &= _scaled_range(hi[redo], lo[redo]) == 0
    whole = np.floor(lo)
    frac = lo - whole
    n = hi.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    ok &= (np.abs(frac - 0.5) >= _TIE_MARGIN) & (n >= 10 ** 16) & (n < 10 ** 17)
    zero = x == 0.0
    return e, np.where(ok, n, np.where(zero, 0, 10 ** 16)), ok | zero


def _float_text(cols: list[np.ndarray], csv: bool) -> np.ndarray:
    """``'%.17g' % x`` of each cell of the row-major (rows, len(cols)) float
    table, one slot per row of the result.  The cells :func:`_round17`
    cannot settle are formatted by Python one by one, as exact printers
    fall back to a slow path (Adams, 2018)."""
    x = np.empty((len(cols[0]), len(cols)))
    for k, col in enumerate(cols):
        x[:, k] = col
    x = x.reshape(-1)
    e, n, ok = _round17(x)
    lead = n // 10 ** 16
    groups = _groups4(n - lead * 10 ** 16, 4)
    layouts, lead_words, exp_words, sig = _float_layouts()
    s = np.maximum(np.maximum(sig[0].take(groups[0]), sig[1].take(groups[1])),
                   np.maximum(sig[2].take(groups[2]), sig[3].take(groups[3])))
    mode = np.where((e < -4) | (e > 16), 21 + (np.abs(e) >= 100), e + 4)
    words = np.take(layouts, 2 * (17 * mode + np.maximum(s, 1) - 1) + np.signbit(x),
                    axis=0)
    words[:, 0] &= lead_words.take(lead)
    spread = _digit_words()[1]
    for k, g in enumerate(groups):
        words[:, k + 1] &= spread.take(g)
    words[:, 5] &= exp_words.take(e - _E_MIN)
    text = words.view(np.uint8)
    slow = np.flatnonzero(~ok)
    if slow.size:
        cells = [format(v, ".17g") if csv or math.isfinite(v) else _dumps(v)
                 for v in x[slow].tolist()]
        text[slow] = np.array(cells, dtype="S48").view(np.uint8).reshape(-1, 48)
    return text
