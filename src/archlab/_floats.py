"""The float cells of :mod:`archlab._cells`: ``'%.17g' % x`` for every
float cell of a chunk at once.

A float's slot is four words, 32 bytes::

    byte  0     1    2..6     7    8    9..23     24    25   26    27..29
          lead  '-'  '0.000'  d0   '.'  d1..d15   d16   'e'  sign  exponent

The digits always sit in the same bytes; a shorter prefix ("0.", "0.0")
ends at byte 6.  Only a fixed-notation number with 2 to 16 integer digits
and a fraction moves d1..dE one byte left and puts its point after dE.
Each word is a layout template ANDed with a data word: a kept literal is
that literal in the template and 0xFF in the data, a kept digit is 0xFF in
the template, a dropped byte 0.  A layout is 34 mode + 2 (s - 1) + sign for
s significant digits, mode E + 4 in fixed notation (E = -4..16) and 21 in
scientific notation.
"""

from __future__ import annotations

import functools
import math
from types import SimpleNamespace

import numpy as np

#: Biased binary exponents of the binades the vectorised float path takes,
#: magnitudes in [2^-896, 2^896) (about 1.9e-270 to 5.3e269): inside them
#: the powers of ten and the products neither overflow nor underflow.
_Q_LO, _Q_HI = 1023 - 896, 1023 + 895
#: A scaled value whose fraction is this close to 1/2 may be a decimal tie,
#: or too close to one for the scaling's error (below 8.1e-7) to settle.
_TIE_MARGIN = 1e-5
_VELTKAMP = 134217729.0  # 2^27 + 1: splits a double into 26-bit halves
_U8, _U64 = np.uint8, np.uint64
_HIGH26 = _U64(0xFFFFFFFFF8000000)  # sign, exponent and 25 fraction bits
_B8, _B32, _B56 = _U64(8), _U64(32), _U64(56)
_TEN, _TEN4, _TEN8 = np.int64(10), np.int64(10 ** 4), np.int64(10 ** 8)
_SCI, _LAYOUTS = 21, 22 * 34


def _pow10_dd(k_lo: int, k_hi: int) -> tuple[np.ndarray, np.ndarray]:
    """10^k for k in [k_lo, k_hi] as normalised double-doubles (hi, lo)
    from exact integer ratios: int true division rounds correctly, so hi
    is 10^k rounded and lo the rounded remainder 10^k - hi."""
    hi, lo = np.empty(k_hi - k_lo + 1), np.empty(k_hi - k_lo + 1)
    for i, k in enumerate(range(k_lo, k_hi + 1)):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        hi[i] = x = num / den
        a, b = x.as_integer_ratio()
        lo[i] = (num * b - a * den) / (den * b)
    return hi, lo


@functools.cache
def tables() -> SimpleNamespace:
    """The lookup tables, built on the first table write."""
    t = SimpleNamespace()
    v = np.arange(10000, dtype=np.int16)
    digits = np.zeros((10000, 8), dtype=_U8)  # 0000..9999 in 4 bytes
    for i, unit in enumerate((1000, 100, 10, 1)):
        digits[:, i] = v // unit % 10 + ord("0")
    t.digits = digits.view(_U64).ravel()
    last = np.zeros(10000, dtype=np.int8)  # place (1..4) of the last nonzero
    for place in range(1, 5):
        last[digits[:, place - 1] > ord("0")] = place
    # E = floor(log10|x|) is e_low of the binade q of x, plus 1 from the
    # smallest double >= 10^(e_low + 1) on; two extra E rows for zero (a
    # subnormal steps past it to the next) and for every other unfit cell
    q = np.arange(2048)
    e_low = np.floor((q - 1023) * math.log10(2)).astype(np.intp)
    e_min, e_max = int(e_low[_Q_LO]), int(e_low[_Q_HI]) + 1
    zero, bad = e_max - e_min + 1, e_max - e_min + 2
    k_lo = min(e_min + 1, 16 - e_max)
    hi, lo = _pow10_dd(k_lo, 16 - e_min)
    fast = (q >= _Q_LO) & (q <= _Q_HI)
    above = np.where(lo > 0, np.nextafter(hi, np.inf), hi)
    t.threshold = np.where(fast, above[np.clip(e_low + 1 - k_lo, 0, hi.size - 1)],
                           np.nan)
    t.threshold[0] = 5e-324
    t.e_index = np.where(fast, e_low - e_min, bad)
    t.e_index[0] = zero
    # 10^(16 - E) as P1 + P2, P1 rounded to 26 bits (Veltkamp)
    e = np.arange(e_min, e_max + 1)
    p_hi, p_lo = hi[16 - e - k_lo], lo[16 - e - k_lo]
    p1 = _VELTKAMP * p_hi - (_VELTKAMP * p_hi - p_hi)
    t.p1 = np.concatenate([p1, [1.0, np.nan]])
    t.p2 = np.concatenate([(p_hi - p1) + p_lo, [0.0, np.nan]])
    sci = (e < -4) | (e > 16)
    t.layout17 = 34 * np.concatenate([np.where(sci, _SCI, e + 4), [4, 0]]) + 32
    expo = np.zeros((e.size + 2, 8), dtype=_U8)  # 'e' sign [h] t u, word 3
    expo[:e.size, 1] = np.where(sci, ord("e"), 0)
    expo[:e.size, 2] = np.where(sci, np.where(e < 0, ord("-"), ord("+")), 0)
    text = digits[np.abs(e)]
    expo[:e.size, 3:6] = np.where(sci[:, None], np.where(
        (np.abs(e) >= 100)[:, None], text[:, 1:4], np.c_[text[:, 2:4], 0 * e]), 0)
    t.expo = expo.view(_U64).ravel()
    # 2 (s - 1) from the last nonzero digit of d0-d3, d4-d7, d8-d11, d12-d15
    place = 8 * np.arange(4, dtype=np.int8)[:, None]
    t.sig = np.where(last > 0, 2 * (last - 1) + place, 0).astype(np.int8).ravel()
    t.sig_offsets = 10000 * np.arange(4)[:, None]
    _float_layouts(t)
    return t


def _float_layouts(t: SimpleNamespace) -> None:
    """The four template words of each layout; whether it moves digits; and
    per E the moved digits' bytes and the point in words 1 and 2."""
    mode, s, negative = (a.ravel() for a in np.meshgrid(
        np.arange(22), np.arange(1, 18), np.arange(2), indexing="ij"))
    e = mode - 4
    integer = (e > 0) & (mode != _SCI) & (s <= e + 1)
    t.moves = (e > 0) & (mode != _SCI) & ~integer
    tpl = np.zeros((_LAYOUTS, 32), dtype=_U8)
    tpl[:, [0, 7]] = 0xFF  # the lead byte and d0
    tpl[:, 1] = np.where(negative == 1, ord("-"), 0)
    tpl[:, 8] = np.where(((mode == _SCI) | (e == 0)) & (s > 1), ord("."), 0)
    for k in range(1, 5):  # 0.1 .. 0.0001: "0." and k - 1 zeros before d0
        tpl[e == -k, 6 - k:7] = np.frombuffer(b"0.000"[:k + 1], dtype=_U8)
    # digit i (1..16) sits in byte 8 + i; kept from the first after the
    # moved ones up to the last significant one (or the units, in an integer)
    i = np.arange(1, 17)
    first = np.where(t.moves, e + 1, 1)[:, None]
    last = np.where(integer, e, s - 1)[:, None]
    tpl[:, 9:25] = ((i >= first) & (i <= last)) * _U8(0xFF)
    t.templates = tpl.view(_U64).T.copy()
    moved = np.zeros((2, 16, 32), dtype=_U8)  # per E: the moved bytes, the point
    moved[0, :, 8:24] = (i - 1 < np.arange(16)[:, None]) * _U8(0xFF)
    moved[1, np.arange(16), 8 + np.arange(16)] = ord(".")
    t.moved = moved.view(_U64)[:, :, 1:3].transpose(0, 2, 1).reshape(4, 16)


# -- floats ----------------------------------------------------------------

def float_words(x: np.ndarray, slots, words, csv: bool) -> None:
    """``'%.17g' % x`` of each cell of the (columns, rows) array ``x``.

    |x| 10^(16 - E) lies in [10^16, 10^17); it is formed as a_hi P1 +
    (a_lo P1 + |x| P2), with |x| = a_hi + a_lo and 10^(16 - E) ~ P1 + P2
    split into 26- and 27-bit parts, so the first product is exact and an
    integer and the rest is within 8.1e-7.  N, its rounding, is settled
    unless that fraction lies within ``_TIE_MARGIN`` of 1/2 or N = 10^17;
    those cells, non-finite ones, subnormals and magnitudes outside the
    tables are formatted by Python one by one, as exact printers fall back
    to a slow path (Adams, 2018).  The layout of 17 significant digits
    follows from E and the sign; a cell whose d16 is 0 (about one in ten)
    and one whose digits move get a sparse second pass."""
    t = tables()
    with np.errstate(invalid="ignore"):  # inf and nan become NaN, then junk
        ax = np.abs(x)
        q = ax.view(np.int64) >> 52
        ei = t.e_index.take(q)
        ei += ax >= t.threshold.take(q)
        del q
        rest = t.p2.take(ei)
        rest *= ax
        a_hi = (ax.view(_U64) & _HIGH26).view(np.float64)
        ax -= a_hi  # a_lo
        p1 = t.p1.take(ei)
        ax *= p1
        rest += ax
        a_hi *= p1
        del ax, p1
        r = np.rint(rest)
        n = a_hi.astype(np.int64)
        del a_hi
        n += r.astype(np.int64)
        rest -= r
        del r
        ok = np.abs(rest, out=rest) <= 0.5 - _TIE_MARGIN
        del rest
        ok &= n < np.int64(10 ** 17)
    top = n // _TEN  # N = 10 top + d16
    d16 = np.subtract(n, top * _TEN, out=n)
    layout = t.layout17.take(ei)
    layout += np.signbit(x)
    few = np.flatnonzero(d16 == 0)
    if few.size:  # 2 (s - 1) from the last nonzero group (numpy's take and
        # put are far quicker than [] for these)
        g = np.empty((4, few.size), dtype=np.intp)
        f = top.reshape(-1).take(few)
        np.floor_divide(f, _TEN8, out=g[1])
        g[3] = f - g[1] * _TEN8
        np.floor_divide(g[1::2], _TEN4, out=g[0::2])
        g[1::2] -= g[0::2] * _TEN4
        g += t.sig_offsets
        sig = t.sig.take(g, mode="clip").max(axis=0)  # clip: unsettled junk
        flat = layout.reshape(-1)
        flat.put(few, flat.take(few) + sig - 32)
    # each word: a data word ANDed with its template, the last step writing
    # the slots
    w = slots.block(x.shape[1])
    a = np.add(d16.view(_U64), _U64(ord("0")), out=d16.view(_U64))
    tpl = t.templates[3].take(layout)
    a &= tpl
    t.expo.take(ei, out=tpl)
    np.bitwise_or(a, tpl, out=w[3])
    del a, d16, n, ei
    # the texts of d0..d7 and d8..d15, from their 4-digit groups
    half = np.empty((2,) + x.shape, dtype=np.intp)
    np.floor_divide(top, _TEN8, out=half[0])
    np.subtract(top, half[0] * _TEN8, out=half[1])
    del top
    q = half // _TEN4
    half -= q * _TEN4
    u = t.digits.take(q, mode="clip")
    del q
    low = t.digits.take(half, mode="clip")
    del half
    low <<= _B32
    u |= low
    del low
    a = np.left_shift(u[0], _B56)  # d0
    a |= _U64(0x00FFFFFFFFFFFF00 | slots.lead)
    t.templates[0].take(layout, out=tpl)
    np.bitwise_and(a, tpl, out=w[0])
    slots.fix_leads(w[0])
    np.bitwise_or(u[0], _U64(0xFF), out=a)  # the point's place over d0
    t.templates[1].take(layout, out=tpl)
    np.bitwise_and(a, tpl, out=w[1])
    t.templates[2].take(layout, out=tpl)
    np.bitwise_and(u[1], tpl, out=w[2])
    del a, tpl
    cols = x.shape[1]
    moves = np.flatnonzero(t.moves.take(layout))
    if moves.size:  # d1..dE one byte left, then the point
        u1, u2 = u.reshape(2, -1).take(moves, axis=1)
        m = t.moved.take(layout.reshape(-1).take(moves) // 34 - 4, axis=1)
        at = np.divmod(moves, cols)
        w[1][at] |= (((u1 >> _B8) | (u2 << _B56)) & m[0]) | m[2]
        w[2][at] |= ((u2 >> _B8) & m[1]) | m[3]
    del u, layout
    slow = np.flatnonzero(~ok)
    if slow.size:
        at = np.divmod(slow, cols)
        cells = [format(v, ".17g") if csv or math.isfinite(v) else dumps(v)
                 for v in x[at].tolist()]
        text = np.zeros((slow.size, 32), dtype=_U8)
        text[:, 0] = np.array(slots.leads, dtype=_U8)[at[0]]
        text[:, 1:] = np.array(cells, dtype="S31").view(_U8).reshape(-1, 31)
        for k, word in enumerate(text.view(_U64).T):
            w[k][at] = word
    slots.store(words, w)


def dumps(value) -> str:
    """``json.dumps(value)``, importing json only when JSON is written."""
    import json

    return json.dumps(value)
