"""Table cells as text: the formatter behind
:func:`archlab.numerics.write_table`.

A :class:`Table` plans its row once: every cell and every run of literal
text (separators, JSON keys) gets a whole number of 8-byte words, and the
bytes a cell leaves unused are NUL.  A chunk is computed into one
(words, rows) uint64 matrix, a matrix row per word of the text row, so that
numpy reads and writes contiguous memory; the transpose, with every NUL
deleted, is the text.  Floats print as ``'%.17g' % x`` (:mod:`._floats`),
ints as ``%d`` and labels as ``%s``, byte for byte, with no Python object
per cell.  The float code is a module of its own so that, run from source,
each is compiled with half the memory.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

from ._floats import dumps, float_words, tables as _float_tables

_U8, _U64 = np.uint8, np.uint64
_B8, _B32, _B56 = _U64(8), _U64(32), _U64(56)
_POW10 = np.array([10 ** k for k in range(1, 20)], dtype=_U64)


class Table:
    """The text of one table's rows, chunk by chunk.

    ``names`` key the JSON objects.  ``csv`` picks CSV lines, each led by
    "\\n" (write the header without one and a "\\n" after the last chunk),
    or JSON objects, each led by ", ".  A row plan is made once for each set
    of column kinds and widths the table's chunks have."""

    def __init__(self, names, csv: bool):
        self.names, self.csv = tuple(names), csv
        self._plans: dict = {}

    def format_chunk(self, cols) -> str:
        """The rows of the equal-length arrays ``cols`` as text."""
        kinds = tuple(["f" if c.dtype.kind == "f" else "i" if c.dtype.kind in "iu"
                       else "s" for c in cols])
        ints = [c for c, k in zip(cols, kinds) if k == "i"]
        width = 0
        if ints:
            mag, neg = _int_magnitudes(ints)
            digits = int(np.searchsorted(_POW10, mag.max(), side="right")) + 1
            width = (digits + (neg is not None) + 8) // 8  # and the lead byte
        labels = [_labels(c) for c, k in zip(cols, kinds) if k == "s"]
        key = (kinds, width, tuple([b.itemsize for b in labels]))
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = _Plan(self.names, self.csv, *key)
        words = plan.words(len(cols[0]))
        floats = [c for c, k in zip(cols, kinds) if k == "f"]
        if floats:
            float_words(np.array(floats, dtype=np.float64), plan.floats, words,
                        self.csv)
        if ints:
            _int_words(mag, neg, plan.ints, words)
        for b, (start, stop, lead) in zip(labels, plan.labels):
            v = b.astype(f"S{8 * (stop - start)}").view(_U64).reshape(len(b), -1).T
            out = words[start:stop]
            if lead is None:
                out[...] = v
            else:  # the label one byte on, after its lead byte
                np.left_shift(v, _B8, out=out)
                out[1:] |= v[:-1] >> _B56
                out[0] |= _U64(lead)
        return words.T.tobytes().translate(None, b"\0").decode("ascii")


def _labels(col: np.ndarray) -> np.ndarray:
    """A label column as fixed-width bytes, each label checked; an error
    names the first bad label in row order."""
    if col.dtype.kind != "S":
        _check_labels(dict.fromkeys(col.tolist()))
        return col.astype("S")
    size = col.itemsize
    b = np.ascontiguousarray(col).view(_U8)
    bad = ~_LABEL_BYTES.take(b)
    nul = b == 0
    late = nul[:-1] > nul[1:]  # a NUL before a byte that is not NUL ...
    late[size - 1::size] = False  # ... of the same label
    bad[1:] |= late
    if bad.any():
        _check_labels([col[bad.argmax() // size]])
    return col


# the bytes a label may hold: printable ASCII other than ',', '"' and '\',
# and NUL, which numpy pads a shorter label with
_LABEL_BYTES = np.zeros(256, dtype=bool)
_LABEL_BYTES[[0, *range(0x20, 0x7F)]] = True
_LABEL_BYTES[list(b',"\\')] = False


def _check_labels(values) -> None:
    """Raise ValueError on a label that CSV or JSON could not hold verbatim;
    a bytes label is read as Latin-1."""
    for value in values:
        text = value.decode("latin-1") if isinstance(value, bytes) else str(value)
        if not (text.isascii() and text.isprintable()) or any(
                c in text for c in ',"\\'):
            raise ValueError(f"cannot write the label {text!r}: labels must be "
                             'printable ASCII without ",", \'"\' or "\\"')


class _Slots:
    """The cells of one kind: the first matrix row of each cell's slot, and
    the byte folded into its first byte (a one-byte separator, else 0)."""

    def __init__(self):
        self.starts, self.leads, self.view = [], [], None

    def close(self, width: int) -> None:
        s, self.width = self.starts, width
        self.lead = max(set(self.leads), key=self.leads.count) if s else 0
        self.other_leads = [(j, lead) for j, lead in enumerate(self.leads)
                            if lead != self.lead]
        self.step = s[1] - s[0] if len(s) > 1 else 1
        self.even = bool(s) and all(b - a == self.step for a, b in zip(s, s[1:]))

    def bind(self, buf: np.ndarray) -> None:
        """The (width, cells, rows) view of the slots in ``buf``, when they
        are evenly spaced: numpy writes a strided view several times slower
        than contiguous memory, so only whole results go there."""
        if self.even:
            row = buf.strides[0]
            self.view = np.lib.stride_tricks.as_strided(
                buf[self.starts[0]:], (self.width, len(self.starts), buf.shape[1]),
                (row, self.step * row, buf.strides[1]), writeable=True)

    def block(self, n: int) -> np.ndarray:
        """Where the cells' words are computed: the view, or a new array."""
        if self.view is not None:
            return self.view[..., :n]
        return np.empty((self.width, len(self.starts), n), dtype=_U64)

    def store(self, words: np.ndarray, block: np.ndarray) -> None:
        """The cells' words := ``block``, unless it is the view."""
        if self.view is None:
            for k in range(self.width):
                words[[r + k for r in self.starts]] = block[k]
        elif not np.may_share_memory(block, words):
            self.view[..., :block.shape[-1]] = block

    def fix_leads(self, w0: np.ndarray) -> None:
        """Put each cell's own lead byte where the common one went."""
        for j, lead in self.other_leads:
            w0[j] &= _U64(2 ** 64 - 256)
            w0[j] |= _U64(lead)


class _Plan:
    """Where each cell's and each literal's words lie in a row."""

    def __init__(self, names, csv, kinds, int_width, label_widths):
        gaps = []  # the literal text before each cell, and after the last
        for j, (name, kind) in enumerate(zip(names, kinds)):
            if csv:
                gaps.append("," if j else "\n")
            else:
                close = '"' if j and kinds[j - 1] == "s" else ""
                gaps.append(close + (", " if j else ", {") + dumps(name) + ": "
                            + ('"' if kind == "s" else ""))
        if not csv:
            gaps.append(('"' if kinds[-1] == "s" else "") + "}")
        self.literals = []  # (row, word)
        self.floats, self.ints, self.labels = _Slots(), _Slots(), []
        widths = iter(label_widths)
        row = 0
        for j, gap in enumerate(gaps):
            gap = gap.encode()
            fold = len(gap) <= 1 and j < len(kinds)
            if not fold:
                gap += bytes(-len(gap) % 8)
                for word in np.frombuffer(gap, dtype=_U64).tolist():
                    self.literals.append((row, word))
                    row += 1
            if j == len(kinds):
                break
            lead = gap[0] if gap else 0
            if kinds[j] == "s":
                size = (next(widths) + fold + 7) // 8
                self.labels.append((row, row + size, lead if fold else None))
            else:
                slots = self.floats if kinds[j] == "f" else self.ints
                slots.starts.append(row)
                slots.leads.append(lead if fold else 0)
                size = 4 if kinds[j] == "f" else int_width
            row += size
        self.floats.close(4)
        self.ints.close(int_width)
        self.rows = row
        self._buf = np.empty((row, 0), dtype=_U64)

    def words(self, n: int) -> np.ndarray:
        """The (words, n) matrix of a chunk of n rows, literals filled in."""
        if self._buf.shape[1] < n:
            # rows 8 words longer than a chunk: the rows of one word lying a
            # multiple of 4 KiB apart would stall loads on stores there
            self._buf = np.zeros((self.rows, n + 8), dtype=_U64)
            for r, word in self.literals:
                self._buf[r] = word
            self.floats.bind(self._buf)
            self.ints.bind(self._buf)
        return self._buf[:, :n]


# -- ints ------------------------------------------------------------------

def _int_magnitudes(cols) -> tuple[np.ndarray, np.ndarray | None]:
    """|v| as uint64 of each int cell, a row per column, and v < 0 (None if
    no cell is negative); |min int64| still fits a uint64."""
    mag = np.array(cols, dtype=_U64)  # a negative v wraps to 2^64 + v
    neg = mag.view(np.int64) < 0  # and so does a uint64 v >= 2^63: undo it
    neg[[c.dtype.kind == "u" for c in cols]] = False
    if not neg.any():
        return mag, None
    np.negative(mag, out=mag, where=neg)
    return mag, neg


def _int_words(mag, neg, slots: _Slots, words) -> None:
    """``%d`` of each cell right-aligned in its slot after the lead byte:
    4-digit groups, the highest first, fill the words."""
    t = _int_tables()
    width = slots.width
    groups = np.empty((2 * width,) + mag.shape, dtype=np.intp)
    for g in groups[:0:-1]:  # from the units up
        q = mag // _U64(10 ** 4)
        np.subtract(mag, q * _U64(10 ** 4), out=g, casting="unsafe")
        mag = q
    groups[0] = mag
    ndigits = t.ndigits.take(groups + t.places[2 * width - 1::-1]).max(axis=0)
    layout = 2 * ndigits if neg is None else 2 * ndigits + neg
    block = t.digits.take(groups[0::2])  # word j: groups 2 j and 2 j + 1
    block |= t.digits.take(groups[1::2]) << _B32
    for j, out in enumerate(block):
        k = width - 1 - j  # the word's place from the right
        out &= t.keep[k].take(layout)
        if neg is not None:
            out |= t.sign[k].take(layout)
    block[0] |= _U64(slots.lead)
    slots.fix_leads(block[0])
    slots.store(words, block)


@functools.cache
def _int_tables() -> SimpleNamespace:
    """The int path's lookup tables: per place and 4-digit group the digits
    of a number led by that group, and per layout 2 digits + sign and per
    word from the right the bytes kept and the sign."""
    t = SimpleNamespace(digits=_float_tables().digits)
    count = np.zeros(10000, dtype=np.int8)  # the digits of the group, or 0
    for place in range(1, 5):
        count[10 ** (place - 1):10 ** place] = place
    t.ndigits = (count + (4 * np.arange(6, dtype=np.int8))[:, None] * (count > 0)
                 ).ravel()
    t.ndigits[0] = 1  # 0 has one digit
    t.places = (10000 * np.arange(6))[:, None, None]
    keep, sign = np.zeros((2, 48, 24), dtype=_U8)
    for d in range(1, 23):
        keep[2 * d:2 * d + 2, 24 - d:] = 0xFF
        sign[2 * d + 1, 23 - d] = ord("-")
    t.keep, t.sign = (w.view(_U64).T[::-1].copy() for w in (keep, sign))
    return t
