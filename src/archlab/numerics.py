"""Quadrature, the f*F convolution, sign classification and table writing.

The convolution of two iid processing times,

    f*F(tau) = P(z1 + z2 <= tau) = int_0^tau f(x) F(tau - x) dx,

is computed in the equivalent split form
``F(tau/2)^2 + 2 int_{tau/2}^tau f(x) F(tau - x) dx`` so that densities are
never evaluated near the origin (where the Weibull density with k < 1
diverges).  Closed forms are used for the exponential and uniform families.

The convolution, over a whole array of tau values at once, is the only
numerical integral, and it goes through one tanh-sinh rule
(:func:`_tanh_sinh`) on every panel of every cell: levels of fixed nodes,
each halving the last one's spacing, until a cell's last two levels agree
to ``REL_TOL`` relative to its conv.  The nodes crowd both panel ends
double-exponentially, so the x^(k-1) density of a Weibull with k < 1 and
the (tau - x)^k end of F(tau - x) need no bisection and no substitution.
"""

from __future__ import annotations

import functools
import math
import os
from itertools import islice
from typing import Iterable, Sequence

import numpy as np

from .distributions import (Exponential, ProcessingTimeDistribution, Uniform,
                            _first_bad)
from .errors import DomainError, QuadratureConvergenceError

#: Absolute tolerance under which a computed difference counts as zero when
#: classifying signs.  conv meets ``REL_TOL`` (1e-13) relative, but a
#: signed value can amplify its error: d expression3 / d conv is about 9e4
#: at (u, tau) = (10, 0.01).
SIGN_TOL = 1e-9

_SIGNS = np.array(["negative", "zero", "positive"], dtype=object)


def classify_sign(x, tol: float = SIGN_TOL):
    """Classify ``x`` as 'negative', 'zero' or 'positive' under ``tol``.

    A scalar gives a str and an array an object array of (shared) str;
    +-inf classify by their sign and any nan raises :class:`DomainError`.
    """
    arr = np.asarray(x, dtype=float)
    if np.isnan(arr).any():
        raise DomainError("cannot classify the sign of nan")
    return _SIGNS[1 + (arr > tol) - (arr < -tol).astype(int)]


def fmt17(x: float) -> str:
    """17-significant-digit decimal form; round-trips float64 exactly."""
    return format(float(x), ".17g")


#: Settings of the tanh-sinh rule.  ``LEVELS`` lists 1/h for the node
#: spacing h of each level, coarsest first; each halves the last one's h,
#: so it adds only the odd multiples of its h to the nodes before it.  A
#: cell stops at the first level whose estimate of conv differs from the
#: last level's by at most ``REL_TOL`` * conv, and fails if the last
#: level does not.
LEVELS = (8, 16, 32, 64)
REL_TOL = 1e-13

#: The nodes t = j h lie in [-_T_MAX, _T_MAX]; the outermost lie 2.6e-18
#: of their panel from its ends, where the weights are below rounding.
_T_MAX = 3.25


def _level_nodes(n: int, first: bool) -> np.ndarray:
    """Rows (a, b, w) at the nodes t = j/n that a level with h = 1/n adds:
    every j at the first level, odd j after it.  a = 1/(1 + e^(-pi sinh t))
    is the node on [0, 1], b = 1/(1 + e^(pi sinh t)) its distance from 1,
    and w = h pi cosh t a b its weight (Takahasi & Mori, 1974)."""
    m = int(_T_MAX * n)
    ts = [j / n for j in range(-m, m + 1) if first or j % 2]
    out = np.empty((3, len(ts)))
    for col, t in enumerate(ts):
        s = math.pi * math.sinh(t)
        a, b = 1.0 / (1.0 + math.exp(-s)), 1.0 / (1.0 + math.exp(s))
        out[:, col] = a, b, math.pi * math.cosh(t) * a * b / n
    return out


@functools.cache
def _nodes(levels: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Every level's new nodes, built by the first convolution with
    :mod:`math` and scalar stores.  Built at import, with numpy's
    sinh/cosh or from a list of rows, they raised the peak memory of
    commands by up to 0.15 MB, those that make no convolution included."""
    return tuple(_level_nodes(n, i == 0) for i, n in enumerate(levels))


#: Cells per pass of the vectorised convolution; bounds the size of the
#: node arrays whatever the length of the tau array.  A figure row of 100
#: tau is one pass; a pass of Weibull(0.5, 1) cells peaks at 0.46 MB for
#: 128 and 3.5 MB for 1024 (tracemalloc).
_CELLS_PER_PASS = 128


def _tanh_sinh(fn, lo: np.ndarray, hi: np.ndarray, cell: np.ndarray,
               floor: np.ndarray, tol: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tanh-sinh over panels ``[lo, hi]``, each owned by a ``cell``.

    ``fn(x, r, p)`` evaluates the integrands of the panels ``p`` at the
    nodes ``x`` (one row per panel), ``r`` being each node's distance
    ``hi - x`` from its panel's upper end, formed without cancellation.
    A cell's integral T sums its panels; the cell stops at the first
    level whose T differs from the last level's by at most
    ``tol * (floor + |T|)`` (Bailey, Jeyabalan & Li, 2005).  Returns
    the per-cell estimates of the last level each cell reached and whether
    each cell stopped (a nan estimate never does; the sums are then still
    the best estimates).
    """
    total = np.zeros(floor.size)
    live = np.ones(floor.size, dtype=bool)
    panels = np.arange(lo.size)
    for level, (a, b, w) in enumerate(_nodes(LEVELS)):
        length = hi[panels] - lo[panels]
        fx = fn(lo[panels, None] + length[:, None] * a, length[:, None] * b,
                panels)
        # einsum rather than a BLAS matmul, whose buffers add ~1 MB of RSS
        new = np.bincount(cell[panels], minlength=floor.size,
                          weights=length * np.einsum("pn,n->p", fx, w))
        last, total = total, np.where(live, 0.5 * total + new, total)
        if level:
            live &= ~(np.abs(total - last) <= tol * (floor + np.abs(total)))
            if not live.any():
                break
        panels = panels[live[cell[panels]]]
    return total, ~live


def convolve_cdf(dist: ProcessingTimeDistribution, tau):
    """P(z1 + z2 <= tau) for two iid draws from ``dist``.

    ``tau`` is a scalar (a float is returned) or an array (an array of the
    same shape is returned).  Exponential and uniform inputs use their
    closed forms:

    * exponential: 1 - e^(-u tau) - u tau e^(-u tau)
    * uniform: tau^2/(2 v^2) on [0, v); 2 tau/v - tau^2/(2 v^2) - 1 on
      [v, 2 v); 1 beyond

    The Weibull family, ``Weibull(1, u)`` included, has no closed form and
    integrates numerically, as do custom distributions, whose ``pdf`` and
    ``cdf`` are called with arrays of nodes.  A tau at which the quadrature
    misses ``REL_TOL`` at every level of ``LEVELS`` raises
    :class:`QuadratureConvergenceError` naming the first such tau and
    carrying its best estimate.
    """
    taus = np.asarray(tau, dtype=float)
    for bad, what in ((~np.isfinite(taus), "finite"), (taus < 0, "nonnegative")):
        if np.any(bad):
            got = (repr(float(taus)) if taus.ndim == 0
                   else _first_bad(taus, bad, "tau"))
            raise DomainError(f"tau must be {what}, got {got}")

    if isinstance(dist, Exponential):
        ut = dist.u * taus
        conv = -np.expm1(-ut) - ut * np.exp(-ut)
    elif isinstance(dist, Uniform):
        x = taus / dist.v
        conv = np.where(x < 1.0, 0.5 * x * x,
                        np.where(x < 2.0, 2.0 * x - 0.5 * x * x - 1.0, 1.0))
    else:
        conv = np.zeros(taus.shape)
        flat = taus.reshape(-1)
        out = conv.reshape(-1)
        for start in range(0, flat.size, _CELLS_PER_PASS):
            part = flat[start:start + _CELLS_PER_PASS]
            # the split form needs tau/2 > 0: the smallest subnormal tau,
            # whose half rounds to 0, keeps conv = 0 like tau = 0
            pos = np.flatnonzero(0.5 * part > 0.0)
            out[start + pos] = _numeric_conv(dist, part[pos])
    return float(conv) if taus.ndim == 0 else conv


def _numeric_conv(dist: ProcessingTimeDistribution,
                  tau: np.ndarray) -> np.ndarray:
    """The split-form convolution at every (positive) tau at once."""
    n = tau.size
    half = 0.5 * tau
    # cut [tau/2, tau] at the kinks x = b and x = tau - b of f(x) F(tau - x)
    bps = np.asarray(dist.breakpoints(), dtype=float)
    kinks = np.hstack([np.broadcast_to(bps, (n, bps.size)), tau[:, None] - bps])
    cuts = np.sort(np.column_stack(
        [half, tau, np.clip(kinks, half[:, None], tau[:, None])]), axis=1)
    lo, hi = cuts[:, :-1].ravel(), cuts[:, 1:].ravel()
    cell = np.repeat(np.arange(n), cuts.shape[1] - 1)
    keep = hi > lo
    lo, hi, cell = lo[keep], hi[keep], cell[keep]
    # tau - x = (tau - hi) + (hi - x) keeps F's relative precision at x = tau
    gap = tau[cell] - hi

    def integrand(x, r, p):
        return dist.pdf(x) * dist.cdf(gap[p, None] + r)

    f_half = np.asarray(dist.cdf(half), dtype=float)
    base = f_half * f_half
    # conv = base + 2 T, so |T - T'| <= REL_TOL (base/2 + T) is the
    # relative criterion on conv.  A subnormal tau has fewer than 53 bits,
    # and so have the nodes: no more than tau's own precision is asked
    tol = np.maximum(REL_TOL, 64.0 * np.finfo(float).smallest_subnormal / tau)
    integral, ok = _tanh_sinh(integrand, lo, hi, cell, 0.5 * base, tol)
    # mathematical constraint: 0 <= f*F(tau) <= F(tau)
    conv = np.clip(base + 2.0 * integral, 0.0,
                   np.asarray(dist.cdf(tau), dtype=float))
    if not ok.all():
        i = int(np.argmin(ok))
        raise QuadratureConvergenceError(
            f"convolution quadrature did not converge at tau={float(tau[i])!r} "
            f"for {dist!r} (rel_tol={REL_TOL:g}, last level h=1/{LEVELS[-1]})",
            best_estimate=float(conv[i]))
    return conv


#: Rows formatted per write; bounds the word matrix and the temporaries a
#: table write holds at once: about 0.48 MB for a simulate table and
#: 0.82 MB for a dependence profile, plan included (tracemalloc).
_CHUNK_ROWS = 1024


def write_table(out, names: Sequence[str], cols: Sequence,
                head: dict | None = None) -> None:
    """Stream equal-length columns to ``out``, a path (``str``, ``bytes`` or
    ``os.PathLike``) or a text stream.

    ``head=None`` writes CSV; a dict of str writes the JSON object
    ``{**head, "rows": [...]}`` with one object per row.  Each column's
    dtype picks its format: floats as ``'%.17g' % x`` (it round-trips),
    ints as ``%d`` and anything else as the label ``%s``, quoted in JSON.
    A label is written verbatim, so it must be printable ASCII without
    ``,``, ``"`` or ``\\``; any other label raises :class:`ValueError`.
    JSON spells non-finite floats ``NaN``, ``Infinity`` and ``-Infinity``,
    as :mod:`json` does.

    The table's row is planned once (:mod:`archlab._cells`): each cell
    gets a slot of whole 8-byte words, a float's being 32 bytes, whose
    unused bytes are deleted on output.  The writer cuts every chunk it is
    given (here the whole table) into pieces of at most ``_CHUNK_ROWS``
    rows, each computed as one (words, rows) matrix.  A float's 17 digits
    are its correctly rounded scaled value, computed for all the float
    cells of a piece at once from an exact 26-by-26-bit product and a
    remainder good to 8.1e-7.  The cells that cannot be settled so are
    printed one by one by ``format(x, ".17g")``: non-finite values,
    magnitudes outside [2^-896, 2^896) (subnormals among them), values
    whose scaled fraction lies within 1e-5 of 1/2 (a possible decimal tie)
    and values whose 17 digits round up to 10^17.  Either way the bytes
    equal ``'%.17g' % x``.
    In process, on a 2-vCPU host, a 250,000-row simulate serial table
    takes about 0.9 us per row.
    """
    n = len(cols[0]) if len(cols) else 0
    if any(len(c) != n for c in cols):
        raise ValueError(f"columns differ in length: {[len(c) for c in cols]}")
    _write_chunks(out, names, [cols] if n else [], head)


def write_rows_csv(out, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write rows of strings, ints and 17-digit floats as CSV: each chunk of
    rows is transposed into the columns :func:`write_table` formats."""
    rows = iter(rows)
    _write_chunks(out, header,
                  iter(lambda: list(zip(*islice(rows, _CHUNK_ROWS))), []), None)


def _write_chunks(out, names, chunks, head) -> None:
    """:func:`write_table` from an iterable of chunks of equal-length
    columns, each cut into pieces of at most ``_CHUNK_ROWS`` rows."""
    if isinstance(out, (str, bytes, os.PathLike)):
        with open(out, "w", newline="") as fh:
            return _write_chunks(fh, names, chunks, head)
    # imported on the first write, so a command that writes no table does
    # not compile it
    from ._cells import Table

    csv = head is None
    if csv:
        out.write(",".join(names))  # each row comes led by its "\n"
    else:
        import json

        out.write("{" + "".join(f"{json.dumps(k)}: {json.dumps(v)}, "
                                for k, v in head.items()) + '"rows": [')
    table = Table(names, csv)
    skip = 0 if csv else 2  # the first JSON row has no ", " before it
    for part in chunks:
        for lo in range(0, len(part[0]), _CHUNK_ROWS):
            out.write(table.format_chunk(
                [np.asarray(c[lo:lo + _CHUNK_ROWS]) for c in part])[skip:])
            skip = 0
    out.write("\n" if csv else "]}\n")
