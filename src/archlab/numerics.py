"""Quadrature, the f*F convolution, sign classification and table writing.

The convolution of two iid processing times,

    f*F(tau) = P(z1 + z2 <= tau) = int_0^tau f(x) F(tau - x) dx,

is computed in the equivalent split form
``F(tau/2)^2 + 2 int_{tau/2}^tau f(x) F(tau - x) dx`` so that densities are
never evaluated near the origin (where the Weibull density with k < 1
diverges).  Closed forms are used for the exponential and uniform families.

The convolution, over a whole array of tau values at once, is the only
numerical integral, and it goes through one adaptive Gauss-Kronrod G7/K15
rule (:func:`_gauss_kronrod`): each panel of every cell is evaluated at
once, |K15 - G7| is the panel's error estimate, and only panels whose
estimate exceeds their share of the tolerance are bisected.
"""

from __future__ import annotations

import os
from itertools import islice
from typing import Iterable, Sequence

import numpy as np

from .distributions import (Exponential, ProcessingTimeDistribution, Uniform,
                            Weibull, _first_bad)
from .errors import DomainError, QuadratureConvergenceError

#: Absolute tolerance under which a computed difference counts as zero when
#: classifying signs; matches the achievable resolution of the default
#: quadrature tolerance.
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


#: Settings of the adaptive Gauss-Kronrod G7/K15 rule.  ``ABS_TOL`` bounds
#: the estimated absolute error of each integral (of each cell, for an
#: array of tau values).  ``MAX_DEPTH`` is the number of times a panel may
#: be bisected: a panel ``MAX_DEPTH`` halvings below its starting segment
#: that still misses its tolerance share fails the cell.
ABS_TOL = 1e-8
MAX_DEPTH = 40

# Gauss-Kronrod 15-point nodes on [-1, 1] (ascending) with the Kronrod
# weights and, in the second column, the weights of the 7-point Gauss rule
# embedded at the odd-indexed nodes (Piessens et al., QUADPACK, 1983).
_GK_HALF = (  # (node, Kronrod weight, Gauss weight) for node >= 0
    (0.991455371120812639206854697526329, 0.022935322010529224963732008058970, 0.0),
    (0.949107912342758524526189684047851, 0.063092092629978553290700663189204,
     0.129484966168869693270611432679082),
    (0.864864423359769072789712788640926, 0.104790010322250183839876322541518, 0.0),
    (0.741531185599394439863864773280788, 0.140653259715525918745189590510238,
     0.279705391489276667901467771423780),
    (0.586087235467691130294144845693013, 0.169004726639267902826583426598550, 0.0),
    (0.405845151377397166906606412076961, 0.190350578064785409913256402421014,
     0.381830050505118944950369775488975),
    (0.207784955007898467600689403773245, 0.204432940075298892414161999234649, 0.0),
    (0.0, 0.209482141084727828012999174891714, 0.417959183673469387755102040816327),
)
_GK = np.array(_GK_HALF[:-1] + _GK_HALF[::-1])
_GK[:7, 0] *= -1.0
_NODES = _GK[:, 0]
_WEIGHTS = _GK[:, 1:]  # (15, 2): Kronrod, Gauss

#: A panel whose |K - G| is within this many ulps of its integral of |f|
#: cannot be improved by bisection: rounding, not the rule, limits it.
_ROUNDING_ULPS = 50.0 * np.finfo(float).eps

#: Cells per pass of the vectorised convolution; bounds the size of the
#: refinement arrays whatever the length of the tau array.
_CELLS_PER_PASS = 1024


def _gauss_kronrod(fn, lo: np.ndarray, hi: np.ndarray, tol: np.ndarray,
                   cell: np.ndarray,
                   n_cells: int) -> tuple[np.ndarray, np.ndarray]:
    """Adaptive G7/K15 over panels ``[lo, hi]``, each owned by a ``cell``.

    ``fn(x, cell)`` evaluates the integrands at the nodes ``x`` (one row of
    15 per panel) of the panels owned by ``cell``.  A panel is accepted
    when |K15 - G7| <= its ``tol``; otherwise it is bisected and each half
    gets half the tolerance, at most ``MAX_DEPTH`` times.  Returns the
    per-cell sums of the Kronrod estimates and whether every panel of the
    cell met its tolerance (the sums are then still the best estimates).
    """
    total = np.zeros(n_cells)
    ok = np.ones(n_cells, dtype=bool)
    for level in range(MAX_DEPTH + 1):
        centre = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        fx = fn(centre[:, None] + half[:, None] * _NODES, cell)
        # einsum rather than a BLAS matmul, whose buffers add ~1 MB of RSS
        kronrod, gauss = np.einsum("pn,nw->wp", fx, _WEIGHTS) * half
        err = np.abs(kronrod - gauss)
        refine = ~(err <= tol)
        if refine.any():
            # a panel at MAX_DEPTH, with a nan estimate or with an error at
            # the rounding floor cannot be refined: it fails its cell
            floor = _ROUNDING_ULPS * half * np.einsum("pn,n->p", np.abs(fx),
                                                      _WEIGHTS[:, 0])
            stuck = refine & ((level == MAX_DEPTH) | ~(err > floor))
            if stuck.any():
                ok[cell[stuck]] = False
                refine &= ~stuck
        done = ~refine
        total += np.bincount(cell[done], weights=kronrod[done], minlength=n_cells)
        if not refine.any():
            break
        mid = centre[refine]
        lo = np.concatenate((lo[refine], mid))
        hi = np.concatenate((mid, hi[refine]))
        tol = 0.5 * tol[refine]
        tol = np.concatenate((tol, tol))
        cell = cell[refine]
        cell = np.concatenate((cell, cell))
    return total, ok


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
    misses ``ABS_TOL`` raises :class:`QuadratureConvergenceError` naming the
    first such tau and carrying its best estimate.
    """
    taus = np.asarray(tau, dtype=float)
    for bad, what in ((~np.isfinite(taus), "finite"), (taus < 0, "nonnegative")):
        if np.any(bad):
            got = tau if taus.ndim == 0 else _first_bad(taus, bad, "tau")
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
    if isinstance(dist, Weibull) and dist.k < 1.0:
        # With k < 1 the CDF has a vertical tangent at 0, so the direct
        # integrand behaves like (tau - x)^k at x = tau and starves the
        # refinement.  Substituting s = (u (tau - x))^k gives
        #   int_0^{(u tau/2)^k} f(tau - s^(1/k)/u) (1 - e^-s)
        #                       s^((1-k)/k) / (u k) ds
        # whose integrand vanishes like s^(1/k) at 0.
        k, u = dist.k, dist.u
        inv_k, jac_exp = 1.0 / k, (1.0 - k) / k

        def integrand(s, cell):
            x = tau[cell][:, None] - s ** inv_k / u
            return dist.pdf(x) * -np.expm1(-s) * s ** jac_exp / (u * k)

        lo, hi, cell = np.zeros(n), (u * half) ** k, np.arange(n)
        tol = np.full(n, 0.5 * ABS_TOL)
    else:
        def integrand(x, cell):
            return dist.pdf(x) * dist.cdf(tau[cell][:, None] - x)

        # cut [tau/2, tau] at the kinks x = b and x = tau - b of f(x) F(tau - x)
        bps = np.asarray(dist.breakpoints(), dtype=float)
        kinks = np.hstack([np.broadcast_to(bps, (n, bps.size)), tau[:, None] - bps])
        cuts = np.sort(np.column_stack(
            [half, tau, np.clip(kinks, half[:, None], tau[:, None])]), axis=1)
        lo, hi = cuts[:, :-1].ravel(), cuts[:, 1:].ravel()
        cell = np.repeat(np.arange(n), cuts.shape[1] - 1)
        keep = hi > lo
        lo, hi, cell = lo[keep], hi[keep], cell[keep]
        tol = 0.5 * ABS_TOL * (hi - lo) / half[cell]

    integral, ok = _gauss_kronrod(integrand, lo, hi, tol, cell, n)
    f_half = np.asarray(dist.cdf(half), dtype=float)
    # mathematical constraint: 0 <= f*F(tau) <= F(tau)
    conv = np.clip(f_half * f_half + 2.0 * integral, 0.0,
                   np.asarray(dist.cdf(tau), dtype=float))
    if not ok.all():
        i = int(np.argmin(ok))
        raise QuadratureConvergenceError(
            f"convolution quadrature did not converge at tau={float(tau[i])!r} "
            f"for {dist!r} (abs_tol={ABS_TOL}, max_depth={MAX_DEPTH})",
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
