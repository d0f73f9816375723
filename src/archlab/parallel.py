"""Intercompletion-time behavior of standard two-process parallel models.

Both channels draw iid processing times; totals are the raw draws, stages
are order statistics.  Conditional on the slower channel still running at
the first completion ``T_a``, the second-stage survival is

    P(stage 2 lasts beyond t) = S(T_a + t) / S(T_a),

to be compared with the first-stage survival S(t)^2.  The comparison is
governed by the hazard ratio alpha(t, T_a + t) = h(T_a + t)/h(t): with
H the cumulative hazard, the gap

    gap = S(t)^2 - S(T_a + t)/S(T_a) = exp(-2 H(t)) - exp(-(H(T_a+t) - H(T_a)))

has the same sign as

    expr4 = -2 H(t) + H(T_a + t) - H(T_a) = int_0^t [alpha(s, T_a+s) - 2] h(s) ds.

Because the sign condition is an integral over s in [0, t], a single-point
alpha can misclassify: the grid's alpha at (t, T_a) may lie on the other
side of 2 from the actual sign of the gap.  :func:`alpha_extrema` gives the
extrema of alpha over the integration range on demand.

Every functional takes scalars (and returns floats) or broadcastable
arrays of (t, T_a) (and returns arrays); a grid is one array call, and an
error names the first failing cell in row-major order.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .distributions import ProcessingTimeDistribution, _require
from .errors import (ConditioningError, DomainError, ExhaustedSurvivalError,
                     GridEvalError)
from .numerics import classify_sign, write_table


@dataclass(frozen=True)
class ParallelTwoModel:
    """Two channels racing with iid processing times."""

    dist: ProcessingTimeDistribution


def parallel_dependence_difference(model: ParallelTwoModel, tau):
    """Conditional-minus-marginal completion difference; identically zero.

    The value is computed as the evaluated quotient minus the marginal
    (not short-circuited to 0) so callers can confirm the cancellation
    numerically.  A scalar ``tau`` gives a float, an array of tau an array.
    """
    tau, _, shape = _cells(tau, 0.0, "tau must be finite and nonnegative, "
                                     "got tau={t!r}")
    f_val = model.dist.cdf(tau)
    _require(f_val <= 0.0, ConditioningError,
             "conditioning on null event: P(completion by tau={tau!r}) = 0", tau=tau)
    return _shaped(f_val * f_val / f_val - f_val, shape)  # joint / F - F


def conditional_ict_survival(model: ParallelTwoModel, t_a, t):
    """exp(-(H(T_a + t) - H(T_a))) = S(T_a + t) / S(T_a): second-stage
    survival given stage 1 ended at T_a.

    Returns 0 (not an error) when T_a + t reaches the end of a bounded
    support while S(T_a) is still positive: the probability is genuinely
    zero there.  Raises :class:`ConditioningError` at the first cell whose
    survival is exhausted at T_a or at T_a + t inside the support, or
    whose H(T_a) overflows.
    """
    t, t_a, shape = _cells(t, t_a)
    h_a, h_at, inside, exhausted = _second_stage(model.dist, t, t_a,
                                                 model.dist.exhausted(t_a))
    with np.errstate(invalid="ignore"):  # inf - inf where H(T_a) overflows
        out = np.where(inside, _exp(-(h_at - h_a)), 0.0)
    _require(exhausted | np.isnan(out), ConditioningError, _EXHAUSTED, t=t, T_a=t_a)
    return _shaped(out, shape)


def ict_survival_trend(model: ParallelTwoModel, t_a, t):
    """Sign of d/dT_a of the conditional second-stage survival.

    The derivative carries the sign of h(T_a) - h(T_a + t), so a
    non-increasing hazard makes the trend never negative; the sign is
    classified under 1e-9 (1 + |h(T_a)| + |h(T_a + t)|).  Raises
    :class:`DomainError` at the first cell where a hazard is undefined.
    """
    t, t_a, shape = _cells(t, t_a)
    h_a, h_b = _hazard(model.dist, t_a), _hazard(model.dist, t_a + t)
    _require(np.isnan(h_a) | np.isnan(h_b), DomainError,
             "hazard undefined at t={t!r}, T_a={T_a!r}", t=t, T_a=t_a)
    return _shaped(classify_sign(h_a - h_b, 1e-9 * (1.0 + abs(h_a) + abs(h_b))),
                   shape)


def _exp(x: np.ndarray) -> np.ndarray:
    # math.exp per element, not np.exp: numpy's SIMD exp differs from the C
    # library's by 1 ulp on a few percent of cells (603 of 10^4 on the
    # Weibull(2, 1) grid, 874 on the Uniform(2) one), which would change the
    # printed gaps
    return np.fromiter(map(math.exp, x.tolist()), float, x.size)


def _cells(t, t_a, message: str = "t and T_a must be finite and nonnegative, "
                                    "got t={t!r}, T_a={T_a!r}"):
    """(t, T_a) broadcast to one shape, flattened, and that shape; the first
    negative or non-finite cell raises ``DomainError(message)``."""
    t, t_a = np.broadcast_arrays(np.asarray(t, dtype=float),
                                 np.asarray(t_a, dtype=float))
    shape, t, t_a = t.shape, t.ravel(), t_a.ravel()
    _require(~(np.isfinite(t) & np.isfinite(t_a) & (t >= 0.0) & (t_a >= 0.0)),
             DomainError, message, t=t, T_a=t_a)
    return t, t_a, shape


_EXHAUSTED = "cumulative hazard undefined: exhausted survival at t={t!r}, T_a={T_a!r}"


def _shaped(x: np.ndarray, shape: tuple[int, ...]):
    """A flat result in the caller's shape; a float (or str) for scalars."""
    return x.tolist()[0] if shape == () else x.reshape(shape)


def _masked(fn, x: np.ndarray, use: np.ndarray) -> np.ndarray:
    """``fn(x)`` where ``use``, nan elsewhere (array hazards raise for the
    whole array if one point is undefined, so those points are left out)."""
    out = np.full(x.shape, np.nan)
    out[use] = fn(x[use])
    return out


def _hazard(dist: ProcessingTimeDistribution, x: np.ndarray) -> np.ndarray:
    """h(x) at x >= 0; nan where survival is exhausted or where the hazard
    diverges at the origin (Weibull k < 1)."""
    h = _masked(dist.hazard, x, (x > 0.0) & ~dist.exhausted(x))
    zero = x == 0.0
    if zero.any():
        with suppress(DomainError):
            h[zero] = dist.hazard(0.0)
    return h


def _alpha(dist: ProcessingTimeDistribution, t: np.ndarray,
           t_a: np.ndarray) -> np.ndarray:
    """alpha at every cell; nan where h(t) <= 0 or a hazard is undefined."""
    h_t, h_shift = _hazard(dist, t), _hazard(dist, t_a + t)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.where(h_t > 0.0, h_shift / h_t, np.nan)


def hazard_ratio_alpha(model: ParallelTwoModel, t, t_a):
    """alpha(t, T_a + t) = h(T_a + t) / h(t).

    Raises :class:`DomainError` naming the first cell where h(t) is not
    positive or a hazard is undefined.
    """
    t, t_a, shape = _cells(t, t_a)
    alpha = _alpha(model.dist, t, t_a)
    _require(np.isnan(alpha), DomainError, "hazard ratio undefined at t={t!r}, "
             "T_a={T_a!r}: h(t) is not positive or a hazard is undefined", t=t, T_a=t_a)
    return _shaped(alpha, shape)


@dataclass(frozen=True)
class StageGap:
    gap: float | np.ndarray
    expr4: float | np.ndarray


def _second_stage(dist: ProcessingTimeDistribution, t: np.ndarray,
                  t_a: np.ndarray, exhausted: np.ndarray):
    """H(T_a) and H(T_a + t) of flat (t, T_a) arrays, the cells where T_a + t
    is inside the support (nan elsewhere), and ``exhausted`` (the cells
    exhausted at T_a, at least) with those exhausted at T_a + t added."""
    shift = t_a + t
    inside = ~exhausted & (shift < dist.support_upper)
    exhausted[inside] = dist.exhausted(shift[inside])
    inside &= ~exhausted
    return (_masked(dist.cum_hazard, t_a, inside),
            _masked(dist.cum_hazard, shift, inside), inside, exhausted)


def _stage_gap(dist: ProcessingTimeDistribution, t: np.ndarray,
               t_a: np.ndarray):
    """gap, expr4 and the exhausted cells of flat (t, T_a) arrays.

    A cell is exhausted when survival is exhausted at t, at T_a or at a
    T_a + t inside the support; its gap and expr4 are nan.
    """
    h_a, h_at, inside, exhausted = _second_stage(
        dist, t, t_a, dist.exhausted(t) | dist.exhausted(t_a))
    h_t = _masked(dist.cum_hazard, t, ~exhausted)
    first = _exp(-2.0 * h_t)
    with np.errstate(invalid="ignore"):
        # beyond a bounded support end the second-stage survival is 0
        expr4 = np.where(inside, -2.0 * h_t + h_at - h_a,
                         np.where(exhausted, math.nan, math.inf))
        gap = np.where(inside, first - _exp(-(h_at - h_a)), first)
    return gap, expr4, exhausted


def stage_survival_gap(model: ParallelTwoModel, t, t_a) -> StageGap:
    """First-stage survival S(t)^2 minus second-stage conditional survival.

    ``gap = exp(-2 H(t)) - exp(-(H(T_a+t) - H(T_a)))``; ``expr4`` is the
    cumulative-hazard combination carrying the same sign.  When T_a + t
    reaches a bounded support end (with t and T_a themselves inside), the
    second-stage survival is exactly zero: gap = S(t)^2 and expr4 = +inf.
    Raises :class:`ExhaustedSurvivalError` at the first exhausted cell.
    """
    t, t_a, shape = _cells(t, t_a)
    gap, expr4, exhausted = _stage_gap(model.dist, t, t_a)
    _require(exhausted, ExhaustedSurvivalError, _EXHAUSTED, t=t, T_a=t_a)
    return StageGap(gap=_shaped(gap, shape), expr4=_shaped(expr4, shape))


def alpha_extrema(model: ParallelTwoModel, t, t_a):
    """Extrema of alpha(s, T_a + s) over s in (0, t].

    Sampled at 65 points of a geometric grid reaching down to t * 1e-9;
    for every built-in family alpha is monotone in s, so the sampled
    extrema bracket the true ones up to the s -> 0 endpoint limit.  Samples
    where alpha is undefined are left out; (nan, nan) if none is left, as
    at t = 0.  Scalars give a pair of floats, arrays a pair of arrays.
    """
    t, t_a, shape = _cells(t, t_a)
    s = t[:, None] * np.geomspace(1e-9, 1.0, 65)  # each cell's samples
    alpha = np.where(s > 0.0, _alpha(model.dist, s, t_a[:, None]), math.nan)
    return (_shaped(np.fmin.reduce(alpha, axis=-1), shape),
            _shaped(np.fmax.reduce(alpha, axis=-1), shape))


@dataclass
class StageSurvivalGrid:
    """Row-major (t, T_a) grid columns, one array each; t varies slowest."""

    model: ParallelTwoModel
    t: np.ndarray
    ta: np.ndarray
    alpha: np.ndarray
    expr4: np.ndarray
    gap: np.ndarray
    sign: np.ndarray

    columns = ("t", "Ta", "alpha", "expr4", "gap", "sign")

    def table(self) -> tuple[np.ndarray, ...]:
        return self.t, self.ta, self.alpha, self.expr4, self.gap, self.sign

    def to_csv(self, out) -> None:
        write_table(out, self.columns, self.table())


def stage_survival_grid(model: ParallelTwoModel, t_values,
                        ta_values) -> StageSurvivalGrid:
    """Evaluate the stage-survival gap over the (t, T_a) product grid.

    One array call covers the grid.  The stored ``sign`` is classified from
    expr4, which stays well scaled where the doubly exponentiated gap
    underflows; the two quantities carry the same sign by construction.
    alpha is nan where it is undefined.  The first cell whose survival is
    exhausted or whose expr4 is nan raises :class:`GridEvalError`; a
    negative or non-finite coordinate raises :class:`DomainError`.
    """
    t, ta, _ = _cells(*np.meshgrid(np.asarray(t_values, dtype=float),
                                   np.asarray(ta_values, dtype=float),
                                   indexing="ij"))
    gap, expr4, exhausted = _stage_gap(model.dist, t, ta)
    if np.isnan(expr4).any():
        i = int(np.argmax(np.isnan(expr4)))
        t_i, ta_i = float(t[i]), float(ta[i])
        reason = _EXHAUSTED.format(t=t_i, T_a=ta_i) if exhausted[i] else "expr4 is nan"
        raise GridEvalError(f"grid cell (t={t_i!r}, Ta={ta_i!r}) failed: {reason}",
                            point=(t_i, ta_i))
    return StageSurvivalGrid(model, t, ta, _alpha(model.dist, t, ta), expr4, gap,
                             classify_sign(expr4))


@dataclass(frozen=True)
class TrendClassification:
    trend: str  # second_stage_slower | second_stage_faster | mixed
    positive_witness: tuple[float, float, float] | None
    negative_witness: tuple[float, float, float] | None
    n_positive: int
    n_negative: int
    n_zero: int


def classify_stage_trend(model: ParallelTwoModel, t_values,
                         ta_values) -> TrendClassification:
    """Classify the gap's sign pattern over the product grid of
    ``t_values`` and ``ta_values`` (as :func:`stage_survival_grid`).

    ``second_stage_slower`` means the gap is negative wherever it is
    resolvable (second-stage survival exceeds the first-stage survival, so
    stage 2 takes longer); ``second_stage_faster`` is the reverse; mixed
    regions report the first (row-major) witness point of each sign.  Cells
    with t = 0 are degenerate (the gap is identically zero for every model)
    and count as zero cells.
    """
    grid = stage_survival_grid(model, t_values, ta_values)
    signs = grid.sign.tolist()
    n_pos, n_neg = signs.count("positive"), signs.count("negative")
    if n_pos and n_neg:
        trend = "mixed"
    elif n_neg:
        trend = "second_stage_slower"
    elif n_pos:
        trend = "second_stage_faster"
    else:
        raise DomainError("region produced no resolvable sign information")

    def witness(sign: str) -> tuple[float, float, float] | None:
        if sign not in signs:
            return None
        i = signs.index(sign)
        return (float(grid.t[i]), float(grid.ta[i]), float(grid.gap[i]))

    return TrendClassification(trend=trend, positive_witness=witness("positive"),
                               negative_witness=witness("negative"),
                               n_positive=n_pos, n_negative=n_neg,
                               n_zero=signs.count("zero"))
