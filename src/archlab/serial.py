"""Total-completion-time dependence for standard two-process serial models.

Two iid stage durations are executed one after the other; process ``a`` is
scheduled first with probability ``p``.  Writing ``F`` for the stage CDF
and ``conv = f*F`` for the CDF of the stage sum, the completion-time
marginals are

    P(T_total_a <= tau) = p F(tau) + (1 - p) conv(tau)
    P(T_total_b <= tau) = (1 - p) F(tau) + p conv(tau)

and the dependence functional studied here is

    D(tau) = P(T_total_b <= tau | T_total_a <= tau) - P(T_total_b <= tau),

which factors as R * {1 - F - p(1-p) [sqrt(conv) - F/sqrt(conv)]^2} with
R = conv / marginal_a.  Both routes are computed and cross-checked on
every call.  At p = 1/2 the bracketed factor reduces to

    expression3(F, conv) = 1 - F - (1/4) [sqrt(conv) - F/sqrt(conv)]^2,

whose sign equals the sign of D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import ProcessingTimeDistribution, Uniform, Weibull
from .errors import (ConditioningError, ConsistencyError, DomainError,
                     OrderingViolationError)
from .numerics import classify_sign, convolve_cdf, write_table

#: Two algebraically identical routes to the dependence difference must
#: agree at least this well; they share all inputs, so only floating-point
#: rounding separates them.
ROUTE_AGREEMENT_TOL = 1e-9

#: conv below this floor is treated as fully underflowed and the factored
#: route (which divides by conv) is skipped.
_CONV_FLOOR = 1e-300


@dataclass(frozen=True)
class SerialTwoModel:
    """Two iid stages; process ``a`` runs first with probability ``p``."""

    dist: ProcessingTimeDistribution
    p: float

    def __post_init__(self):
        if not (0.0 <= self.p <= 1.0):
            raise DomainError(f"order probability p must be in [0, 1], got {self.p}")


def _components(model: SerialTwoModel, tau):
    """(F, conv, marginal_a, marginal_b) at a scalar or an array of tau."""
    taus = np.asarray(tau, dtype=float)
    if not np.all(np.isfinite(taus)):
        raise DomainError(f"tau must be finite, got {tau}")
    if np.any(taus < 0):
        raise DomainError(f"tau must be nonnegative, got {tau}")
    f_val = model.dist.cdf(tau)
    conv = convolve_cdf(model.dist, tau)
    p = model.p
    marginal_a = p * f_val + (1.0 - p) * conv
    marginal_b = (1.0 - p) * f_val + p * conv
    return f_val, conv, marginal_a, marginal_b


def marginal_completion_cdf(model: SerialTwoModel, which: str,
                            tau: float) -> float:
    """CDF of the total completion time of process 'a' or 'b'."""
    if which not in ("a", "b"):
        raise DomainError(f"which must be 'a' or 'b', got {which!r}")
    _, _, marginal_a, marginal_b = _components(model, tau)
    return marginal_a if which == "a" else marginal_b


def _checked_difference(model: SerialTwoModel, tau, f_val, conv, marginal_a,
                        marginal_b):
    """conv/marginal_a - marginal_b, cross-checked against the factored
    form; scalars or arrays, evaluated elementwise."""
    taus, f_val, conv, marginal_a, marginal_b = np.broadcast_arrays(
        tau, f_val, conv, marginal_a, marginal_b)
    null = marginal_a <= 0.0
    if np.any(null):
        raise ConditioningError(
            "conditioning on null event: P(completion of a by "
            f"tau={float(taus[null][0])!r}) = 0")
    quotient = conv / marginal_a - marginal_b
    pq = model.p * (1.0 - model.p)
    with np.errstate(divide="ignore", invalid="ignore"):  # conv below the floor
        root = np.sqrt(conv)
        factored = conv / marginal_a * (1.0 - f_val - pq * (root - f_val / root) ** 2)
    disagree = (conv > _CONV_FLOOR) & (np.abs(quotient - factored) > ROUTE_AGREEMENT_TOL)
    if np.any(disagree):
        i = np.flatnonzero(disagree)[0]
        raise ConsistencyError(
            f"dependence routes disagree at tau={float(taus.flat[i])!r}: "
            f"quotient={float(quotient.flat[i])!r}, "
            f"factored={float(factored.flat[i])!r}")
    return float(quotient) if quotient.ndim == 0 else quotient


def dependence_difference(model: SerialTwoModel, tau):
    """Conditional-minus-marginal completion probability at ``tau``.

    Computed as conv/marginal_a - marginal_b and cross-checked against the
    factored form; a :class:`ConsistencyError` means the two algebraically
    equal routes diverged, which would indicate a numerical defect.  A
    scalar ``tau`` gives a float, an array of tau an array.
    """
    return _checked_difference(model, tau, *_components(model, tau))


def expression3(f_val, conv_val):
    """The p = 1/2 sign kernel: 1 - F - (1/4)[sqrt(conv) - F/sqrt(conv)]^2.

    Requires 0 < conv <= F <= 1 (the convolution of two nonnegative
    summands can never exceed the single-summand CDF).  Scalars give a
    float; arrays are evaluated elementwise, and an error names the first
    offending value.
    """
    f_arr, conv_arr = np.broadcast_arrays(np.asarray(f_val, dtype=float),
                                          np.asarray(conv_val, dtype=float))

    def require(ok, error, message):
        if not np.all(ok):
            i = np.flatnonzero(~ok)[0]
            raise error(message.format(F=float(f_arr.flat[i]),
                                       conv=float(conv_arr.flat[i])))

    require(np.isfinite(f_arr), DomainError, "F must be finite, got {F}")
    require(np.isfinite(conv_arr), DomainError, "conv must be finite, got {conv}")
    require(conv_arr > 0.0, DomainError, "conv must be positive, got {conv}")
    require(f_arr <= 1.0, DomainError, "F must be at most 1, got {F}")
    require(conv_arr <= f_arr, OrderingViolationError,
            "ordering violated: conv={conv} exceeds F={F}")
    root = np.sqrt(conv_arr)
    out = 1.0 - f_arr - 0.25 * (root - f_arr / root) ** 2
    return float(out) if out.ndim == 0 else out


@dataclass
class DependenceProfile:
    """Profile columns over tau, one array each; ``r`` is conv/marginal_a."""

    model: SerialTwoModel
    tau: np.ndarray
    f: np.ndarray
    conv: np.ndarray
    marginal_a: np.ndarray
    marginal_b: np.ndarray
    r: np.ndarray
    difference: np.ndarray
    sign: np.ndarray

    columns = ("tau", "F", "conv", "marginal_a", "marginal_b", "R",
               "difference", "sign")

    def signs(self) -> list[str]:
        return self.sign.tolist()

    def table(self) -> tuple[np.ndarray, ...]:
        return (self.tau, self.f, self.conv, self.marginal_a, self.marginal_b,
                self.r, self.difference, self.sign)

    def to_csv(self, out) -> None:
        write_table(out, self.columns, self.table())


def dependence_profile(model: SerialTwoModel,
                       taus: Sequence[float] | np.ndarray) -> DependenceProfile:
    """Evaluate the dependence difference on a tau grid.

    Every convolution is computed once, for the whole grid, and both
    routes of the difference are cross-checked on those arrays.  Signs are
    classified with the global zero tolerance, so e.g. the uniform family
    beyond twice its support classifies as exactly zero.
    """
    taus = np.asarray(taus, dtype=float).reshape(-1)
    f_val, conv, marginal_a, marginal_b = _components(model, taus)
    diff = _checked_difference(model, taus, f_val, conv, marginal_a, marginal_b)
    return DependenceProfile(model, taus, f_val, conv, marginal_a, marginal_b,
                             conv / marginal_a, diff, classify_sign(diff))


@dataclass(frozen=True)
class FixedOrderCovariance:
    cov_estimate: float
    var_t1_estimate: float
    analytic_var: float | None
    n_trials: int


def analytic_stage_variance(dist: ProcessingTimeDistribution) -> float | None:
    """Var(z) in closed form for the built-in families, else None; the
    Weibull form gives 1/u^2 for the exponential (k = 1)."""
    if isinstance(dist, Uniform):
        return dist.v ** 2 / 12.0
    if isinstance(dist, Weibull):
        g1 = math.gamma(1.0 + 1.0 / dist.k)
        g2 = math.gamma(1.0 + 2.0 / dist.k)
        return (g2 - g1 * g1) / dist.u ** 2
    return None


def fixed_order_covariance(dist: ProcessingTimeDistribution, n_trials: int,
                           seed: int) -> FixedOrderCovariance:
    """Monte Carlo check that Cov(first total, second total) = Var(stage 1)
    when the processing order is fixed (a always first).

    Both estimates come from the same draws: with totals (z_a, z_a + z_b)
    the sample covariance estimates Var(z_a) + Cov(z_a, z_b), and the
    independent draws make the cross term vanish in expectation.
    """
    from . import mc

    if n_trials < 2:
        raise DomainError(f"n_trials must be >= 2, got {n_trials}")
    draws = mc.sample_iid(dist, n_trials, 2, seed)
    total_a = draws[:, 0]
    total_b = draws[:, 0] + draws[:, 1]
    cov = float(np.cov(total_a, total_b, ddof=1)[0, 1])
    var_t1 = float(np.var(total_a, ddof=1))
    return FixedOrderCovariance(cov_estimate=cov, var_t1_estimate=var_t1,
                                analytic_var=analytic_stage_variance(dist),
                                n_trials=n_trials)
