"""n-process exponential free-recall models and the Weibull fit.

Serial search with unequal item rates u_1..u_n: the next item is chosen
among those remaining with probability proportional to its rate, and each
stage duration is exponential with the *sum* of the remaining rates.  The
probability of a recall order (i_1, ..., i_n) is the product of successive
rate fractions, and conditional on the order the stage durations are
independent exponentials.  With equal rates the stage-j rate reduces to
(n - j + 1) u and the order distribution is uniform over permutations.

The matching parallel model draws n independent exponentials (rate u_j on
channel j) and reads order and intercompletion times off the sorted draws;
its joint law of (order, stage durations) coincides with the serial model,
which the test suite checks empirically.

Mean stage durations under equal rates are hyperbolic in the stage index.
Two indexing conventions are shipped because they differ by one unit and
published uses disagree: ``as_printed`` gives 1/(u (n - j)) (undefined at
j = n), ``mcgill`` gives 1/(u (n - j + 1)) (the mean implied by the
stage rates).

Finally, :func:`weibull_mle` fits the Weibull shape/rate to a sample of
total completion times by profile likelihood: for fixed shape k the rate
maximizer is closed-form, u(k) = (mean(t^k))^(-1/k), leaving a 1-D search
over k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .errors import DegenerateDataError, DomainError
from .mc import _sample_run

_K_LO = 0.05
_K_HI = 50.0
_K_REL_TOL = 1e-8
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class RecallModel:
    """One positive rate per recallable item."""

    rates: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))
        if len(self.rates) < 1:
            raise DomainError("need at least one rate")
        if any(not (r > 0 and math.isfinite(r)) for r in self.rates):
            raise DomainError(f"all rates must be positive, got {self.rates}")
        if not math.isfinite(sum(self.rates)):
            raise DomainError(f"rates must have a finite sum, got {self.rates}")

    @property
    def n(self) -> int:
        return len(self.rates)


def _check_order(model: RecallModel, order: Sequence[int]) -> tuple[int, ...]:
    order = tuple(int(i) for i in order)
    if sorted(order) != list(range(model.n)):
        raise DomainError(
            f"order {order!r} is not a permutation of 0..{model.n - 1}")
    return order


def vu_order_probability(model: RecallModel, order: Sequence[int]) -> float:
    """Probability of recalling the items in the given order.

    Product over stages of (rate of chosen item) / (sum of remaining
    rates); sums to one over all n! orders.
    """
    order = _check_order(model, order)
    rates = np.asarray(model.rates)
    prob = 1.0
    remaining = float(rates.sum())
    for item in order:
        prob *= rates[item] / remaining
        remaining -= rates[item]
    return prob


def vu_ict_density(model: RecallModel, order: Sequence[int],
                   icts: Sequence[float]) -> float:
    """Joint density of the stage durations conditional on the order.

    Stage j is exponential with rate equal to the sum of the rates of the
    items not yet recalled; with equal rates u this reduces to factors
    (n - j + 1) u exp[-(n - j + 1) u t_j].
    """
    order = _check_order(model, order)
    t = np.asarray(icts, dtype=float)
    if t.shape != (model.n,):
        raise DomainError(
            f"expected {model.n} intercompletion times, got shape {t.shape}")
    if np.any(t < 0) or not np.all(np.isfinite(t)):
        raise DomainError(f"intercompletion times must be nonnegative, got {icts!r}")
    rates = np.asarray(model.rates)
    density = 1.0
    remaining = float(rates.sum())
    for j, item in enumerate(order):
        density *= remaining * math.exp(-remaining * float(t[j]))
        remaining -= rates[item]
    return density


@dataclass
class RecallTrials:
    """Batch of recall trials: per-trial item order and stage durations."""

    orders: np.ndarray  # (n_trials, n) item indices
    icts: np.ndarray    # (n_trials, n) stage durations

    def __len__(self) -> int:
        return self.orders.shape[0]

    def totals(self) -> np.ndarray:
        """Cumulative completion times by stage, per trial."""
        return np.cumsum(self.icts, axis=1)

    columns = ("trial", "position", "item", "ict", "cumulative_time")

    def table(self, start: int = 0) -> tuple[np.ndarray, ...]:
        """The ``columns`` in long format: one row per (trial, stage), with
        trials numbered from ``start`` and 1-based positions."""
        n_trials, n = self.orders.shape
        return (np.repeat(np.arange(start, start + n_trials), n),
                np.tile(np.arange(1, n + 1), n_trials), self.orders.reshape(-1),
                self.icts.reshape(-1), self.totals().reshape(-1))


def _vu_serial(model: RecallModel, u) -> tuple[np.ndarray, np.ndarray]:
    n = model.n
    rates = np.asarray(model.rates)
    rows = np.arange(len(u))
    mask = np.ones((len(u), n), dtype=bool)
    orders = np.empty(mask.shape, dtype=np.int64)
    icts = np.empty(mask.shape)
    for j in range(n):
        masked = np.where(mask, rates[None, :], 0.0)
        cum = np.cumsum(masked, axis=1)
        total = cum[:, -1]
        target = u[:, 2 * j] * total
        idx = (cum <= target[:, None]).sum(axis=1)
        np.minimum(idx, n - 1, out=idx)  # guards the u ~ 1 rounding edge
        orders[:, j] = idx
        icts[:, j] = -np.log1p(-u[:, 2 * j + 1]) / total
        mask[rows, idx] = False
    return orders, icts


def _parallel_expo(model: RecallModel, u) -> tuple[np.ndarray, np.ndarray]:
    z = -np.log1p(-u) / np.asarray(model.rates)[None, :]
    orders = np.argsort(z, axis=1, kind="stable")  # ties -> lower index
    return orders, np.diff(np.take_along_axis(z, orders, axis=1), axis=1,
                           prepend=0.0)


def sample_vu_serial(model: RecallModel, n_trials: int, seed: int) -> RecallTrials:
    """Simulate the serial search directly, stage by stage."""
    return RecallTrials(*_sample_run(partial(_vu_serial, model), 2 * model.n,
                                     n_trials, seed))


def sample_parallel_expo(model: RecallModel, n_trials: int, seed: int) -> RecallTrials:
    """Simulate the matching parallel model: sort independent exponentials."""
    return RecallTrials(*_sample_run(partial(_parallel_expo, model), model.n,
                                     n_trials, seed))


def rw_mean_ict(n: int, u: float, j: int, convention: str = "as_printed") -> float:
    """Mean stage-j duration under equal rates, hyperbolic in j.

    ``as_printed`` returns 1/(u (n - j)) and is undefined at j = n;
    ``mcgill`` returns 1/(u (n - j + 1)), the mean of an exponential with
    the stage-j remaining-rate sum.  The two differ by one index unit and
    neither is endorsed here; callers choose explicitly.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if not (u > 0 and math.isfinite(u)):
        raise DomainError(f"rate u must be positive, got {u}")
    if convention == "as_printed":
        if not 1 <= j < n:
            raise DomainError(
                f"as_printed convention needs 1 <= j < n (division by zero "
                f"at j = n); got j={j}, n={n}")
        return 1.0 / (u * (n - j))
    if convention == "mcgill":
        if not 1 <= j <= n:
            raise DomainError(f"mcgill convention needs 1 <= j <= n; got j={j}, n={n}")
        return 1.0 / (u * (n - j + 1))
    raise DomainError(f"unknown convention {convention!r} "
                      "(expected 'as_printed' or 'mcgill')")


def loglik_weibull(data, k: float, u: float) -> float:
    """Log-likelihood of iid Weibull(k, u) observations.

    log f(t) = log k + log u + (k - 1) log(u t) - (u t)^k.
    """
    t = np.asarray(data, dtype=float)
    if t.size == 0:
        raise DomainError("empty data")
    if np.any(t <= 0) or not np.all(np.isfinite(t)):
        raise DomainError("all observations must be positive and finite")
    if not (k > 0 and math.isfinite(k)) or not (u > 0 and math.isfinite(u)):
        raise DomainError(f"parameters must be positive, got k={k}, u={u}")
    ut = u * t
    return float(np.sum(math.log(k) + math.log(u) + (k - 1.0) * np.log(ut)
                        - ut ** k))


@dataclass(frozen=True)
class MleFit:
    k_hat: float
    u_hat: float
    loglik: float
    converged: bool
    iterations: int

    def to_json_dict(self, n: int, seed: int | None = None) -> dict:
        return {"k_hat": self.k_hat, "u_hat": self.u_hat,
                "loglik": self.loglik, "converged": self.converged,
                "n": n, "seed": seed}


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) of a finite 1-D array, in ``scipy.special.logsumexp``'s
    arithmetic (scipy 1.17) so that fits match it bit for bit: the m entries
    equal to the maximum leave the sum, and the rest, scaled by 1/m, enter
    through log1p."""
    a_max = a.max()
    at_max = a == a_max
    m = float(np.count_nonzero(at_max))
    s = np.exp(np.where(at_max, -np.inf, a) - a_max).sum() / m
    return float(np.log1p(s) + np.log(m) + a_max)


def _profile_loglik(log_t: np.ndarray, k: float) -> float:
    # u(k) = (mean(t^k))^(-1/k) makes sum((u t)^k) = n exactly, so
    # l(k) = n log k + n k log u + (k - 1) sum(log t) - n
    n = log_t.size
    log_mean_tk = _logsumexp(k * log_t) - math.log(n)
    log_u = -log_mean_tk / k
    return n * math.log(k) + n * k * log_u + (k - 1.0) * float(log_t.sum()) - n


def _golden_max(f, lo: float, hi: float) -> tuple[float, int, bool]:
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    fc, fd = f(c), f(d)
    iterations = 0
    while hi - lo > _K_REL_TOL * max(abs(lo), abs(hi)):
        iterations += 1
        if iterations > 300:
            return 0.5 * (lo + hi), iterations, False
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - _INVPHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INVPHI * (hi - lo)
            fd = f(d)
    return 0.5 * (lo + hi), iterations, True


def weibull_mle(data) -> MleFit:
    """Maximum-likelihood Weibull fit via profile likelihood in the shape.

    For fixed k the rate maximizer is u(k) = (mean(t^k))^(-1/k); the
    profile is unimodal in k for Weibull-like samples, so a bracketed
    golden-section search over k in [0.05, 50] is robust.  The start
    bracket comes from the log-variance moment relation
    Var(log T) = pi^2 / (6 k^2) and is widened to the full range if the
    maximizer lands on its edge.
    """
    t = np.asarray(data, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise DomainError("need a 1-D sample with at least 2 observations")
    if np.any(t <= 0) or not np.all(np.isfinite(t)):
        raise DomainError("all observations must be positive and finite")
    log_t = np.log(t)
    spread = float(np.std(log_t, ddof=1))
    if spread == 0.0:
        raise DegenerateDataError(
            "all observations identical: shape estimate diverges")

    k0 = min(max(math.pi / (math.sqrt(6.0) * spread), _K_LO), _K_HI)
    lo = max(_K_LO, k0 / 10.0)
    hi = min(_K_HI, k0 * 10.0)

    def profile(k: float) -> float:
        return _profile_loglik(log_t, k)

    k_hat, iters, ok = _golden_max(profile, lo, hi)
    edge = (hi - lo) * 1e-6
    if (k_hat - lo < edge and lo > _K_LO) or (hi - k_hat < edge and hi < _K_HI):
        k_hat, extra, ok = _golden_max(profile, _K_LO, _K_HI)
        iters += extra

    pegged = k_hat - _K_LO < 1e-6 or _K_HI - k_hat < 1e-6 * _K_HI
    log_mean_tk = _logsumexp(k_hat * log_t) - math.log(t.size)
    u_hat = math.exp(-log_mean_tk / k_hat)
    return MleFit(k_hat=k_hat, u_hat=u_hat,
                  loglik=loglik_weibull(t, k_hat, u_hat),
                  converged=ok and not pegged, iterations=iters)
