"""Nonnegative processing-time distributions.

A processing-time distribution lives on ``[0, upper)`` (``upper`` may be
infinite) and exposes five functionals tied together by

    S(t) = 1 - F(t),      h(t) = f(t) / S(t),      H(t) = -ln S(t),

with ``f`` the density and ``F`` the distribution function.  Three
parametric families are built in:

* ``Weibull(k, u)``  --  f(t) = k u (u t)^(k-1) exp[-(u t)^k]
* ``Exponential(u)`` --  Weibull with k = 1
* ``Uniform(v)``     --  constant density 1/v on [0, v)

User-defined distributions subclass :class:`ProcessingTimeDistribution` and
supply only ``pdf`` and ``cdf``; survival, hazard, cumulative hazard and
quantile are then derived numerically.

All instances are immutable and every functional is pure, so values can be
shared freely across threads.
"""

from __future__ import annotations

import math
import re
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from .errors import DistSpecError, DomainError, ExhaustedSurvivalError

#: Survival floor below which hazard-type functionals refuse to evaluate
#: instead of overflowing (the uniform hazard 1/(v - t) diverges at t -> v).
EPS_SURVIVAL = 1e-300


def _first_bad(arr: np.ndarray, bad: np.ndarray, name: str) -> str:
    """``name[i]=x``: the index and value of the first ``bad`` element of
    the array ``arr``, so that an error shows the element at fault."""
    i = np.unravel_index(int(np.argmax(bad)), arr.shape)
    return f"{name}[{', '.join(map(str, i))}]={float(arr[i])!r}"


def _prepare(t, name: str = "t"):
    """Coerce to float array, rejecting non-finite entries."""
    arr = np.asarray(t, dtype=float)
    finite = np.isfinite(arr)
    if not np.all(finite):
        got = repr(t) if arr.ndim == 0 else _first_bad(arr, ~finite, name)
        raise DomainError(f"{name} must be finite, got {got}")
    return arr, arr.ndim == 0


def _prepare_support(t, what: str):
    """:func:`_prepare` for a functional undefined before the support."""
    t_arr, scalar = _prepare(t)
    if np.any(t_arr < 0.0):
        got = f"t={t!r}" if scalar else _first_bad(t_arr, t_arr < 0.0, "t")
        raise DomainError(f"{what} undefined before the support: {got}")
    return t_arr, scalar


def _ret(arr, scalar: bool):
    return float(arr) if scalar else arr


class ProcessingTimeDistribution(ABC):
    """A distribution on [0, upper) exposing f, F, S, h and H.

    Subclasses must implement :meth:`pdf` and :meth:`cdf`; everything else
    has a numerical default that subclasses may override with closed forms.
    """

    #: Upper end of the support; ``inf`` unless the subclass overrides it.
    support_upper: float = math.inf

    #: A characteristic time used to size numerical tolerances.
    typical_scale: float = 1.0

    @abstractmethod
    def pdf(self, t):
        """Density f(t); zero outside the support."""

    @abstractmethod
    def cdf(self, t):
        """Distribution function F(t), in [0, 1]."""

    def survival(self, t):
        """S(t) = 1 - F(t)."""
        t_arr, scalar = _prepare(t)
        return _ret(1.0 - np.asarray(self.cdf(t_arr)), scalar)

    def hazard(self, t):
        """h(t) = f(t) / S(t); raises once survival is exhausted."""
        t_arr, scalar = _prepare_support(t, "hazard")
        s = np.asarray(self.survival(t_arr))
        if np.any(s <= EPS_SURVIVAL):
            raise ExhaustedSurvivalError(
                f"hazard undefined: exhausted survival at t={t!r}")
        return _ret(np.asarray(self.pdf(t_arr)) / s, scalar)

    def cum_hazard(self, t):
        """H(t) = -ln S(t)."""
        t_arr, scalar = _prepare_support(t, "cumulative hazard")
        s = np.asarray(self.survival(t_arr))
        if np.any(s <= EPS_SURVIVAL):
            raise ExhaustedSurvivalError(
                f"cumulative hazard undefined: exhausted survival at t={t!r}")
        return _ret(-np.log(s), scalar)

    def exhausted(self, t):
        """Where S(t) <= EPS_SURVIVAL (finite t >= 0), so that ``hazard``
        and ``cum_hazard`` raise; False where closed forms never raise."""
        t_arr, scalar = _prepare(t)
        out = np.asarray(self.survival(t_arr)) <= EPS_SURVIVAL
        return bool(out) if scalar else out

    def quantile(self, q):
        """Smallest t with F(t) >= q, for 0 <= q < 1.

        Default implementation: bisection on an expanding bracket, absolute
        tolerance ``1e-10 * typical_scale``; safe because F is monotone.
        All levels are bisected at once, each frozen once its bracket is.
        """
        q_arr, scalar = _prepare(q, "q")
        if np.any((q_arr < 0.0) | (q_arr >= 1.0)):
            raise DomainError(f"quantile level must be in [0, 1), got {q!r}")
        q = q_arr.reshape(-1)
        lo = np.zeros(q.size)
        hi = np.full(q.size, float(self.typical_scale))
        grow = np.flatnonzero(q > 0.0)
        for _ in range(2000):
            grow = grow[~(np.asarray(self.cdf(hi[grow])) >= q[grow])]
            if grow.size == 0:
                break
            lo[grow] = hi[grow]
            hi[grow] = hi[grow] * 2.0
        else:
            raise DomainError(
                f"quantile bracket did not close for q={float(q[grow[0]])}")
        tol = 1e-10 * self.typical_scale
        live = np.flatnonzero((q > 0.0) & (hi - lo > tol))
        while live.size:
            mid = 0.5 * (lo[live] + hi[live])
            upper = np.asarray(self.cdf(mid)) >= q[live]
            hi[live[upper]] = mid[upper]
            lo[live[~upper]] = mid[~upper]
            live = live[hi[live] - lo[live] > tol]
        out = np.where(q > 0.0, 0.5 * (lo + hi), 0.0).reshape(q_arr.shape)
        return _ret(out, scalar)

    def breakpoints(self) -> tuple[float, ...]:
        """Interior points where f or F is not smooth (quadrature splits here)."""
        return ()


@dataclass(frozen=True)
class Weibull(ProcessingTimeDistribution):
    """Weibull with shape ``k`` and rate ``u``: F(t) = 1 - exp[-(u t)^k].

    The cumulative hazard is implemented as ``(u t)^k``; the equivalent
    factored form ``u (u t)^(k-1) t`` is algebraically identical.
    """

    k: float
    u: float

    def __post_init__(self):
        if not (self.k > 0 and math.isfinite(self.k)):
            raise DomainError(f"Weibull shape k must be positive, got {self.k}")
        if not (self.u > 0 and math.isfinite(self.u)):
            raise DomainError(f"Weibull rate u must be positive, got {self.u}")

    @property
    def typical_scale(self) -> float:
        return 1.0 / self.u

    def pdf(self, t):
        t_arr, scalar = _prepare(t)
        x = self.u * t_arr
        out = np.zeros_like(x)
        pos = x > 0
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            out[pos] = (self.k * self.u * x[pos] ** (self.k - 1.0)
                        * np.exp(-x[pos] ** self.k))
        if self.k < 1.0:
            self._fill_underflow(out, t_arr, pos)  # e^0 = 1: pdf = hazard
            out[t_arr == 0.0] = math.inf  # density diverges at the origin
        elif self.k == 1.0:  # u at t = 0, and where u t underflows to 0
            out[~pos & (t_arr >= 0.0)] = self.u
        else:  # (u t)^(k-1) overflows where exp(-(u t)^k) underflows: the
            out[np.isnan(out)] = 0.0  # product is inf * 0, the density 0
        return _ret(out, scalar)

    def cdf(self, t):
        t_arr, scalar = _prepare(t)
        x = np.clip(self.u * t_arr, 0.0, None)
        with np.errstate(over="ignore"):
            out = -np.expm1(-x ** self.k)
        return _ret(out, scalar)

    def survival(self, t):
        t_arr, scalar = _prepare(t)
        x = np.clip(self.u * t_arr, 0.0, None)
        with np.errstate(over="ignore"):
            out = np.exp(-x ** self.k)
        return _ret(out, scalar)

    def hazard(self, t):
        """Closed form u k (u t)^(k-1); monotone in t with sign of (k - 1)."""
        t_arr, scalar = _prepare_support(t, "hazard")
        if self.k < 1.0 and np.any(t_arr == 0.0):
            raise DomainError("Weibull hazard diverges at t=0 for k < 1")
        x = self.u * t_arr
        out = np.zeros_like(x)
        pos = x > 0
        with np.errstate(over="ignore"):
            out[pos] = self.u * self.k * x[pos] ** (self.k - 1.0)
        if self.k < 1.0:
            self._fill_underflow(out, t_arr, pos)
        elif self.k == 1.0:
            out[~pos] = self.u
        return _ret(out, scalar)

    def _fill_underflow(self, out, t_arr, pos) -> None:
        """For k < 1, the hazard k u^k t^(k-1) (large, not 0) where t > 0
        but ``u t`` underflows to 0."""
        tiny = ~pos & (t_arr > 0.0)
        if tiny.any():
            with np.errstate(over="ignore"):
                out[tiny] = self.k * self.u ** self.k * t_arr[tiny] ** (self.k - 1.0)

    def cum_hazard(self, t):
        t_arr, scalar = _prepare_support(t, "cumulative hazard")
        with np.errstate(over="ignore"):
            out = (self.u * t_arr) ** self.k
        return _ret(out, scalar)

    def exhausted(self, t):
        """Never: the closed-form hazards stay defined where S underflows."""
        t_arr, scalar = _prepare(t)
        return False if scalar else np.zeros(t_arr.shape, dtype=bool)

    def quantile(self, q):
        q_arr, scalar = _prepare(q, "q")
        if np.any((q_arr < 0.0) | (q_arr >= 1.0)):
            raise DomainError(f"quantile level must be in [0, 1), got {q!r}")
        out = (-np.log1p(-q_arr)) ** (1.0 / self.k) / self.u
        return _ret(out, scalar)

    def spec_string(self) -> str:
        return f"weibull:k={self.k!r},u={self.u!r}"


@dataclass(frozen=True)
class Exponential(Weibull):
    """Exponential with rate ``u``: the Weibull with k = 1, so constant
    hazard u and linear H(t) = u t."""

    k: float = field(default=1.0, init=False, repr=False)

    def __post_init__(self):
        if not (self.u > 0 and math.isfinite(self.u)):
            raise DomainError(f"Exponential rate u must be positive, got {self.u}")

    def spec_string(self) -> str:
        return f"exp:u={self.u!r}"


@dataclass(frozen=True)
class Uniform(ProcessingTimeDistribution):
    """Uniform on [0, v): hazard 1/(v - t) diverges at the upper endpoint."""

    v: float

    def __post_init__(self):
        if not (self.v > 0 and math.isfinite(self.v)):
            raise DomainError(f"Uniform upper bound v must be positive, got {self.v}")

    @property
    def support_upper(self) -> float:
        return self.v

    @property
    def typical_scale(self) -> float:
        return self.v

    def pdf(self, t):
        t_arr, scalar = _prepare(t)
        out = np.where((t_arr >= 0.0) & (t_arr < self.v), 1.0 / self.v, 0.0)
        return _ret(out, scalar)

    def cdf(self, t):
        t_arr, scalar = _prepare(t)
        return _ret(np.clip(t_arr / self.v, 0.0, 1.0), scalar)

    def hazard(self, t):
        t_arr, scalar = _prepare_support(t, "hazard")
        s = 1.0 - np.clip(t_arr / self.v, 0.0, 1.0)
        if np.any(s <= EPS_SURVIVAL):
            raise ExhaustedSurvivalError(
                f"hazard undefined: exhausted survival at t={t!r} (v={self.v})")
        return _ret(1.0 / (self.v - t_arr), scalar)

    def cum_hazard(self, t):
        """-ln(v - t) + ln v, valid for t < v only."""
        t_arr, scalar = _prepare_support(t, "cumulative hazard")
        if np.any(t_arr >= self.v):
            raise DomainError(
                f"cumulative hazard undefined at t={t!r}: support ends at v={self.v}")
        return _ret(-np.log1p(-t_arr / self.v), scalar)

    def quantile(self, q):
        q_arr, scalar = _prepare(q, "q")
        if np.any((q_arr < 0.0) | (q_arr >= 1.0)):
            raise DomainError(f"quantile level must be in [0, 1), got {q!r}")
        return _ret(q_arr * self.v, scalar)

    def breakpoints(self) -> tuple[float, ...]:
        return (self.v,)

    def spec_string(self) -> str:
        return f"uniform:v={self.v!r}"


# --------------------------------------------------------------------------
# Spec-string grammar:  weibull:k=<float>,u=<float> | exp:u=<float>
#                       | uniform:v=<float>
# --------------------------------------------------------------------------

_FAMILY_PARAMS = {"weibull": ("k", "u"), "exp": ("u",), "uniform": ("v",)}
_TOKEN_RE = re.compile(r"^([A-Za-z_]\w*)=(.+)$")


def parse_spec(text: str) -> ProcessingTimeDistribution:
    """Parse a distribution spec string.

    >>> parse_spec("weibull:k=2,u=1")
    Weibull(k=2.0, u=1.0)

    Raises :class:`DistSpecError` naming the offending token on any
    malformed input.
    """
    if not isinstance(text, str) or ":" not in text:
        raise DistSpecError(
            f"distribution spec {text!r} must look like 'family:param=value,...'")
    family, _, rest = text.partition(":")
    family = family.strip().lower()
    if family not in _FAMILY_PARAMS:
        raise DistSpecError(
            f"unknown distribution family {family!r} "
            f"(expected one of {sorted(_FAMILY_PARAMS)})")
    wanted = _FAMILY_PARAMS[family]
    values: dict[str, float] = {}
    for token in rest.split(","):
        token = token.strip()
        m = _TOKEN_RE.match(token)
        if m is None:
            raise DistSpecError(f"malformed parameter token {token!r} in {text!r}")
        name, raw = m.group(1), m.group(2)
        if name not in wanted:
            raise DistSpecError(
                f"unexpected parameter {name!r} for family {family!r} "
                f"(expected {list(wanted)})")
        if name in values:
            raise DistSpecError(f"duplicate parameter {name!r} in {text!r}")
        try:
            values[name] = float(raw)
        except ValueError:
            raise DistSpecError(
                f"invalid float {raw!r} in token {token!r}") from None
    missing = [p for p in wanted if p not in values]
    if missing:
        raise DistSpecError(f"missing parameter(s) {missing} for family {family!r}")
    if family == "weibull":
        return Weibull(k=values["k"], u=values["u"])
    if family == "exp":
        return Exponential(u=values["u"])
    return Uniform(v=values["v"])
