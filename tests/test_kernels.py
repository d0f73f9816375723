"""The convolution kernel against a frozen high-precision oracle.

Every value below is P(z1 + z2 <= tau) for two iid draws, computed with
mpmath at 50 digits (inputs taken as mpf(float)) and rounded to the
nearest double:

* Weibull(k, u), F(x) = -expm1(-(u max(x, 0))^k):
  k < 1: substitute y = (u x)^k, conv = int_0^{(u tau)^k} e^-y
         F(tau - y^(1/k)/u) dy, split at half the upper limit;
  k >= 1: the direct form int_0^tau f(x) F(tau - x) dx, split at tau/2.
  Cross-check: the direct form split at tau * 2^-j, j = 1..60.
* Exponential(u): the closed form 1 - e^(-u tau) - u tau e^(-u tau).
  Cross-check: the direct form on [0, tau].
* Uniform(v): the closed form tau^2/(2 v^2), 2 tau/v - tau^2/(2 v^2) - 1,
  1 on [0, v), [v, 2v), [2v, inf).  Cross-check: the direct form split at
  v and tau - v.
* LogLogistic(b), F(x) = x^b / (1 + x^b): the direct form split at tau/2.
  Cross-check: the split form F(tau/2)^2 + 2 int_{tau/2}^tau.

Each primary recipe agrees with its cross-check to 7e-15.  The exponential
and uniform cells reach the quadrature through ``quadrature_path``.
"""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archlab import numerics
from archlab.distributions import (Exponential, ProcessingTimeDistribution,
                                   Uniform, Weibull)
from archlab.errors import QuadratureConvergenceError
from archlab.numerics import convolve_cdf
from archlab.verify import _PdfCdfOnly

#: Worst allowed |archlab - oracle| / oracle: a few dozen ulp (2.5e-16
#: measured over every table below).
ORACLE_REL_TOL = 1e-14

WEIBULL_ORACLE = {  # (k, u, tau): conv
    (0.2, 1.0, 0.01): 0.10394497706173657,
    (0.2, 10.0, 5.0): 0.7829255983711731,
    (0.5, 1.0, 0.3): 0.15024478488419077,
    (0.5, 3.0, 2.0): 0.803580238188998,
    (0.7, 0.5, 4.0): 0.5567040335970258,
    (0.9, 2.0, 1.1): 0.6292982012100472,
    (1.0, 1.0, 1.0): 0.26424111765711533,
    (1.5, 1.0, 0.2): 0.0022499681348434105,
    (1.5, 1.0, 2.5): 0.8013139616949307,
    (2.0, 10.0, 0.01): 1.6600154497720827e-05,
    (2.0, 0.5, 5.0): 0.8621123270862185,
    (3.7, 2.0, 0.9): 0.49310556150067564,
    (5.0, 1.0, 1.7): 0.3161450247696321,
}

EXPONENTIAL_ORACLE = {  # (u, tau): conv
    (1.3, 0.05): 0.0020231515030653445,
    (1.3, 1.0): 0.373176876021771,
    (1.3, 6.0): 0.9963943321849779,
}

UNIFORM_ORACLE = {  # (v, tau): conv; tau on both sides of v and 2v
    (2.0, 0.5): 0.03125,
    (2.0, 1.9): 0.45125,
    (2.0, 2.0): 0.5,
    (2.0, 2.1): 0.5487500000000001,
    (2.0, 3.0): 0.875,
    (2.0, 3.9): 0.99875,
    (2.0, 4.0): 1.0,
    (2.0, 4.1): 1.0,
}

LOGLOGISTIC_ORACLE = {  # (b, tau): conv
    (3.0, 0.4): 0.0001987241753964944,
    (3.0, 1.5): 0.18896169790457737,
    (3.0, 4.0): 0.9177304373413273,
}

#: Adaptive Simpson reported convergence here while off by 1.34e-5.
FALSE_CONVERGENCE_CELL = (2.0, 1.5555555555555556, 2.126969696969697)
FALSE_CONVERGENCE_ORACLE = 0.9825965140295506


def quadrature_path(dist):
    """``dist`` on the quadrature path: Weibull(1, u) for an exponential,
    a pdf/cdf-only view of a uniform, a Weibull as it is."""
    if isinstance(dist, Exponential):
        return Weibull(1.0, dist.u)
    return _PdfCdfOnly(dist) if isinstance(dist, Uniform) else dist


class LogLogistic(ProcessingTimeDistribution):
    """A user distribution with only pdf and cdf (no closed-form sum)."""

    def __init__(self, b: float):
        self.b = b

    def pdf(self, t):
        x = np.clip(np.asarray(t, dtype=float), 0.0, None)
        return self.b * x ** (self.b - 1.0) / (1.0 + x ** self.b) ** 2

    def cdf(self, t):
        x = np.clip(np.asarray(t, dtype=float), 0.0, None)
        return x ** self.b / (1.0 + x ** self.b)


@pytest.mark.parametrize("k, u, tau", sorted(WEIBULL_ORACLE))
def test_weibull_matches_oracle(k, u, tau):
    got = convolve_cdf(Weibull(k, u), tau)
    assert isinstance(got, float)
    ref = WEIBULL_ORACLE[(k, u, tau)]
    assert abs(got - ref) <= ORACLE_REL_TOL * ref


#: The frozen table of ``tests/golden/conv_oracle.py``: Weibull(k, 1) for k
#: in {1.2, 1.5, 2.5}, 30 tau each from 1e-6 to 3 q(0.999).
CONV_TABLE = Path(__file__).parent / "golden" / "conv-weibull-oracle.csv"


@pytest.mark.parametrize("k", [1.2, 1.5, 2.5])
def test_weibull_matches_frozen_table(k):
    # F(tau - x) ~ (tau - x)^k at x = tau for non-integer k; the worst
    # relative error measured is 3.6e-16
    table = np.loadtxt(CONV_TABLE, delimiter=",", skiprows=2)
    rows = table[table[:, 0] == k]
    assert len(rows) == 30
    got = convolve_cdf(Weibull(k, 1.0), rows[:, 1])
    assert np.max(np.abs(got - rows[:, 2]) / rows[:, 2]) <= ORACLE_REL_TOL


def test_weibull_false_convergence_regression():
    k, u, tau = FALSE_CONVERGENCE_CELL
    got = convolve_cdf(Weibull(k, u), tau)
    assert abs(got - FALSE_CONVERGENCE_ORACLE) <= 1e-12


@pytest.mark.parametrize("u, tau", sorted(EXPONENTIAL_ORACLE))
def test_exponential_numeric_path_matches_oracle(u, tau):
    got = convolve_cdf(quadrature_path(Exponential(u)), tau)
    ref = EXPONENTIAL_ORACLE[(u, tau)]
    assert abs(got - ref) <= ORACLE_REL_TOL * ref


@pytest.mark.parametrize("v, tau", sorted(UNIFORM_ORACLE))
def test_uniform_numeric_path_matches_oracle(v, tau):
    got = convolve_cdf(quadrature_path(Uniform(v)), tau)
    ref = UNIFORM_ORACLE[(v, tau)]
    assert abs(got - ref) <= ORACLE_REL_TOL * ref


def test_custom_pdf_cdf_only_distribution_matches_oracle():
    taus = np.array([tau for _, tau in sorted(LOGLOGISTIC_ORACLE)])
    ref = np.array([LOGLOGISTIC_ORACLE[key] for key in sorted(LOGLOGISTIC_ORACLE)])
    got = convolve_cdf(LogLogistic(3.0), taus)
    assert np.max(np.abs(got - ref) / ref) <= ORACLE_REL_TOL


def test_array_tau_matches_scalar_calls():
    for k, u in {(k, u) for k, u, _ in WEIBULL_ORACLE}:
        dist = Weibull(k, u)
        taus = np.array([[0.0, 0.01, 0.5], [1.0, 2.5, 5.0]])
        got = convolve_cdf(dist, taus)
        assert got.shape == taus.shape
        scalar = [convolve_cdf(dist, float(t)) for t in taus.flat]
        assert np.max(np.abs(got.reshape(-1) - scalar)) <= 1e-15
        assert got[0, 0] == 0.0


def starve(monkeypatch):
    """Cap the rule at its first two levels, too few for Weibull(5, 1)
    from tau = 2 to 3."""
    monkeypatch.setattr(numerics, "LEVELS", numerics.LEVELS[:2])


def test_starved_scalar_raises_with_finite_estimate(monkeypatch):
    starve(monkeypatch)
    with pytest.raises(QuadratureConvergenceError, match=r"tau=2\.5\b") as err:
        convolve_cdf(Weibull(5.0, 1.0), 2.5)
    est = err.value.best_estimate
    assert math.isfinite(est)
    assert 0.0 <= est <= float(Weibull(5.0, 1.0).cdf(2.5))


def test_starved_array_names_first_failing_tau(monkeypatch):
    # at this cap the two smallest tau converge and the rest do not
    starve(monkeypatch)
    taus = np.array([0.5, 1.0, 2.5, 3.0])
    with pytest.raises(QuadratureConvergenceError,
                       match=re.escape("tau=2.5 ")) as err:
        convolve_cdf(Weibull(5.0, 1.0), taus)
    assert math.isfinite(err.value.best_estimate)
    assert 0.0 <= err.value.best_estimate <= float(Weibull(5.0, 1.0).cdf(2.5))
    # the converging prefix really converges under the same settings
    assert np.all(convolve_cdf(Weibull(5.0, 1.0), taus[:2]) > 0.0)


def weibull2_closed_form(u: float, tau: float) -> float:
    """conv for Weibull(2, u) in closed form, by completing the square in
    x^2 + (tau - x)^2: with s = u tau,
    conv = -expm1(-s^2) - sqrt(pi/2) s e^(-s^2/2) erf(s/sqrt 2).
    The two terms cancel as s -> 0 (about 9e-11 relative at s = 0.005), so
    it serves only for s >= 0.05."""
    s = u * tau
    return (-math.expm1(-s * s) - math.sqrt(math.pi / 2.0) * s
            * math.exp(-0.5 * s * s) * math.erf(s / math.sqrt(2.0)))


#: |quadrature - closed form| allowed on the k = 2 path: a few ulp of 1
#: (4.4e-16 measured on the fig4 grid).
CLOSED_FORM_TOL = 1e-15


@pytest.mark.parametrize("u, tau", [(1.5556, 2.1270), (10.0, 0.01), (0.5, 5.0),
                                    (10.0, 5.0), (0.5, 0.1), (1.0, 1.0)])
def test_weibull_k2_matches_closed_form_cell(u, tau):
    assert abs(convolve_cdf(Weibull(2.0, u), tau)
               - weibull2_closed_form(u, tau)) <= CLOSED_FORM_TOL


def test_weibull_k2_matches_closed_form_on_grid():
    taus = np.linspace(0.01, 5.0, 60)
    for u in np.linspace(0.5, 10.0, 12):
        got = convolve_cdf(Weibull(2.0, float(u)), taus)
        keep = u * taus >= 0.05
        want = [weibull2_closed_form(float(u), float(t)) for t in taus[keep]]
        assert np.max(np.abs(got[keep] - want)) <= CLOSED_FORM_TOL


#: Slack on the sandwich bounds: rounding only (no violation beyond 1e-15
#: was seen on 12,000 taus over six models).
BOUND_SLACK = 1e-14


@settings(max_examples=80, deadline=None)
@given(dist=st.one_of(
           st.builds(Weibull, st.floats(0.2, 5.0), st.floats(0.05, 10.0)),
           st.builds(Exponential, st.floats(0.05, 10.0)),
           st.builds(Uniform, st.floats(0.05, 10.0))),
       tau=st.floats(0.0, 50.0), numeric=st.booleans())
def test_convolution_between_half_and_full_square(dist, tau, numeric):
    # both draws are nonnegative, so {z1, z2 <= tau/2} is inside
    # {z1 + z2 <= tau}, which is inside {z1, z2 <= tau}
    conv = convolve_cdf(quadrature_path(dist) if numeric else dist, tau)
    lower = float(dist.cdf(0.5 * tau)) ** 2
    upper = float(dist.cdf(tau)) ** 2
    assert lower - BOUND_SLACK <= conv <= upper + BOUND_SLACK


@pytest.mark.parametrize("dist", [Exponential(1.0), Weibull(1.5, 1.0), Uniform(2.0)])
def test_smallest_subnormal_tau_gives_zero(dist):
    # tau/2 rounds to 0 there, which once made the split-form tolerance nan
    assert convolve_cdf(quadrature_path(dist), 5e-324) == 0.0


@pytest.mark.parametrize("u", [0.3, 1.0, 4.0])
def test_continuity_across_k_equal_one(u):
    # shapes just below and just above 1 must meet the exponential closed
    # form, to first order in k - 1 each (2.8e-7 measured) and to second
    # order on average (4.9e-13 measured)
    taus = np.linspace(0.0, 12.0 / u, 121)
    exact = convolve_cdf(Exponential(u), taus)
    below = convolve_cdf(Weibull(1.0 - 1e-6, u), taus)
    above = convolve_cdf(Weibull(1.0 + 1e-6, u), taus)
    assert np.max(np.abs(below - exact)) <= 1e-6
    assert np.max(np.abs(above - exact)) <= 1e-6
    assert np.max(np.abs(0.5 * (below + above) - exact)) <= 1e-11


#: Relative gap allowed between conv at (u, tau) and at (1, u tau): u tau
#: rounds, so the two are different integrals a few ulp apart.  A
#: subnormal conv is held to the gap at the smallest normal float.  A
#: subnormal tau or u tau has too few bits for any relative bound (the
#: smallest gives conv = 0), so it keeps the absolute bound of 2e-8.
SCALE_REL_TOL = 1e-14


@settings(max_examples=80, deadline=None)
@given(k=st.floats(0.2, 5.0), u=st.floats(0.05, 10.0), tau=st.floats(0.0, 20.0))
def test_scale_invariance(k, u, tau):
    # u is a time scale: u z is Weibull(k, 1) when z is Weibull(k, u)
    # (9.4e-16 relative worst measured over 3000 random cells)
    conv = convolve_cdf(Weibull(k, u), tau)
    bound = (2e-8 if min(tau, u * tau) < np.finfo(float).tiny
             else SCALE_REL_TOL * max(conv, np.finfo(float).tiny))
    assert abs(conv - convolve_cdf(Weibull(k, 1.0), u * tau)) <= bound
