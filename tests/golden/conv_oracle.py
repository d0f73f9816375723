"""Write ``conv-weibull-oracle.csv``: Weibull(k, 1) convolution CDFs to the
last double, computed with mpmath independently of archlab.

For k in ``SHAPES`` and ``STEPS`` geometric tau from ``TAU_MIN`` to three
times the 0.999 quantile,

    conv(tau) = P(z1 + z2 <= tau) = F(tau/2)^2 + 2 int_{tau/2}^tau f(x) F(tau - x) dx,

with F(x) = -expm1(-x^k) and f = F'.  Inputs are taken as mpf(float) and
each value is rounded to the nearest double.

Primary recipe (``DPS`` digits): reflect and scale, x = tau (1 - s), so
the integral is tau int_0^{1/2} f(tau (1 - s)) F(tau s) ds, whose only
non-smooth point, F(tau s) ~ (tau s)^k, sits at the exact endpoint s = 0.
mpmath's tanh-sinh ``quad`` stops on an absolute error, so the integrand
is divided by its value at s = 1/2 first; without that, a conv of 1e-48
(k = 4, tau = 1e-6) stops after one level, 2.6e-8 off.

Cross-checks, each of which must hold to ``AGREE`` relative before the
table is written:

* the direct form int_0^tau f(x) F(tau - x) dx at ``DPS + 10`` digits,
  split at tau/2 and scaled the same way, at every tau of the table;
* the same recipe for k = 2 against the closed form
  -expm1(-tau^2) - sqrt(pi/2) tau e^(-tau^2/2) erf(tau/sqrt 2), taken at
  ``2 DPS`` digits because its terms cancel as tau -> 0;
* the leading-order series tau^(2k) Gamma(k+1)^2 / Gamma(2k+1) at
  tau = 1e-30, where the next order is below 1e-30 relative (tau^8/70
  for k = 4).

Steep shapes: for k in ``STEEP`` and tau in ``STEEP_TAUS`` (1.4 to 2, where
a panel of tau/2 holds the peak of f, about 1/k wide, near x = 1), the same
recipe runs on ``PIECES`` equal pieces of [0, 1/2] (on one piece, mp.quad's
own error estimate misses ``AGREE`` at k = 100, tau = 1.8).  Its
cross-check is the direct form at ``DPS + 10`` digits on
``2 (PIECES + 101)`` equal pieces of [0, tau], whose ends meet the
recipe's only at tau/2 and tau.

Run from the repository root (about seven minutes, nearly all of it on the
steep shapes):

    python3 tests/golden/conv_oracle.py
"""

from __future__ import annotations

import math
import os

import mpmath as mp

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                   "conv-weibull-oracle.csv")
SHAPES = (1.2, 1.5, 2.5)
STEEP = (30.0, 50.0, 100.0)
STEEP_TAUS = tuple(i / 20 for i in range(28, 41))
PIECES = 400
TAU_MIN = 1e-6
STEPS = 30
DPS = 40
AGREE = mp.mpf("1e-30")


def require(ok: bool, check: str, *values) -> None:
    """Abort the run, naming the check and its values, unless ``ok``."""
    if not ok:
        raise SystemExit(f"cross-check failed: {check}: {values}")


def taus(k: float) -> list[float]:
    """``STEPS`` doubles from ``TAU_MIN`` to 3 q(0.999), geometric."""
    hi = 3.0 * (-math.log(0.001)) ** (1.0 / k)
    ratio = (hi / TAU_MIN) ** (1.0 / (STEPS - 1))
    return [TAU_MIN * ratio ** i for i in range(STEPS - 1)] + [hi]


def conv(k: float, tau: float, dps: int = DPS, direct: bool = False,
         pieces: int = 1) -> mp.mpf:
    """conv(tau) for Weibull(k, 1): the reflected integral on [0, 1/2] in
    ``pieces`` equal pieces, or with ``direct`` the unreflected int_0^tau
    in ``2 pieces`` (split at tau/2 for one)."""
    with mp.workdps(dps):
        k, tau = mp.mpf(k), mp.mpf(tau)

        def cdf(x):
            return -mp.expm1(-x ** k)

        def pdf(x):
            return k * x ** (k - 1) * mp.exp(-x ** k)

        half = tau / 2
        scale = pdf(half) * cdf(half)
        if direct:
            def g(x):
                return pdf(x) * cdf(tau - x) / scale
            full, err = mp.quad(g, [tau * i / (2 * pieces)
                                    for i in range(2 * pieces + 1)], error=True)
        else:
            def g(s):
                return pdf(tau * (1 - s)) * cdf(tau * s) / scale
            full, err = mp.quad(g, [mp.mpf(i) / (2 * pieces)
                                    for i in range(pieces + 1)], error=True)
        require(err <= AGREE * full, "quad error", k, tau, err, full)
        if direct:
            return scale * full
        return cdf(half) ** 2 + 2 * tau * scale * full


def check_recipe() -> None:
    """Abort unless the recipe meets its three cross-checks."""
    for k in SHAPES:
        for tau in taus(k):
            a, b = conv(k, tau), conv(k, tau, DPS + 10, direct=True)
            require(abs(a - b) <= AGREE * a, "direct form", k, tau, a, b)
    for tau in taus(2.0):
        with mp.workdps(2 * DPS):  # the two terms cancel as tau -> 0
            s = mp.mpf(tau)
            closed = (-mp.expm1(-s * s) - mp.sqrt(mp.pi / 2) * s
                      * mp.exp(-s * s / 2) * mp.erf(s / mp.sqrt(2)))
        got = conv(2.0, tau)
        require(abs(got - closed) <= AGREE * closed, "k = 2", tau, got, closed)
    with mp.workdps(DPS):
        for k in SHAPES + (4.0,):
            tiny, kk = mp.mpf(1e-30), mp.mpf(k)
            series = tiny ** (2 * kk) * mp.gamma(kk + 1) ** 2 / mp.gamma(2 * kk + 1)
            got = conv(k, 1e-30)
            require(abs(got - series) <= AGREE * series, "series", k, got, series)


def steep_conv(k: float, tau: float) -> mp.mpf:
    """conv(tau) of a steep shape, after its cross-check."""
    a = conv(k, tau, pieces=PIECES)
    b = conv(k, tau, DPS + 10, direct=True, pieces=PIECES + 101)
    require(abs(a - b) <= AGREE * a, "steep direct form", k, tau, a, b)
    return a


def main() -> None:
    check_recipe()
    with open(OUT, "w") as fh:
        fh.write(f"# Weibull(k, 1) conv, mpmath at {DPS} digits "
                 "(tests/golden/conv_oracle.py)\n")
        fh.write("k,tau,conv\n")
        for k in SHAPES:
            for tau in taus(k):
                fh.write(f"{k!r},{tau!r},{float(conv(k, tau))!r}\n")
        for k in STEEP:
            for tau in STEEP_TAUS:
                fh.write(f"{k!r},{tau!r},{float(steep_conv(k, tau))!r}\n")


if __name__ == "__main__":
    main()
