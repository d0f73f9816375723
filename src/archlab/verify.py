"""Self-verification suites behind the CLI ``verify`` command.

Each check computes a measured quantity, compares it with an analytic or
statistical bound, and returns (passed, detail), the detail giving the
measurement.  Checks are grouped into three suites (analysis, mc, recall);
``all`` runs them all.
Everything is seeded, so results are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Callable

import numpy as np

from . import mc, recall
from .distributions import (Exponential, ProcessingTimeDistribution, Uniform,
                            Weibull)
from .errors import ArchlabError
from .numerics import ABS_TOL, classify_sign, convolve_cdf
from .parallel import (ParallelTwoModel, alpha_extrema, conditional_ict_survival,
                       parallel_dependence_difference, stage_survival_gap)
from .serial import (SerialTwoModel, dependence_difference, dependence_profile,
                     fixed_order_covariance, marginal_completion_cdf)

_VERIFY_SEED = 0x5EED_2024


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str


def _random_dist(rng: np.random.Generator):
    fam = rng.integers(0, 3)
    if fam == 0:
        return Weibull(k=float(rng.uniform(0.2, 4.0)), u=float(rng.uniform(0.3, 5.0)))
    if fam == 1:
        return Exponential(u=float(rng.uniform(0.3, 5.0)))
    return Uniform(v=float(rng.uniform(0.3, 5.0)))


# ---------------------------------------------------------------- analysis

def _quotient_vs_factored_agreement() -> tuple[bool, str]:
    rng = np.random.default_rng(_VERIFY_SEED)
    worst = 0.0
    for _ in range(500):
        dist = _random_dist(rng)
        p = float(rng.uniform(0.0, 1.0))
        tau = float(dist.quantile(float(rng.uniform(0.05, 0.99))))
        prof = dependence_profile(SerialTwoModel(dist, p), np.array([tau]))
        f_val, root = prof.f[0], math.sqrt(prof.conv[0])
        factored = prof.r[0] * (1.0 - f_val
                                - p * (1.0 - p) * (root - f_val / root) ** 2)
        worst = max(worst, abs(prof.difference[0] - factored))
    return worst <= 1e-9, f"max |route gap| = {worst:.3e} (tol 1e-9)"


def _single_order_nonnegative() -> tuple[bool, str]:
    rng = np.random.default_rng(_VERIFY_SEED + 1)
    worst_neg = 0.0
    worst_gap = 0.0
    for _ in range(200):
        dist = _random_dist(rng)
        p = float(rng.integers(0, 2))
        tau = float(dist.quantile(float(rng.uniform(0.05, 0.999))))
        prof = dependence_profile(SerialTwoModel(dist, p), np.array([tau]))
        diff = prof.difference[0]
        worst_neg = min(worst_neg, diff)
        worst_gap = max(worst_gap, abs(diff - prof.r[0] * (1.0 - prof.f[0])))
    ok = worst_neg >= -1e-9 and worst_gap <= 1e-9
    return ok, (f"min diff = {worst_neg:.3e}, "
                f"max |diff - R(1-F)| = {worst_gap:.3e}")


def _weibull2_conv(u: float, taus: np.ndarray) -> np.ndarray:
    """conv for Weibull(2, u) in closed form: with s = u tau, completing the
    square in x^2 + (tau - x)^2 gives
    -expm1(-s^2) - sqrt(pi/2) s e^(-s^2/2) erf(s/sqrt 2).  The terms
    cancel as s -> 0, so it is an oracle only for s >= 0.05."""
    s = u * taus
    erf = np.array([math.erf(x / math.sqrt(2.0)) for x in s])
    return -np.expm1(-s * s) - math.sqrt(math.pi / 2.0) * s * np.exp(-0.5 * s * s) * erf


@dataclass(frozen=True)
class _PdfCdfOnly(ProcessingTimeDistribution):
    """``dist`` seen only through its pdf, cdf and breakpoints."""

    dist: ProcessingTimeDistribution

    def pdf(self, t):
        return self.dist.pdf(t)

    def cdf(self, t):
        return self.dist.cdf(t)

    def breakpoints(self) -> tuple[float, ...]:
        return self.dist.breakpoints()


def _convolution_closed_forms() -> tuple[bool, str]:
    worst = 0.0
    # neither Weibull(1, u) nor the wrapper has a closed form: both integrate
    for dist, numeric, hi in ((Exponential(1.3), Weibull(1.0, 1.3), 6.0),
                              (Uniform(2.0), _PdfCdfOnly(Uniform(2.0)), 5.0)):
        taus = np.linspace(0.01, hi, 100)
        worst = max(worst, float(np.max(np.abs(
            convolve_cdf(dist, taus) - convolve_cdf(numeric, taus)))))
    taus = np.linspace(0.01, 6.0, 100)
    taus = taus[1.3 * taus >= 0.05]
    worst = max(worst, float(np.max(np.abs(
        _weibull2_conv(1.3, taus) - convolve_cdf(Weibull(2.0, 1.3), taus)))))
    return worst <= ABS_TOL, f"max |closed - numeric| = {worst:.3e} (tol {ABS_TOL:g})"


def _convolution_ordering() -> tuple[bool, str]:
    rng = np.random.default_rng(_VERIFY_SEED + 2)
    for _ in range(30):
        dist = _random_dist(rng)
        taus = np.linspace(0.0, float(dist.quantile(0.995)), 40)
        convs = convolve_cdf(dist, taus)
        if np.any(np.diff(convs) < -1e-12):
            return False, f"conv not monotone for {dist!r}"
        if np.any(convs > dist.cdf(taus) + 1e-12):
            return False, f"conv exceeds F for {dist!r}"
    return True, "monotone and conv <= F on 30 models"


def _parallel_difference_zero() -> tuple[bool, str]:
    rng = np.random.default_rng(_VERIFY_SEED + 3)
    worst = 0.0
    for _ in range(500):
        dist = _random_dist(rng)
        tau = float(dist.quantile(float(rng.uniform(0.01, 0.999))))
        if float(dist.cdf(tau)) <= 0.0:
            continue
        worst = max(worst, abs(parallel_dependence_difference(
            ParallelTwoModel(dist), tau)))
    return worst <= 1e-12, f"max |difference| = {worst:.3e} (tol 1e-12)"


def _gap_expr4_sign_consistency() -> tuple[bool, str]:
    contradictions = 0
    points = 0
    for model, t_hi in ((ParallelTwoModel(Weibull(2.0, 1.0)), 10.0),
                        (ParallelTwoModel(Weibull(4.0, 1.0)), 10.0),
                        (ParallelTwoModel(Uniform(2.0)), 1.0)):
        axis = np.linspace(0.0, t_hi, 40)
        res = stage_survival_gap(model, axis[:, None], axis[None, :])
        sg, se = classify_sign(res.gap), classify_sign(res.expr4)
        points += sg.size
        contradictions += int(np.count_nonzero(
            (sg != se) & (sg != "zero") & (se != "zero")))
    return contradictions == 0, f"{contradictions} contradictions over {points} points"


def _stage_gap_hazard_ratio_threshold() -> tuple[bool, str]:
    violations, checked = 0, 0
    for model, t_hi in ((ParallelTwoModel(Weibull(2.0, 1.0)), 6.0),
                        (ParallelTwoModel(Weibull(0.5, 1.0)), 6.0),
                        (ParallelTwoModel(Exponential(1.0)), 6.0),
                        (ParallelTwoModel(Uniform(2.0)), 0.95)):
        t, ta = np.linspace(0.05, t_hi, 15)[:, None], np.linspace(0.0, t_hi, 15)
        gaps = stage_survival_gap(model, t, ta).gap
        a_min, a_max = alpha_extrema(model, t, ta)
        classified = np.isfinite(a_min)
        wrong = ((a_min >= 2.0) & (gaps < -1e-9)) | ((a_max < 2.0) & (gaps >= 1e-9))
        checked += int(np.count_nonzero(classified))
        violations += int(np.count_nonzero(classified & wrong))
    return violations == 0, f"{violations} violations over {checked} classified points"


def _conditional_survival_monotone_in_Ta() -> tuple[bool, str]:
    worst = 0.0
    ta, t = np.linspace(0.0, 4.0, 50), np.array([[0.3], [1.0], [2.5]])
    for k in (0.3, 0.5, 0.8):
        vals = conditional_ict_survival(ParallelTwoModel(Weibull(k, 1.0)), ta, t)
        worst = min(worst, float(np.min(np.diff(vals, axis=1))))
    spread = float(np.ptp(conditional_ict_survival(
        ParallelTwoModel(Exponential(1.3)), np.linspace(0.0, 5.0, 50), 0.7)))
    ok = worst >= -1e-12 and spread <= 1e-12
    return ok, f"min increment = {worst:.3e}, memoryless spread = {spread:.3e}"


def _uniform_three_regimes() -> tuple[bool, str]:
    diff = dependence_difference(SerialTwoModel(Uniform(1.0), 0.5), np.concatenate(
        [[0.5, 5.0 / 6.0], np.linspace(1.0, 1.999, 25), [2.0, 2.5, 3.0]]))
    half, five_sixth = diff[0], diff[1]
    mid, beyond = diff[2:-3].max(), np.abs(diff[-3:]).max()
    ok = (abs(half - 0.0875) < 1e-9 and five_sixth < 0
          and mid <= 1e-9 and beyond <= 1e-9)
    return ok, (f"diff(v/2)={half:.6f}, diff(5v/6)={five_sixth:.6f}, "
                f"max mid={mid:.2e}, max beyond={beyond:.2e}")


# ---------------------------------------------------------------- mc

def _order_constrained_sign_fraction() -> tuple[bool, str]:
    # A pair is kept with probability int_0^1 da / (1 + sqrt a) = 2 (1 - ln 2),
    # and kept and positive with int_0^1 sqrt(a) / (1 + sqrt a) da = 2 ln 2 - 1.
    n = 1_000_000
    res = mc.run_theorem1_mc(n, mc.DEFAULT_SEED)
    p_keep = 2.0 * (1.0 - math.log(2.0))
    exact = (2.0 * math.log(2.0) - 1.0) / p_keep
    z_frac = abs(res.fraction_positive - exact) / math.sqrt(
        exact * (1.0 - exact) / res.n_conditioned)
    z_kept = abs(res.n_conditioned - n * p_keep) / math.sqrt(
        n * p_keep * (1.0 - p_keep))
    return z_frac <= 4.0 and z_kept <= 4.0, (
        f"fraction = {res.fraction_positive:.5f} is {z_frac:.2f} sigma from "
        f"exact {exact:.7f}, n_conditioned = {res.n_conditioned} is "
        f"{z_kept:.2f} sigma from n 2(1 - ln 2) (bound 4 sigma)")


def _sign_fraction_seed_stability() -> tuple[bool, str]:
    runs = [mc.run_theorem1_mc(1_000_000, s) for s in (11, 23, 37, 41, 53)]
    worst = 0.0
    ok = True
    for i in range(len(runs)):
        for j in range(i + 1, len(runs)):
            gap = abs(runs[i].fraction_positive - runs[j].fraction_positive)
            bound = 4.0 * math.hypot(runs[i].stderr, runs[j].stderr)
            worst = max(worst, gap / bound)
            ok = ok and gap <= bound
    return ok, f"max pairwise gap = {worst:.2f} x its 4-sigma bound"


def _bitwise_determinism() -> tuple[bool, str]:
    a = mc.run_theorem1_mc(200_000, 99)
    b = mc.run_theorem1_mc(200_000, 99)
    tr1 = mc.simulate_serial(SerialTwoModel(Exponential(1.0), 0.3), 150_000, 7)
    tr2 = mc.simulate_serial(SerialTwoModel(Exponential(1.0), 0.3), 150_000, 7)
    same = (a == b and np.array_equal(tr1.total_a, tr2.total_a)
            and np.array_equal(tr1.total_b, tr2.total_b)
            and np.array_equal(tr1.order_b_first, tr2.order_b_first))
    return same, ("identical seeds reproduce identical outputs" if same
                  else "outputs differ between identical runs")


def _cdf_z(draws: np.ndarray, taus: np.ndarray, cdf: np.ndarray) -> float:
    """max over ``taus`` of |empirical - ``cdf``| / (3 sigma) for ``draws``."""
    emp = np.array([np.mean(draws <= tau) for tau in taus])
    sigma = np.sqrt(np.maximum(cdf * (1 - cdf), 1e-12) / draws.size)
    return float(np.max(np.abs(emp - cdf) / (3.0 * sigma)))


def _serial_marginal_matches_analytic() -> tuple[bool, str]:
    worst = 0.0
    for dist in (Weibull(1.7, 2.0), Exponential(1.0), Uniform(2.0)):
        model = SerialTwoModel(dist, 0.35)
        trials = mc.simulate_serial(model, 1_000_000, 1234)
        taus = dist.quantile(np.linspace(0.08, 0.95, 10)) * 1.5
        worst = max(worst, _cdf_z(trials.total_a, taus,
                                  marginal_completion_cdf(model, "a", taus)))
    return worst <= 1.0, (f"max |emp - analytic| = {worst:.2f} x its 3-sigma "
                          "bound over 3 families x 10 points")


def _parallel_total_covariance_zero() -> tuple[bool, str]:
    trials = mc.simulate_parallel(ParallelTwoModel(Exponential(1.0)), 1_000_000, 77)
    cov = float(np.cov(trials.total_a, trials.total_b, ddof=1)[0, 1])
    # independent exponentials: Var(cov_hat) ~ Var(a) Var(b) / n
    sigma = 1.0 / math.sqrt(len(trials))
    ok = abs(cov) <= 3.0 * sigma
    return ok, f"cov = {cov:.2e} (3 sigma = {3 * sigma:.2e})"


def _fixed_order_cov_equals_stage_variance() -> tuple[bool, str]:
    worst = 0.0
    for dist in (Weibull(1.4, 1.5), Exponential(1.0), Uniform(1.0)):
        res = fixed_order_covariance(dist, 1_000_000, 4242)
        sigma = res.var_t1_estimate / math.sqrt(res.n_trials)
        worst = max(worst, abs(res.cov_estimate - res.var_t1_estimate) / (3 * sigma))
    return worst <= 1.0, f"max |cov - var| = {worst:.2f} x its 3-sigma bound"


def _convolution_matches_simulation() -> tuple[bool, str]:
    worst = 0.0
    for dist in (Weibull(0.7, 1.0), Exponential(2.0), Uniform(1.5)):
        sums = np.add(*mc.sample_iid(dist, 1_000_000, 2, 55).T)  # z1 + z2
        taus = 2.0 * dist.quantile(np.linspace(0.1, 0.9, 10))
        worst = max(worst, _cdf_z(sums, taus, convolve_cdf(dist, taus)))
    return worst <= 1.0, f"max |emp - conv| = {worst:.2f} x its 3-sigma bound"


# ---------------------------------------------------------------- recall

def _order_probabilities_normalize() -> tuple[bool, str]:
    rng = np.random.default_rng(_VERIFY_SEED + 9)
    worst = 0.0
    for n in range(1, 7):
        rates = tuple(float(r) for r in rng.uniform(0.2, 3.0, n))
        model = recall.RecallModel(rates)
        total = sum(recall.vu_order_probability(model, p)
                    for p in permutations(range(n)))
        worst = max(worst, abs(total - 1.0))
    return worst <= 1e-12, f"max |sum - 1| = {worst:.3e}"


def _serial_parallel_equivalence() -> tuple[bool, str]:
    # Each sampler against the exact law, so that an error both share shows
    # too.  Given the order, stage j lasts Exp(R_j), R_j the sum of the rates
    # not yet recalled, so u = 1 - exp(-R_j t_j) is Uniform(0, 1).
    rng = np.random.default_rng(_VERIFY_SEED + 10)
    n_trials = 100_000
    z = []
    for n in (2, 3, 4):
        model = recall.RecallModel(tuple(rng.uniform(0.5, 2.5, n)))
        rates = np.array(model.rates)
        perms = np.array(list(permutations(range(n))))
        expected = n_trials * np.array([recall.vu_order_probability(model, p)
                                        for p in perms])
        place = n ** np.arange(n)  # an order is the base-n number of its items
        for trials in (recall.sample_vu_serial(model, n_trials, 2024),
                       recall.sample_parallel_expo(model, n_trials, 4048)):
            counts = np.bincount(trials.orders @ place, minlength=n ** n)
            z.append((counts[perms @ place] - expected)
                     / np.sqrt(expected * (1.0 - expected / n_trials)))
            remaining = np.cumsum(rates[trials.orders][:, ::-1], axis=1)[:, ::-1]
            u = -np.expm1(-remaining * trials.icts)
            # u < 0 (a negative duration) falls in the first decile, nan in the last
            deciles = np.searchsorted(np.arange(1, 10) / 10, u, side="right")
            z.extend((np.bincount(d, minlength=10) - n_trials / 10)
                     / math.sqrt(0.09 * n_trials) for d in deciles.T)
    worst = float(np.max(np.abs(np.concatenate(z))))
    return worst <= 4.0, (f"max |z| = {worst:.2f} over the order counts and "
                          "per-stage deciles of both samplers against the "
                          "exact law (bound 4 sigma)")


def _equal_rate_density_reduction() -> tuple[bool, str]:
    worst = 0.0
    u = 1.3
    for n in (2, 3, 5):
        model = recall.RecallModel((u,) * n)
        rng = np.random.default_rng(_VERIFY_SEED + n)
        for _ in range(20):
            icts = rng.uniform(0.01, 2.0, n)
            order = tuple(rng.permutation(n))
            got = recall.vu_ict_density(model, order, icts)
            expected = 1.0
            for j, t in enumerate(icts, start=1):
                rate = (n - j + 1) * u
                expected *= rate * math.exp(-rate * t)
            worst = max(worst, abs(got - expected) / max(expected, 1e-300))
    return worst <= 1e-12, f"max rel err = {worst:.3e}"


def _stage_means_match_remaining_rate() -> tuple[bool, str]:
    n, u = 5, 0.8
    model = recall.RecallModel((u,) * n)
    trials = recall.sample_vu_serial(model, 200_000, 31415)
    worst = 0.0
    for j in range(1, n + 1):
        observed = float(trials.icts[:, j - 1].mean())
        expected = recall.rw_mean_ict(n, u, j, "mcgill")
        sigma = expected / math.sqrt(len(trials))  # exponential: sd = mean
        worst = max(worst, abs(observed - expected) / (3 * sigma))
    return worst <= 1.0, (f"max |mean gap| = {worst:.2f} x its 3-sigma bound "
                          "(mcgill convention)")


def _weibull_mle_recovery() -> tuple[bool, str]:
    dist = Weibull(0.7, 2.0)
    data = mc.sample_iid(dist, 10_000, 1, 321)[:, 0]
    fit = recall.weibull_mle(data)
    ok = fit.converged and 0.68 <= fit.k_hat <= 0.72 and 1.96 <= fit.u_hat <= 2.04
    # gradient check in log-parameters against the local curvature scale
    h = 1e-4
    def ll(lk, lu):
        return recall.loglik_weibull(data, math.exp(lk), math.exp(lu))
    lk, lu = math.log(fit.k_hat), math.log(fit.u_hat)
    gk = (ll(lk + h, lu) - ll(lk - h, lu)) / (2 * h)
    gu = (ll(lk, lu + h) - ll(lk, lu - h)) / (2 * h)
    hkk = (ll(lk + h, lu) - 2 * ll(lk, lu) + ll(lk - h, lu)) / h ** 2
    huu = (ll(lk, lu + h) - 2 * ll(lk, lu) + ll(lk, lu - h)) / h ** 2
    rel = max(abs(gk) / abs(hkk), abs(gu) / abs(huu))
    ok = ok and rel < 1e-4
    return ok, (f"k_hat={fit.k_hat:.4f}, u_hat={fit.u_hat:.4f}, "
                f"gradient/curvature = {rel:.2e}")


#: Each suite's checks in report order.  The table is all that names a
#: check: its line reads ``<suite>/<function name less the leading _>``.
_SUITES: dict[str, list[Callable[[], tuple[bool, str]]]] = {
    "analysis": [_quotient_vs_factored_agreement, _single_order_nonnegative,
                 _convolution_closed_forms, _convolution_ordering,
                 _parallel_difference_zero, _gap_expr4_sign_consistency,
                 _stage_gap_hazard_ratio_threshold,
                 _conditional_survival_monotone_in_Ta, _uniform_three_regimes],
    "mc": [_order_constrained_sign_fraction, _sign_fraction_seed_stability,
           _bitwise_determinism, _serial_marginal_matches_analytic,
           _parallel_total_covariance_zero,
           _fixed_order_cov_equals_stage_variance,
           _convolution_matches_simulation],
    "recall": [_order_probabilities_normalize, _serial_parallel_equivalence,
               _equal_rate_density_reduction,
               _stage_means_match_remaining_rate, _weibull_mle_recovery],
}


def run_suite(name: str) -> list[CheckResult]:
    """Run one suite ('analysis', 'mc', 'recall') or 'all'.  A check that
    raises an :class:`ArchlabError` fails, and the others still run."""
    if name != "all" and name not in _SUITES:
        raise ValueError(f"unknown suite {name!r} "
                         f"(expected all, {', '.join(_SUITES)})")
    results = []
    for suite in _SUITES if name == "all" else [name]:
        for check in _SUITES[suite]:
            try:
                passed, detail = check()
            except ArchlabError as exc:
                passed, detail = False, f"raised {type(exc).__name__}: {exc}"
            results.append(CheckResult(suite, check.__name__[1:], passed, detail))
    return results
