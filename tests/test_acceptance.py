"""Acceptance checklist.

One test per criterion (the Weibull grid-sign criterion is split into its
clauses so each sign pattern reports separately); every test prints a
single PASS/FAIL line with the measured values before asserting.

Criteria 04b and 04c keep the names under which they were first stated:
the p = 1/2 sign kernel ``expression3`` non-positive on the Weibull k = 0.2
grid, and taking both signs on the k = 2 grid.  Neither can hold for the
functional this package documents.  The kernel depends only on s = u*tau;
as s -> 0 it tends to 1 - Gamma(2k+1)/(4 Gamma(k+1)^2), which is +0.737
for k = 0.2 and -1/2 for k = 2, and for k = 2 its tail is
e^(-s^2)(1 - pi s^2/8) < 0.  A 50-digit mpmath quadrature confirms it:
for k = 0.2 the kernel falls strictly from 0.5731 to 0.1088 across the
grid, and for k = 2 it is strictly negative and rises towards 0.  The two
tests now assert that sign pattern, and anchor the four grid corners of
each surface to frozen mpmath values (``WEIBULL_CORNER_ORACLE``).
"""

import math
import time
from itertools import permutations

import numpy as np
from scipy import stats

from archlab import mc, recall
from archlab.distributions import Exponential, Uniform, Weibull
from archlab.numerics import SIGN_TOL, convolve_cdf
from archlab.parallel import (ParallelTwoModel, classify_stage_trend,
                              conditional_ict_survival, stage_survival_gap)
from archlab.serial import (SerialTwoModel, dependence_difference,
                            expression3, fixed_order_covariance)

#: Runtime budget for one 100 x 100 Weibull sign grid.
GRID_BUDGET_S = 60.0

#: A grid corner may differ from its mpmath value by this much.  The most
#: sensitive corner is k = 2 at (u, tau) = (10, 0.01), where
#: d expression3 / d conv ~ 9e4 amplifies any convolution error; with the
#: tanh-sinh kernel the worst corner gap measures 5.0e-16.
ORACLE_TOL = 1e-7

#: On the k = 2 grid every cell with u*tau at most this is below -SIGN_TOL
#: (the worst such cell is about -6.1e-7); beyond it cells underflow to 0.
K2_STRICT_S = 4.0

# expression3 at the four corners (u, tau) of the grid, rounded to the
# nearest double.  Recipe (mpmath, 50 digits, u and tau taken as mpf(float)):
#   F(x) = -expm1(-(u max(x, 0))^k), f = F', conv = int_0^tau f(x) F(tau - x) dx,
#   expression3 = 1 - F - (sqrt(conv) - F/sqrt(conv))^2 / 4;
#   k < 1: substitute y = (u x)^k, conv = int_0^{(u tau)^k} e^-y
#          F(tau - y^(1/k)/u) dy, split at half the upper limit;
#   k >= 1: the direct form split at tau/2.
# A direct form split at tau * 2^-j, j = 1..120, agrees with the k < 1
# substitution to 2e-18, and the substitution with the k = 2 direct form
# to 3e-55.  At (10, 5) for k = 2 the true value is about
# -(pi 2500/8) e^-2500, which rounds to 0; a computed cell there must lie
# in [-SIGN_TOL, 0].
WEIBULL_CORNER_ORACLE = {
    0.2: {(0.5, 0.01): 0.57309298053166964,
          (0.5, 5.0): 0.2758856176135151,
          (10.0, 0.01): 0.45527119319144887,
          (10.0, 5.0): 0.10877756202923875},
    2.0: {(0.5, 0.01): -0.4999900001046123,
          (0.5, 5.0): -0.0034297421969465803,
          (10.0, 0.01): -0.49601668755623309,
          (10.0, 5.0): 0.0},
}


def report(num: str, name: str, passed: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num} {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    return passed


def weibull_grid_axes(steps: int = 100) -> tuple[np.ndarray, np.ndarray]:
    return np.linspace(0.5, 10.0, steps), np.linspace(0.01, 5.0, steps)


def weibull_sign_grid(k: float, steps: int = 100) -> np.ndarray:
    us, taus = weibull_grid_axes(steps)
    values = np.empty((steps, steps))
    for i, u in enumerate(us):  # one u-row at a time, as `figure` does
        dist = Weibull(k, float(u))
        values[i] = expression3(dist.cdf(taus), convolve_cdf(dist, taus))
    return values


def grid_point(values: np.ndarray, flat_index: int) -> tuple[float, float]:
    """The (u, tau) of one cell of a ``weibull_sign_grid`` result."""
    us, taus = weibull_grid_axes(values.shape[0])
    i, j = np.unravel_index(flat_index, values.shape)
    return float(us[i]), float(taus[j])


def corner_oracle_failures(k: float, values: np.ndarray) -> tuple[list[str], float]:
    """Corners that miss their frozen mpmath value, and the worst gap."""
    us, taus = weibull_grid_axes(values.shape[0])
    failures = []
    worst = 0.0
    for (u, tau), ref in WEIBULL_CORNER_ORACLE[k].items():
        got = float(values[us == u, taus == tau][0])
        worst = max(worst, abs(got - ref))
        if ref == 0.0:  # underflowed: only the sign can be checked
            ok = -SIGN_TOL <= got <= 0.0
            want = f"in [{-SIGN_TOL:g}, 0]"
        else:
            ok = abs(got - ref) <= ORACLE_TOL
            want = f"{ref!r} +- {ORACLE_TOL:g}"
        if not ok:
            failures.append(f"oracle anchor: (u, tau)=({u}, {tau}) "
                            f"measures {got!r}, expected {want}")
    return failures, worst


def budget_failures(elapsed: float) -> list[str]:
    if elapsed < GRID_BUDGET_S:
        return []
    return [f"time budget: grid took {elapsed:.1f}s, "
            f"expected < {GRID_BUDGET_S:g}s"]


def test_criterion_01_theorem1_monte_carlo():
    start = time.perf_counter()
    res = mc.run_theorem1_mc(1_000_000, mc.DEFAULT_SEED)
    elapsed = time.perf_counter() - start
    runs = [mc.run_theorem1_mc(1_000_000, s) for s in (11, 23, 37, 41, 53)]
    stable = all(
        abs(a.fraction_positive - b.fraction_positive)
        <= 4.0 * math.hypot(a.stderr, b.stderr)
        for i, a in enumerate(runs) for b in runs[i + 1:])
    ok = (abs(res.fraction_positive - 0.62) <= 0.01 and elapsed < 10.0
          and stable)
    assert report("01", "sign-fraction-monte-carlo", ok,
                  f"fraction={res.fraction_positive:.5f} target 0.62+-0.01, "
                  f"runtime={elapsed:.2f}s < 10s, 5-seed stable={stable}")


def test_criterion_02_exponential_positivity():
    worst_diff = math.inf
    worst_gap = 0.0
    for u in (0.5, 1.0, 5.0):
        dist = Exponential(u)
        model = SerialTwoModel(dist, 0.5)
        taus = dist.quantile(np.linspace(0.01, 0.999, 100))
        for tau in np.asarray(taus):
            worst_diff = min(worst_diff, dependence_difference(model, float(tau)))
            closed = convolve_cdf(dist, float(tau))
            numeric = convolve_cdf(Weibull(1.0, u), float(tau))  # quadrature
            worst_gap = max(worst_gap, abs(closed - numeric))
    ok = worst_diff > 0.0 and worst_gap <= 1e-7
    assert report("02", "exponential-strict-positivity", ok,
                  f"min difference={worst_diff:.3e} > 0, "
                  f"max |closed-numeric|={worst_gap:.2e} <= 1e-7")


def test_criterion_03_uniform_regimes():
    checks = []
    for v in (1.0, 2.0):
        model = SerialTwoModel(Uniform(v), 0.5)
        at_half = dependence_difference(model, v / 2.0)
        at_56 = dependence_difference(model, 5.0 * v / 6.0)
        checks.append(abs(at_half - 0.0875) <= 1e-9 and at_half > 0)
        checks.append(abs(at_56 - (-10.0 / 4896.0)) <= 1e-9 and at_56 < 0)
        mid = max(dependence_difference(model, float(t))
                  for t in np.linspace(v, 2.0 * v - 1e-9, 50))
        checks.append(mid <= 1e-9)
        beyond = max(abs(dependence_difference(model, float(t)))
                     for t in np.linspace(2.0 * v, 4.0 * v, 20))
        checks.append(beyond <= 1e-9)
    ok = all(checks)
    assert report("03", "uniform-three-regimes", ok,
                  f"diff(v/2)=0.0875 and diff(5v/6)=-10/4896 reproduced, "
                  f"mid-regime <= 1e-9, beyond-2v <= 1e-9: {checks}")


def test_criterion_04a_weibull_grids_k05_k15_nonnegative():
    details = []
    ok = True
    for k in (0.5, 1.5):
        start = time.perf_counter()
        values = weibull_sign_grid(k)
        elapsed = time.perf_counter() - start
        vmin = float(values.min())
        ok = ok and vmin >= -1e-9 and elapsed < 60.0
        details.append(f"k={k}: min={vmin:.3e}, {elapsed:.1f}s")
    assert report("04a", "weibull-grid-nonnegative", ok, "; ".join(details))


def test_criterion_04b_weibull_grid_k02_nonpositive():
    """k = 0.2 sign grid: strictly positive, decreasing in s = u*tau.

    Stated first as "non-positive on the grid", which cannot hold: the
    small-s limit 1 - Gamma(1.4)/(4 Gamma(1.2)^2) = +0.737 and mpmath
    gives +0.1088 at s = 50, the largest grid value of s.  Asserted now:
    every cell exceeds SIGN_TOL, the grid minimum sits at the corner
    (u, tau) = (10, 5) and the maximum at (0.5, 0.01), the four corners
    match their frozen mpmath values, and the grid fits its time budget.
    """
    start = time.perf_counter()
    values = weibull_sign_grid(0.2)
    elapsed = time.perf_counter() - start
    vmin, vmax = float(values.min()), float(values.max())
    at_min = grid_point(values, int(values.argmin()))
    at_max = grid_point(values, int(values.argmax()))
    failures = []
    if not (vmin > SIGN_TOL and at_min == (10.0, 5.0)
            and at_max == (0.5, 0.01)):
        failures.append(
            f"sign pattern: expected every cell > {SIGN_TOL:g}, min at "
            f"(u, tau)=(10.0, 5.0) and max at (0.5, 0.01); measured "
            f"min={vmin:.4e} at {at_min}, max={vmax:.4f} at {at_max}")
    anchor_failures, worst = corner_oracle_failures(0.2, values)
    failures += anchor_failures + budget_failures(elapsed)
    report("04b", "weibull-grid-k0.2-positive", not failures,
           f"min={vmin:.4f} at {at_min}, max={vmax:.4f} at {at_max}, "
           f"worst corner |err|={worst:.1e}, {elapsed:.1f}s")
    assert not failures, "; ".join(failures)


def test_criterion_04c_weibull_grid_k2_both_signs():
    """k = 2 sign grid: non-positive, strictly negative for u*tau <= 4.

    Stated first as "takes both signs", which cannot hold: the small-s
    limit is 1 - Gamma(5)/(4 Gamma(3)^2) = -1/2 and the tail is
    e^(-s^2)(1 - pi s^2/8) < 0, so no cell is positive; mpmath gives
    -5.96e-7 at s = 4 and -1.2e-10 at s = 5, and cells further out
    underflow to 0.  Asserted now: every cell is at most SIGN_TOL, every
    cell with u*tau <= K2_STRICT_S is below -SIGN_TOL, the minimum is
    at least the limit -1/2, the four corners match their frozen mpmath
    values, and the grid fits its time budget.
    """
    start = time.perf_counter()
    values = weibull_sign_grid(2.0)
    elapsed = time.perf_counter() - start
    vmin, vmax = float(values.min()), float(values.max())
    us, taus = weibull_grid_axes(values.shape[0])
    near_max = float(values[np.outer(us, taus) <= K2_STRICT_S].max())
    failures = []
    if not (vmax <= SIGN_TOL and near_max < -SIGN_TOL and vmin >= -0.5):
        failures.append(
            f"sign pattern: expected every cell <= {SIGN_TOL:g}, every "
            f"cell with u*tau <= {K2_STRICT_S:g} < {-SIGN_TOL:g} and "
            f"min >= -0.5; measured max={vmax:.3e}, max over "
            f"u*tau <= {K2_STRICT_S:g} is {near_max:.3e}, min={vmin!r}")
    anchor_failures, worst = corner_oracle_failures(2.0, values)
    failures += anchor_failures + budget_failures(elapsed)
    report("04c", "weibull-grid-k2-nonpositive", not failures,
           f"min={vmin:.4f}, max={vmax:.3e}, max over "
           f"u*tau <= {K2_STRICT_S:g}={near_max:.3e}, "
           f"worst corner |err|={worst:.1e}, {elapsed:.1f}s")
    assert not failures, "; ".join(failures)


def test_criterion_05_parallel_independence():
    rng = np.random.default_rng(2025)
    worst = 0.0
    for _ in range(500):
        fam = rng.integers(0, 3)
        if fam == 0:
            dist = Weibull(k=float(rng.uniform(0.2, 4.0)),
                           u=float(rng.uniform(0.3, 5.0)))
        elif fam == 1:
            dist = Exponential(u=float(rng.uniform(0.3, 5.0)))
        else:
            dist = Uniform(v=float(rng.uniform(0.3, 5.0)))
        tau = float(dist.quantile(float(rng.uniform(0.01, 0.999))))
        if float(dist.cdf(tau)) <= 0.0:
            continue
        from archlab.parallel import parallel_dependence_difference
        worst = max(worst, abs(parallel_dependence_difference(
            ParallelTwoModel(dist), tau)))
    trials = mc.simulate_parallel(ParallelTwoModel(Exponential(1.0)),
                                  1_000_000, 314159)
    cov = float(np.cov(trials.total_a, trials.total_b, ddof=1)[0, 1])
    sigma = 1.0 / math.sqrt(len(trials))  # Var(cov_hat) ~ Var_a Var_b / n
    ok = worst <= 1e-12 and abs(cov) <= 3.0 * sigma
    assert report("05", "parallel-independence", ok,
                  f"max |difference|={worst:.2e} <= 1e-12, "
                  f"cov={cov:.2e} within 3 sigma={3 * sigma:.2e}")


def test_criterion_06_fixed_order_covariance():
    details = []
    ok = True
    for dist in (Weibull(1.4, 1.5), Exponential(1.0), Uniform(1.0)):
        res = fixed_order_covariance(dist, 1_000_000, 4242)
        sigma = res.var_t1_estimate / math.sqrt(res.n_trials)
        good = abs(res.cov_estimate - res.var_t1_estimate) <= 3.0 * sigma
        ok = ok and good
        details.append(f"{type(dist).__name__}: cov={res.cov_estimate:.5f} "
                       f"var={res.var_t1_estimate:.5f}")
    assert report("06", "fixed-order-cov-equals-variance", ok, "; ".join(details))


def test_criterion_07_stage_survival_classification():
    # exponential: gap < 0 on a positive-t grid with expr4 = -u t exactly
    model = ParallelTwoModel(Exponential(1.0))
    exp_ok = True
    for t in np.arange(0.125, 8.0, 0.125):
        for ta in np.arange(0.0, 8.0, 0.5):
            res = stage_survival_gap(model, float(t), float(ta))
            exp_ok = exp_ok and res.gap < 0.0 and res.expr4 == -float(t)

    region10 = (np.linspace(0.0, 10.0, 40),) * 2
    region1 = (np.linspace(0.0, 1.0, 40),) * 2
    slow = [classify_stage_trend(ParallelTwoModel(Weibull(k, 1.0)), *region10).trend
            for k in (0.5, 1.0)]
    mixed_results = [
        classify_stage_trend(ParallelTwoModel(Weibull(2.0, 1.0)), *region10),
        classify_stage_trend(ParallelTwoModel(Weibull(4.0, 1.0)), *region10),
        classify_stage_trend(ParallelTwoModel(Uniform(2.0)), *region1),
    ]
    mixed_ok = all(r.trend == "mixed" and r.positive_witness is not None
                   and r.negative_witness is not None for r in mixed_results)

    sign_ok = True
    for dist, hi in ((Weibull(2.0, 1.0), 10.0), (Weibull(4.0, 1.0), 10.0),
                     (Uniform(2.0), 1.0)):
        m = ParallelTwoModel(dist)
        for t in np.linspace(0.0, hi, 30):
            for ta in np.linspace(0.0, hi, 30):
                res = stage_survival_gap(m, float(t), float(ta))
                if not math.isfinite(res.expr4):
                    sign_ok = sign_ok and res.gap > 0.0
                    continue
                if res.gap * res.expr4 < 0.0:
                    sign_ok = False
                if abs(res.gap) > 1e-9 and abs(res.expr4) > 1e-9:
                    sign_ok = sign_ok and (math.copysign(1.0, res.gap)
                                           == math.copysign(1.0, res.expr4))
    ok = exp_ok and slow == ["second_stage_slower"] * 2 and mixed_ok and sign_ok
    assert report("07", "stage-survival-classification", ok,
                  f"exp strict-negative+exact expr4={exp_ok}, k<=1 slower={slow}, "
                  f"mixed with witnesses={mixed_ok}, sign consistency={sign_ok}")


def test_criterion_08_conditional_survival_monotonicity():
    ok = True
    details = []
    for k in (0.3, 0.5, 0.8):
        model = ParallelTwoModel(Weibull(k, 1.0))
        worst = 0.0
        for t in (0.3, 1.0, 2.5):
            vals = [conditional_ict_survival(model, float(ta), t)
                    for ta in np.linspace(0.0, 4.0, 50)]
            worst = min(worst, float(np.min(np.diff(vals))))
        ok = ok and worst >= -1e-12
        details.append(f"k={k}: min increment {worst:.1e}")
    model = ParallelTwoModel(Exponential(1.0))
    spread = max(
        float(np.ptp([conditional_ict_survival(model, float(ta), t)
                      for ta in np.linspace(0.0, 5.0, 50)]))
        for t in (0.4, 1.0))
    ok = ok and spread <= 1e-12
    details.append(f"exp spread {spread:.1e}")
    assert report("08", "conditional-survival-monotone", ok, "; ".join(details))


def test_criterion_09_recall_equivalence():
    rng = np.random.default_rng(909)
    min_p = 1.0
    for n in (2, 3, 4):
        model = recall.RecallModel(tuple(rng.uniform(0.5, 2.5, n)))
        a = recall.sample_vu_serial(model, 100_000, 7000 + n)
        b = recall.sample_parallel_expo(model, 100_000, 8000 + n)
        perms = list(permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        counts = np.zeros((2, len(perms)))
        for row, trials in enumerate((a, b)):
            for order in map(tuple, trials.orders):
                counts[row, index[order]] += 1
        min_p = min(min_p, float(stats.chi2_contingency(counts).pvalue))
        for j in range(n):
            min_p = min(min_p, float(stats.ks_2samp(a.icts[:, j],
                                                    b.icts[:, j]).pvalue))
    n_eq, u = 5, 0.8
    eq_model = recall.RecallModel((u,) * n_eq)
    trials = recall.sample_vu_serial(eq_model, 200_000, 31415)
    means_ok = True
    for j in range(1, n_eq + 1):
        observed = float(trials.icts[:, j - 1].mean())
        expected = recall.rw_mean_ict(n_eq, u, j, "mcgill")
        sigma = expected / math.sqrt(len(trials))
        means_ok = means_ok and abs(observed - expected) <= 3.0 * sigma
    ok = min_p >= 0.001 and means_ok
    assert report("09", "recall-equivalence", ok,
                  f"min p-value={min_p:.4f} >= 0.001, "
                  f"equal-rate stage means within 3 sigma={means_ok}")


def test_criterion_10_mle_recovery():
    data = mc.sample_iid(Weibull(0.7, 2.0), 10_000, 1, 321)[:, 0]
    fit = recall.weibull_mle(data)
    recovery = (fit.converged and 0.68 <= fit.k_hat <= 0.72
                and 1.96 <= fit.u_hat <= 2.04)

    # round trip: simulate the matching parallel model with unit-rate
    # exponential channels, fit the recorded totals, expect shape ~ 1
    trials = mc.simulate_parallel(ParallelTwoModel(Exponential(1.0)),
                                  10_000, 654)
    totals = np.concatenate([trials.total_a, trials.total_b])
    round_fit = recall.weibull_mle(totals)
    h = 1e-5

    def ll(k):
        return recall.loglik_weibull(totals, k, round_fit.u_hat)

    curv = (ll(round_fit.k_hat + h) - 2 * ll(round_fit.k_hat)
            + ll(round_fit.k_hat - h)) / h ** 2
    se = math.sqrt(-1.0 / curv)
    round_ok = abs(round_fit.k_hat - 1.0) <= 3.0 * se
    ok = recovery and round_ok
    assert report("10", "weibull-mle-recovery", ok,
                  f"k_hat={fit.k_hat:.4f} in [0.68,0.72], "
                  f"u_hat={fit.u_hat:.4f} in [1.96,2.04], "
                  f"round-trip k_hat={round_fit.k_hat:.4f} "
                  f"within 3 x {se:.4f} of 1")
