import io
import math

import numpy as np
import pytest

from archlab import mc, serial
from archlab.distributions import Exponential, Uniform, Weibull
from archlab.errors import (ConditioningError, ConsistencyError, DomainError,
                            OrderingViolationError)
from archlab.numerics import convolve_cdf
from archlab.serial import (SerialTwoModel, analytic_stage_variance,
                            dependence_difference, dependence_profile,
                            expression3, fixed_order_covariance,
                            marginal_completion_cdf)


def exp_difference(u, p, tau):
    """Closed-form oracle: R' e^{-u tau} [1 - e^{-u tau} - u tau e^{-u tau}
    - p (1-p) u^2 tau^2 e^{-u tau}]."""
    e = math.exp(-u * tau)
    f_val = 1.0 - e
    conv = 1.0 - e - u * tau * e
    r_prime = 1.0 / (p * f_val + (1.0 - p) * conv)
    return r_prime * e * (1.0 - e - u * tau * e - p * (1.0 - p)
                          * (u * tau) ** 2 * e)


class TestMarginals:
    def test_p_one_reduces_to_cdf(self):
        model = SerialTwoModel(Exponential(1.0), 1.0)
        for tau in (0.2, 1.0, 3.0):
            assert marginal_completion_cdf(model, "a", tau) == pytest.approx(
                float(model.dist.cdf(tau)), abs=1e-15)

    def test_exponential_mixture_value(self):
        model = SerialTwoModel(Exponential(1.0), 0.5)
        f_val = 1.0 - math.exp(-1.0)
        conv = 1.0 - 2.0 * math.exp(-1.0)
        assert marginal_completion_cdf(model, "a", 1.0) == pytest.approx(
            0.5 * f_val + 0.5 * conv, abs=1e-12)

    def test_symmetry_at_half(self):
        model = SerialTwoModel(Weibull(1.5, 2.0), 0.5)
        for tau in np.linspace(0.05, 3.0, 12):
            a = marginal_completion_cdf(model, "a", float(tau))
            b = marginal_completion_cdf(model, "b", float(tau))
            assert a == pytest.approx(b, abs=1e-15)

    def test_which_validation(self):
        with pytest.raises(DomainError):
            marginal_completion_cdf(SerialTwoModel(Exponential(1.0), 0.5), "c", 1.0)

    def test_p_validation(self):
        with pytest.raises(DomainError):
            SerialTwoModel(Exponential(1.0), 1.5)


class TestDependenceDifference:
    def test_exponential_closed_form_oracle(self):
        for u in (0.5, 1.0, 5.0):
            model = SerialTwoModel(Exponential(u), 0.5)
            for tau in np.linspace(0.1, 4.0 / u, 15):
                got = dependence_difference(model, float(tau))
                assert got == pytest.approx(exp_difference(u, 0.5, float(tau)),
                                            abs=1e-10)

    def test_exponential_value_at_one(self):
        model = SerialTwoModel(Exponential(1.0), 0.5)
        assert dependence_difference(model, 1.0) == pytest.approx(0.1414051,
                                                                  abs=1e-6)
        # cross-checked against a 10^7-trial simulation oracle
        trials = mc.simulate_serial(model, 10 ** 7, 20240517)
        est = mc.empirical_dependence(trials, 1.0)
        assert abs(est.estimate - 0.1414051) <= 3.0 * est.stderr

    def test_disagreeing_routes_name_the_first_tau(self, monkeypatch):
        # a negative tolerance makes the two routes disagree everywhere
        monkeypatch.setattr(serial, "ROUTE_AGREEMENT_TOL", -1.0)
        model = SerialTwoModel(Exponential(1.0), 0.5)
        with pytest.raises(ConsistencyError,
                           match=r"dependence routes disagree at tau=0\.5: "):
            dependence_difference(model, np.array([0.5, 1.0]))

    def test_uniform_three_regimes(self):
        model = SerialTwoModel(Uniform(2.0), 0.5)
        # tau = v/2: exact rational 7/80 = 0.0875
        assert dependence_difference(model, 1.0) == pytest.approx(0.0875, abs=1e-12)
        # tau = 5v/6: exact rational -10/4896
        assert dependence_difference(model, 5.0 / 3.0) == pytest.approx(
            -10.0 / 4896.0, abs=1e-12)
        for v in (0.5, 1.0, 3.7):
            m = SerialTwoModel(Uniform(v), 0.5)
            assert dependence_difference(m, v / 2.0) == pytest.approx(0.0875, abs=1e-12)
        for tau in np.linspace(2.0, 3.5, 7):  # middle regime: nonpositive
            assert dependence_difference(model, float(tau)) <= 1e-12
        for p in (0.0, 0.3, 1.0):  # tau >= 2v: exactly zero for any p
            m = SerialTwoModel(Uniform(2.0), p)
            for tau in (4.0, 5.0, 9.0):
                assert abs(dependence_difference(m, tau)) <= 1e-12

    def test_null_conditioning_raises(self):
        model = SerialTwoModel(Uniform(1.0), 0.5)
        with pytest.raises(ConditioningError, match="null event"):
            dependence_difference(model, 0.0)

    def test_single_order_nonnegative_and_factored(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            dist = Weibull(k=float(rng.uniform(0.2, 3.0)),
                           u=float(rng.uniform(0.3, 4.0)))
            p = float(rng.integers(0, 2))
            model = SerialTwoModel(dist, p)
            tau = float(dist.quantile(float(rng.uniform(0.05, 0.999))))
            diff = dependence_difference(model, tau)
            assert diff >= -1e-9
            f_val = float(dist.cdf(tau))
            conv = convolve_cdf(dist, tau)
            marginal_a = p * f_val + (1 - p) * conv
            assert diff == pytest.approx((conv / marginal_a) * (1 - f_val),
                                         abs=1e-9)

    def test_vanishes_in_upper_tail(self):
        for dist in (Exponential(1.0), Weibull(2.0, 1.0), Uniform(1.0)):
            model = SerialTwoModel(dist, 0.4)
            tau = float(dist.quantile(1.0 - 1e-10)) * 2.0
            assert abs(dependence_difference(model, tau)) <= 1e-9

    def test_quotient_vs_factored_500_draws(self):
        rng = np.random.default_rng(500)
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
            p = float(rng.uniform(0.0, 1.0))
            tau = float(dist.quantile(float(rng.uniform(0.05, 0.99))))
            f_val = float(dist.cdf(tau))
            conv = convolve_cdf(dist, tau)
            marginal_a = p * f_val + (1 - p) * conv
            marginal_b = (1 - p) * f_val + p * conv
            if marginal_a <= 0 or conv <= 0:
                continue
            quotient = conv / marginal_a - marginal_b
            root = math.sqrt(conv)
            factored = (conv / marginal_a) * (
                1 - f_val - p * (1 - p) * (root - f_val / root) ** 2)
            worst = max(worst, abs(quotient - factored))
            assert dependence_difference(SerialTwoModel(dist, p), tau) == \
                pytest.approx(quotient, abs=1e-15)
        assert worst <= 1e-9

    def test_ordering_ratio_at_least_one(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            dist = Weibull(k=float(rng.uniform(0.2, 4.0)),
                           u=float(rng.uniform(0.3, 5.0)))
            tau = float(dist.quantile(float(rng.uniform(0.01, 0.999))))
            conv = convolve_cdf(dist, tau)
            if conv > 0:
                assert float(dist.cdf(tau)) / math.sqrt(conv) >= 1.0 - 1e-12


class TestExpression3:
    def test_boundary_and_values(self):
        assert expression3(1.0, 1.0) == 0.0
        assert expression3(0.63212, 0.26424) == pytest.approx(0.23984, abs=5e-6)
        assert expression3(1.0, 0.5) == pytest.approx(-0.125, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            expression3(0.5, 0.0)
        with pytest.raises(OrderingViolationError):
            expression3(0.3, 0.4)
        with pytest.raises(DomainError):
            expression3(1.2, 0.5)

    def test_sign_matches_difference_at_half(self):
        rng = np.random.default_rng(21)
        for _ in range(80):
            dist = Weibull(k=float(rng.uniform(0.2, 3.0)),
                           u=float(rng.uniform(0.3, 4.0)))
            tau = float(dist.quantile(float(rng.uniform(0.1, 0.99))))
            f_val = float(dist.cdf(tau))
            conv = convolve_cdf(dist, tau)
            if conv <= 0:
                continue
            kernel = expression3(f_val, conv)
            diff = dependence_difference(SerialTwoModel(dist, 0.5), tau)
            if abs(kernel) > 1e-9 and abs(diff) > 1e-12:
                assert math.copysign(1, kernel) == math.copysign(1, diff)


class TestProfile:
    def test_exponential_all_positive(self):
        dist = Exponential(1.0)
        model = SerialTwoModel(dist, 0.5)
        taus = dist.quantile(np.linspace(0.01, 0.999, 100))
        profile = dependence_profile(model, taus)
        assert all(s == "positive" for s in profile.signs())

    def test_weibull_k02_grid_strictly_positive(self):
        # This surface is strictly positive over u in [0.5, 10],
        # tau in [0.01, 5]: its minimum is ~ +0.109 at the largest u*tau
        # (frozen mpmath corner values in test_acceptance.py).
        for u in (0.5, 2.0, 10.0):
            m = SerialTwoModel(Weibull(0.2, u), 0.5)
            profile = dependence_profile(m, np.linspace(0.01, 5.0, 25))
            assert all(s == "positive" for s in profile.signs())
            assert profile.difference.min() > 0.01

    def test_weibull_k2_grid_never_positive(self):
        # The k = 2 surface is nonpositive on the same grid: the large-tau
        # tail obeys expr ~ e^{-s^2} (1 - pi s^2 / 8) < 0 with s = u tau.
        for u in (0.5, 2.0, 10.0):
            m = SerialTwoModel(Weibull(2.0, u), 0.5)
            profile = dependence_profile(m, np.linspace(0.01, 5.0, 25))
            assert all(s in ("negative", "zero") for s in profile.signs())
            assert any(s == "negative" for s in profile.signs())

    @pytest.mark.parametrize("dist", [Weibull(0.5, 1.0), Weibull(2.0, 1.0),
                                      Uniform(1.0)])
    def test_each_convolution_computed_once(self, dist, monkeypatch):
        import archlab.serial as serial_mod

        cells_per_call = []
        real = serial_mod.convolve_cdf

        def counting(d, tau, *args, **kwargs):
            cells_per_call.append(np.size(tau))
            return real(d, tau, *args, **kwargs)

        monkeypatch.setattr(serial_mod, "convolve_cdf", counting)
        taus = np.linspace(0.01, 3.0, 40)
        profile = dependence_profile(SerialTwoModel(dist, 0.5), taus)
        assert profile.tau.size == taus.size
        assert cells_per_call == [taus.size]

    def test_profile_matches_scalar_difference(self):
        model = SerialTwoModel(Weibull(1.5, 2.0), 0.3)
        taus = np.linspace(0.05, 3.0, 30)
        profile = dependence_profile(model, taus)
        for tau, diff in zip(profile.tau, profile.difference):
            # numpy may round F(tau) an ulp differently for arrays
            assert diff == pytest.approx(
                dependence_difference(model, float(tau)), abs=1e-15)

    def test_r_and_r_prime_exposed(self):
        model = SerialTwoModel(Exponential(1.0), 0.5)
        profile = dependence_profile(model, [1.0])
        assert profile.r[0] == profile.conv[0] / profile.marginal_a[0]

    def test_csv_columns(self):
        model = SerialTwoModel(Uniform(1.0), 0.5)
        profile = dependence_profile(model, [0.25, 0.5, 2.5])
        buf = io.StringIO()
        profile.to_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "tau,F,conv,marginal_a,marginal_b,R,difference,sign"
        assert lines[1].endswith(",positive")
        assert lines[3].endswith(",zero")
        assert len(lines) == 4


class TestFixedOrderCovariance:
    def test_exponential(self):
        res = fixed_order_covariance(Exponential(1.0), 1_000_000, 2024)
        sigma = res.var_t1_estimate / math.sqrt(res.n_trials)
        assert abs(res.cov_estimate - res.var_t1_estimate) <= 3.0 * sigma
        assert res.analytic_var == 1.0
        assert res.cov_estimate == pytest.approx(1.0, abs=0.02)

    def test_uniform(self):
        res = fixed_order_covariance(Uniform(1.0), 1_000_000, 11)
        assert res.analytic_var == pytest.approx(1.0 / 12.0)
        assert res.cov_estimate == pytest.approx(1.0 / 12.0, abs=5e-4)
        sigma = res.var_t1_estimate / math.sqrt(res.n_trials)
        assert abs(res.cov_estimate - res.var_t1_estimate) <= 3.0 * sigma

    def test_weibull_analytic_variance(self):
        from scipy.special import gamma
        res = fixed_order_covariance(Weibull(2.0, 1.0), 200_000, 5)
        expected = gamma(2.0) - gamma(1.5) ** 2
        assert res.analytic_var == pytest.approx(expected, rel=1e-12)
        assert res.cov_estimate == pytest.approx(expected, abs=0.005)

    # Var(z) for the verify and test Weibull shapes (and one k < 1) against
    # 50-digit mpmath values (mpmath.gamma, dps 50) and against the
    # scipy.special.gamma route it replaced.  The two gamma routes differ by
    # at most an ulp, but g2 - g1^2 cancels (about 4.7x at k = 2), so they
    # agree to 2e-15, not 1e-15; both are within 7e-16 of the exact value.
    @pytest.mark.parametrize("k, u, exact", [
        (1.4, 1.5, 0.19339155645336909473),
        (2.0, 1.0, 0.21460183660255169038),
        (0.7, 1.0, 3.426835553653154048),
    ])
    def test_weibull_variance_math_gamma(self, k, u, exact):
        from scipy.special import gamma
        var = analytic_stage_variance(Weibull(k, u))
        assert var == pytest.approx(exact, rel=1e-15, abs=0.0)
        scipy_var = (gamma(1.0 + 2.0 / k) - gamma(1.0 + 1.0 / k) ** 2) / u ** 2
        assert var == pytest.approx(scipy_var, rel=2e-15, abs=0.0)

    def test_needs_two_trials(self):
        with pytest.raises(DomainError):
            fixed_order_covariance(Exponential(1.0), 1, 0)

    def test_degenerate_point_mass_extension(self):
        from archlab.distributions import ProcessingTimeDistribution

        class PointMass(ProcessingTimeDistribution):
            """All mass at a single time c (extension-point edge case)."""

            def __init__(self, c):
                self.c = c

            def pdf(self, t):
                raise NotImplementedError

            def cdf(self, t):
                t = np.asarray(t, dtype=float)
                return (t >= self.c).astype(float)

            def quantile(self, q):
                return np.full_like(np.asarray(q, dtype=float), self.c)

        res = fixed_order_covariance(PointMass(0.7), 10_000, 3)
        assert res.cov_estimate == pytest.approx(0.0, abs=1e-25)
        assert res.var_t1_estimate == pytest.approx(0.0, abs=1e-25)
        assert res.analytic_var is None
