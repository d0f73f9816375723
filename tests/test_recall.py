import io
import math
from itertools import permutations

import numpy as np
import pytest
from scipy import integrate as scipy_integrate
from scipy import stats
from scipy.special import logsumexp as scipy_logsumexp

from archlab import mc, recall, verify
from archlab.distributions import Exponential, Weibull
from archlab.errors import DegenerateDataError, DomainError
from archlab.numerics import write_table


class TestOrderProbability:
    def test_two_item_example(self):
        model = recall.RecallModel((2.0, 1.0))
        assert recall.vu_order_probability(model, (0, 1)) == pytest.approx(2.0 / 3.0)
        assert recall.vu_order_probability(model, (1, 0)) == pytest.approx(1.0 / 3.0)

    def test_equal_rates_uniform_over_orders(self):
        model = recall.RecallModel((1.3, 1.3, 1.3))
        for order in permutations(range(3)):
            assert recall.vu_order_probability(model, order) == \
                pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_single_item(self):
        assert recall.vu_order_probability(recall.RecallModel((0.4,)), (0,)) == 1.0

    def test_invalid_permutation(self):
        model = recall.RecallModel((1.0, 2.0))
        for bad in ((0, 0), (1, 2), (0,)):
            with pytest.raises(DomainError):
                recall.vu_order_probability(model, bad)

    def test_normalization_random_rates(self):
        rng = np.random.default_rng(55)
        for n in range(1, 7):
            model = recall.RecallModel(tuple(rng.uniform(0.2, 3.0, n)))
            total = sum(recall.vu_order_probability(model, p)
                        for p in permutations(range(n)))
            assert abs(total - 1.0) <= 1e-12

    @pytest.mark.parametrize("rates", [(1e308, 1e308), (1.0, 1.7e308, 1.7e308)])
    def test_rates_whose_sum_overflows_are_rejected(self, rates):
        # with sum(rates) = inf every order's probability would be r / inf = 0
        with pytest.raises(DomainError, match="rates must have a finite sum"):
            recall.RecallModel(rates)

    def test_normalization_at_the_largest_finite_sum(self):
        rate = np.finfo(float).max / 2
        model = recall.RecallModel((rate, rate))
        assert [recall.vu_order_probability(model, order)
                for order in ((0, 1), (1, 0))] == [0.5, 0.5]


class TestIctDensity:
    def test_equal_rate_origin_value(self):
        model = recall.RecallModel((1.0, 1.0))
        assert recall.vu_ict_density(model, (0, 1), (0.0, 0.0)) == 2.0

    def test_remaining_rate_sums(self):
        model = recall.RecallModel((2.0, 1.0))
        for t1, t2 in ((0.3, 0.9), (1.2, 0.1)):
            expected = 3.0 * math.exp(-3.0 * t1) * 1.0 * math.exp(-t2)
            assert recall.vu_ict_density(model, (0, 1), (t1, t2)) == \
                pytest.approx(expected, rel=1e-12)

    def test_mcgill_equal_rate_factors(self):
        u, n = 1.3, 4
        model = recall.RecallModel((u,) * n)
        rng = np.random.default_rng(7)
        for _ in range(25):
            icts = rng.uniform(0.01, 2.0, n)
            order = tuple(rng.permutation(n))
            expected = 1.0
            for j, t in enumerate(icts, start=1):
                rate = (n - j + 1) * u
                expected *= rate * math.exp(-rate * t)
            got = recall.vu_ict_density(model, order, icts)
            assert abs(got - expected) <= 1e-12 * expected

    def test_integrates_to_one_conditional_on_order(self):
        model = recall.RecallModel((2.0, 1.0))
        val, err = scipy_integrate.dblquad(
            lambda t2, t1: recall.vu_ict_density(model, (0, 1), (t1, t2)),
            0.0, 30.0, 0.0, 30.0)
        assert val == pytest.approx(1.0, abs=1e-6)
        total = sum(
            recall.vu_order_probability(model, order) for order in
            permutations(range(2)))
        assert total == pytest.approx(1.0, abs=1e-15)

    def test_length_mismatch(self):
        model = recall.RecallModel((1.0, 1.0))
        with pytest.raises(DomainError):
            recall.vu_ict_density(model, (0, 1), (0.5,))


class TestSamplers:
    def test_single_item_is_exponential(self):
        model = recall.RecallModel((1.7,))
        trials = recall.sample_vu_serial(model, 60_000, 12)
        ks = stats.kstest(trials.icts[:, 0] * 1.7, "expon")
        assert ks.pvalue > 0.001

    def test_single_item_serial_vs_parallel_same_law(self):
        model = recall.RecallModel((0.9,))
        a = recall.sample_vu_serial(model, 50_000, 1)
        b = recall.sample_parallel_expo(model, 50_000, 2)
        assert stats.ks_2samp(a.icts[:, 0], b.icts[:, 0]).pvalue > 0.001

    def test_equal_rates_order_frequencies_uniform(self):
        n = 3
        model = recall.RecallModel((1.0,) * n)
        trials = recall.sample_vu_serial(model, 120_000, 99)
        perms = list(permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        counts = np.zeros(len(perms))
        for order in map(tuple, trials.orders):
            counts[index[order]] += 1
        res = stats.chisquare(counts)
        assert res.pvalue > 0.001

    def test_stage_one_mean_is_inverse_rate_sum(self):
        model = recall.RecallModel((2.0, 0.5, 1.5))
        trials = recall.sample_vu_serial(model, 200_000, 4)
        mean = float(trials.icts[:, 0].mean())
        expected = 1.0 / 4.0
        sigma = expected / math.sqrt(len(trials))
        assert abs(mean - expected) <= 3.0 * sigma

    def test_race_win_probability_matches_order_probability(self):
        model = recall.RecallModel((2.0, 1.0))
        trials = recall.sample_parallel_expo(model, 300_000, 8)
        frac = float(np.mean(trials.orders[:, 0] == 0))
        expected = recall.vu_order_probability(model, (0, 1))
        sigma = math.sqrt(expected * (1 - expected) / len(trials))
        assert abs(frac - expected) <= 3.0 * sigma

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_serial_parallel_equivalence(self, n):
        rng = np.random.default_rng(600 + n)
        model = recall.RecallModel(tuple(rng.uniform(0.5, 2.5, n)))
        a = recall.sample_vu_serial(model, 100_000, 2024 + n)
        b = recall.sample_parallel_expo(model, 100_000, 4048 + n)
        perms = list(permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        counts = np.zeros((2, len(perms)))
        for row, trials in enumerate((a, b)):
            for order in map(tuple, trials.orders):
                counts[row, index[order]] += 1
        assert stats.chi2_contingency(counts).pvalue > 0.001
        for j in range(n):
            assert stats.ks_2samp(a.icts[:, j], b.icts[:, j]).pvalue > 0.001

    def test_orders_are_permutations(self):
        model = recall.RecallModel((0.5, 1.0, 2.0, 0.7))
        trials = recall.sample_vu_serial(model, 5000, 3)
        sorted_orders = np.sort(trials.orders, axis=1)
        assert np.array_equal(sorted_orders,
                              np.tile(np.arange(4), (len(trials), 1)))

    def test_trace_csv_format(self):
        model = recall.RecallModel((2.0, 1.0))
        trials = recall.sample_vu_serial(model, 3, 0)
        buf = io.StringIO()
        write_table(buf, trials.columns, trials.table())
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "trial,position,item,ict,cumulative_time"
        assert len(lines) == 7


class TestVerifyEquivalenceCheck:
    """verify's serial_parallel_equivalence bounds each sampler against the
    exact law; the two-sample comparison it replaced stays here."""

    @staticmethod
    def _draws():
        rng = np.random.default_rng(verify._VERIFY_SEED + 10)
        for n in (2, 3, 4):
            model = recall.RecallModel(tuple(rng.uniform(0.5, 2.5, n)))
            yield (n, recall.sample_vu_serial(model, 100_000, 2024),
                   recall.sample_parallel_expo(model, 100_000, 4048))

    def test_two_sample_reference_on_the_same_draws(self):
        for n, a, b in self._draws():
            place = n ** np.arange(n)
            columns = np.array(list(permutations(range(n)))) @ place
            counts = [np.bincount(t.orders @ place, minlength=n ** n)[columns]
                      for t in (a, b)]
            assert stats.chi2_contingency(counts).pvalue >= 0.001
            for j in range(n):
                assert stats.ks_2samp(a.icts[:, j], b.icts[:, j]).pvalue >= 0.001

    @staticmethod
    def _first_rate_scaled(sampler, factor):
        def scaled(model, n_trials, seed):
            rates = (model.rates[0] * factor,) + model.rates[1:]
            return sampler(recall.RecallModel(rates), n_trials, seed)
        return scaled

    def test_fails_when_one_sampler_is_off(self, monkeypatch):
        monkeypatch.setattr(recall, "sample_parallel_expo", self._first_rate_scaled(
            recall.sample_parallel_expo, 1.05))
        assert not verify._serial_parallel_equivalence()[0]

    def test_fails_when_both_samplers_share_an_error(self, monkeypatch):
        # the samplers still agree with each other, so a two-sample test
        # cannot see this
        for name in ("sample_vu_serial", "sample_parallel_expo"):
            monkeypatch.setattr(recall, name, self._first_rate_scaled(
                getattr(recall, name), 1.05))
        assert not verify._serial_parallel_equivalence()[0]

    def test_fails_on_nan_durations(self, monkeypatch):
        sampler = recall.sample_vu_serial

        def broken(model, n_trials, seed):
            trials = sampler(model, n_trials, seed)
            trials.icts[::2, -1] = np.nan
            return trials
        monkeypatch.setattr(recall, "sample_vu_serial", broken)
        assert not verify._serial_parallel_equivalence()[0]


class TestHyperbolicMeans:
    def test_as_printed_example(self):
        assert recall.rw_mean_ict(9, 0.5, 5) == pytest.approx(0.5)

    def test_mcgill_example(self):
        assert recall.rw_mean_ict(2, 1.0, 1, "mcgill") == pytest.approx(0.5)

    def test_last_stage_equal_across_list_lengths(self):
        for u in (0.5, 1.0, 2.0):
            assert recall.rw_mean_ict(4, u, 3) == recall.rw_mean_ict(9, u, 8) \
                == pytest.approx(1.0 / u)

    def test_as_printed_rejects_final_stage(self):
        with pytest.raises(DomainError, match="division by zero"):
            recall.rw_mean_ict(4, 1.0, 4)
        assert recall.rw_mean_ict(4, 1.0, 4, "mcgill") == 1.0

    def test_conventions_differ_by_one_index(self):
        for j in range(1, 5):
            assert recall.rw_mean_ict(6, 1.0, j) == \
                recall.rw_mean_ict(6, 1.0, j + 1, "mcgill")

    def test_empirical_stage_means_match_mcgill(self):
        n, u = 5, 0.8
        model = recall.RecallModel((u,) * n)
        trials = recall.sample_vu_serial(model, 200_000, 31415)
        for j in range(1, n + 1):
            observed = float(trials.icts[:, j - 1].mean())
            expected = recall.rw_mean_ict(n, u, j, "mcgill")
            sigma = expected / math.sqrt(len(trials))
            assert abs(observed - expected) <= 3.0 * sigma
            if j < n:  # the as_printed convention matches the next stage up
                assert recall.rw_mean_ict(n, u, j) == \
                    recall.rw_mean_ict(n, u, j + 1, "mcgill")

    def test_validation(self):
        with pytest.raises(DomainError):
            recall.rw_mean_ict(0, 1.0, 1)
        with pytest.raises(DomainError):
            recall.rw_mean_ict(3, -1.0, 1)
        with pytest.raises(DomainError):
            recall.rw_mean_ict(3, 1.0, 1, "unknown")


class TestWeibullLoglik:
    def test_unit_example(self):
        assert recall.loglik_weibull([1.0], 1.0, 1.0) == pytest.approx(-1.0)

    def test_k1_matches_exponential(self):
        rng = np.random.default_rng(2)
        data = rng.exponential(1.0, 50)
        u = 1.7
        expected = float(np.sum(np.log(u) - u * data))
        assert recall.loglik_weibull(data, 1.0, u) == pytest.approx(expected,
                                                                    rel=1e-12)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(3)
        data = rng.gamma(2.0, 1.0, 40)
        k, u, c = 1.4, 0.8, 3.7
        lhs = recall.loglik_weibull(c * data, k, u / c)
        rhs = recall.loglik_weibull(data, k, u) - len(data) * math.log(c)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            recall.loglik_weibull([1.0, -2.0], 1.0, 1.0)
        with pytest.raises(DomainError):
            recall.loglik_weibull([1.0], 0.0, 1.0)
        with pytest.raises(DomainError):
            recall.loglik_weibull([1.0], 1.0, -1.0)


class TestLogSumExp:
    """The private logsumexp repeats scipy's arithmetic bit for bit, so that
    fits (and the ``fit`` output) do not depend on which one is used."""

    def test_single_element(self):
        for x in (-700.0, -1.5, 0.0, 3.25, 700.0):
            a = np.array([x])
            assert recall._logsumexp(a) == scipy_logsumexp(a) == x

    def test_repeated_maxima(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 7, 64, 301):
            a = np.round(rng.normal(0.0, 4.0, n), 1)
            a[rng.integers(0, n, size=3)] = a.max()
            assert recall._logsumexp(a) == scipy_logsumexp(a)
            assert recall._logsumexp(np.full(n, -2.5)) == \
                scipy_logsumexp(np.full(n, -2.5))

    def test_wide_spreads(self):
        rng = np.random.default_rng(12)
        for n in (100, 257, 400, 999):
            for scale in (1e-3, 1.0, 30.0, 300.0):
                a = rng.normal(0.0, scale, n)
                assert recall._logsumexp(a) == scipy_logsumexp(a)
            # values spread over several hundred below a maximum near 0,
            # where the log1p form and a plain log(sum) differ
            for width in (1.0, 30.0, 300.0, 700.0):
                a = -rng.uniform(0.0, width, n)
                a[rng.integers(n)] = rng.normal(0.0, 1e-3)
                assert recall._logsumexp(a) == scipy_logsumexp(a)

    def test_mle_identical_with_scipy_logsumexp(self, monkeypatch):
        samples = [np.random.default_rng(seed).weibull(k, 2000) / u
                   for seed, k, u in ((1, 1.3, 0.5), (2, 0.4, 2.0),
                                      (3, 2.5, 1.0), (4, 6.0, 0.2),
                                      (5, 1.0, 3.0))]
        ours = [recall.weibull_mle(t) for t in samples]
        monkeypatch.setattr(recall, "_logsumexp", scipy_logsumexp)
        assert [recall.weibull_mle(t) for t in samples] == ours


class TestWeibullMle:
    def test_recovery_seeded(self):
        data = mc.sample_iid(Weibull(0.7, 2.0), 10_000, 1, 321)[:, 0]
        fit = recall.weibull_mle(data)
        assert fit.converged
        assert 0.68 <= fit.k_hat <= 0.72
        assert 1.96 <= fit.u_hat <= 2.04

    def test_exponential_data_gives_k_near_one(self):
        data = mc.sample_iid(Exponential(1.0), 10_000, 1, 77)[:, 0]
        fit = recall.weibull_mle(data)
        assert fit.converged
        assert abs(fit.k_hat - 1.0) <= 0.03  # ~ 3.7 asymptotic sigma

    def test_degenerate_data(self):
        with pytest.raises(DegenerateDataError):
            recall.weibull_mle([1.0, 1.0])
        with pytest.raises(DomainError):
            recall.weibull_mle([1.0])
        with pytest.raises(DomainError):
            recall.weibull_mle([1.0, -1.0])

    def test_fit_maximizes_likelihood_locally(self):
        data = mc.sample_iid(Weibull(1.3, 0.5), 5_000, 1, 9)[:, 0]
        fit = recall.weibull_mle(data)
        best = recall.loglik_weibull(data, fit.k_hat, fit.u_hat)
        for dk in (-1e-3, 1e-3):
            assert recall.loglik_weibull(data, fit.k_hat * (1 + dk), fit.u_hat) <= best
        for du in (-1e-3, 1e-3):
            assert recall.loglik_weibull(data, fit.k_hat, fit.u_hat * (1 + du)) <= best

    def test_gradient_small_relative_to_curvature(self):
        data = mc.sample_iid(Weibull(0.7, 2.0), 10_000, 1, 321)[:, 0]
        fit = recall.weibull_mle(data)
        h = 1e-4

        def ll(lk, lu):
            return recall.loglik_weibull(data, math.exp(lk), math.exp(lu))

        lk, lu = math.log(fit.k_hat), math.log(fit.u_hat)
        gk = (ll(lk + h, lu) - ll(lk - h, lu)) / (2 * h)
        gu = (ll(lk, lu + h) - ll(lk, lu - h)) / (2 * h)
        hkk = (ll(lk + h, lu) - 2 * ll(lk, lu) + ll(lk - h, lu)) / h ** 2
        huu = (ll(lk, lu + h) - 2 * ll(lk, lu) + ll(lk, lu - h)) / h ** 2
        assert abs(gk) < 1e-4 * abs(hkk)
        assert abs(gu) < 1e-4 * abs(huu)

    def test_fit_report_shape(self):
        data = mc.sample_iid(Weibull(1.0, 1.0), 100, 1, 4)[:, 0]
        fit = recall.weibull_mle(data)
        payload = fit.to_json_dict(n=100, seed=4)
        assert list(payload.keys()) == ["k_hat", "u_hat", "loglik",
                                        "converged", "n", "seed"]
