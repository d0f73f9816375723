import io
import math
import re

import numpy as np
import pytest

from archlab import mc
from archlab.distributions import (Exponential, ProcessingTimeDistribution,
                                   Uniform, Weibull)
from archlab.errors import (ConditioningError, DomainError,
                            ExhaustedSurvivalError, GridEvalError)
from archlab.parallel import (ParallelTwoModel, alpha_extrema,
                              classify_stage_trend, conditional_ict_survival,
                              hazard_ratio_alpha, ict_survival_trend,
                              parallel_dependence_difference,
                              stage_survival_gap, stage_survival_grid)


class TestParallelDifference:
    @pytest.mark.parametrize("dist,tau", [
        (Exponential(1.0), 1.0),
        (Weibull(2.0, 3.0), 0.7),
        (Uniform(2.0), 1.5),
    ])
    def test_exact_cancellation(self, dist, tau):
        assert abs(parallel_dependence_difference(ParallelTwoModel(dist), tau)) \
            <= 1e-12

    def test_500_random_cases(self):
        rng = np.random.default_rng(900)
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
            worst = max(worst, abs(parallel_dependence_difference(
                ParallelTwoModel(dist), tau)))
        assert worst <= 1e-12

    def test_null_conditioning(self):
        with pytest.raises(ConditioningError):
            parallel_dependence_difference(ParallelTwoModel(Uniform(1.0)), 0.0)


class TestConditionalIctSurvival:
    def test_exponential_memoryless(self):
        model = ParallelTwoModel(Exponential(1.5))
        for t_a in (0.0, 0.5, 2.0, 10.0):
            assert conditional_ict_survival(model, t_a, 0.7) == pytest.approx(
                math.exp(-1.5 * 0.7), abs=1e-12)

    def test_uniform_ratio(self):
        model = ParallelTwoModel(Uniform(2.0))
        assert conditional_ict_survival(model, 0.5, 0.5) == pytest.approx(
            2.0 / 3.0, abs=1e-14)

    def test_t_zero_is_one(self):
        for dist in (Exponential(1.0), Weibull(0.5, 1.0), Uniform(2.0)):
            assert conditional_ict_survival(ParallelTwoModel(dist), 0.4, 0.0) == 1.0

    def test_uniform_support_exhaustion_returns_zero(self):
        model = ParallelTwoModel(Uniform(2.0))
        assert conditional_ict_survival(model, 0.5, 1.5) == 0.0
        assert conditional_ict_survival(model, 0.5, 5.0) == 0.0

    def test_conditioning_error_when_no_mass(self):
        model = ParallelTwoModel(Uniform(2.0))
        with pytest.raises(ConditioningError):
            conditional_ict_survival(model, 2.0, 0.1)
        with pytest.raises(ConditioningError):  # H(T_a) overflows to inf
            conditional_ict_survival(ParallelTwoModel(Weibull(2.0, 1.0)), 1e200, 1.0)

    def test_monotone_in_t_a_for_decreasing_hazard(self):
        for k in (0.3, 0.5, 0.8):
            model = ParallelTwoModel(Weibull(k, 1.0))
            for t in (0.3, 1.0, 2.5):
                grid = np.linspace(0.0, 4.0, 50)
                vals = [conditional_ict_survival(model, float(ta), t)
                        for ta in grid]
                assert np.all(np.diff(vals) >= -1e-12), (k, t)

    def test_far_tail_where_survival_underflows(self):
        # S(T_a) rounds to 0 here, but H(T_a + t) - H(T_a) is exact
        assert conditional_ict_survival(
            ParallelTwoModel(Exponential(1.0)), 800.0, 0.5) == math.exp(-0.5)
        assert conditional_ict_survival(
            ParallelTwoModel(Weibull(0.5, 1.0)), 1e6, 0.5) == math.exp(
                -(math.sqrt(1e6 + 0.5) - 1e3))

    def test_non_increasing_in_t(self):
        model = ParallelTwoModel(Weibull(1.7, 0.8))
        vals = [conditional_ict_survival(model, 0.6, float(t))
                for t in np.linspace(0.0, 4.0, 40)]
        assert vals[0] == 1.0
        assert np.all(np.diff(vals) <= 1e-15)


class TestTrend:
    def test_exponential_zero(self):
        model = ParallelTwoModel(Exponential(2.0))
        assert ict_survival_trend(model, 1.3, 0.9) == "zero"

    def test_decreasing_hazard_positive(self):
        model = ParallelTwoModel(Weibull(0.5, 1.0))
        assert ict_survival_trend(model, 1.0, 1.0) == "positive"

    def test_uniform_negative(self):
        model = ParallelTwoModel(Uniform(2.0))
        assert ict_survival_trend(model, 0.5, 0.5) == "negative"

    def test_hazard_errors_propagate(self):
        model = ParallelTwoModel(Weibull(0.5, 1.0))
        with pytest.raises(DomainError):
            ict_survival_trend(model, 0.0, 1.0)


class TestAlpha:
    def test_exponential_is_one(self):
        model = ParallelTwoModel(Exponential(0.7))
        for t, t_a in ((0.1, 0.0), (1.0, 2.0), (5.0, 1.0)):
            assert hazard_ratio_alpha(model, t, t_a) == pytest.approx(1.0, abs=1e-14)

    def test_uniform_value(self):
        model = ParallelTwoModel(Uniform(2.0))
        assert hazard_ratio_alpha(model, 0.5, 0.5) == pytest.approx(1.5, abs=1e-14)

    def test_weibull_power_law(self):
        for k, u, t, t_a in ((2.0, 1.0, 1.0, 1.0), (3.0, 2.0, 0.5, 1.5)):
            model = ParallelTwoModel(Weibull(k, u))
            expected = ((t_a + t) / t) ** (k - 1.0)
            assert hazard_ratio_alpha(model, t, t_a) == pytest.approx(
                expected, rel=1e-12)

    def test_zero_hazard_rejected(self):
        model = ParallelTwoModel(Weibull(2.0, 1.0))
        with pytest.raises(DomainError):
            hazard_ratio_alpha(model, 0.0, 1.0)

    def test_finite_where_ut_underflows(self):
        # h(5e-324) is large, not 0, for Weibull(0.5, 0.3): alpha is defined
        model = ParallelTwoModel(Weibull(0.5, 0.3))
        alpha = hazard_ratio_alpha(model, 5e-324, 1.0)
        assert alpha == pytest.approx(
            math.sqrt(5e-324 / 1.0), rel=1e-12)  # ((t_a + t)/t)^(k-1)

    def test_extrema_uniform(self):
        model = ParallelTwoModel(Uniform(2.0))
        a_min, a_max = alpha_extrema(model, 0.3, 0.9)
        assert a_min == pytest.approx(2.0 / 1.1, abs=1e-6)  # s -> 0 limit
        assert a_max == pytest.approx(1.7 / 0.8, abs=1e-12)  # s = t

    def test_extrema_weibull_min_at_endpoint(self):
        model = ParallelTwoModel(Weibull(2.0, 1.0))
        a_min, a_max = alpha_extrema(model, 1.0, 1.0)
        assert a_min == pytest.approx(2.0, abs=1e-9)
        assert a_max > 100.0  # alpha diverges toward s -> 0

    @pytest.mark.parametrize("t, t_a", [(1.0, -0.5), (-1.0, 1.0),
                                        (math.nan, 1.0), (1.0, math.inf)])
    def test_extrema_invalid_cell_rejected(self, t, t_a):
        model = ParallelTwoModel(Weibull(2.0, 1.0))
        with pytest.raises(DomainError, match=re.escape(f"t={t!r}, T_a={t_a!r}")):
            alpha_extrema(model, t, t_a)

    def test_extrema_undefined_at_t_zero(self):
        for dist in (Exponential(1.0), Weibull(2.0, 1.0)):
            a_min, a_max = alpha_extrema(ParallelTwoModel(dist), 0.0, 1.0)
            assert math.isnan(a_min) and math.isnan(a_max)

    def test_extrema_call_no_scalar_hazard(self):
        # h(0) is looked up only for cells at exactly 0; the samples are > 0
        calls = []

        class Counting(Weibull):
            def hazard(self, t):
                calls.append(np.size(t) if np.ndim(t) else float(t))
                return super().hazard(t)

        alpha_extrema(ParallelTwoModel(Counting(2.0, 1.0)), 1.0, 2.0)
        assert calls == [65, 65]
        calls.clear()
        with pytest.raises(DomainError):
            hazard_ratio_alpha(ParallelTwoModel(Counting(2.0, 1.0)), 0.0, 1.0)
        assert 0.0 in calls


class TestStageGap:
    def test_exponential_values(self):
        model = ParallelTwoModel(Exponential(1.0))
        res = stage_survival_gap(model, 1.0, 5.0)
        assert res.gap == pytest.approx(math.exp(-2.0) - math.exp(-1.0), abs=1e-14)
        assert res.expr4 == -1.0

    def test_exponential_expr4_exact_on_dyadic_grid(self):
        model = ParallelTwoModel(Exponential(1.0))
        for t in np.arange(0.125, 4.0, 0.125):
            for t_a in np.arange(0.0, 4.0, 0.25):
                res = stage_survival_gap(model, float(t), float(t_a))
                assert res.expr4 == -float(t)  # exact, not approximate
                assert res.gap < 0.0

    def test_sign_equals_expr4_sign(self):
        for dist, hi in ((Weibull(2.0, 1.0), 10.0), (Weibull(4.0, 1.0), 10.0),
                         (Uniform(2.0), 1.0)):
            model = ParallelTwoModel(dist)
            for t in np.linspace(0.0, hi, 21):
                for t_a in np.linspace(0.0, hi, 21):
                    res = stage_survival_gap(model, float(t), float(t_a))
                    if math.isfinite(res.expr4):
                        assert res.gap * res.expr4 >= 0.0
                        if abs(res.expr4) > 1e-9 and abs(res.gap) > 1e-9:
                            assert math.copysign(1, res.gap) == \
                                math.copysign(1, res.expr4)
                    else:
                        assert res.gap > 0.0

    def test_uniform_second_stage_support_exhaustion(self):
        model = ParallelTwoModel(Uniform(2.0))
        res = stage_survival_gap(model, 1.0, 1.0)
        assert res.expr4 == math.inf
        assert res.gap == pytest.approx(0.25, abs=1e-14)  # S(1)^2

    def test_domain_errors_propagate(self):
        model = ParallelTwoModel(Uniform(2.0))
        with pytest.raises(DomainError):
            stage_survival_gap(model, 2.5, 0.1)
        with pytest.raises(DomainError):
            stage_survival_gap(model, 0.1, 2.0)

    def test_threshold_reading_uniform(self):
        # min over s of alpha(s, Ta+s) is v/(v-Ta), >= 2 iff Ta >= v/2;
        # there the gap is t^2/4 >= 0.  Where even the max stays below 2
        # the gap is negative.
        model = ParallelTwoModel(Uniform(2.0))
        for t in np.linspace(0.05, 0.9, 8):
            for t_a in np.linspace(0.0, 0.95, 10):
                a_min, a_max = alpha_extrema(model, float(t), float(t_a))
                res = stage_survival_gap(model, float(t), float(t_a))
                if a_min >= 2.0:
                    assert res.gap >= -1e-9
                if a_max < 2.0:
                    assert res.gap < 1e-9

    def test_threshold_reading_weibull_k_below_one(self):
        model = ParallelTwoModel(Weibull(0.5, 1.0))
        for t in np.linspace(0.1, 4.0, 6):
            for t_a in np.linspace(0.0, 4.0, 6):
                a_min, a_max = alpha_extrema(model, float(t), float(t_a))
                assert a_max < 2.0
                assert stage_survival_gap(model, float(t), float(t_a)).gap < 1e-9

    def test_pointwise_reading_misclassifies_where_integrated_does_not(self):
        # witness: alpha at (t, Ta) = 2.125 >= 2 yet the gap is negative;
        # the integrated criterion makes no claim there (min < 2 < max)
        model = ParallelTwoModel(Uniform(2.0))
        alpha = hazard_ratio_alpha(model, 0.3, 0.9)
        res = stage_survival_gap(model, 0.3, 0.9)
        assert alpha == pytest.approx(2.125, abs=1e-12)
        assert res.gap == pytest.approx(-0.0047727272727, abs=1e-10)
        a_min, a_max = alpha_extrema(model, 0.3, 0.9)
        assert a_min < 2.0 < a_max


class ExpOnlyPdfCdf(ProcessingTimeDistribution):
    """Exponential(1) through pdf and cdf only: survival 1 - F(t) is
    exhausted (rounds to 0) once e^-t < 2^-54, i.e. for t above ~37.4."""

    def pdf(self, t):
        return np.exp(-np.clip(np.asarray(t, dtype=float), 0.0, None))

    def cdf(self, t):
        return -np.expm1(-np.clip(np.asarray(t, dtype=float), 0.0, None))


def _per_cell(fn, t, ta):
    return np.array([[fn(float(x), float(y)) for y in ta] for x in t])


class TestArrayPath:
    """One array call over a grid equals the scalar calls, bit for bit."""

    @pytest.mark.parametrize("dist,hi", [(Weibull(2.0, 1.0), 10.0),
                                         (Uniform(2.0), 1.0)])
    def test_gap_and_alpha_bitwise(self, dist, hi):
        model = ParallelTwoModel(dist)
        axis = np.linspace(0.0, hi, 21)
        res = stage_survival_gap(model, axis[:, None], axis[None, :])
        assert res.gap.shape == res.expr4.shape == (21, 21)
        assert np.array_equal(res.gap, _per_cell(
            lambda t, ta: stage_survival_gap(model, t, ta).gap, axis, axis))
        assert np.array_equal(res.expr4, _per_cell(
            lambda t, ta: stage_survival_gap(model, t, ta).expr4, axis, axis))
        # alpha needs h(t) > 0 and h(T_a + t) defined (T_a + t < v)
        t_pos, ta_in = axis[1:], axis[:-1]
        alpha = hazard_ratio_alpha(model, t_pos[:, None], ta_in[None, :])
        assert np.array_equal(alpha, _per_cell(
            lambda t, ta: hazard_ratio_alpha(model, t, ta), t_pos, ta_in))

    def test_uniform_support_end_cells(self):
        model = ParallelTwoModel(Uniform(2.0))
        axis = np.linspace(0.0, 1.0, 21)
        res = stage_survival_gap(model, axis[:, None], axis[None, :])
        assert np.isposinf(res.expr4[-1, -1])  # T_a + t = v
        assert res.gap[-1, -1] == stage_survival_gap(model, 1.0, 1.0).gap == 0.25
        assert np.isfinite(res.expr4[:-1]).all() and np.isfinite(res.expr4[:, :-1]).all()
        grid = stage_survival_grid(model, axis, axis)
        assert (grid.t[-1], grid.ta[-1], grid.sign[-1]) == (1.0, 1.0, "positive")
        assert math.isnan(grid.alpha[-1])  # h(T_a + t) undefined at v

    def test_pdf_cdf_only_with_one_exhausted_cell(self):
        model = ParallelTwoModel(ExpOnlyPdfCdf())
        axis = np.linspace(0.0, 19.0, 5)  # only T_a + t = 38 is exhausted
        t, ta = (a.ravel() for a in np.meshgrid(axis, axis, indexing="ij"))
        with pytest.raises(ExhaustedSurvivalError, match="t=19.0, T_a=19.0"):
            stage_survival_gap(model, t, ta)
        with pytest.raises(ExhaustedSurvivalError):
            stage_survival_gap(model, 19.0, 19.0)
        with pytest.raises(DomainError):
            hazard_ratio_alpha(model, 19.0, 19.0)
        with pytest.raises(GridEvalError, match=r"t=19\.0, Ta=19\.0") as err:
            stage_survival_grid(model, axis, axis)
        assert err.value.point == (19.0, 19.0)
        t, ta = t[:-1], ta[:-1]
        res = stage_survival_gap(model, t, ta)
        for i in range(t.size):
            cell = stage_survival_gap(model, float(t[i]), float(ta[i]))
            assert (res.gap[i], res.expr4[i]) == (cell.gap, cell.expr4)
        pos = t > 0
        alpha = hazard_ratio_alpha(model, t[pos], ta[pos])
        assert alpha.tolist() == [hazard_ratio_alpha(model, float(x), float(y))
                                  for x, y in zip(t[pos], ta[pos])]

    def test_scalars_give_floats(self):
        model = ParallelTwoModel(Weibull(2.0, 1.0))
        res = stage_survival_gap(model, 0.5, 1.0)
        assert type(res.gap) is float and type(res.expr4) is float
        assert type(hazard_ratio_alpha(model, 0.5, 1.0)) is float
        assert type(conditional_ict_survival(model, 1.0, 0.5)) is float
        assert ict_survival_trend(model, 1.0, 0.5) == "negative"
        assert [type(a) for a in alpha_extrema(model, 0.5, 1.0)] == [float, float]
        assert type(parallel_dependence_difference(model, 0.5)) is float

    def test_array_errors_name_first_cell(self):
        model = ParallelTwoModel(Weibull(2.0, 1.0))
        with pytest.raises(DomainError, match="t=-1.0, T_a=2.0"):
            stage_survival_gap(model, [1.0, -1.0, -2.0], 2.0)
        with pytest.raises(DomainError, match="t=0.0, T_a=1.0"):
            hazard_ratio_alpha(model, [1.0, 0.0], 1.0)
        model = ParallelTwoModel(Uniform(2.0))
        with pytest.raises(ConditioningError, match=r"t=0\.1, T_a=2\.0"):
            conditional_ict_survival(model, [1.0, 2.0, 3.0], 0.1)
        with pytest.raises(DomainError, match=r"t=0\.5, T_a=1\.5"):
            ict_survival_trend(model, [0.5, 1.5, 1.9], 0.5)
        with pytest.raises(DomainError, match=r"t=-1\.0, T_a=0\.5"):
            alpha_extrema(model, [[1.0, -1.0], [-2.0, 1.0]], 0.5)
        with pytest.raises(DomainError, match=r"tau=-1\.0"):
            parallel_dependence_difference(model, [1.0, 0.0, -1.0, -2.0])
        with pytest.raises(ConditioningError, match=r"tau=0\.0"):
            parallel_dependence_difference(model, [1.0, 0.0, 2.0])

    @pytest.mark.parametrize("dist,hi", [(Weibull(2.0, 1.0), 10.0),
                                         (Weibull(0.5, 1.0), 4.0),
                                         (Uniform(2.0), 1.0),
                                         (ExpOnlyPdfCdf(), 10.0)])
    def test_four_functionals_bitwise(self, dist, hi):
        model = ParallelTwoModel(dist)
        t = np.linspace(0.0, hi, 11)
        ta = np.linspace(0.05, 0.9 * hi, 9)  # hazards defined at T_a, T_a + t
        grid = t[:, None], ta[None, :]
        cond = conditional_ict_survival(model, grid[1], grid[0])
        assert cond.shape == (11, 9)
        assert np.array_equal(cond, _per_cell(
            lambda x, y: conditional_ict_survival(model, y, x), t, ta))
        trend = ict_survival_trend(model, grid[1], grid[0])
        assert np.array_equal(trend, _per_cell(
            lambda x, y: ict_survival_trend(model, y, x), t, ta))
        a_min, a_max = alpha_extrema(model, *grid)
        pairs = [[alpha_extrema(model, x, y) for y in ta] for x in t.tolist()]
        assert np.array_equal(np.stack([a_min, a_max], axis=-1), pairs,
                              equal_nan=True)
        tau = t[1:, None] * ta  # positive, so the conditioning event is not null
        diff = parallel_dependence_difference(model, tau)
        assert diff.shape == (10, 9)
        assert np.array_equal(diff, _per_cell(
            lambda x, y: parallel_dependence_difference(model, x * y), t[1:], ta))


class TestStageGrid:
    def test_records_and_disagreement_flag(self):
        model = ParallelTwoModel(Uniform(2.0))
        grid = stage_survival_grid(model, [0.3], [0.9])
        # the pointwise alpha says "positive" (alpha >= 2), the sign disagrees
        assert grid.alpha[0] >= 2.0 and grid.sign[0] == "negative"
        a_min, a_max = alpha_extrema(model, float(grid.t[0]), float(grid.ta[0]))
        assert a_min < 2.0 < a_max

    def test_csv_columns(self):
        model = ParallelTwoModel(Exponential(1.0))
        grid = stage_survival_grid(model, [0.5, 1.0], [0.0, 1.0])
        buf = io.StringIO()
        grid.to_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "t,Ta,alpha,expr4,gap,sign"
        assert len(lines) == 5
        assert all(line.endswith("negative") for line in lines[1:])

    def test_grid_errors_carry_coordinates(self):
        model = ParallelTwoModel(Uniform(2.0))
        with pytest.raises(GridEvalError, match="t=2.5"):
            stage_survival_grid(model, [2.5], [0.1])

    def test_nan_expr4_raises_naming_first_nan_cell(self):
        # (3^1000 overflows: H(T_a + t) - H(T_a) is inf - inf at (0, 3)
        model = ParallelTwoModel(Weibull(1000.0, 1.0))
        axis = [0.0, 1.5, 3.0]
        with pytest.raises(GridEvalError, match=r"t=0\.0, Ta=3\.0.*nan") as err:
            stage_survival_grid(model, axis, axis)
        assert err.value.point == (0.0, 3.0)
        assert math.isnan(stage_survival_gap(model, 0.0, 3.0).expr4)


class TestClassifyTrend:
    def region(self, lo, hi, steps=12):
        axis = np.linspace(lo, hi, steps)
        return axis, axis

    @pytest.mark.parametrize("k", [0.3, 0.7, 1.0])
    def test_weibull_k_at_most_one_second_stage_slower(self, k):
        res = classify_stage_trend(ParallelTwoModel(Weibull(k, 1.0)),
                                   *self.region(0.0, 6.0))
        assert res.trend == "second_stage_slower"
        assert res.positive_witness is None
        assert res.negative_witness is not None

    def test_weibull_k4_mixed(self):
        res = classify_stage_trend(ParallelTwoModel(Weibull(4.0, 1.0)),
                                   *self.region(0.0, 10.0))
        assert res.trend == "mixed"
        assert res.positive_witness is not None
        assert res.negative_witness is not None
        t, ta, gap = res.positive_witness
        assert stage_survival_gap(ParallelTwoModel(Weibull(4.0, 1.0)),
                                  t, ta).gap == gap > 0

    def test_uniform_mixed(self):
        res = classify_stage_trend(ParallelTwoModel(Uniform(2.0)),
                                   *self.region(0.0, 1.0))
        assert res.trend == "mixed"

    def test_nan_expr4_raises_instead_of_counting_negative(self):
        region = self.region(0.0, 3.0, 3)
        with pytest.raises(GridEvalError, match=r"t=0\.0, Ta=3\.0") as err:
            classify_stage_trend(ParallelTwoModel(Weibull(1000.0, 1.0)), *region)
        assert err.value.point == (0.0, 3.0)

    def test_witnesses_are_first_cells_of_each_sign(self):
        model = ParallelTwoModel(Weibull(4.0, 1.0))
        region = self.region(0.0, 10.0)
        res = classify_stage_trend(model, *region)
        grid = stage_survival_grid(model, *region)
        for sign, witness in (("positive", res.positive_witness),
                              ("negative", res.negative_witness)):
            i = grid.signs().index(sign)
            assert witness == (grid.t[i], grid.ta[i], grid.gap[i])
        assert (res.n_positive + res.n_negative + res.n_zero) == grid.t.size

    def test_exponential_slower(self):
        res = classify_stage_trend(ParallelTwoModel(Exponential(1.0)),
                                   *self.region(0.1, 5.0))
        assert res.trend == "second_stage_slower"

    def test_weibull_k4_late_region_faster(self):
        # past the hazard's rise every resolvable gap is positive
        res = classify_stage_trend(ParallelTwoModel(Weibull(4.0, 1.0)),
                                   np.linspace(0.5, 1.0, 4), np.linspace(2.0, 3.0, 4))
        assert res.trend == "second_stage_faster"
        assert (res.n_positive, res.n_negative, res.n_zero) == (16, 0, 0)
        assert res.negative_witness is None and res.positive_witness is not None

    def test_only_zero_cells_raise(self):
        # t = 0 cells are degenerate zeros, so they carry no sign information
        with pytest.raises(DomainError, match="region produced no resolvable sign "
                                              "information"):
            classify_stage_trend(ParallelTwoModel(Weibull(4.0, 1.0)), [0.0],
                                 np.linspace(2.0, 3.0, 4))


class TestSimulationOracle:
    def test_binned_conditional_survival(self):
        dist = Weibull(2.0, 1.0)
        model = ParallelTwoModel(dist)
        trials = mc.simulate_parallel(model, 1_000_000, 314)
        m, half_width, t = 0.6, 0.02, 0.4
        in_bin = np.abs(trials.t1 - m) <= half_width
        n_bin = int(in_bin.sum())
        emp = float(np.mean(trials.t2[in_bin] > t))
        expected = conditional_ict_survival(model, m, t)
        sigma = math.sqrt(expected * (1 - expected) / n_bin)
        # first-order bin bias: |d/dm S(m+t)/S(m)| * half_width
        slope = expected * abs(float(dist.hazard(m)) - float(dist.hazard(m + t)))
        assert abs(emp - expected) <= 3.0 * sigma + slope * half_width

    def test_memoryless_second_stage(self):
        model = ParallelTwoModel(Exponential(1.0))
        trials = mc.simulate_parallel(model, 500_000, 2718)
        for m in (0.2, 0.8, 1.5):
            in_bin = np.abs(trials.t1 - m) <= 0.05
            emp = float(np.mean(trials.t2[in_bin] > 0.7))
            expected = math.exp(-0.7)
            sigma = math.sqrt(expected * (1 - expected) / int(in_bin.sum()))
            assert abs(emp - expected) <= 3.5 * sigma
