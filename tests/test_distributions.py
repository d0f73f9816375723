import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archlab.distributions import (EPS_SURVIVAL, Exponential,
                                   ProcessingTimeDistribution, Uniform,
                                   Weibull, parse_spec)
from archlab.errors import (DistSpecError, DomainError,
                            ExhaustedSurvivalError)


def all_families(rng):
    yield Weibull(k=float(rng.uniform(0.15, 5.0)), u=float(rng.uniform(0.1, 8.0)))
    yield Exponential(u=float(rng.uniform(0.1, 8.0)))
    yield Uniform(v=float(rng.uniform(0.1, 8.0)))


class TestPointValues:
    def test_pdf(self):
        assert Exponential(1.0).pdf(0.0) == 1.0
        assert Weibull(2.0, 1.0).pdf(1.0) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-14)
        assert Uniform(2.0).pdf(3.0) == 0.0

    def test_cdf(self):
        assert Exponential(1.0).cdf(1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)
        assert Uniform(2.0).cdf(1.0) == 0.5
        for dist in (Weibull(0.5, 2.0), Exponential(3.0), Uniform(1.0)):
            assert dist.cdf(0.0) == 0.0

    def test_survival(self):
        assert Exponential(1.0).survival(1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)
        for dist in (Weibull(2.0, 1.0), Exponential(1.0), Uniform(2.0)):
            assert dist.survival(0.0) == 1.0
        assert Uniform(2.0).survival(2.0) == 0.0

    def test_hazard(self):
        for t in (0.0, 0.3, 2.0, 50.0):
            assert Exponential(3.0).hazard(t) == 3.0
        assert Uniform(2.0).hazard(1.0) == pytest.approx(1.0, rel=1e-14)
        assert Weibull(2.0, 1.0).hazard(0.5) == pytest.approx(1.0, rel=1e-14)

    def test_cum_hazard(self):
        assert Exponential(2.0).cum_hazard(3.0) == 6.0
        assert Weibull(2.0, 1.0).cum_hazard(2.0) == pytest.approx(4.0, rel=1e-14)
        assert Uniform(2.0).cum_hazard(1.0) == pytest.approx(math.log(2.0), rel=1e-14)

    def test_quantile(self):
        assert Exponential(1.0).quantile(1.0 - math.exp(-1.0)) == pytest.approx(1.0, rel=1e-12)
        assert Uniform(2.0).quantile(0.25) == 0.5
        assert Weibull(2.0, 1.0).quantile(1.0 - math.exp(-1.0)) == pytest.approx(1.0, rel=1e-12)


class TestErrors:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(DomainError):
            Exponential(1.0).pdf(bad)
        with pytest.raises(DomainError):
            Uniform(1.0).cdf(bad)

    def test_uniform_hazard_exhausted(self):
        with pytest.raises(ExhaustedSurvivalError, match="exhausted survival"):
            Uniform(2.0).hazard(2.0)
        with pytest.raises(ExhaustedSurvivalError):
            Uniform(2.0).hazard(5.0)

    def test_hazard_rejects_negative_times(self):
        for dist in (Weibull(2.0, 1.0), Exponential(1.0), Uniform(2.0)):
            with pytest.raises(DomainError, match="before the support"):
                dist.hazard(-0.5)
            with pytest.raises(DomainError, match="before the support"):
                dist.cum_hazard(-0.5)

    def test_array_errors_name_the_first_bad_element(self):
        # numpy's repr of a 2001-element array shows only its ends, so the
        # message names the element at fault; a scalar's message is as before
        t = np.linspace(0.0, 5.0, 2001)
        t[1000], t[1500] = -1.0, -2.0
        with pytest.raises(DomainError, match=re.escape(
                "hazard undefined before the support: t[1000]=-1.0")):
            Weibull(2.0, 1.0).hazard(t)
        with pytest.raises(DomainError, match=re.escape(
                "cumulative hazard undefined before the support: t[0, 1000]=-1.0")):
            Weibull(2.0, 1.0).cum_hazard(t.reshape(1, -1))
        with pytest.raises(DomainError, match=re.escape(
                "hazard undefined before the support: t=-0.5")):
            Weibull(2.0, 1.0).hazard(-0.5)
        t[1000], t[1500] = math.nan, math.inf
        with pytest.raises(DomainError, match=re.escape(
                "t must be finite, got t[1000]=nan")):
            Exponential(1.0).cdf(t)
        with pytest.raises(DomainError, match=re.escape("t must be finite, got inf")):
            Exponential(1.0).cdf(math.inf)

    def test_uniform_cum_hazard_domain(self):
        with pytest.raises(DomainError):
            Uniform(2.0).cum_hazard(2.0)

    def test_weibull_hazard_divergent_origin(self):
        with pytest.raises(DomainError):
            Weibull(0.5, 1.0).hazard(0.0)

    def test_quantile_domain(self):
        for q in (-0.1, 1.0, 1.5):
            with pytest.raises(DomainError):
                Exponential(1.0).quantile(q)

    @pytest.mark.parametrize("k,u,v", [(-1.0, 1.0, 1.0), (0.0, 1.0, 1.0)])
    def test_bad_params(self, k, u, v):
        with pytest.raises(DomainError):
            Weibull(k, u)
        with pytest.raises(DomainError):
            Exponential(k)
        with pytest.raises(DomainError):
            Uniform(k)


class TestFunctionalIdentities:
    """S = 1 - F, H = -ln S and h = f/S across random parameter draws."""

    def test_identities_random_draws(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            for dist in all_families(rng):
                hi = dist.quantile(0.999)
                t = np.linspace(0.0, hi, 50)
                f = np.asarray(dist.pdf(t))
                cdf = np.asarray(dist.cdf(t))
                s = np.asarray(dist.survival(t))
                assert np.all(np.abs(s - (1.0 - cdf)) <= 1e-12)
                mask = s > 1e-12
                h_vals = -np.log(s[mask])
                assert np.all(np.abs(np.asarray(dist.cum_hazard(t[mask])) - h_vals) <= 1e-10)
                interior = mask & (t > 0)
                haz = np.asarray(dist.hazard(t[interior]))
                assert np.all(np.abs(haz - f[interior] / s[interior])
                              <= 1e-10 * (1.0 + haz))

    def test_cdf_monotone_and_limits(self):
        rng = np.random.default_rng(77)
        for dist in all_families(rng):
            t = np.linspace(0.0, float(dist.quantile(1 - 1e-9)), 200)
            cdf = np.asarray(dist.cdf(t))
            assert cdf[0] == 0.0
            assert np.all(np.diff(cdf) >= 0.0)
            assert cdf[-1] > 1.0 - 1e-6

    def test_quantile_roundtrip(self):
        rng = np.random.default_rng(5)
        qs = np.arange(0.01, 1.0, 0.01)
        for _ in range(20):
            for dist in all_families(rng):
                t = np.asarray(dist.quantile(qs))
                back = np.asarray(dist.cdf(t))
                assert np.all(np.abs(back - qs) <= 1e-8)

    def test_weibull_k1_equals_exponential(self):
        for u in (0.3, 1.0, 4.5):
            w, e = Weibull(1.0, u), Exponential(u)
            t = np.linspace(0.0, 5.0 / u, 101)
            for name in ("pdf", "cdf", "survival", "cum_hazard"):
                got = np.asarray(getattr(w, name)(t))
                want = np.asarray(getattr(e, name)(t))
                assert np.all(np.abs(got - want) <= 1e-12), name
            assert np.all(np.abs(np.asarray(w.hazard(t)) - np.asarray(e.hazard(t)))
                          <= 1e-12)

    @pytest.mark.parametrize("u", [0.3, 1.0, 2.5, 7.0])
    def test_exponential_is_bitwise_its_formulas(self, u):
        # the exponential's functionals are exactly these expressions, for
        # arrays and for scalars, also where u t underflows to 0
        t = np.concatenate([[0.0, 5e-324, 1e-300], np.linspace(0.0, 40.0 / u, 801)])
        q = np.concatenate([np.linspace(0.0, 0.999, 1000), [1.0 - 2.0 ** -53]])
        formulas = {"pdf": lambda t: u * np.exp(-u * t),
                    "cdf": lambda t: -np.expm1(-u * t),
                    "survival": lambda t: np.exp(-u * t),
                    "hazard": lambda t: np.full_like(t, u),
                    "cum_hazard": lambda t: u * t,
                    "quantile": lambda q: -np.log1p(-q) / u}
        dist = Exponential(u)
        for name, formula in formulas.items():
            x = q if name == "quantile" else t
            fn = getattr(dist, name)
            assert fn(x).tobytes() == formula(x).tobytes(), name
            for xi in x[::10]:
                got = fn(float(xi))
                assert type(got) is float, name
                assert got.hex() == float(formula(np.asarray(xi))).hex(), (name, xi)

    def test_exponential_is_the_k1_weibull(self):
        dist = Exponential(2.0)
        assert isinstance(dist, Weibull) and dist.k == 1.0
        assert repr(dist) == "Exponential(u=2.0)"
        assert dist.spec_string() == "exp:u=2.0"
        assert dist == Exponential(2.0) != Weibull(1.0, 2.0)
        for name in ("pdf", "cdf", "survival", "hazard", "cum_hazard",
                     "exhausted", "quantile", "typical_scale"):
            assert name not in vars(Exponential), name
        assert "survival" not in vars(Uniform)

    # k u (u t)^(k-1) e^(-(u t)^k) at u = 0.3, t = 5e-324 (where u t
    # underflows to 0), from mpmath at 50 digits; e^(-(u t)^k) rounds to 1
    @pytest.mark.parametrize("k, want", [(0.2, 6.9410715480477104e257),
                                         (0.5, 1.2320782847712355e161),
                                         (0.9, 6.5203839990983983e31)])
    def test_weibull_small_k_where_ut_underflows(self, k, want):
        dist = Weibull(k, 0.3)
        for name in ("pdf", "hazard"):
            fn = getattr(dist, name)
            assert fn(5e-324) == pytest.approx(want, rel=1e-12), name
            assert fn(np.array([5e-324]))[0] == fn(5e-324), name
        assert dist.pdf(0.0) == math.inf and dist.pdf(-1.0) == 0.0
        # cells where u t does not underflow keep the closed form bit for bit
        t = np.array([1e-320, 1e-300, 0.5, 3.0])
        x = 0.3 * t
        hazard = 0.3 * k * x ** (k - 1.0)
        assert dist.hazard(t).tobytes() == hazard.tobytes()
        assert dist.pdf(t).tobytes() == (
            k * 0.3 * x ** (k - 1.0) * np.exp(-x ** k)).tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("k", [300.0, 1000.0])
    def test_weibull_large_k_pdf_underflows_to_zero(self, k):
        # where (u t)^(k-1) overflows, exp(-(u t)^k) underflows and the
        # density is 0, not inf * 0 = nan; finite cells keep their bytes
        dist = Weibull(k, 1.0)
        t = np.array([0.5, 1.0, 1.001, 2.5, 40.0])
        x = t[:3]
        finite = k * x ** (k - 1.0) * np.exp(-x ** k)
        assert dist.pdf(t)[:3].tobytes() == finite.tobytes()
        assert dist.pdf(t)[3:].tolist() == [0.0, 0.0]
        assert dist.pdf(2.5) == 0.0

    def test_hazard_monotonicity(self):
        t = np.linspace(0.05, 3.0, 80)
        decreasing = np.asarray(Weibull(0.6, 1.0).hazard(t))
        increasing = np.asarray(Weibull(1.8, 1.0).hazard(t))
        assert np.all(np.diff(decreasing) < 0)
        assert np.all(np.diff(increasing) > 0)
        uni = np.asarray(Uniform(4.0).hazard(np.linspace(0.0, 3.9, 60)))
        assert np.all(np.diff(uni) > 0)


@settings(max_examples=60, deadline=None)
@given(u=st.floats(0.05, 20.0), t=st.floats(0.0, 50.0))
def test_exponential_memoryless_surface(u, t):
    dist = Exponential(u)
    s = dist.survival(t)
    assert 0.0 <= s <= 1.0
    assert abs(s - (1.0 - dist.cdf(t))) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(k=st.floats(0.2, 5.0), u=st.floats(0.05, 10.0), q=st.floats(0.0, 0.99))
def test_weibull_quantile_inverts_cdf(k, u, q):
    dist = Weibull(k, u)
    assert abs(dist.cdf(dist.quantile(q)) - q) <= 1e-9


class HalfNormalish(ProcessingTimeDistribution):
    """Extension point exercise: supplies only pdf/cdf (a Weibull(2, u) in
    disguise); hazard, cumulative hazard and quantile must be derived."""

    def __init__(self, u):
        self.u = u
        self.typical_scale = 1.0 / u

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        x = self.u * np.clip(t, 0.0, None)
        return np.where(t >= 0, 2.0 * self.u * x * np.exp(-x * x), 0.0)

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        x = self.u * np.clip(t, 0.0, None)
        return -np.expm1(-x * x)


class TestCustomDistribution:
    def test_derived_functionals_match_closed_forms(self):
        custom = HalfNormalish(1.3)
        reference = Weibull(2.0, 1.3)
        for t in (0.1, 0.5, 1.0, 2.0):
            assert float(custom.hazard(t)) == pytest.approx(
                float(reference.hazard(t)), rel=1e-9)
            assert float(custom.cum_hazard(t)) == pytest.approx(
                float(reference.cum_hazard(t)), rel=1e-9)
        for q in (0.05, 0.5, 0.95):
            assert float(custom.quantile(q)) == pytest.approx(
                float(reference.quantile(q)), abs=1e-8)

    def test_exhausted_survival_guard(self):
        custom = HalfNormalish(1.0)
        with pytest.raises(ExhaustedSurvivalError):
            custom.hazard(100.0)
        assert EPS_SURVIVAL == 1e-300

    def test_exhausted_marks_where_hazards_raise(self):
        custom = HalfNormalish(1.0)
        assert custom.exhausted(np.array([1.0, 100.0])).tolist() == [False, True]
        assert Uniform(2.0).exhausted(2.0) and not Uniform(2.0).exhausted(1.9)
        # the closed-form Weibull hazards stay defined where S underflows
        assert not Weibull(2.0, 1.0).exhausted(100.0)
        assert Weibull(2.0, 1.0).cum_hazard(100.0) == 10000.0

    def test_array_quantile_matches_scalar_calls(self):
        # levels whose brackets close after different numbers of doublings
        custom = HalfNormalish(1.3)
        q = np.array([[0.0, 1e-12, 0.05], [0.5, 0.95, 0.999999]])
        values = custom.quantile(q)
        assert values.shape == q.shape
        for idx, level in np.ndenumerate(q):
            assert values[idx] == custom.quantile(float(level))  # bitwise
        assert values[0, 0] == 0.0
        assert np.all(np.abs(values - Weibull(2.0, 1.3).quantile(q)) <= 1e-8)


class TestSpecStrings:
    def test_parse_valid(self):
        assert parse_spec("weibull:k=2,u=1") == Weibull(2.0, 1.0)
        assert parse_spec("exp:u=0.5") == Exponential(0.5)
        assert parse_spec("uniform:v=3") == Uniform(3.0)
        assert parse_spec("weibull:u=1,k=2") == Weibull(2.0, 1.0)

    @pytest.mark.parametrize("text,token", [
        ("gamma:a=1", "gamma"),
        ("exp:q=1", "'q'"),
        ("weibull:k=2", "missing"),
        ("weibull:k=2,u=abc", "'abc'"),
        ("exp:u=1,u=2", "duplicate"),
        ("exp", "family:param"),
        ("exp:", "malformed"),
    ])
    def test_parse_errors_name_token(self, text, token):
        with pytest.raises(DistSpecError, match=token):
            parse_spec(text)

    def test_roundtrip(self):
        for spec in ("weibull:k=0.7,u=2.0", "exp:u=1.5", "uniform:v=2.0"):
            assert parse_spec(parse_spec(spec).spec_string()) == parse_spec(spec)
