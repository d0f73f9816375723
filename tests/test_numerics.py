import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archlab import mc, numerics
from archlab.distributions import Exponential, Uniform, Weibull
from archlab.errors import DomainError, QuadratureConvergenceError
from archlab.numerics import (classify_sign, convolve_cdf, fmt17,
                              write_rows_csv, write_table)
from archlab.parallel import ParallelTwoModel, stage_survival_gap
from archlab.serial import SerialTwoModel, dependence_profile, expression3
from archlab.verify import _PdfCdfOnly


class TestIntegrate:
    """``_tanh_sinh``, the rule behind the convolution, on one cell whose
    integrand takes the array of nodes."""

    @staticmethod
    def integrate(fn, cuts):
        """(estimate, converged) of the integral of ``fn`` over the panels
        between successive ``cuts``, to ``REL_TOL`` relative."""
        lo, hi = np.array(cuts[:-1], dtype=float), np.array(cuts[1:], dtype=float)
        total, ok = numerics._tanh_sinh(lambda x, r, p: fn(x), lo, hi,
                                        np.zeros(lo.size, dtype=int), np.zeros(1),
                                        np.full(1, numerics.REL_TOL))
        return float(total[0]), bool(ok[0])

    def test_constant(self):
        val, ok = self.integrate(np.ones_like, (0.0, 3.0))
        assert ok and val == pytest.approx(3.0, rel=1e-15)

    def test_exponential_unit_mass(self):
        hi = float(Exponential(1.0).quantile(1.0 - 1e-12))
        val, ok = self.integrate(lambda x: np.exp(-x), (0.0, hi))
        assert ok and val == pytest.approx(1.0 - 1e-12, rel=1e-14)

    def test_uniform_pdf_across_discontinuity(self):
        # an outermost node may round onto a panel end, where its weight is
        # below 1e-17 of the panel, so the jump at 2 needs no one-sided limit
        nodes = []

        def pdf(x):
            nodes.append(x.copy())
            return Uniform(2.0).pdf(x)

        val, ok = self.integrate(pdf, (0.0, 2.0, 3.0))
        assert ok and val == pytest.approx(1.0, rel=1e-15)
        nodes = np.concatenate([x.ravel() for x in nodes])
        assert np.all((nodes >= 0.0) & (nodes <= 3.0))

    def test_level_exhaustion_carries_best_estimate(self, monkeypatch):
        monkeypatch.setattr(numerics, "LEVELS", numerics.LEVELS[:2])
        val, ok = self.integrate(lambda x: 1.0 / np.sqrt(np.abs(x - 0.37) + 1e-9),
                                 (0.0, 1.0))
        assert not ok
        assert math.isfinite(val) and val > 0

    def test_nan_integrand_fails(self):
        val, ok = self.integrate(lambda x: np.full_like(x, math.nan), (0.0, 1.0))
        assert not ok


class TestConvolveCdf:
    def test_exponential_closed_form(self):
        # 1 - e^{-u tau} - u tau e^{-u tau} at u = tau = 1
        expected = 1.0 - 2.0 * math.exp(-1.0)
        assert convolve_cdf(Exponential(1.0), 1.0) == pytest.approx(expected, abs=1e-15)
        assert convolve_cdf(Weibull(1.0, 1.0), 1.0) == \
            pytest.approx(expected, abs=1e-15)

    def test_uniform_piecewise(self):
        assert convolve_cdf(Uniform(1.0), 1.0) == pytest.approx(0.5, abs=1e-15)
        assert convolve_cdf(Uniform(1.0), 0.5) == pytest.approx(0.125, abs=1e-15)
        assert convolve_cdf(Uniform(1.0), 1.5) == pytest.approx(
            2 * 1.5 - 1.5 ** 2 / 2 - 1, abs=1e-15)
        assert convolve_cdf(Uniform(1.0), 2.0) == 1.0
        assert convolve_cdf(Uniform(1.0), 7.0) == 1.0

    def test_tau_zero_and_domain(self):
        for dist in (Exponential(2.0), Uniform(1.0), Weibull(0.5, 1.0)):
            assert convolve_cdf(dist, 0.0) == 0.0
        with pytest.raises(DomainError):
            convolve_cdf(Exponential(1.0), -0.5)
        with pytest.raises(DomainError):
            convolve_cdf(Exponential(1.0), math.nan)

    def test_array_errors_name_the_first_bad_tau(self):
        taus = np.linspace(0.0, 5.0, 2001)
        taus[1000], taus[1999] = -1.0, -3.0
        with pytest.raises(DomainError, match=re.escape(
                "tau must be nonnegative, got tau[1000]=-1.0")):
            convolve_cdf(Weibull(2.0, 1.0), taus)
        taus[700] = math.inf
        with pytest.raises(DomainError, match=re.escape(
                "tau must be finite, got tau[700]=inf")):
            convolve_cdf(Weibull(2.0, 1.0), taus)
        # scalar messages keep their form
        with pytest.raises(DomainError, match=re.escape(
                "tau must be nonnegative, got -0.5")):
            convolve_cdf(Weibull(2.0, 1.0), -0.5)

    @pytest.mark.parametrize("dist", [Exponential(1.3), Uniform(2.0)])
    def test_numeric_matches_closed_on_100_points(self, dist):
        hi = 2.5 * float(dist.quantile(0.99)) if isinstance(dist, Exponential) else 5.0
        # Weibull(1, u) is no Exponential, and a uniform seen only through
        # pdf, cdf and breakpoints is no Uniform: both integrate numerically
        quad = (Weibull(1.0, dist.u) if isinstance(dist, Exponential)
                else _PdfCdfOnly(dist))
        for tau in np.linspace(0.01, hi, 100):
            closed = convolve_cdf(dist, float(tau))
            numeric = convolve_cdf(quad, float(tau))
            assert abs(closed - numeric) <= 1e-15

    def test_monotone_and_bounded_by_cdf(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            dist = Weibull(k=float(rng.uniform(0.2, 4.0)),
                           u=float(rng.uniform(0.3, 4.0)))
            taus = np.linspace(0.0, float(dist.quantile(0.999)), 60)
            convs = np.array([convolve_cdf(dist, float(t)) for t in taus])
            cdfs = np.array([float(dist.cdf(float(t))) for t in taus])
            assert np.all(np.diff(convs) >= -1e-12)
            assert np.all(convs <= cdfs + 1e-12)

    @pytest.mark.parametrize("dist", [Weibull(0.2, 1.0), Weibull(2.0, 0.7),
                                      Exponential(1.0), Uniform(1.5)])
    def test_monte_carlo_oracle(self, dist):
        draws = mc.sample_iid(dist, 1_000_000, 2, 99)
        sums = draws[:, 0] + draws[:, 1]
        for q in np.linspace(0.1, 0.9, 10):
            tau = 2.0 * float(dist.quantile(float(q)))
            analytic = convolve_cdf(dist, tau)
            emp = float(np.mean(sums <= tau))
            sigma = math.sqrt(max(analytic * (1 - analytic), 1e-12) / len(sums))
            assert abs(emp - analytic) <= 3.0 * sigma

    def test_weibull_k02_against_frozen_quadrature(self):
        # frozen from an independent scipy.integrate.quad + 10^7-draw MC run
        assert convolve_cdf(Weibull(0.2, 1.0), 1.0) == pytest.approx(
            0.391038, abs=5e-6)

    @pytest.mark.parametrize("dist", [
        Weibull(2.0, 1.0), Weibull(0.5, 1.0), Weibull(1.0, 1.0),
        _PdfCdfOnly(Weibull(2.0, 1.0))], ids=["k2", "k0.5", "k1", "pdf-cdf-only"])
    def test_largest_finite_taus(self, dist):
        # a panel midpoint 0.5 * (lo + hi) would overflow above about 1.2e308
        taus = np.array([1e308, 1.7e308, np.finfo(float).max])
        assert np.array_equal(convolve_cdf(dist, taus), np.ones(3))

    def test_level_starved_convolution_raises_with_estimate(self, monkeypatch):
        monkeypatch.setattr(numerics, "LEVELS", numerics.LEVELS[:2])
        with pytest.raises(QuadratureConvergenceError,
                           match=r"\(rel_tol=1e-13, last level h=1/16\)") as err:
            convolve_cdf(Weibull(5.0, 1.0), 2.5)
        assert 0.0 <= err.value.best_estimate <= 1.0

    def test_custom_distribution_generic_path(self):
        # a pdf/cdf-only distribution is integrated from its own pdf and
        # cdf; compare against the built-in Weibull on the same law
        from archlab.distributions import ProcessingTimeDistribution

        class Disguised(ProcessingTimeDistribution):
            def pdf(self, t):
                t = np.asarray(t, dtype=float)
                x = 1.3 * np.clip(t, 0.0, None)
                return np.where(t >= 0, 2.0 * 1.3 * x * np.exp(-x * x), 0.0)

            def cdf(self, t):
                x = 1.3 * np.clip(np.asarray(t, dtype=float), 0.0, None)
                return -np.expm1(-x * x)

        custom = Disguised()
        reference = Weibull(2.0, 1.3)
        for tau in (0.2, 0.7, 1.5, 3.0):
            assert convolve_cdf(custom, tau) == pytest.approx(
                convolve_cdf(reference, tau), abs=1e-7)


class TestGrids:
    def test_figure4_grid_k15_nonnegative(self):
        # sign pattern of the p = 1/2 kernel on a subsampled u x tau grid
        taus = np.linspace(0.01, 5.0, 12)
        for u in np.linspace(0.5, 10.0, 12):
            dist = Weibull(1.5, float(u))
            values = expression3(dist.cdf(taus), convolve_cdf(dist, taus))
            assert float(values.min()) > -1e-9

    def test_figure6_grid_k2_both_signs(self):
        model = ParallelTwoModel(Weibull(2.0, 1.0))
        axis = np.linspace(0.0, 10.0, 15)
        values = stage_survival_gap(model, axis[:, None], axis[None, :]).expr4
        assert values.shape == (15, 15)
        assert float(values.min()) < -1e-9
        assert float(values.max()) > 1e-9


def test_classify_sign():
    assert classify_sign(1e-8) == "positive"
    assert classify_sign(-1e-8) == "negative"
    assert classify_sign(5e-10) == "zero"
    assert classify_sign(0.0) == "zero"
    with pytest.raises(DomainError):
        classify_sign(math.nan)


def test_every_export_resolves():
    import archlab
    missing = [name for name in archlab.__all__ if not hasattr(archlab, name)]
    assert missing == []
    assert len(set(archlab.__all__)) == len(archlab.__all__)


def test_fmt17_roundtrip():
    rng = np.random.default_rng(4)
    for x in rng.uniform(-1e6, 1e6, 200):
        assert float(fmt17(float(x))) == float(x)
    assert fmt17(float("inf")) == "inf"


#: Chunk sizes the writer is tested at: fixed ones, so that a test's ID does
#: not move with the writer's chunk size, and that size itself.
CHUNKS = sorted({1, 3, 10, 512, numerics._CHUNK_ROWS})


class TestWriteTable:
    NAMES = ("x", "n", "label")
    FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1, 1e300, -2.5,
              3.0, 1.0 / 3.0]
    INTS = [0, 1, -7, 2 ** 62, 12, 5, 6, 7, 8, 9]
    LABELS = ["negative", "zero", "positive", "a_first", "b_first"] * 2

    def cols(self):
        return (np.array(self.FLOATS), np.array(self.INTS),
                np.array(self.LABELS, dtype=object))

    @staticmethod
    def reference(names, cols, head):
        """The table written one value at a time by %-formats: ``%s`` for
        text, ``%d`` for ints and ``%.17g`` for floats, and in JSON text and
        non-finite floats by json.dumps."""
        rows = list(zip(*(np.asarray(c).tolist() for c in cols)))

        def text(v):
            return "%s" % v if isinstance(v, str) else "%d" % v \
                if isinstance(v, int) else "%.17g" % v

        if head is None:
            cells = [[text(v) for v in row] for row in rows]
            return "".join(",".join(r) + "\n" for r in [list(names)] + cells)

        def cell(v):
            if isinstance(v, str) or isinstance(v, float) and not math.isfinite(v):
                return json.dumps(v)
            return text(v)

        objs = ["{" + ", ".join(f"{json.dumps(k)}: {cell(v)}"
                                for k, v in zip(names, row)) + "}" for row in rows]
        items = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in head.items()]
        return "{" + ", ".join(items + ['"rows": [' + ", ".join(objs) + "]"]) + "}\n"

    @staticmethod
    def written(names, cols, head=None):
        buf = io.StringIO()
        write_table(buf, names, cols, head)
        return buf.getvalue()

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("head", [None, {}, {"figure": "fig4"}])
    def test_bytes_independent_of_chunk_size(self, monkeypatch, chunk, head):
        monkeypatch.setattr(numerics, "_CHUNK_ROWS", chunk)
        assert self.written(self.NAMES, self.cols(), head) == \
            self.reference(self.NAMES, self.cols(), head)

    def test_json_parses_back_to_the_same_values(self):
        rows = json.loads(self.written(self.NAMES, self.cols(), {}))["rows"]
        assert [r["n"] for r in rows] == self.INTS
        assert [r["label"] for r in rows] == self.LABELS
        got = np.array([r["x"] for r in rows])
        assert np.array_equal(got, self.FLOATS, equal_nan=True)

    def test_zero_rows(self):
        cols = (np.empty(0), np.empty(0, dtype=int))
        assert self.written(("a", "b"), cols) == "a,b\n"
        assert self.written(("a", "b"), cols, {}) == '{"rows": []}\n'
        assert self.written(("a", "b"), cols, {"figure": "fig7"}) == \
            '{"figure": "fig7", "rows": []}\n'

    def test_path_and_unequal_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(str(path), self.NAMES, self.cols())
        assert path.read_text() == self.reference(self.NAMES, self.cols(), None)
        with pytest.raises(ValueError, match="differ in length"):
            write_table(io.StringIO(), ("a", "b"), (np.zeros(2), np.zeros(3)))

    def test_path_like_targets(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, self.NAMES, self.cols())
        assert path.read_text() == self.reference(self.NAMES, self.cols(), None)
        write_table(path, self.NAMES, self.cols(), {"figure": "x"})
        assert path.read_text() == self.reference(self.NAMES, self.cols(),
                                                  {"figure": "x"})
        trials = mc.simulate_serial(SerialTwoModel(Weibull(k=0.7, u=1.0), 0.5), 5, 1)
        write_table(tmp_path / "trials.csv", trials.columns, trials.table())
        buf = io.StringIO()
        write_table(buf, trials.columns, trials.table())
        assert (tmp_path / "trials.csv").read_text() == buf.getvalue()

    def assert_exact(self, *cols):
        """CSV and JSON of ``cols`` equal the %-format reference; a failure
        names the first differing rows, not a diff of the whole text."""
        names = tuple(f"c{j}" for j in range(len(cols)))
        for head in (None, {"figure": "x"}):
            got, want = (re.split(r"\n|, \{", text) for text in (
                self.written(names, cols, head), self.reference(names, cols, head)))
            bad = [(g, w) for g, w in zip(got, want) if g != w]
            assert len(got) == len(want) and not bad, bad[:5]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
    def test_raw_bit_patterns(self, bits):
        self.assert_exact(np.array(bits, dtype=np.uint64).view(np.float64))

    def test_every_binade(self):
        rng = np.random.default_rng(11)
        exponent = np.repeat(np.arange(2048, dtype=np.uint64), 40) << np.uint64(52)
        mantissa = rng.integers(0, 2 ** 52, exponent.size, dtype=np.uint64)
        sign = rng.integers(0, 2, exponent.size, dtype=np.uint64) << np.uint64(63)
        self.assert_exact((sign | exponent | mantissa).view(np.float64))

    def test_powers_of_ten_and_neighbours(self):
        tens = np.array([float(f"1e{k}") for k in range(-300, 301)])
        near = np.concatenate([tens, np.nextafter(tens, 0.0),
                               np.nextafter(tens, np.inf)])
        self.assert_exact(np.concatenate([near, -near]))
        # the exponent must be fixed from the whole double-double, not its
        # leading part: 1e-28 is just below 10^-28, so E = -29, and the
        # leading part of 1e-28 * 10^45 rounds up to 10^17
        assert self.written(("x",), (np.array([1e-28]),)) == \
            "x\n9.9999999999999997e-29\n"

    def test_exact_decimal_ties(self):
        # m / 2^18 has 18 significant digits ending in 5: a tie at 17
        ties = np.arange(26215, 262144, 2) / 2.0 ** 18
        assert "%.18g" % ties[0] == "0.100002288818359375"
        self.assert_exact(ties, -ties)

    def test_special_floats_and_ints(self):
        tiny = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                         2.2250738585072014e-308, 1e-270, 1e270, 1.7976931348623157e308,
                         math.inf, -math.inf, math.nan, 1e16, 1e17, 0.0001, 1e-5])
        self.assert_exact(tiny)
        ints = np.array([0, -1, 9, -10, 10 ** 17, -(10 ** 18), 2 ** 63 - 1,
                         -(2 ** 63), 0, 42, -7, 1000, -9999, 10000, 123456789,
                         -99999999])
        self.assert_exact(ints, tiny)
        self.assert_exact(np.array([0, 1, 2 ** 64 - 1, 10 ** 19], dtype=np.uint64))

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_tables_around_the_chunk_size(self, offset):
        n = numerics._CHUNK_ROWS + offset
        rng = np.random.default_rng(n)
        x = rng.weibull(0.7, n) * 10.0 ** rng.integers(-8, 8, n)
        labels = np.array(["a_first", "b_first", ""], dtype=object)[np.arange(n) % 3]
        self.assert_exact(np.arange(n) - 5, labels, x, -x)
        self.assert_exact(x[:1], labels[:1], np.arange(1))

    @pytest.mark.parametrize("label", ["é", "a,b", 'say "x"', "a\\b", "a\rb",
                                       "a\nb", "tab\t", "a\x00b"])
    def test_labels_that_cannot_be_written_verbatim(self, label):
        for col in (np.array(["ok", label], dtype=object), np.array(["ok", label]),
                    np.array([b"ok", label.encode()]),
                    np.array([b"ok", label.encode()], dtype=object)):
            for head in (None, {}):
                with pytest.raises(ValueError, match="cannot write the label"):
                    write_table(io.StringIO(), ("label",), (col,), head)
        with pytest.raises(ValueError, match="cannot write the label"):
            write_rows_csv(io.StringIO(), ("n", "label"), [(1, label)])

    @pytest.mark.parametrize("dtype", [object, "U", "S"])
    def test_label_columns_of_any_dtype(self, dtype):
        labels = np.array(self.LABELS, dtype=dtype)
        cols = (np.array(self.FLOATS), np.array(self.INTS), labels)
        for head in (None, {}):
            assert self.written(self.NAMES, cols, head) == \
                self.reference(self.NAMES, self.cols(), head)
        strided = labels.repeat(2)[1::2]
        assert not strided.flags.contiguous
        assert self.written(("label",), (strided,)) == \
            self.written(("label",), (self.cols()[2],))

    @pytest.mark.parametrize("dtype", ["S7", "S12", object])
    def test_bad_label_in_a_later_chunk(self, dtype):
        # every chunk checks its own labels: row 1500 is past the first chunk
        assert numerics._CHUNK_ROWS <= 1500
        ok, bad = ("ok", "a,b") if dtype is object else (b"ok", b"a,b")
        col = np.array([ok] * 1501, dtype=dtype)
        col[1500] = bad
        for head in (None, {}):
            with pytest.raises(ValueError, match="cannot write the label 'a,b'"):
                write_table(io.StringIO(), ("label",), (col,), head)

    def test_chunks_leave_no_memory_behind(self):
        """What chunks leave allocated from ``_cells`` does not grow with
        their number.  It is a few tuples on CPython's free lists, whose
        count depends on what ran before; a tuple left per chunk would add
        80 bytes or more for each."""
        import tracemalloc

        from archlab._cells import Table
        trials = mc.simulate_serial(SerialTwoModel(Weibull(k=0.7, u=1.0), 0.5), 1024, 1)
        cols = [np.asarray(c) for c in trials.table()]
        table = Table(trials.columns, True)
        table.format_chunk(cols)  # the plan and lookup tables, once

        def left(chunks):
            tracemalloc.start()
            try:
                for _ in range(chunks):
                    table.format_chunk(cols)
                snapshot = tracemalloc.take_snapshot()
            finally:
                tracemalloc.stop()
            mine = snapshot.filter_traces([tracemalloc.Filter(True, "*_cells.py")])
            return sum(stat.size for stat in mine.statistics("filename"))

        assert left(300) - left(10) < 290

    @pytest.mark.parametrize("head", [None, {}])
    def test_writer_cuts_every_chunk(self, monkeypatch, head):
        # the writer formats at most _CHUNK_ROWS rows at a time, whatever
        # the chunks it is handed: a recall trace's chunks of 1024 trials of
        # 5 items, or write_table's one whole-table chunk
        from archlab import _cells, traces
        from archlab.recall import RecallModel

        sizes = []
        format_chunk = _cells.Table.format_chunk

        def spy(table, cols):
            sizes.append(len(cols[0]))
            return format_chunk(table, cols)

        monkeypatch.setattr(_cells.Table, "format_chunk", spy)
        n = 2 * traces.CHUNK_TRIALS + 3
        traces.recall_serial(RecallModel((1.0, 2.0, 3.0, 4.0, 5.0)), n,
                             4).write(io.StringIO(), head)
        assert sum(sizes) == 5 * n and max(sizes) == numerics._CHUNK_ROWS
        sizes.clear()
        rows = 3 * numerics._CHUNK_ROWS + 1
        write_table(io.StringIO(), ("x",), (np.arange(rows),), head)
        assert sizes == [numerics._CHUNK_ROWS] * 3 + [1]

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_rows_adapter_matches_columns(self, monkeypatch, chunk):
        monkeypatch.setattr(numerics, "_CHUNK_ROWS", chunk)
        rows = zip(self.FLOATS, self.INTS, self.LABELS)
        buf = io.StringIO()
        write_rows_csv(buf, self.NAMES, (list(r) for r in rows))
        assert buf.getvalue() == self.reference(self.NAMES, self.cols(), None)
        empty = io.StringIO()
        write_rows_csv(empty, ["draw"], iter(()))
        assert empty.getvalue() == "draw\n"

    @staticmethod
    def every_float_layout():
        """A double for each float layout: fixed notation for E = -4..16 and
        scientific with 2- and 3-digit exponents, each with s = 1..17
        significant digits and both signs.  Each is the first double nearest
        to a seeded random s-digit decimal whose '%.17g' keeps exactly those
        s digits; the values and their (notation, s, sign) keys."""
        rng = np.random.default_rng(17)
        values, keys = [], set()
        exponents = [[e] for e in range(-4, 17)] + [
            [-5, 17, -6, 18, -42, 99], [-100, 150, -250, 269, -101, 101]]
        for candidates in exponents:
            e0 = candidates[0]
            notation = e0 if -4 <= e0 <= 16 else "e%d" % max(2, len(str(abs(e0))))
            for s in range(1, 18):
                for trial in range(6000):
                    e = candidates[trial % len(candidates)]
                    digits = rng.integers(0, 10, s)
                    digits[0] = digits[0] or 1
                    digits[-1] = digits[-1] or 7
                    text = "".join(map(str, digits))
                    x = float(f"{text[0]}.{text[1:]}e{e}")
                    mantissa, exponent = ("%.16e" % x).split("e")
                    if int(exponent) == e and \
                            mantissa.replace(".", "").rstrip("0") == text:
                        break
                else:
                    raise AssertionError(f"no double has E = {e0} and s = {s}")
                values += [x, -x]
                keys |= {(notation, s, "+"), (notation, s, "-")}
        return np.array(values), keys

    @staticmethod
    def layout_of(text: str):
        """(notation, significant digits, sign) of a '%.17g' text: its E in
        fixed notation, else "e" and the exponent's width."""
        sign, body = ("-", text[1:]) if text.startswith("-") else ("+", text)
        mantissa, _, exponent = body.partition("e")
        whole, _, fraction = mantissa.partition(".")
        if exponent:
            notation = "e%d" % len(exponent[1:])
        elif whole != "0":
            notation = len(whole) - 1
        else:
            notation = -1 - (len(fraction) - len(fraction.lstrip("0")))
        return notation, len((whole + fraction).strip("0")), sign

    def test_every_float_layout(self):
        values, keys = self.every_float_layout()
        every = {(notation, s, sign) for notation in [*range(-4, 17), "e2", "e3"]
                 for s in range(1, 18) for sign in "+-"}
        assert keys == every
        assert {self.layout_of("%.17g" % v) for v in values} == every
        self.assert_exact(values)
        self.assert_exact(values[::-1], np.arange(values.size), values * 0.5)

    @pytest.mark.parametrize("table, bound", [("trials", 95), ("profile", 120)])
    def test_chunk_memory_per_cell(self, table, bound):
        """The traced peak of one 1024-row chunk written by a new Table, in
        bytes per cell, its plan included.  Measured 78 (trials) and 99
        (profile); the bounds leave about 20 %.  The previous writer, a byte
        matrix with 48-byte float slots, read 105 and 131."""
        import tracemalloc

        from archlab._cells import Table
        if table == "trials":
            obj = mc.simulate_serial(SerialTwoModel(Weibull(k=0.7, u=1.0), 0.5), 1024, 1)
        else:
            obj = dependence_profile(SerialTwoModel(Weibull(k=0.5, u=1.0), 0.5),
                                     np.linspace(0.01, 5.0, 1024))
        cols = [np.asarray(c) for c in obj.table()]
        Table(obj.columns, True).format_chunk(cols)  # lookup tables, once
        tracemalloc.start()
        try:
            Table(obj.columns, True).format_chunk(cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (len(cols) * 1024) <= bound
