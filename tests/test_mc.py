import math

import numpy as np
import pytest
from scipy import stats

from archlab import mc, recall, traces
from archlab.distributions import Exponential, Uniform, Weibull
from archlab.errors import ConditioningError, DomainError, McError
from archlab.numerics import convolve_cdf
from archlab.parallel import ParallelTwoModel
from archlab.recall import RecallModel
from archlab.serial import SerialTwoModel, marginal_completion_cdf


class TestRngContract:
    B = mc.BLOCK_TRIALS

    def test_same_state_same_stream(self):
        a = mc.RngState(123, 4).generator().random(1000)
        b = mc.RngState(123, 4).generator().random(1000)
        assert np.array_equal(a, b)

    def test_different_index_different_stream(self):
        a = mc.RngState(123, 0).generator().random(1000)
        b = mc.RngState(123, 1).generator().random(1000)
        assert not np.array_equal(a, b)

    def test_prefix_stability_across_run_sizes(self):
        # trial i consumes fixed draws regardless of the total trial count
        model = SerialTwoModel(Exponential(1.0), 0.5)
        n_long = mc.BLOCK_TRIALS + 5000
        long = mc.simulate_serial(model, n_long, 77)
        short = mc.simulate_serial(model, mc.BLOCK_TRIALS, 77)
        assert np.array_equal(long.total_a[:mc.BLOCK_TRIALS], short.total_a)
        assert np.array_equal(long.order_b_first[:mc.BLOCK_TRIALS],
                              short.order_b_first)

    @pytest.mark.parametrize("rows", [1, 1000, B])
    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 9])
    def test_row_slices_match_one_draw_per_block(self, n, rows):
        # block b is one random((len, d)) draw of the stream (seed, b),
        # however many slices it is drawn in
        d = 3
        want = np.concatenate([
            mc.RngState(5, b).generator().random((min(self.B, n - start), d))
            for b, start in enumerate(range(0, n, self.B))])
        got, slices, buffers = np.empty((n, d)), [], set()
        for start, u in mc.uniform_blocks(5, n, d, rows):
            got[start:start + len(u)] = u
            slices.append((start, len(u)))
            buffers.add(id(u.base))
        assert np.array_equal(got, want)
        start, length = np.array(slices).T
        assert np.array_equal(start, np.cumsum(length) - length)
        assert start[-1] + length[-1] == n
        assert ((1 <= length) & (length <= rows)).all()
        assert np.array_equal(start // self.B, (start + length - 1) // self.B)
        assert len(buffers) == 1  # every slice is drawn into the one buffer

    def test_n_trials_validation(self):
        with pytest.raises(DomainError):
            list(mc.uniform_blocks(1, 0, 2))

    def test_negative_seed_is_a_domain_error(self):
        with pytest.raises(DomainError, match="seed must be nonnegative, got -1"):
            list(mc.uniform_blocks(-1, 5, 2))
        with pytest.raises(DomainError):
            mc.simulate_serial(SerialTwoModel(Exponential(1.0), 0.5), 3, -5)


class TestTheorem1:
    def test_fraction_near_62_percent(self):
        res = mc.run_theorem1_mc(1_000_000, mc.DEFAULT_SEED)
        assert abs(res.fraction_positive - 0.62) <= 0.01
        assert res.n_conditioned > 500_000
        assert res.stderr == pytest.approx(
            math.sqrt(res.fraction_positive * (1 - res.fraction_positive)
                      / res.n_conditioned), rel=1e-12)

    def test_matches_exact_conditional_probability(self):
        # analytically, the positive region conditional on beta^2 >= alpha
        # has probability (2 ln 2 - 1) / (2 - 2 ln 2) ~ 0.6294457
        exact = (2.0 * math.log(2.0) - 1.0) / (2.0 - 2.0 * math.log(2.0))
        res = mc.run_theorem1_mc(1_000_000, 1)
        assert abs(res.fraction_positive - exact) <= 4.0 * res.stderr

    def test_seed_stability_within_4_sigma(self):
        runs = [mc.run_theorem1_mc(1_000_000, s) for s in (11, 23, 37, 41, 53)]
        for i in range(len(runs)):
            for j in range(i + 1, len(runs)):
                gap = abs(runs[i].fraction_positive - runs[j].fraction_positive)
                assert gap <= 4.0 * math.hypot(runs[i].stderr, runs[j].stderr)

    def test_bitwise_determinism(self):
        assert mc.run_theorem1_mc(300_000, 5) == mc.run_theorem1_mc(300_000, 5)

    def test_boundary_pair_not_counted_positive(self):
        from archlab.serial import expression3
        assert expression3(1.0, 1.0) == 0.0  # counted as not-positive

    def test_no_conditioned_samples_error(self):
        for seed in range(200):
            res_keep = None
            for _, u in mc.uniform_blocks(seed, 1, 2):
                alpha = u[0, 0]
                beta = alpha + (1 - alpha) * u[0, 1]
                res_keep = beta * beta >= alpha
            if not res_keep:
                with pytest.raises(McError):
                    mc.run_theorem1_mc(1, seed)
                return
        pytest.skip("no single-draw seed failed the condition")

    def test_json_report_keys(self):
        res = mc.run_theorem1_mc(1000, 3)
        assert list(res.to_json_dict().keys()) == [
            "n_samples", "n_conditioned", "fraction_positive", "stderr", "seed"]

    def test_n_validation(self):
        with pytest.raises(DomainError):
            mc.run_theorem1_mc(0, 1)


def _compacted_counts(u):
    """The kernel evaluated on the retained pairs only, as it was first
    written: the oracle for ``mc._sign_counts``, which runs it on every
    pair of a slice."""
    alpha = u[:, 0]
    beta = alpha + (1.0 - alpha) * u[:, 1]
    keep = (alpha > 0.0) & (beta * beta >= alpha)
    a, b = alpha[keep], beta[keep]
    root = np.sqrt(a)
    expr3 = 1.0 - b - 0.25 * (root - b / root) ** 2
    return int(keep.sum()), int((expr3 > 0.0).sum())


class TestTheorem1InPlace:
    B = mc.BLOCK_TRIALS

    @pytest.mark.parametrize("seed", [1, 7, mc.DEFAULT_SEED])
    @pytest.mark.parametrize("n", [1, 2, B - 1, B, B + 1, 3 * B + 5])
    def test_counts_match_the_compacted_form(self, n, seed):
        kept, positive = map(sum, zip(*(_compacted_counts(u) for _, u in
                                        mc.uniform_blocks(seed, n, 2))))
        if kept == 0:
            with pytest.raises(McError):
                mc.run_theorem1_mc(n, seed)
            return
        res = mc.run_theorem1_mc(n, seed)
        assert res.n_conditioned == kept
        assert res.fraction_positive == positive / kept

    def test_alpha_zero_is_excluded_without_a_warning(self):
        # alpha = 0 divides by zero (and 0 / 0 with u1 = 0) in the kernel;
        # RuntimeWarning is an error in this suite
        u = np.random.default_rng(3).random((200, 2))
        u[[0, 57, 199], 0] = 0.0
        u[57, 1] = 0.0
        u[[10, 11], 0] = [2.0 ** -53, 2.0 ** -52]  # the least nonzero draws
        assert mc._sign_counts(u) == _compacted_counts(u)
        assert mc._sign_counts(u[[0, 57, 199]]) == (0, 0)
        kept, _ = mc._sign_counts(u)
        assert kept == mc._sign_counts(np.delete(u, [0, 57, 199], axis=0))[0]


class TestSimulateSerial:
    def test_forced_order(self):
        model = SerialTwoModel(Exponential(1.0), 1.0)
        trials = mc.simulate_serial(model, 5000, 3)
        assert not trials.order_b_first.any()
        model0 = SerialTwoModel(Exponential(1.0), 0.0)
        assert mc.simulate_serial(model0, 5000, 3).order_b_first.all()

    def test_total_b_mean_mixture(self):
        model = SerialTwoModel(Exponential(1.0), 0.5)
        trials = mc.simulate_serial(model, 1_000_000, 17)
        # mixture of E[z] = 1 (b first) and E[z_a + z_b] = 2 (a first)
        assert trials.total_b.mean() == pytest.approx(1.5, abs=0.01)

    def test_max_of_totals_matches_convolution(self):
        model = SerialTwoModel(Uniform(1.0), 0.3)
        trials = mc.simulate_serial(model, 1_000_000, 23)
        both = np.maximum(trials.total_a, trials.total_b)
        for tau in (0.4, 0.8, 1.2, 1.6):
            analytic = convolve_cdf(model.dist, tau)
            emp = float(np.mean(both <= tau))
            sigma = math.sqrt(analytic * (1 - analytic) / len(trials))
            assert abs(emp - analytic) <= 3.0 * sigma

    @pytest.mark.parametrize("dist", [Weibull(1.7, 2.0), Exponential(1.0),
                                      Uniform(2.0)])
    def test_marginal_matches_analytic(self, dist):
        model = SerialTwoModel(dist, 0.35)
        trials = mc.simulate_serial(model, 1_000_000, 1234)
        for q in np.linspace(0.08, 0.95, 10):
            tau = float(dist.quantile(float(q))) * 1.5
            analytic = marginal_completion_cdf(model, "a", tau)
            emp = float(np.mean(trials.total_a <= tau))
            sigma = math.sqrt(max(analytic * (1 - analytic), 1e-12)
                              / len(trials))
            assert abs(emp - analytic) <= 3.0 * sigma

    def test_case_algebra(self):
        model = SerialTwoModel(Exponential(1.0), 0.5)
        trials = mc.simulate_serial(model, 20_000, 8)
        a_first = ~trials.order_b_first
        # a first: totals (z_a, z_a + z_b); b first: (z_a + z_b, z_b)
        assert np.allclose(trials.total_b[a_first],
                           trials.t1[a_first] + trials.t2[a_first], rtol=0, atol=0)
        assert np.allclose(trials.total_a[~a_first],
                           trials.t1[~a_first] + trials.t2[~a_first], rtol=0, atol=0)


class TestSimulateParallel:
    def test_stage_identity_within_one_ulp(self):
        model = ParallelTwoModel(Weibull(2.0, 1.0))
        trials = mc.simulate_parallel(model, 200_000, 12)
        slower = np.maximum(trials.total_a, trials.total_b)
        err = np.abs((trials.t1 + trials.t2) - slower)
        assert np.all(err <= np.spacing(slower))

    def test_exponential_second_stage_is_exponential(self):
        model = ParallelTwoModel(Exponential(1.0))
        trials = mc.simulate_parallel(model, 100_000, 5)
        ks = stats.kstest(trials.t2, "expon")
        assert ks.pvalue > 0.001

    def test_uniform_order_symmetry(self):
        model = ParallelTwoModel(Uniform(1.0))
        trials = mc.simulate_parallel(model, 1_000_000, 6)
        frac = float(trials.order_b_first.mean())
        assert abs(frac - 0.5) <= 3.0 * math.sqrt(0.25 / len(trials))

    def test_totals_are_raw_draws(self):
        model = ParallelTwoModel(Exponential(1.0))
        trials = mc.simulate_parallel(model, 10_000, 9)
        assert np.allclose(np.minimum(trials.total_a, trials.total_b),
                           trials.t1, rtol=0, atol=0)


class TestEmpiricalDependence:
    def test_parallel_near_zero(self):
        trials = mc.simulate_parallel(ParallelTwoModel(Exponential(1.0)),
                                      1_000_000, 44)
        for tau in (0.5, 1.0, 2.0):
            est = mc.empirical_dependence(trials, tau)
            assert abs(est.estimate) <= 3.0 * est.stderr

    def test_serial_exponential_positive_at_3_sigma(self):
        trials = mc.simulate_serial(SerialTwoModel(Exponential(1.0), 0.5),
                                    1_000_000, 45)
        est = mc.empirical_dependence(trials, 1.0)
        assert est.estimate - 3.0 * est.stderr > 0.0
        assert abs(est.estimate - 0.1414051) <= 4.0 * est.stderr

    def test_serial_uniform_negative_sign_at_1e7(self):
        # analytic value -10/4896 ~ -0.00204: a small effect that needs
        # large n to resolve
        trials = mc.simulate_serial(SerialTwoModel(Uniform(1.0), 0.5),
                                    10_000_000, 46)
        est = mc.empirical_dependence(trials, 5.0 / 6.0)
        assert est.estimate < 0.0
        assert abs(est.estimate - (-10.0 / 4896.0)) <= 4.0 * est.stderr

    def test_empty_conditioning_set(self):
        trials = mc.simulate_serial(SerialTwoModel(Exponential(1.0), 0.5),
                                    1000, 47)
        with pytest.raises(ConditioningError, match="tau=1e-12"):
            mc.empirical_dependence(trials, 1e-12)

    @pytest.mark.parametrize("dist,seed", [(Weibull(0.6, 1.0), 1808),
                                           (Exponential(1.0), 1909),
                                           (Uniform(1.0), 2010)])
    def test_matches_analytic_at_10_points_per_family(self, dist, seed):
        from archlab.serial import dependence_difference
        model = SerialTwoModel(dist, 0.5)
        trials = mc.simulate_serial(model, 1_000_000, seed)
        for q in np.linspace(0.1, 0.9, 10):
            tau = 1.4 * float(dist.quantile(float(q)))
            est = mc.empirical_dependence(trials, tau)
            analytic = dependence_difference(model, tau)
            assert abs(est.estimate - analytic) <= 3.0 * est.stderr, (q, tau)

    def test_stderr_calibration(self):
        # repeated estimates should scatter consistently with the reported
        # delta-method stderr
        model = SerialTwoModel(Exponential(1.0), 0.5)
        estimates, stderrs = [], []
        for seed in range(30):
            trials = mc.simulate_serial(model, 50_000, 1000 + seed)
            est = mc.empirical_dependence(trials, 1.0)
            estimates.append(est.estimate)
            stderrs.append(est.stderr)
        scatter = float(np.std(estimates, ddof=1))
        assert scatter == pytest.approx(float(np.mean(stderrs)), rel=0.5)


class TestTraceCsv:
    def test_columns_and_determinism(self, tmp_path):
        model = SerialTwoModel(Exponential(1.0), 0.5)
        trials = mc.simulate_serial(model, 50, 1)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        trials.to_csv(str(p1))
        mc.simulate_serial(model, 50, 1).to_csv(str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == "trial,order,t1,t2,total_a,total_b"

    def test_order_is_a_fixed_width_bytes_column(self):
        trials = mc.simulate_serial(SerialTwoModel(Exponential(1.0), 0.5), 50, 1)
        order = trials.table()[1]
        assert order.dtype == np.dtype("S7")
        assert order.tolist() == [b"b_first" if b else b"a_first"
                                  for b in trials.order_b_first]


class TestTraces:
    MODELS = {"serial": SerialTwoModel(Exponential(1.0), 0.5),
              "parallel": ParallelTwoModel(Uniform(2.0)),
              "recall_serial": RecallModel((1.0, 2.0, 3.0)),
              "recall_parallel": RecallModel((0.5, 1.0, 2.0, 4.0, 8.0))}

    @pytest.mark.parametrize("arch", MODELS)
    def test_chunks_are_writer_chunks_of_the_whole_table(self, arch):
        # the chunks handed to the writer hold CHUNK_TRIALS trials each
        # (the last the rest), and together they are the whole-run table,
        # trial index included; the writer cuts them to _CHUNK_ROWS rows
        # (TestWriteTable.test_writer_cuts_every_chunk)
        whole = {"serial": mc.simulate_serial, "parallel": mc.simulate_parallel,
                 "recall_serial": recall.sample_vu_serial,
                 "recall_parallel": recall.sample_parallel_expo}[arch]
        n = 2 * traces.CHUNK_TRIALS + 3
        trace = getattr(traces, arch)(self.MODELS[arch], n, 4)
        chunks = list(trace)
        table = whole(self.MODELS[arch], n, 4).table()
        rows_per_trial = len(table[0]) // n
        assert [len(c[0]) for c in chunks] == [
            rows_per_trial * m for m in (traces.CHUNK_TRIALS, traces.CHUNK_TRIALS, 3)]
        assert trace.columns == whole(self.MODELS[arch], 1, 4).columns
        for got, want in zip(zip(*chunks), table):
            assert np.array_equal(np.concatenate(got), want)

    @pytest.mark.parametrize("arch", MODELS)
    def test_first_chunk_is_drawn_when_made(self, arch):
        # so a bad size or seed raises before anything is written
        with pytest.raises(DomainError, match="n_trials must be >= 1"):
            getattr(traces, arch)(self.MODELS[arch], 0, 4)
        with pytest.raises(DomainError, match="seed must be nonnegative"):
            getattr(traces, arch)(self.MODELS[arch], 5, -1)
