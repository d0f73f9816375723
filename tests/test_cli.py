import gc
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from archlab import cli, mc, recall, verify
from archlab.distributions import Exponential, parse_spec
from archlab.errors import ArchlabError, ConsistencyError, DomainError
from archlab.numerics import convolve_cdf, fmt17, write_table
from archlab.parallel import ParallelTwoModel
from archlab.serial import SerialTwoModel


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFigures:
    def test_fig7_grid_has_both_signs(self, tmp_path, capsys):
        out = tmp_path / "fig7.csv"
        code, _, _ = run(["figure", "fig7", "--steps", "12",
                          "--out", str(out)], capsys)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "axis1,axis2,value"
        values = np.array([float(line.split(",")[2]) for line in lines[1:]])
        finite = values[np.isfinite(values)]
        assert finite.min() < -1e-9 and values.max() > 1e-9

    def test_fig4_default_kernel_positive(self, tmp_path, capsys):
        out = tmp_path / "fig4.csv"
        code, _, _ = run(["figure", "fig4", "--steps", "8",
                          "--out", str(out)], capsys)
        assert code == 0
        values = [float(line.split(",")[2])
                  for line in out.read_text().splitlines()[1:]]
        assert min(values) > -1e-9

    def test_fig6_override_k(self, tmp_path, capsys):
        out = tmp_path / "fig6.csv"
        code, _, _ = run(["figure", "fig6", "--k", "4", "--steps", "10",
                          "--out", str(out)], capsys)
        assert code == 0
        values = [float(line.split(",")[2])
                  for line in out.read_text().splitlines()[1:]]
        assert min(values) < -1e-9 and max(values) > 1e-9

    def test_fig7_bad_support_override(self, capsys):
        code, _, err = run(["figure", "fig7", "--v", "0.5", "--steps", "4"],
                           capsys)
        assert code == 2
        assert "axis t" in err

    @pytest.mark.parametrize("argv", [
        ["fig4", "--u", "2"], ["fig5", "--v", "3"], ["fig6", "--v", "3"],
        ["fig7", "--k", "3", "--u", "9"], ["fig7", "--u", "1"],
    ])
    def test_flag_of_another_figure_usage_error(self, argv, capsys):
        # --k sets fig4/5/6, --u fig6 and --v fig7 only
        code, out, err = run(["figure", *argv, "--steps", "2"], capsys)
        assert (code, out, err) == (1, "", f"{argv[1]} does not apply to {argv[0]}\n")

    @pytest.mark.parametrize("k", ["30", "60"])
    def test_fig4_steep_shape_converges(self, k, capsys):
        code, out, err = run(["figure", "fig4", "--k", k], capsys)
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 1 + 100 * 100

    def test_json_format(self, capsys):
        code, out, _ = run(["figure", "fig7", "--steps", "3",
                            "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["figure"] == "fig7"
        assert len(payload["rows"]) == 9

    def test_fig4_failing_cell_named(self, capsys):
        # (u tau)^1000 underflows at (0.5, 0.01), so conv is 0 there: the
        # first row fails, and its first cell is named
        code, out, err = run(["figure", "fig4", "--k", "1000", "--steps", "3"],
                             capsys)
        assert code == 2 and out == ""
        assert err == ("archlab: grid cell (u=0.5, tau=0.01) failed: "
                       "conv must be positive, got 0.0\n")

    def test_fig4_first_failing_cell_in_row_major_order(self, monkeypatch,
                                                        capsys):
        # a failing row is retried cell by cell, so the named cell is the
        # first failing one in row-major order, wherever it lies in its row
        def conv(dist, taus):
            if dist.u > 5.0 and np.any(taus > 2.0):
                raise DomainError("boom")
            return convolve_cdf(dist, taus)

        monkeypatch.setattr(cli, "convolve_cdf", conv)
        assert run(["figure", "fig4", "--steps", "3"], capsys) == (
            2, "", "archlab: grid cell (u=5.25, tau=2.505) failed: boom\n")

    def test_fig6_nan_cell_exit_2(self, capsys):
        # 5^1000 overflows: H(T_a + t) - H(T_a) is inf - inf at (0, 5)
        code, out, err = run(["figure", "fig6", "--k", "1000", "--steps", "3"],
                             capsys)
        assert code == 2 and out == ""
        assert "grid cell (t=0.0, Ta=5.0) failed: expr4 is nan" in err

    @pytest.mark.parametrize("fig, dist, hi", [
        (["fig6"], "weibull:k=2.0,u=1.0", "10"),
        (["fig6", "--k", "4", "--u", "1.7"], "weibull:k=4.0,u=1.7", "10"),
        (["fig6", "--k", "0.5"], "weibull:k=0.5,u=1.0", "10"),
        (["fig7"], "uniform:v=2.0", "1"),
        (["fig7", "--v", "3.5"], "uniform:v=3.5", "1"),
    ])
    def test_fig6_fig7_are_the_stage_survival_expr4(self, fig, dist, hi, capsys):
        # the figure's axes and values are the stage-survival grid's t, Ta
        # and expr4 columns, byte for byte
        code, fig_out, _ = run(["figure", *fig, "--steps", "12"], capsys)
        assert code == 0
        code, st_out, _ = run(["stage-survival", "--dist", dist, "--t-max", hi,
                               "--ta-max", hi, "--steps", "12"], capsys)
        assert code == 0
        fig_rows = [line.split(",") for line in fig_out.splitlines()[1:]]
        st_rows = [line.split(",") for line in st_out.splitlines()[1:]]
        assert len(fig_rows) == 144
        assert fig_rows == [[t, ta, expr4] for t, ta, _, expr4, _, _ in st_rows]

    @pytest.mark.parametrize("argv, err", [
        (["figure", "fig6", "--k", "1000", "--steps", "3"],
         "archlab: grid cell (t=0.0, Ta=5.0) failed: expr4 is nan\n"),
        (["figure", "fig7", "--v", "0.5"],
         "archlab: axis t: grid end 1.0 is outside the support [0, 0.5) of "
         "uniform:v=0.5\n"),
        (["stage-survival", "--dist", "uniform:v=0.5", "--t-max", "0.6"],
         "archlab: axis t: grid end 0.6 is outside the support [0, 0.5) of "
         "uniform:v=0.5\n"),
        (["stage-survival", "--dist", "uniform:v=1", "--ta-max", "1"],
         "archlab: axis Ta: grid end 1.0 is outside the support [0, 1.0) of "
         "uniform:v=1\n"),
        # a bad shape is the flag's error, not the first grid cell's
        (["figure", "fig4", "--k", "-1", "--steps", "3"],
         "archlab: Weibull shape k must be positive, got -1.0\n"),
        (["figure", "fig4", "--k", "0", "--steps", "3"],
         "archlab: Weibull shape k must be positive, got 0.0\n"),
        (["figure", "fig5", "--k", "inf", "--steps", "3"],
         "archlab: Weibull shape k must be positive, got inf\n"),
    ])
    def test_grid_error_texts(self, argv, err, capsys):
        assert run(argv, capsys) == (2, "", err)

    @pytest.mark.parametrize("argv", [
        ["figure", "fig6", "--k", "300", "--steps", "12"],
        ["stage-survival", "--dist", "weibull:k=300,u=1", "--steps", "12"],
        ["stage-survival", "--dist", "weibull:k=300,u=1", "--t-max", "10",
         "--steps", "3"],
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_hazards_print_no_warning(self, argv, capsys):
        # h(T_a + t) / h(t) overflows to inf (a correct alpha); no
        # RuntimeWarning is raised, so none reaches stderr
        code, out, err = run(argv, capsys)
        assert code == 0 and err == ""
        assert "inf" in out

    def test_fig4_json_matches_csv(self, capsys):
        code, csv_out, _ = run(["figure", "fig4", "--steps", "4"], capsys)
        assert code == 0
        code, json_out, _ = run(["figure", "fig4", "--steps", "4",
                                 "--format", "json"], capsys)
        assert code == 0
        rows = json.loads(json_out)["rows"]
        csv_rows = [[float(c) for c in line.split(",")]
                    for line in csv_out.splitlines()[1:]]
        assert [[r["axis1"], r["axis2"], r["value"]] for r in rows] == csv_rows

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["figure", "fig5", "--steps", "6", "--out", str(a)], capsys)
        run(["figure", "fig5", "--steps", "6", "--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()


class TestTheorem1:
    def test_json_report(self, capsys):
        code, out, _ = run(["theorem1", "--n", "50000", "--seed", "9"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"n_samples", "n_conditioned",
                                "fraction_positive", "stderr", "seed"}
        assert payload["n_samples"] == 50000
        assert payload["seed"] == 9
        assert float(payload["fraction_positive"]) == pytest.approx(0.629, abs=0.02)

    def test_default_seed_documented_constant(self, capsys):
        code, out, _ = run(["theorem1", "--n", "1000"], capsys)
        payload = json.loads(out)
        assert payload["seed"] == 0x5EED2024 == mc.DEFAULT_SEED

    def test_deterministic_small_sample(self, capsys):
        _, out1, _ = run(["theorem1", "--n", "100", "--seed", "3"], capsys)
        _, out2, _ = run(["theorem1", "--n", "100", "--seed", "3"], capsys)
        assert out1 == out2

    def test_zero_n_usage_error(self, capsys):
        code, _, err = run(["theorem1", "--n", "0"], capsys)
        assert code == 1
        assert "--n" in err

    def test_negative_seed_usage_error(self, capsys):
        code, out, err = run(["theorem1", "--n", "10", "--seed", "-1"], capsys)
        assert (code, out) == (1, "")
        assert err == "--seed must be >= 0, got -1\n"


class TestDependence:
    def test_exponential_all_positive(self, capsys):
        code, out, _ = run(["dependence", "--dist", "exp:u=1", "--p", "0.5",
                            "--steps", "40", "--tau-max", "5"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "tau,F,conv,marginal_a,marginal_b,R,difference,sign"
        assert all(line.endswith("positive") for line in lines[1:])

    def test_uniform_sign_sequence(self, capsys):
        code, out, _ = run(["dependence", "--dist", "uniform:v=1",
                            "--p", "0.5", "--tau-min", "0", "--tau-max", "3",
                            "--steps", "60"], capsys)
        assert code == 0
        signs = [line.rsplit(",", 1)[1] for line in out.strip().splitlines()[1:]]
        # collapse runs: positive -> negative -> zero over the three regimes
        collapsed = [signs[0]]
        for s in signs[1:]:
            if s != collapsed[-1]:
                collapsed.append(s)
        assert collapsed == ["positive", "negative", "zero"]

    def test_positive_tau_min_keeps_both_ends(self, capsys):
        # a grid that starts above 0 runs over `steps` points, both ends
        # included; one that starts at 0 leaves tau = 0 out
        code, out, _ = run(["dependence", "--dist", "exp:u=1", "--tau-min", "0.5",
                            "--tau-max", "2", "--steps", "4"], capsys)
        assert code == 0
        taus = [float(line.split(",", 1)[0]) for line in out.splitlines()[1:]]
        assert np.array_equal(taus, np.linspace(0.5, 2.0, 4))

    def test_json_format(self, capsys):
        code, out, _ = run(["dependence", "--dist", "exp:u=1", "--steps", "5",
                            "--tau-max", "2", "--format", "json"], capsys)
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 5
        assert set(rows[0]) == {"tau", "F", "conv", "marginal_a",
                                "marginal_b", "R", "difference", "sign"}

    def test_parse_error_names_token(self, capsys):
        code, _, err = run(["dependence", "--dist", "exp:q=1"], capsys)
        assert code == 1 and "'q'" in err

    def test_domain_error_exit_2(self, capsys):
        code, _, err = run(["dependence", "--dist", "weibull:k=-1,u=1"], capsys)
        assert code == 2

    def test_infinite_tau_max_usage_error(self, capsys):
        code, out, err = run(["dependence", "--dist", "exp:u=1", "--tau-max",
                              "inf", "--steps", "3"], capsys)
        assert (code, out, err) == (1, "", "--tau-max must be finite, got inf\n")

    def test_overflowing_default_tau_max_names_the_dist(self, capsys):
        # 2 * quantile(0.999) overflows for so small a shape: the message
        # blames the default, not a flag that was never passed, and numpy's
        # overflow warning (an error in this suite) does not escape
        code, out, err = run(["dependence", "--dist", "weibull:k=1e-9,u=1"], capsys)
        assert (code, out, err) == (
            1, "", "--tau-max: the default, 2 * quantile(0.999) of --dist "
                   "weibull:k=1e-9,u=1, is inf; pass --tau-max\n")

    def test_negative_tau_min_usage_error(self, capsys):
        code, out, err = run(["dependence", "--dist", "exp:u=1", "--tau-min",
                              "-1", "--steps", "2"], capsys)
        assert (code, out, err) == (1, "", "--tau-min must be >= 0, got -1.0\n")

    @pytest.mark.parametrize("argv, tau", [
        (["--dist", "weibull:k=200,u=1"], "0.020194201267360257"),
        (["--dist", "weibull:k=100,u=1", "--p", "0"], "0.02039028824133273")])
    def test_null_event_on_the_default_grid_asks_for_tau_min(self, argv, tau,
                                                             capsys):
        # F (and, at p = 0, conv) underflows at the first grid point the
        # default --tau-min chose; a grid that starts past it runs
        code, out, err = run(["dependence", *argv], capsys)
        p = "0.0" if "--p" in argv else "0.5"
        assert (code, out, err) == (
            1, "", f"--tau-min: the default grid's first tau, {tau}, has "
                   f"P(completion of a) = 0 for --dist {argv[1]} and --p {p}; "
                   "pass --tau-min\n")
        code, out, err = run(["dependence", *argv, "--tau-min", "0.5"], capsys)
        assert (code, err) == (0, "") and len(out.splitlines()) == 101

    def test_null_event_on_a_chosen_tau_min_is_a_domain_error(self, capsys):
        code, out, err = run(["dependence", "--dist", "weibull:k=200,u=1",
                              "--tau-min", "0.02"], capsys)
        assert (code, out, err) == (2, "", "archlab: conditioning on null event: "
                                           "P(completion of a by tau=0.02) = 0\n")

    @pytest.mark.parametrize("k", ["22", "30", "50", "100", "160"])
    def test_steep_weibull_converges(self, k, capsys):
        # the default grid crosses the narrow peak of f near x = 1
        code, out, err = run(["dependence", "--dist", f"weibull:k={k},u=1"], capsys)
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 101

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_large_k_density_underflow_converges(self, capsys):
        # the k = 400 density is 0, not nan, where (u t)^399 overflows
        code, out, err = run(["dependence", "--dist", "weibull:k=400,u=1",
                              "--tau-max", "12", "--steps", "4"], capsys)
        assert code == 0 and err == ""
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [row[0] for row in rows] == ["3", "6", "9", "12"]
        assert all(row[1:6] == ["1"] * 5 for row in rows)


class TestStageSurvival:
    def test_weibull_k2_mixed_signs(self, capsys):
        code, out, _ = run(["stage-survival", "--dist", "weibull:k=2,u=1",
                            "--t-max", "6", "--ta-max", "6", "--steps", "12"],
                           capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,Ta,alpha,expr4,gap,sign"
        signs = {line.rsplit(",", 1)[1] for line in lines[1:]}
        assert {"positive", "negative"} <= signs

    def test_uniform_range_guard(self, capsys):
        code, _, err = run(["stage-survival", "--dist", "uniform:v=1",
                            "--t-max", "2"], capsys)
        assert code == 2 and "axis t" in err

    def test_json_format(self, capsys):
        code, out, _ = run(["stage-survival", "--dist", "exp:u=1",
                            "--t-max", "2", "--ta-max", "2", "--steps", "3",
                            "--format", "json"], capsys)
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 9
        assert set(rows[0]) == {"t", "Ta", "alpha", "expr4", "gap", "sign"}


    @pytest.mark.parametrize("flags", [
        ["--steps", "-1"], ["--steps", "0"], ["--steps", "1"],
        ["--t-min", "5", "--t-max", "1"], ["--ta-min", "2", "--ta-max", "2"],
        ["--t-min", "4"],  # above the default --t-max of 3
        ["--t-max", "inf"],
        ["--t-min", "-1"], ["--ta-min", "-0.5"],
    ])
    def test_axis_usage_errors(self, flags, capsys):
        code, out, err = run(["stage-survival", "--dist", "weibull:k=2,u=1"]
                             + flags, capsys)
        assert code == 1 and out == ""
        assert ("--steps must be >= 2" in err or "must exceed" in err
                or err == "--t-max must be finite, got inf\n"
                or err == f"{flags[0]} must be >= 0, got {float(flags[1])}\n")

    def test_overflowing_default_t_max_names_the_dist(self, capsys):
        code, out, err = run(["stage-survival", "--dist", "exp:u=1e-310"], capsys)
        assert (code, out, err) == (
            1, "", "--t-max: the default, 3 * typical_scale of --dist "
                   "exp:u=1e-310, is inf; pass --t-max\n")

    def test_nan_cell_exit_2(self, capsys):
        code, out, err = run(["stage-survival", "--dist", "weibull:k=1000,u=1",
                              "--steps", "3"], capsys)
        assert code == 2 and out == ""
        assert "grid cell (t=0.0, Ta=3.0) failed: expr4 is nan" in err


class TestSimulate:
    def test_serial_csv(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code, _, _ = run(["simulate", "serial", "--dist", "exp:u=1",
                          "--p", "1", "--n", "5", "--out", str(out)], capsys)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "trial,order,t1,t2,total_a,total_b"
        assert all(line.split(",")[1] == "a_first" for line in lines[1:])

    def test_recall_rates_required(self, capsys):
        code, _, err = run(["simulate", "recall-serial", "--n", "5"], capsys)
        assert code == 1 and "--rates" in err

    def test_recall_rates_whose_sum_overflows(self, capsys):
        # an infinite sum would make every trial pick item 1 first
        code, out, err = run(["simulate", "recall-serial",
                              "--rates", "1e308,1e308"], capsys)
        assert (code, out) == (2, "")
        assert err == ("archlab: rates must have a finite sum, "
                       "got (1e+308, 1e+308)\n")

    def test_recall_trace(self, capsys):
        code, out, _ = run(["simulate", "recall-parallel",
                            "--rates", "2,1,0.5", "--n", "4"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "trial,position,item,ict,cumulative_time"
        assert len(lines) == 13

    def test_missing_dist_usage_error(self, capsys):
        code, _, err = run(["simulate", "serial", "--n", "5"], capsys)
        assert code == 1 and "--dist" in err

    @pytest.mark.parametrize("arch", ["serial", "recall-parallel"])
    def test_negative_seed_usage_error(self, arch, capsys):
        code, out, err = run(["simulate", arch, "--dist", "exp:u=1", "--rates",
                              "1,2", "--n", "3", "--seed", "-5"], capsys)
        assert (code, out) == (1, "")
        assert err == "--seed must be >= 0, got -5\n"


# A value for each flag in cli._TAKES, and for each figure or architecture
# and each flag of its command: (command, name, flag, its default there,
# None if required, or "not taken")
_VALUES = {"k": "3", "u": "2", "v": "3", "dist": "exp:u=1", "p": "0.3",
           "rates": "1,2"}
_CASES = [(command, name, flag, flags.get(flag, "not taken"))
          for command, table in cli._TAKES.items()
          for name, flags in table.items()
          for flag in dict.fromkeys(f for taken in table.values() for f in taken)]


def _argv(command, name, *extra, without=None):
    """argv for ``name`` on a tiny grid or run, with each flag it requires
    but ``without`` and each of ``extra``."""
    flags = [f for f, default in cli._TAKES[command][name].items()
             if default is None and f != without] + list(extra)
    size = ["--steps", "2"] if command == "figure" else ["--n", "2"]
    return [command, name, *size, *(a for f in flags for a in (f"--{f}", _VALUES[f]))]


class TestTakenFlags:
    """Every figure and simulate architecture, checked against the one table
    of the flags each takes."""

    @pytest.mark.parametrize("command, name, flag",
                             [case[:3] for case in _CASES if case[3] == "not taken"])
    def test_a_flag_not_taken_is_refused(self, command, name, flag, capsys):
        assert run(_argv(command, name, flag), capsys) == (
            1, "", f"--{flag} does not apply to {name}\n")

    @pytest.mark.parametrize("command, name, flag",
                             [case[:3] for case in _CASES if case[3] is None])
    def test_a_missing_required_flag_is_named(self, command, name, flag, capsys):
        assert run(_argv(command, name, without=flag), capsys) == (
            1, "", f"--{flag} is required for {name}\n")

    @pytest.mark.parametrize("command, name, flag, default",
                             [case for case in _CASES if isinstance(case[3], float)])
    def test_a_default_is_the_value_it_stands_for(self, command, name, flag,
                                                 default, capsys):
        argv = _argv(command, name)
        assert run(argv, capsys) == run(argv + [f"--{flag}", repr(default)], capsys)


_B = mc.BLOCK_TRIALS

# (id, arch, flags, the whole-run sampler for n trials and a seed)
_SIMULATIONS = [
    ("serial", "serial", ["--dist", "weibull:k=0.7,u=1", "--p", "0.3"],
     lambda n, seed: mc.simulate_serial(
         SerialTwoModel(parse_spec("weibull:k=0.7,u=1"), 0.3), n, seed)),
    ("parallel", "parallel", ["--dist", "uniform:v=2"],
     lambda n, seed: mc.simulate_parallel(
         ParallelTwoModel(parse_spec("uniform:v=2")), n, seed)),
] + [
    (f"{arch}-{len(rates)}", arch, ["--rates", ",".join(map(str, rates))],
     lambda n, seed, sampler=sampler, rates=rates: sampler(
         recall.RecallModel(rates), n, seed))
    for arch, sampler in (("recall-serial", recall.sample_vu_serial),
                          ("recall-parallel", recall.sample_parallel_expo))
    for rates in ((2.0, 1.0, 0.5), (1.0, 2.0, 3.0, 4.0, 5.0))  # 3 and 5 items
]


class TestStreamedSimulate:
    """``simulate`` samples and writes a chunk of trials at a time; its
    bytes are those of writing the whole run's table at once.  Runs of more
    than two chunks are compared as CSV only, and recall runs of 5 items
    only up to two chunks of trials: past its first row, a JSON row is
    planned and written as a CSV row is, and the shorter runs cover both
    formats and both item counts across chunk seams."""

    CASES = [(case, n) for case in _SIMULATIONS
             for n in [1, 1023, 1025, _B - 1, _B + 1, 2 * _B + 9]
             if n < 2048 or not case[0].endswith("-5")]

    @pytest.mark.parametrize("arch, flags, whole_run, n",
                             [(*case[1:], n) for case, n in CASES],
                             ids=[f"{case[0]}-{n}" for case, n in CASES])
    def test_bytes_equal_the_whole_run_table(self, arch, flags, whole_run, n,
                                             tmp_path):
        trials = whole_run(n, 19)
        for fmt, head in (("csv", None), ("json", {}))[:1 + (n < 2048)]:
            want = io.StringIO()
            write_table(want, trials.columns, trials.table(), head)
            out = tmp_path / f"trace.{fmt}"
            assert cli.main(["simulate", arch, *flags, "--n", str(n), "--seed",
                             "19", "--format", fmt, "--out", str(out)]) == 0
            assert out.read_bytes() == want.getvalue().encode()

    @pytest.mark.parametrize("arch, flags", [
        ("serial", ["--dist", "weibull:k=0.7,u=1"]),
        ("recall-serial", ["--rates", "1,2,3"]),
    ], ids=["serial", "recall-serial"])
    def test_memory_does_not_grow_with_n(self, arch, flags):
        # The tracemalloc peak of a whole command above what it leaves
        # allocated, after a first run has made the writer's tables.
        # CPython keeps freed tuples for reuse, up to 2000 of each length,
        # and tracemalloc counts them as allocated; each chunk leaves about
        # one more, so what is left at the end grows with n up to that cap,
        # while a whole-run table grows by about 2 MB a block.
        def peak(n: int) -> int:
            gc.collect()
            tracemalloc.start()
            try:
                assert cli.main(["simulate", arch, *flags, "--n", str(n),
                                 "--out", os.devnull]) == 0
                left, top = tracemalloc.get_traced_memory()
                return top - left
            finally:
                tracemalloc.stop()

        peak(_B)
        one, four = peak(_B), peak(4 * _B)
        assert abs(four - one) <= 64 * 1024, (one, four)


class TestFit:
    def _write_times(self, path, values):
        path.write_text("time\n" + "\n".join(str(v) for v in values) + "\n")

    def test_round_trip_exponential(self, tmp_path, capsys):
        data = mc.sample_iid(Exponential(1.0), 8000, 1, 50)[:, 0]
        src = tmp_path / "times.csv"
        self._write_times(src, data.tolist())
        code, out, _ = run(["fit", "--input", str(src)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["converged"] is True
        assert abs(float(payload["k_hat"]) - 1.0) <= 0.04
        assert payload["n"] == 8000

    def test_negative_time_line_numbered(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        for bad in ("-3.0", "inf"):
            src.write_text(f"time\n1.0\n{bad}\n2.0\n")
            code, _, err = run(["fit", "--input", str(src)], capsys)
            assert code == 2 and "line 3" in err, bad

    def test_malformed_row_line_numbered(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_text("time\n1.0\npotato\n")
        code, _, err = run(["fit", "--input", str(src)], capsys)
        assert code == 2 and "line 3" in err

    def test_wrong_header(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_text("duration\n1.0\n")
        code, _, err = run(["fit", "--input", str(src)], capsys)
        assert code == 2 and "line 1" in err

    def test_missing_file_usage_error(self, capsys):
        code, _, err = run(["fit", "--input", "/nonexistent/nope.csv"], capsys)
        assert code == 1


@pytest.mark.parametrize("argv", [["figure", "fig7", "--steps", "2"],
                                  ["theorem1", "--n", "100"]])
def test_unwritable_out_is_usage_error(argv, tmp_path, capsys):
    code, out, err = run(argv + ["--out", str(tmp_path / "missing" / "x")], capsys)
    assert code == 1
    assert err.startswith("--out: [Errno 2] ") and "Traceback" not in err


def test_unwritable_out_fails_before_computing(tmp_path, capsys):
    # the path is checked first: no check runs and nothing is printed
    code, out, err = run(["verify", "--suite", "analysis",
                          "--out", str(tmp_path / "missing" / "x.txt")], capsys)
    assert code == 1 and out == ""
    assert err.startswith("--out: [Errno 2] ")


def test_failing_command_leaves_out_untouched(tmp_path, capsys, monkeypatch):
    keep = tmp_path / "keep.csv"
    keep.write_bytes(b"earlier,bytes\n1,2\n")
    code, out, err = run(["figure", "fig4", "--k", "-1", "--out", str(keep)], capsys)
    assert code == 2 and out == "" and "k must be positive" in err
    assert keep.read_bytes() == b"earlier,bytes\n1,2\n"

    # simulate samples its first chunk before it empties the file
    def failing_draw(*args):
        raise DomainError("first chunk failed")

    monkeypatch.setattr(mc, "_parallel", failing_draw)
    for argv, message in (
            (["serial", "--dist", "exp:u=1", "--p", "1.5"], "p must be"),
            (["recall-serial", "--rates", "1,-2"], "rates must be positive"),
            (["parallel", "--dist", "exp:u=1"], "first chunk failed")):
        code, out, err = run(["simulate", *argv, "--out", str(keep)], capsys)
        assert code == 2 and out == "" and message in err, err
        assert keep.read_bytes() == b"earlier,bytes\n1,2\n"
    # and a file that did not exist is not left behind
    new = tmp_path / "new.csv"
    code, _, _ = run(["figure", "fig4", "--k", "-1", "--out", str(new)], capsys)
    assert code == 2 and not new.exists()


def test_simulate_samples_its_first_chunk_before_emptying_out(
        tmp_path, capsys, monkeypatch):
    # a sampler that fails on the first slice of trials leaves an existing
    # --out file's bytes as they were, and a file the command made is removed
    def failing_draw(*args):
        raise DomainError("first chunk failed")

    monkeypatch.setattr(mc, "_serial", failing_draw)
    argv = ["simulate", "serial", "--dist", "exp:u=1", "--n", "3000", "--out"]
    keep, new = tmp_path / "keep.csv", tmp_path / "new.csv"
    keep.write_bytes(b"earlier,bytes\n1,2\n")
    for path in (keep, new):
        assert run([*argv, str(path)], capsys) == (
            2, "", "archlab: first chunk failed\n")
    assert keep.read_bytes() == b"earlier,bytes\n1,2\n"
    assert not new.exists()


def test_out_replaces_a_longer_file(tmp_path, capsys):
    argv = ["figure", "fig7", "--steps", "2"]
    code, want, _ = run(argv, capsys)
    assert code == 0
    out = tmp_path / "fig7.csv"
    out.write_text("x" * 10 * len(want))
    code, printed, _ = run(argv + ["--out", str(out)], capsys)
    assert code == 0 and printed == ""
    assert out.read_text() == want
    # a device is written, not truncated
    code, printed, err = run(argv + ["--out", os.devnull], capsys)
    assert (code, printed, err) == (0, "", "")


class TestVerifyAndUsage:
    def test_unknown_command(self, capsys):
        code, _, err = run(["frobnicate"], capsys)
        assert code == 1

    def test_no_command(self, capsys):
        code, _, err = run([], capsys)
        assert code == 1 and "subcommand" in err

    def test_verify_analysis_suite_passes(self, capsys):
        code, out, _ = run(["verify", "--suite", "analysis"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1].endswith("checks passed")

    def test_verify_reports_a_check_that_raises(self, capsys, monkeypatch):
        # the check fails with the error and the other checks still run
        def disagree(model, taus):
            raise ConsistencyError("dependence routes disagree at tau=0.5")

        monkeypatch.setattr(verify, "dependence_profile", disagree)
        code, out, _ = run(["verify", "--suite", "analysis"], capsys)
        lines = out.splitlines()
        assert code == 3
        assert lines[:2] == [
            f"FAIL analysis/{name}: raised ConsistencyError: dependence routes "
            "disagree at tau=0.5"
            for name in ("quotient_vs_factored_agreement",
                         "single_order_nonnegative")]
        assert len(lines) == 10 and lines[-1] == "7/9 checks passed"
        assert all(line.startswith("PASS") for line in lines[2:-1])

    _CHECKS = [(suite, check) for suite, checks in verify._SUITES.items()
               for check in checks]

    @pytest.mark.parametrize("index", range(len(_CHECKS)),
                             ids=[check.__name__[1:] for _, check in _CHECKS])
    def test_a_raising_check_keeps_its_name(self, index, capsys, monkeypatch):
        # the FAIL line of a check that raises names it as its PASS line does
        suite, check = self._CHECKS[index]

        def raising():  # run as the check, with verify's globals
            raise ArchlabError("forced")

        monkeypatch.setattr(check, "__code__", raising.__code__)
        monkeypatch.setitem(verify._SUITES, suite, [check])
        code, out, _ = run(["verify", "--suite", suite], capsys)
        golden = (Path(__file__).parent / "golden" / "verify.txt").read_text()
        want = golden.splitlines()[index].split(":")[0].removeprefix("PASS ")
        assert code == 3
        assert out.splitlines()[0] == (
            f"FAIL {want}: raised ArchlabError: forced")


def _json_cells(value) -> str:
    """A parsed JSON value written as the CSV writes it."""
    if isinstance(value, float):
        return fmt17(value)
    return str(value)


@pytest.mark.parametrize("argv", [
    ["figure", "fig7", "--steps", "4"],
    ["dependence", "--dist", "weibull:k=2,u=1", "--steps", "6"],
    ["stage-survival", "--dist", "uniform:v=2", "--t-max", "1.5",
     "--ta-max", "1.5", "--steps", "4"],
    ["simulate", "serial", "--dist", "exp:u=1", "--n", "6"],
    ["simulate", "parallel", "--dist", "weibull:k=0.5,u=1", "--n", "6"],
    ["simulate", "recall-serial", "--rates", "2,1,0.5", "--n", "4"],
    ["simulate", "recall-parallel", "--rates", "2,1", "--n", "4"],
])
def test_json_rows_equal_csv_rows(argv, capsys):
    code, csv_out, _ = run(argv, capsys)
    assert code == 0
    code, json_out, _ = run(argv + ["--format", "json"], capsys)
    assert code == 0
    header, *lines = csv_out.splitlines()
    rows = json.loads(json_out)["rows"]
    assert len(rows) == len(lines) > 0
    for row, line in zip(rows, lines):
        assert ",".join(row) == header
        assert ",".join(_json_cells(v) for v in row.values()) == line


def test_reader_closing_stdout_early_is_not_an_error():
    # `archlab simulate ... | head -c 100`: the table is far longer than
    # the pipe buffer, so the writer meets the closed pipe
    src = Path(__file__).resolve().parents[1] / "src"
    with subprocess.Popen(
            [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
             "from archlab.cli import main; sys.exit(main(sys.argv[2:]))", str(src),
             "simulate", "serial", "--dist", "exp:u=1", "--n", "200000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 0
    assert head.startswith(b"trial,order,t1,t2,total_a,total_b\n")
    assert err == b""


class TestStartup:
    def test_commands_do_not_import_scipy(self):
        # scipy is a test dependency only, and would cost about 1 s of
        # start-up; verify's recall suite holds the one check that used it
        src = Path(__file__).resolve().parents[1] / "src"
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "import archlab; from archlab.cli import main; "
                "assert main(['verify', '--suite', 'recall']) == 0; "
                "print(sorted(m for m in sys.modules "
                "if m == 'scipy' or m.startswith('scipy.')))")
        done = subprocess.run([sys.executable, "-c", code, str(src)],
                              capture_output=True, text=True, check=True)
        assert done.stdout.splitlines()[-1] == "[]"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="counts threads in /proc")
    @pytest.mark.parametrize("preset", [None, "2"])
    def test_cli_import_starts_no_blas_thread(self, preset):
        # only a fresh interpreter can tell: this one has loaded numpy
        src = Path(__file__).resolve().parents[1] / "src"
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        code = ("import os, sys; sys.path.insert(0, sys.argv[1]); "
                "import archlab.cli; "
                "print(len(os.listdir('/proc/self/task')), "
                "os.environ['OPENBLAS_NUM_THREADS'])")
        done = subprocess.run([sys.executable, "-c", code, str(src)], env=env,
                              capture_output=True, text=True, check=True)
        threads, setting = done.stdout.split()
        if preset is None:
            assert (threads, setting) == ("1", "1")
        else:  # a user's own setting wins
            assert setting == preset

    @pytest.mark.parametrize("argv", [
        ["theorem1", "--n", str(2 * mc.BLOCK_TRIALS + 9)],
        ["simulate", "serial", "--dist", "weibull:k=0.7,u=1", "--n", "3000"],
        ["figure", "fig6", "--steps", "12"],
    ], ids=["theorem1", "simulate serial", "figure fig6"])
    def test_command_stderr_is_empty_under_W_error(self, argv):
        # this suite turns warnings into errors in its own process only; a
        # child prints its warnings, and a helper thread's unhandled
        # exception, on stderr
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-W", "error", "-m", "archlab.cli",
                               *argv], env=env, capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout

    # Prints, last, the archlab submodules and whether json and numpy.ma are
    # loaded after the body runs in a fresh interpreter; argv[1] is src/,
    # argv[2:] the arguments for the body.
    PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
{body}
loaded = sorted(m[len("archlab."):] for m in sys.modules
                if m.startswith("archlab."))
had_json = "json" in sys.modules
had_ma = "numpy.ma" in sys.modules
import json
print(json.dumps({{"archlab": loaded, "json": had_json, "numpy.ma": had_ma}}))
"""

    def _probe(self, body: str, *args: str) -> dict:
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-c", self.PROBE.format(body=body), str(src), *args],
            capture_output=True, text=True, check=True)
        return json.loads(done.stdout.splitlines()[-1])

    def test_bare_import_loads_no_submodule(self):
        assert self._probe("import archlab") == {"archlab": [], "json": False,
                                                 "numpy.ma": False}

    def test_cli_import_loads_only_parsing_modules(self):
        assert self._probe("import archlab.cli") == {
            "archlab": ["cli", "distributions", "errors", "numerics"],
            "json": False, "numpy.ma": False}

    # (argv, the command modules it loads, whether it loads json)
    COMMANDS = [
        (["figure", "fig4", "--steps", "2"], ["serial"], False),
        (["figure", "fig5", "--steps", "2", "--format", "json"], ["serial"], True),
        (["figure", "fig6", "--steps", "2"], ["parallel"], False),
        (["figure", "fig7", "--steps", "2"], ["parallel"], False),
        (["dependence", "--dist", "exp:u=1", "--steps", "2"], ["serial"], False),
        (["stage-survival", "--dist", "exp:u=1", "--steps", "2"],
         ["parallel"], False),
        (["theorem1", "--n", "100"], ["mc"], True),
        (["simulate", "serial", "--dist", "exp:u=1", "--n", "3"],
         ["mc", "serial"], False),
        (["simulate", "parallel", "--dist", "exp:u=1", "--n", "3"],
         ["mc", "parallel"], False),
        (["simulate", "recall-parallel", "--rates", "1,2", "--n", "3"],
         ["mc", "recall"], False),
        (["fit", "--input", str(Path(__file__).parent / "golden" / "fit_input.csv")],
         ["mc", "recall"], True),
        (["verify", "--suite", "analysis"],
         ["mc", "parallel", "recall", "serial", "verify"], False),
    ]

    @pytest.mark.parametrize("argv, modules, uses_json", COMMANDS,
                             ids=[" ".join(a for a in argv[:2] if a[0] != "-")
                                  for argv, _, _ in COMMANDS])
    def test_command_loads_only_its_modules(self, argv, modules, uses_json):
        found = self._probe("from archlab.cli import main\n"
                            "assert main(sys.argv[2:]) == 0", *argv)
        command_modules = {"mc", "recall", "serial", "parallel", "verify"}
        assert sorted(command_modules.intersection(found["archlab"])) == modules
        assert found["json"] == uses_json
        # numpy.ma costs about 12 ms and 1.3 MB of start-up; np.unique loads it
        assert not found["numpy.ma"]

    SUBMODULES = ("cli", "distributions", "errors", "mc", "numerics",
                  "parallel", "recall", "serial", "verify")

    def test_package_lists_names_before_loading_them(self):
        found = self._probe(
            "import archlab\n"
            f"missing = {{*archlab.__all__, *{self.SUBMODULES}}} - set(dir(archlab))\n"
            "assert not missing, missing")
        assert found["archlab"] == []

    def test_package_names_resolve_lazily(self):
        import archlab
        namespace: dict = {}
        exec("from archlab import *", namespace)
        for name in archlab.__all__:
            value = getattr(archlab, name)
            assert namespace[name] is value
            if name != "__version__":
                home = sys.modules[f"archlab.{archlab._HOME[name]}"]
                assert getattr(home, name) is value
        for module in self.SUBMODULES:
            assert getattr(archlab, module) is sys.modules[f"archlab.{module}"]
        with pytest.raises(AttributeError, match="no attribute 'KERNEL_BACKEND'"):
            archlab.KERNEL_BACKEND
        with pytest.raises(AttributeError, match="no attribute 'traces'"):
            archlab.traces  # simulate streams its trials from mc.trace
