"""Command line front end.

Subcommands: ``figure``, ``theorem1``, ``dependence``, ``stage-survival``,
``simulate``, ``fit``, ``verify``.  All numeric output is written with 17
significant digits, so files re-parse to the exact same doubles; with the
same flags and seed every command is byte-identical between runs.

Exit codes: 0 success, 1 usage error, 2 domain or convergence error,
3 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import stat
import sys
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .distributions import (ProcessingTimeDistribution, Uniform,
                            Weibull, parse_spec)
from .errors import ArchlabError, DistSpecError, GridEvalError, UsageError
from .numerics import convolve_cdf, fmt17, write_table

# Each command imports the modules it runs (serial, parallel, mc, recall,
# verify) in its handler, so start-up compiles only what the command uses.
if TYPE_CHECKING:
    from .parallel import StageSurvivalGrid

_FIG_DEFAULT_K = {"fig4": 0.5, "fig5": 0.2, "fig6": 2.0}


@contextlib.contextmanager
def _out_file(path: str | None):
    """The ``--out`` file, opened before the command computes anything so
    that an unwritable path fails first; None for no ``--out`` or ``-``.

    It opens without truncation and :func:`_open_out` empties it only once
    the result exists, so a command that fails leaves an existing file's
    bytes untouched; a file that the open created is removed again.
    """
    if path is None or path == "-":
        yield None
        return
    created = not os.path.lexists(path)
    try:
        fh = open(path, "a", newline="")
    except OSError as exc:
        raise UsageError(f"--out: {exc}") from exc
    try:
        with fh:
            yield fh
    except BaseException:
        if created:
            os.remove(path)
        raise


def _open_out(out):
    """The stream a result is written to: the ``--out`` file from
    :func:`_out_file`, emptied if it is a regular file (as opening it for
    writing would), or stdout for None."""
    if out is None:
        return sys.stdout
    if stat.S_ISREG(os.fstat(out.fileno()).st_mode):
        out.truncate(0)
    return out


def _parse_dist(spec: str) -> ProcessingTimeDistribution:
    try:
        return parse_spec(spec)
    except DistSpecError as exc:
        raise UsageError(f"--dist: {exc}") from exc


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise UsageError(f"{self.prog}: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="archlab",
                     description="Dependence analysis for two-process "
                                 "serial/parallel processing-time models")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    fig = sub.add_parser("figure", help="emit a named data grid")
    fig.add_argument("id", choices=["fig4", "fig5", "fig6", "fig7"])
    fig.add_argument("--k", type=float, default=None,
                     help="Weibull shape override (fig4/5/6)")
    fig.add_argument("--u", type=float, default=1.0,
                     help="Weibull rate (fig6; default 1)")
    fig.add_argument("--v", type=float, default=2.0,
                     help="uniform upper bound (fig7; default 2)")
    fig.add_argument("--steps", type=int, default=100)
    fig.add_argument("--out", default=None)
    fig.add_argument("--format", choices=["csv", "json"], default="csv")

    th = sub.add_parser("theorem1", help="order-constrained sign Monte Carlo")
    th.add_argument("--n", type=int, default=1_000_000)
    th.add_argument("--seed", type=int, default=None)  # mc.DEFAULT_SEED
    th.add_argument("--out", default=None)
    th.add_argument("--format", choices=["csv", "json"], default="json")

    dep = sub.add_parser("dependence", help="serial dependence profile over tau")
    dep.add_argument("--dist", required=True, help="e.g. weibull:k=2,u=1")
    dep.add_argument("--p", type=float, default=0.5)
    dep.add_argument("--tau-min", type=float, default=0.0,
                     help="0 starts at the first positive grid point")
    dep.add_argument("--tau-max", type=float, default=None,
                     help="default: quantile 0.999 of the stage sum scale")
    dep.add_argument("--steps", type=int, default=100)
    dep.add_argument("--out", default=None)
    dep.add_argument("--format", choices=["csv", "json"], default="csv")

    st = sub.add_parser("stage-survival", help="parallel stage-survival grid")
    st.add_argument("--dist", required=True)
    st.add_argument("--t-min", type=float, default=0.0)
    st.add_argument("--t-max", type=float, default=None)
    st.add_argument("--ta-min", type=float, default=0.0)
    st.add_argument("--ta-max", type=float, default=None)
    st.add_argument("--steps", type=int, default=100)
    st.add_argument("--out", default=None)
    st.add_argument("--format", choices=["csv", "json"], default="csv")

    sim = sub.add_parser("simulate", help="trial traces for a model")
    sim.add_argument("arch", choices=["serial", "parallel",
                                      "recall-serial", "recall-parallel"])
    sim.add_argument("--dist", default=None)
    sim.add_argument("--p", type=float, default=0.5)
    sim.add_argument("--rates", default=None,
                     help="comma-separated rates for recall models")
    sim.add_argument("--n", type=int, default=10_000)
    sim.add_argument("--seed", type=int, default=None)  # mc.DEFAULT_SEED
    sim.add_argument("--out", default=None)
    sim.add_argument("--format", choices=["csv", "json"], default="csv")

    fit = sub.add_parser("fit", help="Weibull MLE on a column of times")
    fit.add_argument("--input", required=True,
                     help="CSV with header 'time', one positive time per row")
    fit.add_argument("--out", default=None)
    fit.add_argument("--format", choices=["csv", "json"], default="json")

    ver = sub.add_parser("verify", help="run the verification suites")
    ver.add_argument("--suite", choices=["all", "analysis", "mc", "recall"],
                     default="all")
    ver.add_argument("--out", default=None)
    return parser


def _write_table(args, result, **head) -> int:
    """Stream a result's ``table()`` as CSV, or as JSON objects keyed by its
    ``columns`` (after the ``head`` entries)."""
    write_table(_open_out(args.out), result.columns, result.table(),
                None if args.format == "csv" else head)
    return 0


def _write_report(args, payload: dict) -> int:
    """Write a one-row report as CSV or as a JSON object: floats at 17
    significant digits (non-finite ones as json spells them, in JSON) and
    everything else as JSON literals."""
    import json

    csv = args.format == "csv"
    cells = [fmt17(v) if isinstance(v, float) and (csv or math.isfinite(v))
             else json.dumps(v) for v in payload.values()]
    if csv:
        text = ",".join(payload) + "\n" + ",".join(cells) + "\n"
    else:
        text = "{" + ", ".join(f"{json.dumps(k)}: {c}"
                               for k, c in zip(payload, cells)) + "}\n"
    _open_out(args.out).write(text)
    return 0


def _check_axes(steps: int, **ranges: tuple[float, float]) -> None:
    """--steps >= 2 and, for each NAME=(lo, hi), finite --NAME-min <
    --NAME-max."""
    if steps < 2:
        raise UsageError("--steps must be >= 2")
    for name, (lo, hi) in ranges.items():
        for end, value in (("min", lo), ("max", hi)):
            if not math.isfinite(value):
                raise UsageError(f"--{name}-{end} must be finite, got {value}")
        if not hi > lo:
            raise UsageError(f"--{name}-max ({hi}) must exceed --{name}-min ({lo})")


def _tau_grid(lo: float, hi: float, steps: int) -> np.ndarray:
    _check_axes(steps, tau=(lo, hi))
    if lo == 0.0:
        return np.linspace(lo, hi, steps + 1)[1:]
    return np.linspace(lo, hi, steps)


def _stage_grid(dist: ProcessingTimeDistribution, name: str, steps: int,
                t: tuple[float, float],
                ta: tuple[float, float]) -> StageSurvivalGrid:
    """The stage-survival grid of ``dist`` over ``steps`` points of each
    (lo, hi) range, once both ranges end inside the support; ``name``
    spells ``dist`` in the error message."""
    from .parallel import ParallelTwoModel, stage_survival_grid

    upper = dist.support_upper
    for axis, (_, hi) in (("t", t), ("Ta", ta)):
        if hi >= upper:
            raise ArchlabError(f"axis {axis}: grid end {hi} is outside the "
                               f"support [0, {upper}) of {name}")
    return stage_survival_grid(ParallelTwoModel(dist), np.linspace(*t, steps),
                               np.linspace(*ta, steps))


def _expr3_grid(k: float, us: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """``expression3`` of Weibull(k, u) over the (u, tau) grid, one u row at
    a time; a failing row is retried cell by cell, so that the first
    failing cell (in row-major order) is named with its coordinates."""
    from .serial import expression3

    def row(u: float, ts: np.ndarray) -> np.ndarray:
        dist = Weibull(k, u)
        return expression3(dist.cdf(ts), convolve_cdf(dist, ts))

    values = np.empty((us.size, taus.size))
    for i, u in enumerate(us.tolist()):
        try:
            values[i] = row(u, taus)
        except ArchlabError:
            for j, tau in enumerate(taus.tolist()):
                try:
                    row(u, taus[j:j + 1])
                except ArchlabError as exc:
                    raise GridEvalError(f"grid cell (u={u!r}, tau={tau!r}) "
                                        f"failed: {exc}", point=(u, tau)) from exc
            raise
    return values


def _cmd_figure(args) -> int:
    steps = args.steps
    _check_axes(steps)
    if args.id in ("fig4", "fig5"):
        k = args.k if args.k is not None else _FIG_DEFAULT_K[args.id]
        Weibull(k, 1.0)  # a bad --k is reported as such, not as a grid cell
        us, taus = np.linspace(0.5, 10.0, steps), np.linspace(0.01, 5.0, steps)
        cols = (np.repeat(us, steps), np.tile(taus, steps),
                _expr3_grid(k, us, taus).reshape(-1))
    else:
        if args.id == "fig6":
            k = args.k if args.k is not None else _FIG_DEFAULT_K["fig6"]
            dist, hi = Weibull(k, args.u), 10.0
        else:
            dist, hi = Uniform(args.v), 1.0
        stage = _stage_grid(dist, dist.spec_string(), steps, (0.0, hi), (0.0, hi))
        cols = (stage.t, stage.ta, stage.expr4)
    write_table(_open_out(args.out), ("axis1", "axis2", "value"), cols,
                None if args.format == "csv" else {"figure": args.id})
    return 0


def _cmd_theorem1(args) -> int:
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    from . import mc

    seed = mc.DEFAULT_SEED if args.seed is None else args.seed
    return _write_report(args, mc.run_theorem1_mc(args.n, seed).to_json_dict())


def _cmd_dependence(args) -> int:
    from .serial import SerialTwoModel, dependence_profile

    dist = _parse_dist(args.dist)
    model = SerialTwoModel(dist, args.p)
    tau_max = args.tau_max
    if tau_max is None:
        tau_max = 2.0 * float(dist.quantile(0.999))
    taus = _tau_grid(args.tau_min, tau_max, args.steps)
    return _write_table(args, dependence_profile(model, taus))


def _cmd_stage_survival(args) -> int:
    dist = _parse_dist(args.dist)
    upper = dist.support_upper
    t_max = args.t_max if args.t_max is not None else (
        0.45 * upper if np.isfinite(upper) else 3.0 * dist.typical_scale)
    ta_max = args.ta_max if args.ta_max is not None else t_max
    t, ta = (args.t_min, t_max), (args.ta_min, ta_max)
    _check_axes(args.steps, t=t, ta=ta)
    return _write_table(args, _stage_grid(dist, args.dist, args.steps, t, ta))


def _parse_rates(raw: str | None) -> tuple[float, ...]:
    if not raw:
        raise UsageError("--rates is required for recall architectures")
    try:
        return tuple(float(tok) for tok in raw.split(","))
    except ValueError:
        raise UsageError(f"--rates: could not parse {raw!r} as "
                         "comma-separated floats") from None


def _cmd_simulate(args) -> int:
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    from . import mc

    seed = mc.DEFAULT_SEED if args.seed is None else args.seed
    if args.arch in ("serial", "parallel"):
        if args.dist is None:
            raise UsageError(f"--dist is required for --arch {args.arch}")
        dist = _parse_dist(args.dist)
        if args.arch == "serial":
            from .serial import SerialTwoModel
            trials = mc.simulate_serial(SerialTwoModel(dist, args.p),
                                        args.n, seed)
        else:
            from .parallel import ParallelTwoModel
            trials = mc.simulate_parallel(ParallelTwoModel(dist), args.n, seed)
        return _write_table(args, trials)

    from . import recall

    model = recall.RecallModel(_parse_rates(args.rates))
    sampler = (recall.sample_vu_serial if args.arch == "recall-serial"
               else recall.sample_parallel_expo)
    return _write_table(args, sampler(model, args.n, seed))


def _read_times(path: str) -> np.ndarray:
    try:
        fh = open(path, "r")
    except OSError as exc:
        raise UsageError(f"--input: {exc}") from exc
    times = []
    with fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if lineno == 1:
                if text != "time":
                    raise ArchlabError(
                        f"line 1: expected header 'time', got {text!r}")
                continue
            if not text:
                continue
            try:
                value = float(text)
            except ValueError:
                raise ArchlabError(
                    f"line {lineno}: could not parse {text!r} as a time") from None
            if not 0 < value < math.inf:
                raise ArchlabError(f"line {lineno}: times must be positive "
                                   f"and finite, got {text!r}")
            times.append(value)
    return np.asarray(times, dtype=float)


def _cmd_fit(args) -> int:
    data = _read_times(args.input)
    from .recall import weibull_mle

    fit = weibull_mle(data)
    return _write_report(args, fit.to_json_dict(n=int(data.size), seed=None))


def _cmd_verify(args) -> int:
    from .verify import run_suite

    results = run_suite(args.suite)
    lines = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"{status} {res.suite}/{res.name}: {res.detail}")
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out is not None:
        _open_out(args.out).write(text)
    return 0 if n_fail == 0 else 3


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("archlab: a subcommand is required "
                             "(figure, theorem1, dependence, stage-survival, "
                             "simulate, fit, verify)")
        handler = {
            "figure": _cmd_figure,
            "theorem1": _cmd_theorem1,
            "dependence": _cmd_dependence,
            "stage-survival": _cmd_stage_survival,
            "simulate": _cmd_simulate,
            "fit": _cmd_fit,
            "verify": _cmd_verify,
        }[args.command]
        with _out_file(args.out) as args.out:  # the path becomes the open file
            code = handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # the reader left early (`| head`): not a failure
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except ArchlabError as exc:
        print(f"archlab: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
