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
from functools import partial
from typing import TYPE_CHECKING, Sequence

# numpy's OpenBLAS starts a worker thread at import, whose spin slows
# start-up, yet archlab's only float matmul is the 3x3 product in
# mc.empirical_dependence.  A user's own setting wins, and a process that
# imported numpy before this module keeps its pool.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .distributions import (ProcessingTimeDistribution, Uniform,
                            Weibull, parse_spec)
from .errors import (ArchlabError, ConditioningError, DistSpecError,
                     GridEvalError, UsageError)
from .numerics import _write_chunks, convolve_cdf, fmt17

# Each command imports the modules it runs (serial, parallel, mc, recall,
# verify) in its handler, so start-up compiles only what the command uses.
if TYPE_CHECKING:
    from .parallel import StageSurvivalGrid

# The flags each figure and each simulate architecture takes, with their
# defaults (None: the flag is required); any other is refused.
_TAKES = {"figure": {"fig4": {"k": 0.5}, "fig5": {"k": 0.2},
                     "fig6": {"k": 2.0, "u": 1.0}, "fig7": {"v": 2.0}},
          "simulate": {"serial": {"dist": None, "p": 0.5},
                       "parallel": {"dist": None},
                       "recall-serial": {"rates": None},
                       "recall-parallel": {"rates": None}}}


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
    cmd = {name: sub.add_parser(name, help=text)
           for name, (_, text, _) in _COMMANDS.items()}

    def add_taken(command: str, flag: str, what: str, **kwargs) -> None:
        uses = (name for name, flags in _TAKES[command].items() if flag in flags)
        cmd[command].add_argument(f"--{flag}", help=f"{what} ({', '.join(uses)})",
                                  **kwargs)

    cmd["figure"].add_argument("id", choices=_TAKES["figure"])
    add_taken("figure", "k", "Weibull shape", type=float)
    add_taken("figure", "u", "Weibull rate", type=float)
    add_taken("figure", "v", "uniform upper bound", type=float)

    for name in ("dependence", "stage-survival"):
        cmd[name].add_argument("--dist", required=True, help="e.g. weibull:k=2,u=1")
    dep = cmd["dependence"]
    dep.add_argument("--p", type=float, default=0.5)
    dep.add_argument("--tau-min", type=float, default=0.0,
                     help="0 starts at the first positive grid point")
    dep.add_argument("--tau-max", type=float,
                     help="default: 2 * quantile(0.999) of --dist")
    for axis in ("t", "ta"):
        cmd["stage-survival"].add_argument(f"--{axis}-min", type=float, default=0.0)
        cmd["stage-survival"].add_argument(f"--{axis}-max", type=float)

    cmd["simulate"].add_argument("arch", choices=_TAKES["simulate"])
    add_taken("simulate", "dist", "distribution spec")
    add_taken("simulate", "p", "probability that a runs first", type=float)
    add_taken("simulate", "rates", "comma-separated item rates")

    cmd["fit"].add_argument("--input", required=True,
                            help="CSV with header 'time', one positive time per row")
    cmd["verify"].add_argument("--suite", default="all",
                               choices=["all", "analysis", "mc", "recall"])

    # the flags several commands share
    for name in ("figure", "dependence", "stage-survival"):
        cmd[name].add_argument("--steps", type=int, default=100)
    for name, n in (("theorem1", 1_000_000), ("simulate", 10_000)):
        cmd[name].add_argument("--n", type=int, default=n)
        cmd[name].add_argument("--seed", type=int)  # mc.DEFAULT_SEED
    for name, (_, _, fmt) in _COMMANDS.items():
        cmd[name].add_argument("--out")
        if fmt is not None:
            cmd[name].add_argument("--format", choices=["csv", "json"], default=fmt)
    return parser


def _flags_of(args, name: str) -> dict:
    """The flags that ``name``, a figure or a simulate architecture, takes
    by ``_TAKES``: as passed, or else their defaults.  Passing one that it
    does not take, or leaving out a required one, is a usage error."""
    table = _TAKES[args.command]
    par = dict(table[name])
    for flag in dict.fromkeys(f for flags in table.values() for f in flags):
        if (value := getattr(args, flag)) is not None:
            if flag not in par:
                raise UsageError(f"--{flag} does not apply to {name}")
            par[flag] = value
    for flag, value in par.items():
        if value is None:
            raise UsageError(f"--{flag} is required for {name}")
    return par


def _write_table(args, names: Sequence[str], chunks, **head) -> int:
    """Stream a table's chunks of columns as CSV, or as JSON objects keyed
    by the column ``names`` (after the ``head`` entries)."""
    _write_chunks(_open_out(args.out), names, chunks,
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
    """--steps >= 2 and, for each NAME=(lo, hi), finite
    0 <= --NAME-min < --NAME-max."""
    if steps < 2:
        raise UsageError("--steps must be >= 2")
    for name, (lo, hi) in ranges.items():
        for end, value in (("min", lo), ("max", hi)):
            if not math.isfinite(value):
                raise UsageError(f"--{name}-{end} must be finite, got {value}")
        if lo < 0:
            raise UsageError(f"--{name}-min must be >= 0, got {lo}")
        if not hi > lo:
            raise UsageError(f"--{name}-max ({hi}) must exceed --{name}-min ({lo})")


def _check_default(flag: str, rule: str, spec: str, value: float) -> None:
    """A flag's default, ``rule`` of the ``--dist`` spec, must be finite."""
    if not math.isfinite(value):
        raise UsageError(f"--{flag}: the default, {rule} of --dist {spec}, "
                         f"is {value}; pass --{flag}")


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
    par = _flags_of(args, args.id)
    steps = args.steps
    _check_axes(steps)
    if args.id in ("fig4", "fig5"):
        k = par["k"]
        Weibull(k, 1.0)  # a bad --k is reported as such, not as a grid cell
        us, taus = np.linspace(0.5, 10.0, steps), np.linspace(0.01, 5.0, steps)
        cols = (np.repeat(us, steps), np.tile(taus, steps),
                _expr3_grid(k, us, taus).reshape(-1))
    else:
        if args.id == "fig6":
            dist, hi = Weibull(par["k"], par["u"]), 10.0
        else:
            dist, hi = Uniform(par["v"]), 1.0
        stage = _stage_grid(dist, dist.spec_string(), steps, (0.0, hi), (0.0, hi))
        cols = (stage.t, stage.ta, stage.expr4)
    return _write_table(args, ("axis1", "axis2", "value"), [cols], figure=args.id)


def _cmd_theorem1(args) -> int:
    from . import mc

    seed = mc.DEFAULT_SEED if args.seed is None else args.seed
    return _write_report(args, mc.run_theorem1_mc(args.n, seed).to_json_dict())


def _cmd_dependence(args) -> int:
    from .serial import SerialTwoModel, dependence_profile

    dist = _parse_dist(args.dist)
    model = SerialTwoModel(dist, args.p)
    tau_max = args.tau_max
    if tau_max is None:
        with np.errstate(over="ignore"):
            tau_max = 2.0 * float(dist.quantile(0.999))
        _check_default("tau-max", "2 * quantile(0.999)", args.dist, tau_max)
    taus = _tau_grid(args.tau_min, tau_max, args.steps)
    try:
        profile = dependence_profile(model, taus)
    except ConditioningError as exc:
        # marginal_a never decreases in tau, so the null event is at taus[0]
        if args.tau_min != 0.0:
            raise
        raise UsageError(
            f"--tau-min: the default grid's first tau, {float(taus[0])!r}, has "
            f"P(completion of a) = 0 for --dist {args.dist} and --p {args.p!r}; "
            "pass --tau-min") from exc
    return _write_table(args, profile.columns, [profile.table()])


def _cmd_stage_survival(args) -> int:
    dist = _parse_dist(args.dist)
    upper = dist.support_upper
    t_max = args.t_max
    if t_max is None and np.isfinite(upper):
        t_max = 0.45 * upper
    elif t_max is None:
        t_max = 3.0 * dist.typical_scale
        _check_default("t-max", "3 * typical_scale", args.dist, t_max)
    ta_max = args.ta_max if args.ta_max is not None else t_max
    t, ta = (args.t_min, t_max), (args.ta_min, ta_max)
    _check_axes(args.steps, t=t, ta=ta)
    grid = _stage_grid(dist, args.dist, args.steps, t, ta)
    return _write_table(args, grid.columns, [grid.table()])


def _parse_rates(raw: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in raw.split(","))
    except ValueError:
        raise UsageError(f"--rates: could not parse {raw!r} as "
                         "comma-separated floats") from None


def _cmd_simulate(args) -> int:
    from . import mc

    # each architecture's model, trials, sampler and uniforms per trial
    par = _flags_of(args, args.arch)
    if args.arch == "serial":
        from .serial import SerialTwoModel
        model = SerialTwoModel(_parse_dist(par["dist"]), par["p"])
        trials, sample, draws = mc.Trials, mc._serial, 3
    elif args.arch == "parallel":
        from .parallel import ParallelTwoModel
        model = ParallelTwoModel(_parse_dist(par["dist"]))
        trials, sample, draws = mc.Trials, mc._parallel, 2
    else:
        from . import recall
        model = recall.RecallModel(_parse_rates(par["rates"]))
        trials = recall.RecallTrials
        sample, draws = ((recall._vu_serial, 2 * model.n)
                         if args.arch == "recall-serial" else
                         (recall._parallel_expo, model.n))
    seed = mc.DEFAULT_SEED if args.seed is None else args.seed
    chunks = mc.trace(trials, partial(sample, model), draws, args.n, seed)
    return _write_table(args, trials.columns, chunks)


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


# Each command's handler, its help line and its default --format (None for
# no --format), in the order `archlab -h` lists them.
_COMMANDS = {
    "figure": (_cmd_figure, "emit a named data grid", "csv"),
    "theorem1": (_cmd_theorem1, "order-constrained sign Monte Carlo", "json"),
    "dependence": (_cmd_dependence, "serial dependence profile over tau", "csv"),
    "stage-survival": (_cmd_stage_survival, "parallel stage-survival grid", "csv"),
    "simulate": (_cmd_simulate, "trial traces for a model", "csv"),
    "fit": (_cmd_fit, "Weibull MLE on a column of times", "json"),
    "verify": (_cmd_verify, "run the verification suites", None),
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("archlab: a subcommand is required "
                             f"({', '.join(_COMMANDS)})")
        for flag, low in (("n", 1), ("seed", 0)):  # theorem1 and simulate
            if (value := vars(args).get(flag)) is not None and value < low:
                raise UsageError(f"--{flag} must be >= {low}, got {value}")
        handler = _COMMANDS[args.command][0]
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
