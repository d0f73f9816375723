"""Benchmark for archlab: CLI and API wall time, accuracy, per-module traces.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all ...   # every workload in turn
    python3 perfbench/run.py --selftest           # tiny-size smoke test

Run from the root of a source checkout; archlab is imported from ``src/``.
A run is a closed loop with one client: one archlab command at a time, each
in a fresh interpreter, as a user runs the CLI.  The workload's commands are
cycled for ``--seconds``: at least one full pass plus a rerun of the first
command, which must reproduce its output byte for byte.  Every distinct
output is checked against an independent reference (``checks.py``).

Before the first command and after every command the loop also runs
``reference.py``, a fixed program that uses nothing from archlab, in a
fresh interpreter.  The gated ``setup_s`` and ``wall_s`` divide each
command's times by the mean of the reference times just before and after
it, and read as seconds on a host where reference.py takes
``REF_NOMINAL_S``: a shared host's speed drifts by a third or more for
minutes at a time, and the ratio cancels most of the drift that the raw
``setup_raw_s`` and ``wall_raw_s`` show.

With ``--trace 0`` the last stdout line is the JSON result with the
end-to-end metrics; earlier lines report every metric by name and unit, the
worst error found and an environment stamp.  With ``--trace 1`` each command
runs once untraced and once with archlab's public functions wrapped
(``tracer.py``), and the result carries the per-layer metrics instead.

Workloads (see ``inputs.py``):

* ``quad-grid``: fig4 --k 2, fig5 and two 1000-row dependence profiles,
  nearly all convolution quadrature, on the k >= 1 and k < 1 paths;
* ``hazard-grid``: fig6, fig7 and two stage-survival grids: closed-form
  hazards cell by cell and no convolution at all;
* ``mc-trace``: simulate serial, simulate recall-serial, theorem1 and fit:
  sampling and ~36 MB of 17-digit CSV;
* ``custom-dist``: the Python API on a user-defined distribution, the only
  path through numerics.integrate and the bisection quantile.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

import checks
import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "archlab")
WORK = os.path.join(ROOT, ".perfbench_work")
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.py")

#: ``setup_s`` and ``wall_s`` are times on a host where reference.py takes
#: this long.
REF_NOMINAL_S = 1.0

#: No command takes more than ~15 s on a 2-vCPU machine; past this it hangs.
COMMAND_TIMEOUT_S = 120.0

#: Printed, in this order, for every workload.  The first three are the
#: gated end-to-end metrics of BENCHMARK.json.  The raw times and the
#: rates, which divide by raw times, drift with the host's speed; the
#: others do not apply to every workload (a rate without its unit of work,
#: an error without an oracle, a failure fraction that is 0).  They are
#: reported, not gated.
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
REPORTED = END_TO_END + (("setup_raw_s", "s"), ("wall_raw_s", "s"),
                         ("grid_cells_per_s", "1/s"), ("profile_rows_per_s", "1/s"),
                         ("trials_per_s", "1/s"), ("max_abs_err", "1"),
                         ("failed_frac", "1"))
RATE_UNITS = {"grid_cells_per_s": "cells", "profile_rows_per_s": "rows",
              "trials_per_s": "trials"}
#: custom-dist times its API calls itself; its rates use those phases.
CUSTOM_PHASES = {"cells": "grid_s", "rows": "profile_s", "trials": "sample_s"}

#: Layers are archlab's modules; span names match tracer.TARGETS.
LOC_MODULES = ("__init__", "_ckernels", "_pykernels", "cli", "distributions",
               "errors", "kernels", "mc", "numerics", "parallel", "recall",
               "serial", "verify")
SPAN_METRICS = (
    # (span name, report calls, report self time)
    ("numerics.convolve_cdf", True, True),
    ("kernels.conv_cdf", True, True),
    ("numerics.integrate", True, True),
    ("distributions.quantile", True, True),
    ("numerics.grid_eval", False, True),
    ("cli.main", False, True),
    ("parallel.stage_survival_grid", False, True),
    ("parallel.stage_survival_gap", True, True),
    ("parallel.alpha_extrema", True, True),
    ("distributions.cdf", True, True),
    ("distributions.hazard", True, True),
    ("distributions.cum_hazard", True, True),
    ("serial.dependence_profile", False, True),
    ("serial.dependence_difference", True, False),
    ("numerics.write_rows_csv", False, True),
    ("numerics.GridResult.to_csv", False, True),
    ("mc.simulate_serial", False, True),
    ("mc.run_theorem1_mc", False, True),
    ("mc.sample_iid", False, True),
    ("recall.sample_vu_serial", False, True),
    ("recall.weibull_mle", False, True),
)
COUNT_METRICS = (  # (metric, tracer count key)
    ("numerics.grid_eval.cells", "numerics.grid_eval.cells"),
    ("numerics.write_rows_csv.rows", "numerics.write_rows_csv.rows"),
    ("mc.uniform_blocks.blocks", "mc.uniform_blocks.items"),
    ("recall.weibull_mle.iterations", "recall.weibull_mle.iterations"),
)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    names = [("import.total_s", "s"), ("import.scipy_s", "s"),
             ("import.numpy_s", "s"), ("import.archlab_s", "s")]
    for span, calls, self_time in SPAN_METRICS:
        if calls:
            names.append((f"{span}.calls", "count"))
        if self_time:
            names.append((f"{span}.self_s", "s"))
        if span == "numerics.convolve_cdf":
            names += [(f"{span}.us_per_call", "us"), (f"{span}.max_abs_err", "1")]
    names += [(metric, "count") for metric, _ in COUNT_METRICS]
    names += [("out.bytes", "bytes"), ("out.max_abs_err", "1")]
    names += [(f"loc.{m}", "lines") for m in LOC_MODULES] + [("loc.total", "lines")]
    names.append(("trace.overhead_s", "s"))
    return names


# -- running one command -------------------------------------------------------

@dataclass
class Attempt:
    command: inputs.Command
    out_path: str
    wall_s: float = 0.0
    ref_s: float | None = None  # mean reference.py time just before and after
    setup_s: float | None = None
    maxrss_mb: float | None = None  # the child's own VmHWM
    exit_code: int | None = None  # None: killed at the timeout
    digest: str = ""
    phases: dict = field(default_factory=dict)
    failure: str = ""


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd: inputs.Command, workdir: str, tag: str,
              trace_path: str | None = None, command_id: int = 0) -> Attempt:
    """Run ``cmd`` in a fresh interpreter; stdout (or, for custom-dist, the
    output directory) is the output to check."""
    argv = [sys.executable, CHILD]
    if trace_path is not None:
        argv += ["--trace", trace_path, "--command-id", str(command_id)]
    argv += list(cmd.argv)
    out_path = os.path.join(workdir, f"{tag}.out")
    custom = cmd.argv[0] == "custom-dist"
    if custom:
        out_dir = os.path.join(workdir, f"{tag}.dir")
        os.makedirs(out_dir)
        argv += ["--out", out_dir]
    err_path = os.path.join(workdir, f"{tag}.err")
    att = Attempt(cmd, out_dir if custom else out_path)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=child_env())
        try:
            att.exit_code = proc.wait(timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        att.wall_s = time.monotonic() - start
    stderr = []
    with open(err_path, "r", errors="replace") as fh:
        for line in fh:
            if line.startswith("@import_done "):
                att.setup_s = float(line.split()[1]) - start
            elif line.startswith("@peak_rss_kb "):
                att.maxrss_mb = int(line.split()[1]) / 1024.0
            else:
                stderr.append(line)
    os.remove(err_path)
    if att.exit_code != 0:
        why = "timed out" if att.exit_code is None else f"exit code {att.exit_code}"
        att.failure = f"{why}: {''.join(stderr[-3:]).strip()}"
    elif att.maxrss_mb is None:
        att.failure = "no peak RSS reported"
    if custom:
        if att.exit_code == 0:
            with open(out_path) as fh:
                lines = fh.read().splitlines()
            try:
                att.phases = json.loads(lines[-1])
            except (IndexError, ValueError):
                att.failure = "custom-dist printed no phase timings"
        att.digest = _digest_dir(out_dir)
        os.remove(out_path)
    else:
        att.digest = checks.sha256_file(out_path)
    return att


def _digest_dir(path: str) -> str:
    sha = checks.sha256_file
    return ",".join(sha(os.path.join(path, f)) for f in sorted(os.listdir(path)))


def output_bytes(path: str) -> int:
    if os.path.isdir(path):
        return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))
    return os.path.getsize(path)


def discard(att: Attempt) -> None:
    if os.path.isdir(att.out_path):
        shutil.rmtree(att.out_path)
    elif os.path.exists(att.out_path):
        os.remove(att.out_path)


# -- a workload run --------------------------------------------------------------

@dataclass
class Run:
    workload: str
    seed: int
    sizes: inputs.Sizes
    workdir: str
    commands: list
    fit_input: str
    attempts: list = field(default_factory=list)
    max_abs_err: float = 0.0
    worst: str = ""
    problems: list = field(default_factory=list)
    absent: set = field(default_factory=set)  # traced targets not in archlab
    ref_walls: list = field(default_factory=list)  # reference.py wall times
    ref_digest: str | None = None


def prepare(workload: str, seed: int, sizes: inputs.Sizes) -> Run:
    workdir = os.path.join(WORK, f"{workload}-{os.getpid()}")
    os.makedirs(workdir)
    fit_input = os.path.join(workdir, "fit_input.csv")
    inputs.write_fit_input(fit_input, seed, sizes.fit_n)
    cmds = inputs.workload_commands(workload, seed, sizes, fit_input)
    return Run(workload, seed, sizes, workdir, cmds, fit_input)


def run_reference(run: Run) -> float | None:
    """Wall time of reference.py in a fresh interpreter, None if it failed.
    Every run of it in a workload run must print the same digest."""
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, REFERENCE], cwd=ROOT, capture_output=True,
                              text=True, timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        run.problems.append("reference.py timed out")
        return None
    wall = time.monotonic() - start
    digest = proc.stdout.strip()
    if proc.returncode != 0 or not digest:
        run.problems.append(f"reference.py failed: exit code {proc.returncode}: "
                            f"{proc.stderr.strip()[-200:]}")
        return None
    if run.ref_digest is None:
        run.ref_digest = digest
    elif digest != run.ref_digest:
        run.problems.append("reference.py printed a different digest")
        return None
    run.ref_walls.append(wall)
    return wall


def closed_loop(run: Run, seconds: float) -> None:
    """Cycle the commands, with a run of the reference program before the
    first and after each, until ``seconds`` have passed, after at least one
    pass and a rerun of the first command.  A command starts only if its
    median duration so far, with the reference's, still fits in the time
    left."""
    durations = defaultdict(list)
    first: dict[str, Attempt] = {}
    deadline = time.monotonic() + seconds
    n = len(run.commands)
    i = 0
    before = run_reference(run)
    while True:
        cmd = run.commands[i % n]
        att = run_child(cmd, run.workdir, f"a{i}")
        after = run_reference(run)
        bracket = [t for t in (before, after) if t is not None]
        att.ref_s = statistics.mean(bracket) if bracket else None
        before = after
        durations[cmd.name].append(att.wall_s)
        run.attempts.append(att)
        if cmd.name not in first and att.exit_code == 0:
            first[cmd.name] = att
        else:
            ref = first.get(cmd.name)
            if ref is not None and att.exit_code == 0 and att.digest != ref.digest:
                att.failure = "output differs from the first run of this command"
            discard(att)
        i += 1
        if i > n:
            nxt = run.commands[i % n]
            ref = statistics.median(run.ref_walls) if run.ref_walls else 0.0
            if time.monotonic() + ref + statistics.median(durations[nxt.name]) > deadline:
                break


def check_outputs(run: Run) -> None:
    """Check the first successful output of each command; reruns with the
    same bytes share its verdict."""
    checker = checks.Checker(run.seed, run.sizes, run.fit_input)
    verdicts = {}
    for att in run.attempts:
        if att.exit_code != 0 or att.failure or att.command.name in verdicts:
            continue
        v = checker.check(att.command.name, att.out_path)
        verdicts[att.command.name] = (att.digest, v)
        if v.max_abs_err > run.max_abs_err:
            run.max_abs_err, run.worst = v.max_abs_err, f"{att.command.name}: {v.worst}"
        run.problems += v.problems
    for att in run.attempts:
        digest, v = verdicts.get(att.command.name, (None, None))
        if v is not None and not v.ok and not att.failure and att.digest == digest:
            att.failure = "; ".join(v.problems[:3])
        discard(att)


def fastest_by_command(attempts: list) -> dict:
    """Each command's shortest successful run.  The host's CPU speed switches
    between states for seconds at a time; the fastest of a command's runs is
    the one least likely to have fallen into a slow state."""
    walls = defaultdict(list)
    for att in attempts:
        if att.exit_code == 0:
            walls[att.command.name].append(att.wall_s)
    return {name: min(v) for name, v in walls.items()}


def ref_ratios(run: Run, attr: str) -> dict:
    """Per command, ``attr`` of each successful run over the reference time
    around it (``ref_s``), in units of ``REF_NOMINAL_S``.  Pairing each run
    with the reference runs next to it cancels most of the host's drift;
    the medians taken of these discard the runs in which the host changed
    speed between the two."""
    ratios = defaultdict(list)
    for att in run.attempts:
        value = getattr(att, attr)
        if att.exit_code == 0 and att.ref_s and value is not None:
            ratios[att.command.name].append(REF_NOMINAL_S * value / att.ref_s)
    return ratios


def end_to_end(run: Run) -> dict:
    """All REPORTED metrics; None where a metric does not apply."""
    walls = fastest_by_command(run.attempts)
    setups = [a.setup_s for a in run.attempts if a.setup_s is not None]
    setup_ratios = [r for v in ref_ratios(run, "setup_s").values() for r in v]
    wall_ratios = ref_ratios(run, "wall_s")
    m = {
        "setup_s": statistics.median(setup_ratios) if setup_ratios else None,
        "wall_s": (sum(statistics.median(v) for v in wall_ratios.values())
                   if len(wall_ratios) == len(run.commands) else None),
        "peak_rss_mb": max((a.maxrss_mb for a in run.attempts if a.maxrss_mb is not None),
                           default=None),
        "setup_raw_s": statistics.median(setups) if setups else None,
        "wall_raw_s": sum(walls.values()) if len(walls) == len(run.commands) else None,
    }
    for metric, unit in RATE_UNITS.items():
        work = time_s = 0.0
        for cmd in run.commands:
            if unit not in cmd.work or cmd.name not in walls:
                continue
            if cmd.argv[0] == "custom-dist":
                phases = [a.phases[CUSTOM_PHASES[unit]] for a in run.attempts if a.phases]
                if not phases:
                    continue
                time_s += min(phases)
            else:
                time_s += walls[cmd.name]
            work += cmd.work[unit]
        m[metric] = work / time_s if time_s > 0 else None
    m["max_abs_err"] = run.max_abs_err
    m["failed_frac"] = sum(bool(a.failure) for a in run.attempts) / len(run.attempts)
    return m


# -- traced run -------------------------------------------------------------------

def import_times(repeats: int = 3) -> dict:
    """Medians over fresh interpreters of ``-X importtime``: all modules'
    self time, numpy's and scipy's cumulative time, archlab's own time."""
    samples = defaultdict(list)
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import archlab.cli"], cwd=ROOT, env=child_env(),
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=COMMAND_TIMEOUT_S, check=True)
        entries = []
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, cum_us, name = line.split(":", 1)[1].split("|")
            depth = (len(name) - len(name.lstrip())) // 2
            entries.append((depth, name.strip(), int(self_us), int(cum_us)))
        for key, value in _import_breakdown(entries).items():
            samples[key].append(value)
    return {key: statistics.median(v) for key, v in samples.items()}


def _import_breakdown(entries) -> dict:
    def pkg(name, root):
        return name == root or name.startswith(root + ".")

    # importtime lists children before their parent; walking backwards
    # visits each parent before its children, so a depth stack holds the
    # ancestors of the current entry.
    top_cum = defaultdict(int)
    stack = []
    for depth, name, _, cum in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        # numpy modules that scipy pulls in count as scipy's cost
        for root, within in (("numpy", ("numpy", "scipy")), ("scipy", ("scipy",))):
            if pkg(name, root) and not any(pkg(a, r) for _, a in stack for r in within):
                top_cum[root] += cum
        stack.append((depth, name))
    return {
        "import.total_s": sum(e[2] for e in entries) / 1e6,
        "import.numpy_s": top_cum["numpy"] / 1e6,
        "import.scipy_s": top_cum["scipy"] / 1e6,
        "import.archlab_s": sum(e[2] for e in entries if pkg(e[1], "archlab")) / 1e6,
    }


def traced(run: Run) -> dict:
    """Run each command untraced then traced; return per-layer metrics."""
    metrics = {name: 0.0 for name, _ in per_layer_names()}
    metrics.update(import_times())
    trace_files = []
    plain_wall = traced_wall = 0.0
    for i, cmd in enumerate(run.commands):
        plain = run_child(cmd, run.workdir, f"p{i}")
        run.attempts.append(plain)
        plain_wall += plain.wall_s
        if plain.exit_code == 0:
            metrics["out.bytes"] += output_bytes(plain.out_path)
        trace_path = os.path.join(run.workdir, f"t{i}.json")
        tr = run_child(cmd, run.workdir, f"t{i}", trace_path, command_id=i)
        traced_wall += tr.wall_s
        run.attempts.append(tr)
        if tr.exit_code == 0 and plain.exit_code == 0 and tr.digest != plain.digest:
            tr.failure = "traced output differs from the untraced output"
        discard(tr)
        if os.path.exists(trace_path):
            trace_files.append(trace_path)
    check_outputs(run)
    metrics.update(aggregate_spans(trace_files, run.absent))
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    metrics["out.max_abs_err"] = run.max_abs_err
    metrics.update(source_lines())
    return metrics


def aggregate_spans(paths: list[str], absent: set) -> dict:
    calls = defaultdict(int)
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    counts = defaultdict(int)
    conv = []
    for path in paths:
        with open(path) as fh:
            data = json.load(fh)
        os.remove(path)
        names = data["names"]
        child_s = defaultdict(float)
        for _, parent, _, t0, t1 in data["spans"]:
            child_s[parent] += t1 - t0
        for sid, _, idx, t0, t1 in data["spans"]:
            name = names[idx]
            calls[name] += 1
            incl_s[name] += t1 - t0
            self_s[name] += t1 - t0 - child_s[sid]
        for key, value in data["counts"].items():
            counts[key] += value
        conv += data["conv"]
        absent.update(data["absent"])
    out = {}
    for span, want_calls, want_self in SPAN_METRICS:
        if want_calls:
            out[f"{span}.calls"] = calls[span]
        if want_self:
            out[f"{span}.self_s"] = self_s[span]
    span = "numerics.convolve_cdf"
    # per call including the kernel below it: what one convolution costs
    out[f"{span}.us_per_call"] = 1e6 * incl_s[span] / calls[span] if calls[span] else 0.0
    out[f"{span}.max_abs_err"] = conv_error(conv)
    for metric, key in COUNT_METRICS:
        out[metric] = counts[key]
    return out


def conv_error(records: list) -> float:
    """Worst |convolve_cdf result - frozen oracle| over the traced calls."""
    if not records:
        return 0.0
    oracle = checks.ConvOracle()
    worst = 0.0
    by_k = defaultdict(list)
    for k, u, tau, value in records:
        if tau > 0:
            by_k[k].append((u, tau, value))
    for k, rows in by_k.items():
        arr = np.array(rows)
        ref = oracle(k, arr[:, 0], arr[:, 1])
        worst = max(worst, float(np.max(np.abs(arr[:, 2] - ref))))
    return worst


def source_lines() -> dict:
    out = {f"loc.{m}": 0 for m in LOC_MODULES}
    total = 0
    for fname in sorted(os.listdir(PACKAGE)):
        stem, ext = os.path.splitext(fname)
        if ext not in (".py", ".pyx"):
            continue
        with open(os.path.join(PACKAGE, fname), "rb") as fh:
            n = sum(1 for _ in fh)
        total += n
        if stem in LOC_MODULES:
            out[f"loc.{stem}"] = n
    out["loc.total"] = total
    return out


# -- environment stamp ------------------------------------------------------------

def environment(load_at_start) -> dict:
    proc = subprocess.run([sys.executable, CHILD, "--env"], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
    stamp = json.loads(proc.stdout) if proc.returncode == 0 else {}
    try:  # the ceiling keeps git from reporting a repository above the checkout
        git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env,
                                capture_output=True, text=True,
                                timeout=30).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    stamp.update({"nproc": len(os.sched_getaffinity(0)), "git_commit": commit,
                  "loadavg_at_start": list(load_at_start)})
    stamp.update(source_lines())
    return stamp


# -- entry points -----------------------------------------------------------------

def bench(workload: str, seed: int, seconds: float, trace: bool,
          sizes: inputs.Sizes = inputs.FULL) -> dict:
    """One run; prints the report and returns the JSON result."""
    load = os.getloadavg()
    run = prepare(workload, seed, sizes)
    try:
        env = environment(load)  # also warms the bytecode and file caches
        if trace:
            metrics = traced(run)
            units = dict(per_layer_names())
        else:
            closed_loop(run, seconds)
            check_outputs(run)
            metrics = end_to_end(run)
            units = dict(REPORTED)
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    failed = sum(bool(a.failure) for a in run.attempts)
    print(f"# workload {workload} seed {seed} trace {int(trace)}: "
          f"{len(run.attempts)} commands, {failed} failed")
    print("# env " + json.dumps(env, sort_keys=True))
    for name, unit in units.items():
        value = metrics.get(name)
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"# {workload} {name} = {shown} {unit}")
    samples = defaultdict(list)
    for att in run.attempts:
        if att.exit_code == 0:
            samples[att.command.name].append(att.wall_s)
    if run.ref_walls:
        samples["reference.py"] = run.ref_walls
    for name, walls in samples.items():
        print(f"# {name}: {len(walls)} runs, wall s median {statistics.median(walls):.3f} "
              f"min {min(walls):.3f} max {max(walls):.3f}")
    if run.absent:
        print("# absent from archlab, their metrics read 0: "
              + ", ".join(sorted(run.absent)))
    if run.worst:
        print(f"# worst error: {run.worst}")
    for att in run.attempts:
        if att.failure:
            print(f"# FAILED {att.command.name}: {att.failure}")
    for problem in dict.fromkeys(run.problems):
        print(f"# check: {problem}")
    gated = dict(END_TO_END) if not trace else units
    return {
        "correct": failed == 0 and not run.problems,
        "attempted": len(run.attempts),
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name), "unit": unit}
                    for name, unit in gated.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="archlab benchmark")
    ap.add_argument("--workload", choices=inputs.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "cli.py")):
        print(f"run.py: no archlab sources at {PACKAGE}; run from the root of "
              "an archlab checkout", file=sys.stderr)
        return 2
    if args.selftest:
        import selftest
        return selftest.main()
    if args.workload is None:
        ap.error("--workload is required")
    names = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    results = [bench(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps({name: res for name, res in zip(names, results)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
