"""A/B benchmark: a parent commit against the working tree, in pairs of runs.

    python3 tools/ab.py [--base REF] [--workload all] [--pairs 5] [--seed S]
                        [--dir DIR]

Run from the root of an archlab checkout.  The script exports the files of
``--base`` (default ``HEAD``) and the working tree's tracked files, as they
are on disk, into two sibling directories whose paths have the same length
(``DIR/old`` and ``DIR/new``, which must not exist yet; DIR defaults to a
temporary directory, removed at the end), since the length of the
checkout's path alone moves ``peak_rss_mb``.  Each pair runs
``python3 perfbench/run.py --workload W --seed S`` in both, the old side
first in even pairs and the new side first in odd ones, then
``tools/two_loop.py`` to name the host state.

It prints every pair's end-to-end metrics, then, for each workload, each
side's count of correct runs and of failed commands and, for each
``end_to_end`` metric of ``BENCHMARK.json``, both medians, both sides'
quartiles, the change's wins (pairs where the new side is better) and a
verdict:

- ``claim holds``: the new side wins at least 9/10 of the pairs and the
  medians differ by more than the old side's interquartile range (IQR);
- ``worse``: the new median is worse than the old by more than the
  metric's bound;
- ``unresolved``: either side's IQR is wider than the bound and not every
  new run beats every old run;
- ``within bound`` otherwise.

It uses the standard library only, and writes nothing into either
checkout but what run.py writes.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIDES = ("old", "new")  # equal lengths, so equal checkout paths


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def export(base: str, top: str) -> dict:
    """The two checkouts under ``top``, by side."""
    dirs = {side: os.path.join(top, side) for side in SIDES}
    for path in dirs.values():
        os.makedirs(path)  # not over an earlier export
    tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", base))
                 ).extractall(dirs["old"])
    for name in git("ls-files", "-z").decode().split("\0"):
        src = os.path.join(ROOT, name)
        if name and os.path.isfile(src):  # a tracked file may be deleted
            dst = os.path.join(dirs["new"], name)
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            shutil.copy2(src, dst)
    return dirs


def bench(checkout: str, workload: str, seed: int) -> dict:
    """run.py's result by workload; its last stdout line is the JSON."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           workload, "--seed", str(seed)], cwd=checkout,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"run.py failed in {checkout}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result if workload == "all" else {workload: result}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default="HEAD", help="the parent ref (HEAD)")
    ap.add_argument("--workload", default="all")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0x5EED2024,
                    help="perfbench's default seed, whose outputs it checks "
                         "against golden hashes")
    ap.add_argument("--dir", help="where to export the two checkouts")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    top = args.dir or tempfile.mkdtemp(prefix="archlab-ab-")
    try:
        return compare(args, metrics, export(args.base, top))
    finally:
        if args.dir is None:
            shutil.rmtree(top, ignore_errors=True)


def compare(args, metrics: list, dirs: dict) -> int:
    print(f"# old = {args.base} at {dirs['old']}, new = working tree at "
          f"{dirs['new']}", flush=True)
    runs = {side: [] for side in SIDES}  # one result by workload per pair
    for pair in range(args.pairs):
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            runs[side].append(bench(dirs[side], args.workload, args.seed))
        for workload in runs["old"][-1]:
            for side in SIDES:
                res = runs[side][-1][workload]
                values = " ".join(f"{name}={res['metrics'][name]['value']:.6g}"
                                  for name in (m["name"] for m in metrics))
                print(f"pair {pair} {workload} {side}: {values} "
                      f"correct={res['correct']} failed={res['failed']}")
        two_loop = subprocess.run(
            [sys.executable, os.path.join(HERE, "two_loop.py")],
            capture_output=True, text=True).stdout.strip()
        print(f"pair {pair} two-loop: {two_loop}", flush=True)
    print(f"# {args.pairs} pairs, seed {args.seed}; medians, new minus old, "
          "quartiles, the pairs where new is better and the verdict")
    for workload in runs["old"][0]:
        for side in SIDES:
            results = [r[workload] for r in runs[side]]
            correct = sum(r["correct"] for r in results)
            failed = sum(r["failed"] for r in results)
            print(f"{workload} {side}: correct {correct}/{len(results)}, "
                  f"failed {failed}")
        for m in metrics:
            name, sign = m["name"], 1 if m["better"] == "lower" else -1
            old, new = ([r[workload]["metrics"][name]["value"] for r in runs[side]]
                        for side in SIDES)
            wins = sum(sign * (n - o) < 0 for o, n in zip(old, new))
            mo, mn = statistics.median(old), statistics.median(new)
            qo, qn = quartiles(old), quartiles(new)
            print(f"{workload} {name}: old {mo:.4g} new {mn:.4g} "
                  f"diff {mn - mo:+.4g} {m['unit']} (bound {m['bound']}), "
                  f"quartiles old {qo[0]:.4g}-{qo[1]:.4g} "
                  f"new {qn[0]:.4g}-{qn[1]:.4g}, new better in "
                  f"{wins}/{len(old)}: "
                  f"{verdict(old, new, wins, sign, m['bound'])}")
    return 0


def quartiles(values: list) -> tuple:
    """The lower and upper quartiles, interpolated between runs."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(old: list, new: list, wins: int, sign: int, bound: float) -> str:
    """The rule of the module docstring; ``sign`` is 1 when lower is
    better, -1 when higher is."""
    gain = sign * (statistics.median(old) - statistics.median(new))
    iqr = [q3 - q1 for q1, q3 in (quartiles(old), quartiles(new))]
    if -gain > bound:
        return "worse"
    if 10 * wins >= 9 * len(old) and gain > iqr[0]:
        return "claim holds"
    every_run_better = max(sign * v for v in new) < min(sign * v for v in old)
    if max(iqr) > bound and not every_run_better:
        return "unresolved"
    return "within bound"


if __name__ == "__main__":
    sys.exit(main())
