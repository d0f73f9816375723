"""Tiny-size smoke test of the benchmark itself (``run.py --selftest``).

1. Every workload runs at ``inputs.TINY`` scale, passes its checks and
   reports every end-to-end metric by name and unit.
2. A traced run reports every per-layer metric, with convolution calls on
   quad-grid and none on hazard-grid.
3. The checker rejects an output in which one digit is corrupted.
4. A command that exits nonzero counts in ``failed_frac``.
"""

from __future__ import annotations

import contextlib
import io
import re
import shutil

import checks
import inputs
import run


def _bench(workload: str, trace: bool) -> tuple[dict, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = run.bench(workload, inputs.DEFAULT_SEED, 0.0, trace, inputs.TINY)
    return result, buf.getvalue()


def _corrupt_digit(text: str, line_no: int, field: int) -> str:
    """Change the first significant digit of one field of one line."""
    lines = text.split("\n")
    cols = lines[line_no].split(",")
    m = re.search(r"[1-9]", cols[field])
    d = cols[field][m.start()]
    cols[field] = cols[field][:m.start()] + str(int(d) % 9 + 1) + cols[field][m.end():]
    lines[line_no] = ",".join(cols)
    return "\n".join(lines)


def main() -> int:
    failures = []

    def expect(cond: bool, msg: str) -> None:
        print(("ok     " if cond else "FAILED ") + msg)
        if not cond:
            failures.append(msg)

    for workload in inputs.WORKLOADS:
        result, report = _bench(workload, trace=False)
        expect(result["correct"] and result["failed"] == 0,
               f"{workload}: tiny run passes its checks")
        for name, unit in run.REPORTED:
            line = re.search(rf"^# {workload} {name} = (\S+) {re.escape(unit)}$",
                             report, re.M)
            expect(line is not None, f"{workload}: reports {name} in {unit}")
            if line:
                print(f"       {workload} {name} = {line.group(1)} {unit}")
        expect(all(isinstance(m["value"], float) for m in result["metrics"].values()),
               f"{workload}: every gated metric is a number")

    for workload, want_conv in (("quad-grid", True), ("hazard-grid", False)):
        result, _ = _bench(workload, trace=True)
        metrics = result["metrics"]
        expect(set(metrics) == {n for n, _ in run.per_layer_names()}
               and all(isinstance(m["value"], (int, float)) for m in metrics.values()),
               f"{workload}: traced run reports every per-layer metric")
        calls = metrics["numerics.convolve_cdf.calls"]["value"]
        expect((calls > 0) == want_conv,
               f"{workload}: numerics.convolve_cdf.calls = {calls}")

    r = run.prepare("hazard-grid", inputs.DEFAULT_SEED, inputs.TINY)
    try:
        checker = checks.Checker(r.seed, r.sizes, r.fit_input)
        cases = (
            (inputs.Command("fig6", ("figure", "fig6", "--steps", "4")), 8, 2),
            (inputs.Command("dependence-k2", ("dependence", "--dist", "weibull:k=2,u=1",
                                              "--steps", "8")), 5, 2),
            (inputs.Command("simulate-serial", ("simulate", "serial", "--dist",
                                                "weibull:k=0.7,u=1", "--n", "4000",
                                                "--seed", str(r.seed))), 7, 3),
        )
        for cmd, line_no, field in cases:
            att = run.run_child(cmd, r.workdir, cmd.name)
            expect(att.exit_code == 0 and checker.check(cmd.name, att.out_path).ok,
                   f"checker accepts {cmd.name}")
            with open(att.out_path) as fh:
                text = fh.read()
            with open(att.out_path, "w") as fh:
                fh.write(_corrupt_digit(text, line_no, field))
            expect(not checker.check(cmd.name, att.out_path).ok,
                   f"checker rejects {cmd.name} with one corrupted digit")

        r.commands = [inputs.Command("fig6", ("figure", "fig6", "--steps", "4")),
                      inputs.Command("bad", ("dependence", "--dist", "weibull:k=-1,u=1"))]
        run.closed_loop(r, 0.0)
        run.check_outputs(r)
        frac = run.end_to_end(r)["failed_frac"]
        expect(frac == 1 / len(r.attempts),
               f"a nonzero exit counts: failed_frac = {frac:.3g} "
               f"over {len(r.attempts)} commands")
    finally:
        shutil.rmtree(r.workdir, ignore_errors=True)

    print("selftest: " + ("ok" if not failures else f"{len(failures)} failure(s)"))
    return 0 if not failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
