"""Frozen output corpus: every command's output at small sizes, CSV and JSON.

Each case runs one ``archlab`` command in process and compares its stdout
with ``tests/golden/<name>``.  Text and integers must match exactly.  Floats
may differ by at most ``ULP_BUDGET`` units in the last place of the larger
magnitude, because numpy's SIMD ``x ** k`` and ``np.exp`` round differently
across CPUs (array-path drift of up to 32 ulp has been measured).  ``verify``
prints 2-5 significant digits of quantities that sit at the rounding floor
(route gaps of 1e-16), which no ulp budget bounds, so its numbers are
compared within ``VERIFY_REL`` relative or ``VERIFY_ABS`` absolute instead.
Separately, each command run twice in one process must print the same bytes.

``tests/golden/regenerate.sh`` rewrites the corpus from the current code.
A change that rewrites it says which files moved and why.
"""

from __future__ import annotations

import contextlib
import functools
import io
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from archlab import cli, numerics

GOLDEN = Path(__file__).parent / "golden"
FIT_INPUT = str(GOLDEN / "fit_input.csv")

ULP_BUDGET = 64
VERIFY_REL, VERIFY_ABS = 2e-2, 1e-12

_STAGE_UNIFORM = ["stage-survival", "--dist", "uniform:v=2", "--steps", "5",
                  "--t-max", "0.9", "--ta-max", "1.99"]  # nan alpha, inf expr4
_SERIAL = ["simulate", "serial", "--dist", "weibull:k=0.7,u=1", "--n", "2000"]
# 5000 rows: longer than one write chunk
_RECALL_SERIAL = ["simulate", "recall-serial", "--rates", "1,2,3,4,5", "--n", "1000"]
_JSON = ["--format", "json"]
_CSV = ["--format", "csv"]

CASES = {
    "fig4.csv": ["figure", "fig4", "--steps", "12"],
    "fig4.json": ["figure", "fig4", "--steps", "12", *_JSON],
    "fig5.csv": ["figure", "fig5", "--steps", "12"],
    "fig6.csv": ["figure", "fig6", "--steps", "12"],
    "fig7.csv": ["figure", "fig7", "--steps", "12"],
    "fig7.json": ["figure", "fig7", "--steps", "12", *_JSON],
    "dependence-weibull-k0.5.csv": ["dependence", "--dist", "weibull:k=0.5,u=1",
                                    "--steps", "40"],
    "dependence-weibull-k2.csv": ["dependence", "--dist", "weibull:k=2,u=1",
                                  "--steps", "40"],
    "dependence-exp.json": ["dependence", "--dist", "exp:u=1", "--steps", "30",
                            *_JSON],
    "dependence-uniform.csv": ["dependence", "--dist", "uniform:v=2", "--p", "0.3",
                               "--steps", "30"],
    "stage-survival-weibull.csv": ["stage-survival", "--dist", "weibull:k=2,u=1",
                                   "--steps", "8"],
    "stage-survival-exp.json": ["stage-survival", "--dist", "exp:u=1",
                                "--steps", "6", *_JSON],
    "stage-survival-uniform.csv": _STAGE_UNIFORM,
    "stage-survival-uniform.json": [*_STAGE_UNIFORM, *_JSON],
    "simulate-serial.csv": _SERIAL,
    "simulate-serial.json": [*_SERIAL, *_JSON],
    "simulate-parallel.csv": ["simulate", "parallel", "--dist", "uniform:v=2",
                              "--n", "2000", "--seed", "7"],
    "simulate-recall-serial.csv": _RECALL_SERIAL,
    "simulate-recall-parallel.csv": ["simulate", "recall-parallel", "--rates",
                                     "1,2,3", "--n", "1000", "--seed", "11"],
    "theorem1.json": ["theorem1", "--n", "10000"],
    "theorem1.csv": ["theorem1", "--n", "10000", *_CSV],
    # 3 * BLOCK_TRIALS + 5 samples: three block seams and a partial block
    "theorem1-blocks.json": ["theorem1", "--n", "196613"],
    "fit.json": ["fit", "--input", FIT_INPUT],
    "fit.csv": ["fit", "--input", FIT_INPUT, *_CSV],
    "verify.txt": ["verify"],
}

_NUMBER = re.compile(r"(-?\d+(?:\.\d*)?(?:e[-+]?\d+)?)")


def run(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    assert code == 0, argv
    return buf.getvalue()


@functools.cache
def first_run(name: str) -> str:
    return run(CASES[name])


def _floats_close(got: float, want: float, verify: bool) -> bool:
    if got == want or (np.isnan(got) and np.isnan(want)):
        return True
    if verify:
        return abs(got - want) <= max(VERIFY_ABS, VERIFY_REL * abs(want))
    return abs(got - want) <= ULP_BUDGET * np.spacing(max(abs(got), abs(want)))


def assert_matches(got: str, want: str, name: str) -> None:
    """Text and integer tokens equal, float tokens within the budget."""
    got_lines, want_lines = got.split("\n"), want.split("\n")
    assert len(got_lines) == len(want_lines), f"{name}: line count"
    for lineno, (g_line, w_line) in enumerate(zip(got_lines, want_lines), 1):
        if g_line == w_line:
            continue
        where = f"{name}:{lineno}"
        g_tok, w_tok = _NUMBER.split(g_line), _NUMBER.split(w_line)
        assert len(g_tok) == len(w_tok), f"{where}: {g_line!r} != {w_line!r}"
        for i, (g, w) in enumerate(zip(g_tok, w_tok)):
            if i % 2 == 0 or not (set(".e") & set(g + w)):
                assert g == w, f"{where}: {g!r} != {w!r}"
            else:
                assert _floats_close(float(g), float(w), name.startswith("verify")), \
                    f"{where}: {g} != {w} beyond the budget"


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_corpus(name):
    assert_matches(first_run(name), (GOLDEN / name).read_text(), name)


@pytest.mark.parametrize("name", sorted(CASES))
def test_rerun_byte_identical(name):
    assert run(CASES[name]) == first_run(name)


def test_corpus_crosses_chunk_seams():
    csv_rows = (GOLDEN / "simulate-recall-serial.csv").read_text().count("\n") - 1
    json_rows = (GOLDEN / "simulate-serial.json").read_text().count('{"trial"')
    assert min(csv_rows, json_rows) > numerics._CHUNK_ROWS


def test_budget_rejects_a_moved_float():
    want = "t,x\n1,0.5\n"
    assert_matches("t,x\n1,0.50000000000000011\n", want, "x.csv")
    with pytest.raises(AssertionError):
        assert_matches("t,x\n1,0.50000000000011\n", want, "x.csv")
    with pytest.raises(AssertionError):
        assert_matches("t,x\n2,0.5\n", want, "x.csv")


def regenerate() -> None:
    for name, argv in CASES.items():
        (GOLDEN / name).write_text(run(argv))


if __name__ == "__main__":
    sys.exit(regenerate())
