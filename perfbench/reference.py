"""Host-speed reference: a fixed program that uses nothing from archlab.

    reference.py

``run.py`` times it in a fresh interpreter before and after every archlab
command, and divides the command's set-up and wall time by the mean of
the two (the gated ``setup_s`` and ``wall_s``).  A shared host's speed
drifts by a third or more for minutes at a time; both programs drift with
it, and the ratio much less.  The program mixes the kinds of work the
workloads do, so that it slows down in about the same proportion:
importing numpy and scipy, scalar numpy calls in a Python loop
(cell-by-cell hazards, bisection), vectorised sampling and 17-digit float
formatting.  It prints a SHA-256 of what it computed; every
run prints the same one.
"""

import hashlib
import io
import math

import numpy as np
import scipy.special

SCALAR_STEPS = 30_000
VECTOR_N = 1_000_000
FORMAT_N = 150_000


def main() -> None:
    sha = hashlib.sha256()
    acc = 0.0
    for i in range(SCALAR_STEPS):
        t = 1e-3 * (i + 1)
        acc += float(np.exp(-t ** 1.5)) * math.log1p(t) + float(scipy.special.gammaln(1.0 + t))
    sha.update(repr(acc).encode())

    rng = np.random.Generator(np.random.PCG64(20240101))
    q = rng.random(VECTOR_N)
    x = np.sort((-np.log1p(-q)) ** (1.0 / 0.7))
    sha.update(x.tobytes())

    buf = io.StringIO()
    for a, b in zip(x[:FORMAT_N], q[:FORMAT_N]):
        buf.write(format(float(a), ".17g") + "," + format(float(b), ".17g") + "\n")
    sha.update(buf.getvalue().encode())
    print(sha.hexdigest())


if __name__ == "__main__":
    main()
