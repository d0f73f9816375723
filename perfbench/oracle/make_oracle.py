"""Generate the frozen convolution oracle ``conv.csv.gz``.

For every Weibull(k, u) convolution CDF that the ``quad-grid`` and
``custom-dist`` workloads evaluate, compute

    conv(tau) = P(Z1 + Z2 <= tau) = int_0^tau f(s) F(tau - s) ds

with mpmath, independently of archlab's code.  The integral is split at
tau/2 and each half is made free of the k < 1 density singularity:

* s in [0, tau/2]: substitute x = (u s)^k, so f(s) ds = e^-x dx and the
  integrand e^-x F(tau - x^(1/k)/u) is bounded and smooth;
* s in [tau/2, tau]: reflect r = tau - s, giving f(tau - r) F(r) on
  [0, tau/2], whose only non-smooth point r^k sits at an exactly
  representable endpoint.

Both halves use tanh-sinh quadrature at 20 significant digits.  Every
``CHECK_EVERY``-th point is recomputed at 30 digits with a different
substitution of the second half (y = (u r)^k); the run aborts if the two
disagree by more than ``AGREE_TOL``.  Values are stored rounded to the
nearest double, which is far below every error the benchmark reports.

This script is not run by the benchmark.  Regenerate the table (about ten
minutes on two cores) only when a workload's inputs change:

    python3 perfbench/oracle/make_oracle.py
"""

from __future__ import annotations

import gzip
import io
import math
import multiprocessing
import os
import sys

import mpmath as mp

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "conv.csv.gz")
CHECK_EVERY = 97
AGREE_TOL = 1e-18
WORKERS = 2  # the machine the benchmark is sized for has two cores

sys.path.insert(0, os.path.dirname(HERE))
import inputs  # noqa: E402  (the benchmark's own description of its grids)


def conv_oracle(k: float, u: float, tau: float, dps: int = 20,
                alt: bool = False) -> mp.mpf:
    """P(Z1 + Z2 <= tau) for iid Weibull(k, u), tau > 0."""
    with mp.workdps(dps):
        k, u, tau = mp.mpf(k), mp.mpf(u), mp.mpf(tau)
        half = tau / 2
        inv_k = 1 / k

        def cdf(x):
            return -mp.expm1(-(u * x) ** k)

        def pdf(s):
            return k * u * (u * s) ** (k - 1) * mp.exp(-(u * s) ** k)

        first = mp.quad(lambda x: mp.exp(-x) * cdf(tau - x ** inv_k / u),
                        [0, (u * half) ** k])
        if alt:
            def g(y):
                if y <= 0:
                    return mp.mpf(0)
                r = y ** inv_k / u
                return pdf(tau - r) * (-mp.expm1(-y)) * y ** (inv_k - 1) / (u * k)
            second = mp.quad(g, [0, (u * half) ** k])
        else:
            second = mp.quad(lambda r: pdf(tau - r) * cdf(r), [0, half])
        return first + second


def _work(job):
    idx, k, u, tau = job
    val = conv_oracle(k, u, tau)
    gap = None
    if idx % CHECK_EVERY == 0:
        gap = float(abs(val - conv_oracle(k, u, tau, dps=30, alt=True)))
    return idx, float(val), gap


def points() -> list[tuple[float, float, float]]:
    pts = []
    for k, us, taus in inputs.oracle_grids():
        pts.extend((k, float(u), float(t)) for u in us for t in taus)
    return pts


def main() -> int:
    pts = points()
    jobs = [(i, k, u, t) for i, (k, u, t) in enumerate(pts)]
    vals = [math.nan] * len(pts)
    worst = 0.0
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(WORKERS) as pool:
        for n, (idx, val, gap) in enumerate(pool.imap_unordered(_work, jobs, 64)):
            vals[idx] = val
            if gap is not None:
                if gap > AGREE_TOL:
                    raise SystemExit(f"oracle methods disagree by {gap:.3g} "
                                     f"at k, u, tau = {pts[idx]}")
                worst = max(worst, gap)
            if n % 1000 == 0:
                print(f"{n}/{len(pts)}", file=sys.stderr, flush=True)
    # mtime=0 keeps the file byte-identical between regenerations
    with gzip.GzipFile(OUT, "wb", mtime=0) as raw, \
            io.TextIOWrapper(raw, newline="") as fh:
        fh.write(f"# Weibull convolution oracle, {len(pts)} points; "
                 f"worst cross-check gap {worst:.3g}\n")
        fh.write("k,u,tau,conv\n")
        for (k, u, t), v in zip(pts, vals):
            fh.write(f"{k!r},{u!r},{t!r},{v!r}\n")
    print(f"wrote {OUT}: {len(pts)} points, worst cross-check gap {worst:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
