"""The ``custom-dist`` workload: archlab's Python API on a user-defined
distribution.

The distribution is Weibull(k=1.5, u=1) written out by hand with only
vectorised ``pdf``/``cdf``, so archlab must derive survival, hazard,
cumulative hazard and quantile numerically and convolve it through the
generic ``numerics.integrate`` path.  No CLI command reaches that code.

    custom_dist.py --seed S --tiny 0|1 --out DIR

writes ``profile.csv``, ``grid.csv`` and ``draws.csv`` to DIR and prints
the wall time of each API call as JSON.
"""

import argparse
import json
import os
import sys
import time

import numpy as np

import archlab
import inputs


class HandWeibull(archlab.ProcessingTimeDistribution):
    """Weibull(k, u) through pdf and cdf only."""

    def __init__(self, k: float, u: float):
        self.k = k
        self.u = u

    def pdf(self, t):
        x = self.u * np.clip(np.asarray(t, dtype=float), 0.0, None)
        with np.errstate(divide="ignore"):
            return self.k * self.u * x ** (self.k - 1.0) * np.exp(-x ** self.k)

    def cdf(self, t):
        x = self.u * np.clip(np.asarray(t, dtype=float), 0.0, None)
        return -np.expm1(-x ** self.k)


def main(argv) -> int:
    ap = argparse.ArgumentParser(prog="custom-dist")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tiny", type=int, default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    sizes = inputs.TINY if args.tiny else inputs.FULL
    dist = HandWeibull(inputs.CUSTOM_K, inputs.CUSTOM_U)
    phases = {}

    t0 = time.perf_counter()
    profile = archlab.dependence_profile(archlab.SerialTwoModel(dist, 0.5),
                                         inputs.custom_taus(sizes.custom_taus))
    phases["profile_s"] = time.perf_counter() - t0

    axis = inputs.custom_axis(sizes.custom_side)
    t0 = time.perf_counter()
    grid = archlab.stage_survival_grid(archlab.ParallelTwoModel(dist), axis, axis)
    phases["grid_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    draws = archlab.sample_iid(dist, sizes.custom_draws, 1, args.seed)
    phases["sample_s"] = time.perf_counter() - t0

    profile.to_csv(os.path.join(args.out, "profile.csv"))
    grid.to_csv(os.path.join(args.out, "grid.csv"))
    archlab.numerics.write_rows_csv(os.path.join(args.out, "draws.csv"),
                                    ["draw"], ([x] for x in draws[:, 0]))
    print(json.dumps(phases))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
