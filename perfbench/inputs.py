"""Workload definitions: the archlab commands each workload runs.

The benchmark seed is the only source of variation between runs.  It is
passed as the ``--seed`` of every Monte Carlo command, seeds the ``fit``
input file and the ``custom-dist`` draws, and never reaches archlab in any
other way.  The grid and profile commands take no seed: their inputs are
fixed so that the frozen convolution oracle covers every cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_SEED = 0x5EED2024

#: Weibull parameters of the ``fit`` input sample.
FIT_K, FIT_U = 1.3, 0.5

#: The user-defined distribution of ``custom-dist``: Weibull(k, u) written
#: out by hand with only vectorised pdf/cdf.
CUSTOM_K, CUSTOM_U = 1.5, 1.0


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; ``TINY`` is the self-test scale.

    At full size no command takes much more than 4 s on a 2-vCPU machine,
    so a run measures every command several times.
    """

    steps: int = 100            # figure / stage-survival grid side
    dep_steps: int = 1000       # dependence rows
    sim_n: int = 250_000        # simulate serial trials
    recall_n: int = 50_000      # simulate recall-serial trials
    theorem1_n: int = 10_000_000
    fit_n: int = 10_000         # Weibull times in the fit input
    custom_taus: int = 500      # custom-dist profile rows
    custom_side: int = 40       # custom-dist stage-survival grid side
    custom_draws: int = 5_000   # custom-dist sample_iid trials


FULL = Sizes()
TINY = Sizes(steps=4, dep_steps=8, sim_n=4000, recall_n=1000,
             theorem1_n=40_000, fit_n=400, custom_taus=10, custom_side=4,
             custom_draws=400)


@dataclass(frozen=True)
class Command:
    """One closed-loop request: a fresh interpreter running ``argv``.

    ``argv[0] == "custom-dist"`` runs the benchmark's API script instead
    of the archlab CLI.  ``work`` maps a throughput unit (``cells``,
    ``rows``, ``trials``) to how many of them the command produces.
    """

    name: str
    argv: tuple[str, ...]
    work: dict = field(default_factory=dict)


#: quad-grid makes nearly every convolution, through the CLI kernel on the
#: k >= 1 direct and k < 1 substitution paths; hazard-grid and mc-trace make
#: none, so a kernel change must read no change there; custom-dist is the
#: only path through numerics.integrate, derived hazards and the bisection
#: quantile.
WORKLOADS = ("quad-grid", "hazard-grid", "mc-trace", "custom-dist")


def workload_commands(workload: str, seed: int, sizes: Sizes,
                      fit_input: str) -> list[Command]:
    """Commands of one workload, cheapest first (it is the one rerun)."""
    s = str(seed)
    cells = sizes.steps * sizes.steps
    if workload == "quad-grid":
        return [
            Command("dependence-k0.5", ("dependence", "--dist", "weibull:k=0.5,u=1",
                                        "--steps", str(sizes.dep_steps)),
                    {"rows": sizes.dep_steps}),
            Command("dependence-k2", ("dependence", "--dist", "weibull:k=2,u=1",
                                      "--steps", str(sizes.dep_steps)),
                    {"rows": sizes.dep_steps}),
            Command("fig4-k2", ("figure", "fig4", "--k", "2",
                                "--steps", str(sizes.steps)), {"cells": cells}),
            Command("fig5", ("figure", "fig5", "--steps", str(sizes.steps)),
                    {"cells": cells}),
        ]
    if workload == "hazard-grid":
        return [
            Command("fig6", ("figure", "fig6", "--steps", str(sizes.steps)),
                    {"cells": cells}),
            Command("fig7", ("figure", "fig7", "--steps", str(sizes.steps)),
                    {"cells": cells}),
            Command("stage-survival-weibull",
                    ("stage-survival", "--dist", "weibull:k=2,u=1",
                     "--steps", str(sizes.steps)), {"cells": cells}),
            Command("stage-survival-uniform",
                    ("stage-survival", "--dist", "uniform:v=2",
                     "--steps", str(sizes.steps)), {"cells": cells}),
        ]
    if workload == "mc-trace":
        return [
            Command("fit", ("fit", "--input", fit_input)),
            Command("theorem1", ("theorem1", "--n", str(sizes.theorem1_n),
                                 "--seed", s), {"trials": sizes.theorem1_n}),
            Command("simulate-recall-serial",
                    ("simulate", "recall-serial", "--rates", "1,2,3,4,5",
                     "--n", str(sizes.recall_n), "--seed", s),
                    {"trials": sizes.recall_n}),
            Command("simulate-serial",
                    ("simulate", "serial", "--dist", "weibull:k=0.7,u=1",
                     "--n", str(sizes.sim_n), "--seed", s),
                    {"trials": sizes.sim_n}),
        ]
    if workload == "custom-dist":
        return [Command("custom-dist", ("custom-dist", "--seed", s,
                                        "--tiny", str(int(sizes == TINY))),
                        {"rows": sizes.custom_taus,
                         "cells": sizes.custom_side ** 2,
                         "trials": sizes.custom_draws})]
    raise ValueError(f"unknown workload {workload!r}")


def fit_times(seed: int, n: int) -> np.ndarray:
    """n Weibull(FIT_K, FIT_U) times by inverse CDF of PCG64 uniforms."""
    q = np.random.Generator(np.random.PCG64(seed)).random(n)
    q[q == 0.0] = 0.5  # a zero uniform would give a zero time, which fit rejects
    return (-np.log1p(-q)) ** (1.0 / FIT_K) / FIT_U


def write_fit_input(path: str, seed: int, n: int) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("time\n")
        fh.writelines(f"{float(t)!r}\n" for t in fit_times(seed, n))


def fig_axes(steps: int) -> tuple[np.ndarray, np.ndarray]:
    """(u, tau) axes of ``figure fig4``/``fig5``."""
    return np.linspace(0.5, 10.0, steps), np.linspace(0.01, 5.0, steps)


def dependence_taus(k: float, steps: int) -> np.ndarray:
    """Default tau grid of ``dependence`` for Weibull(k, 1)."""
    tau_max = 2.0 * float((-np.log1p(-0.999)) ** (1.0 / k))
    return np.linspace(0.0, tau_max, steps + 1)[1:]


def custom_taus(n: int) -> np.ndarray:
    return np.linspace(0.0, 7.0, n + 1)[1:]


def custom_axis(side: int) -> np.ndarray:
    return np.linspace(0.0, 3.0, side)


def oracle_grids(sizes: Sizes = FULL):
    """(k, u values, tau values) of every Weibull convolution evaluated."""
    us, taus = fig_axes(sizes.steps)
    return [
        (2.0, us, taus),                               # fig4 --k 2
        (0.2, us, taus),                               # fig5 (default k)
        (2.0, [1.0], dependence_taus(2.0, sizes.dep_steps)),
        (0.5, [1.0], dependence_taus(0.5, sizes.dep_steps)),
        (CUSTOM_K, [CUSTOM_U], custom_taus(sizes.custom_taus)),
    ]
