"""Seeded Monte Carlo engine.

Reproducibility contract
------------------------
All sampling uses numpy's counter-based Philox generator, keyed per block
via ``SeedSequence(entropy=seed, spawn_key=(block_index,))``.  Trials are
laid out in fixed blocks of ``BLOCK_TRIALS``; trial ``i`` lives in block
``i // BLOCK_TRIALS`` and consumes that block's uniform draws at a fixed
offset.  Blocks can therefore be generated in any order, and the output
for a given ``(seed, n)`` is bitwise identical however they are scheduled.
Family sampling is inverse-CDF through the closed-form quantiles, so the
same uniforms drive every family.

A block may be drawn in row slices of any sizes: numpy's Philox keeps its
position between calls, so ``random((m1, d))`` then ``random((m2, d))``
gives the rows of one ``random((m1 + m2, d))`` draw, bit for bit.  So each
architecture has one sampler, a pure function of a slice's uniforms (e.g.
:func:`_serial`); a whole run (:func:`_sample_run`) copies its slices of
``_SLICE_TRIALS`` trials into arrays of every trial, and the traces of
:mod:`archlab.traces` write each slice of theirs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from .errors import ConditioningError, DomainError, McError
from .numerics import write_table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .distributions import ProcessingTimeDistribution
    from .parallel import ParallelTwoModel
    from .serial import SerialTwoModel

#: Default seed used by the CLI; documented so that shipped figure files
#: are reproducible without flags.
DEFAULT_SEED = 0x5EED2024

#: Trials per RNG block; fixed by contract, never derived from worker count.
BLOCK_TRIALS = 1 << 16


@dataclass(frozen=True)
class RngState:
    """A (seed, stream index) pair naming one reproducible substream."""

    seed: int
    index: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.index,))
        return np.random.Generator(np.random.Philox(ss))


def uniform_blocks(seed: int, n_trials: int, draws_per_trial: int,
                   rows: int = BLOCK_TRIALS) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (start_index, uniforms[m, draws_per_trial]) slices of at most
    ``rows`` trials, block after block.

    Every slice is drawn into one buffer, so a slice must be used before
    the next one is drawn; the draws are those of one draw per block
    whatever ``rows`` is (see the module docstring)."""
    if n_trials < 1:
        raise DomainError(f"n_trials must be >= 1, got {n_trials}")
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    step = min(n_trials, rows, BLOCK_TRIALS)
    buf = np.empty((step, draws_per_trial))
    for start in range(0, n_trials, BLOCK_TRIALS):
        gen = RngState(seed, start // BLOCK_TRIALS).generator()
        stop = min(start + BLOCK_TRIALS, n_trials)
        for lo in range(start, stop, step):
            yield lo, gen.random(out=buf[:min(step, stop - lo)])


#: Trials (theorem1: pairs) per slice of a whole run; a slice's temporaries
#: stay in cache (16384 ran theorem1 1.5 times slower on a 2-vCPU host).
_SLICE_TRIALS = 1 << 13


def _sample_run(sample: Callable[[np.ndarray], tuple[np.ndarray, ...]],
                draws_per_trial: int, n_trials: int,
                seed: int) -> tuple[np.ndarray, ...]:
    """The arrays of every trial, one row per trial: each slice's arrays
    ``sample(u)`` copied into the rows of its trials."""
    whole = ()
    for start, u in uniform_blocks(seed, n_trials, draws_per_trial, _SLICE_TRIALS):
        part = sample(u)
        whole = whole or tuple(np.empty((n_trials, *a.shape[1:]), a.dtype)
                               for a in part)
        for w, a in zip(whole, part):
            w[start:start + len(a)] = a
    return whole


def sample_iid(dist: "ProcessingTimeDistribution", n_trials: int,
               per_trial: int, seed: int) -> np.ndarray:
    """(n_trials, per_trial) iid draws via inverse CDF."""
    return _sample_run(lambda u: (np.asarray(dist.quantile(u), dtype=float),),
                       per_trial, n_trials, seed)[0]


_ORDERS = np.array([b"a_first", b"b_first"])  # S7, indexed by b_first


@dataclass
class Trials:
    """Column-oriented trial batch."""

    order_b_first: np.ndarray  # bool per trial
    t1: np.ndarray
    t2: np.ndarray
    total_a: np.ndarray
    total_b: np.ndarray

    def __len__(self) -> int:
        return self.t1.shape[0]

    columns = ("trial", "order", "t1", "t2", "total_a", "total_b")

    def table(self, start: int = 0) -> tuple[np.ndarray, ...]:
        """The ``columns``, trials numbered from ``start``; ``order`` is a
        fixed-width bytes column."""
        return (np.arange(start, start + len(self)),
                _ORDERS.take(self.order_b_first.view(np.uint8)),
                self.t1, self.t2, self.total_a, self.total_b)

    def to_csv(self, out) -> None:
        write_table(out, self.columns, self.table())


def _serial(model: "SerialTwoModel", u) -> tuple[np.ndarray, ...]:
    b_first = u[:, 0] >= model.p
    z_a = np.asarray(model.dist.quantile(u[:, 1]), dtype=float)
    z_b = np.asarray(model.dist.quantile(u[:, 2]), dtype=float)
    return (b_first, np.where(b_first, z_b, z_a), np.where(b_first, z_a, z_b),
            np.where(b_first, z_a + z_b, z_a), np.where(b_first, z_b, z_a + z_b))


def _parallel(model: "ParallelTwoModel", u) -> tuple[np.ndarray, ...]:
    total_a = np.asarray(model.dist.quantile(u[:, 0]), dtype=float)
    total_b = np.asarray(model.dist.quantile(u[:, 1]), dtype=float)
    t1 = np.minimum(total_a, total_b)
    t2 = np.maximum(total_a, total_b)
    t2 -= t1
    return total_b < total_a, t1, t2, total_a, total_b


def simulate_serial(model: "SerialTwoModel", n_trials: int, seed: int) -> Trials:
    """Simulate the two-stage serial model.

    Per trial: one uniform decides the order (a first with probability p),
    two more drive the iid stage draws.  With a first: totals are
    (z_a, z_a + z_b); with b first: (z_a + z_b, z_b).
    """
    return Trials(*_sample_run(partial(_serial, model), 3, n_trials, seed))


def simulate_parallel(model: "ParallelTwoModel", n_trials: int, seed: int) -> Trials:
    """Simulate the two-channel race; order set by comparison, ties to a."""
    return Trials(*_sample_run(partial(_parallel, model), 2, n_trials, seed))


@dataclass(frozen=True)
class Theorem1Result:
    n_samples: int
    n_conditioned: int
    fraction_positive: float
    stderr: float
    seed: int

    def to_json_dict(self) -> dict:
        return {"n_samples": self.n_samples,
                "n_conditioned": self.n_conditioned,
                "fraction_positive": self.fraction_positive,
                "stderr": self.stderr,
                "seed": self.seed}


def run_theorem1_mc(n_samples: int, seed: int) -> Theorem1Result:
    """Estimate how often the p = 1/2 sign kernel is positive over
    order-constrained (alpha, beta) pairs.

    Per sample: alpha ~ Uniform[0, 1] plays the role of the convolution
    value, beta ~ Uniform[alpha, 1] the role of the CDF value; pairs are
    retained when beta^2 / alpha >= 1 (the ordering a realizable pair must
    satisfy), and the returned fraction counts retained pairs with
    1 - beta - (1/4) [sqrt(alpha) - beta/sqrt(alpha)]^2 strictly positive.

    Note that the pair is sampled freely within those order constraints,
    which over-covers: it includes (alpha, beta) combinations that no
    single processing-time distribution realizes at any one time point.
    The per-family dependence analyses cover the realizable subsets.

    Every retained pair goes through the same floating-point operations as
    the expression above, so the counts, and the printed bytes, are those
    of evaluating it on the retained pairs alone.
    """
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples}")
    n_cond = 0
    n_pos = 0
    for _, u in uniform_blocks(seed, n_samples, 2, _SLICE_TRIALS):
        kept, positive = _sign_counts(u)
        n_cond += kept
        n_pos += positive
    if n_cond == 0:
        raise McError(f"no conditioned samples out of {n_samples}")
    frac = n_pos / n_cond
    stderr = math.sqrt(frac * (1.0 - frac) / n_cond)
    return Theorem1Result(n_samples=n_samples, n_conditioned=n_cond,
                          fraction_positive=frac, stderr=stderr, seed=seed)


def _sign_counts(u: np.ndarray) -> tuple[int, int]:
    """(retained, positive) pairs among the uniform pairs ``u``, as
    :func:`run_theorem1_mc` defines them.

    The kernel runs on every pair, retained or not; where alpha = 0 its
    division is by zero, so those warnings are silenced, and such a pair
    is never retained."""
    alpha = u[:, 0].copy()  # contiguous: read five times
    beta = alpha + (1.0 - alpha) * u[:, 1]
    keep = (beta * beta >= alpha) & (alpha > 0.0)
    root = np.sqrt(alpha)
    with np.errstate(divide="ignore", invalid="ignore"):
        expr3 = (1.0 - beta) - 0.25 * np.square(root - beta / root)
    return int(np.count_nonzero(keep)), int(np.count_nonzero(keep & (expr3 > 0.0)))


@dataclass(frozen=True)
class DependenceEstimate:
    estimate: float
    stderr: float
    n_conditioned: int


def empirical_dependence(trials: Trials, tau: float) -> DependenceEstimate:
    """Plug-in estimate of the conditional-minus-marginal difference.

    The standard error propagates the multinomial covariance of the three
    empirical proportions through the estimator's gradient (delta method).
    """
    if not math.isfinite(tau):
        raise DomainError(f"tau must be finite, got {tau}")
    n = len(trials)
    in_a = trials.total_a <= tau
    in_b = trials.total_b <= tau
    n_a = int(in_a.sum())
    if n_a == 0:
        raise ConditioningError(f"no trials with total_a <= tau={tau}")
    p_a = n_a / n
    p_b = float(in_b.mean())
    p_ab = float((in_a & in_b).mean())
    estimate = p_ab / p_a - p_b
    grad = np.array([1.0 / p_a, -p_ab / p_a ** 2, -1.0])
    cov = np.array([
        [p_ab * (1 - p_ab), p_ab * (1 - p_a), p_ab * (1 - p_b)],
        [p_ab * (1 - p_a), p_a * (1 - p_a), p_ab - p_a * p_b],
        [p_ab * (1 - p_b), p_ab - p_a * p_b, p_b * (1 - p_b)],
    ]) / n
    var = float(grad @ cov @ grad)
    return DependenceEstimate(estimate=estimate,
                              stderr=math.sqrt(max(var, 0.0)),
                              n_conditioned=n_a)
