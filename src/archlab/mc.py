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
gives the rows of one ``random((m1 + m2, d))`` draw, bit for bit.  So the
whole-run samplers, which draw a block at a time, and the streamed traces
of :mod:`archlab.traces`, which draw a chunk of trials at a time, run the
same per-slice code on the same uniforms.
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


def sample_into(fill: Callable[..., None], draws_per_trial: int,
                arrays: tuple[np.ndarray, ...], seed: int) -> None:
    """Sample every trial of ``arrays`` (one row per trial) in place: each
    block of uniforms ``u`` goes to ``fill(u, *views)``, the views being
    the arrays' rows of the block's trials."""
    for start, u in uniform_blocks(seed, len(arrays[0]), draws_per_trial):
        fill(u, *(a[start:start + len(u)] for a in arrays))


def sample_iid(dist: "ProcessingTimeDistribution", n_trials: int,
               per_trial: int, seed: int) -> np.ndarray:
    """(n_trials, per_trial) iid draws via inverse CDF."""
    out = np.empty((n_trials, per_trial), dtype=float)
    for start, u in uniform_blocks(seed, n_trials, per_trial):
        out[start:start + u.shape[0]] = dist.quantile(u)
    return out


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


def _new_trials(n_trials: int) -> tuple[np.ndarray, ...]:
    """The arrays of a :class:`Trials` of ``n_trials`` trials, in field order."""
    return (np.empty(n_trials, dtype=bool), *(np.empty(n_trials) for _ in range(4)))


def _serial_fill(model: "SerialTwoModel", u, b_first, t1, t2, total_a,
                 total_b) -> None:
    b_first[...] = u[:, 0] >= model.p
    z_a = np.asarray(model.dist.quantile(u[:, 1]))
    z_b = np.asarray(model.dist.quantile(u[:, 2]))
    t1[...] = np.where(b_first, z_b, z_a)
    t2[...] = np.where(b_first, z_a, z_b)
    total_a[...] = np.where(b_first, z_a + z_b, z_a)
    total_b[...] = np.where(b_first, z_b, z_a + z_b)


def _parallel_fill(model: "ParallelTwoModel", u, b_first, t1, t2, total_a,
                   total_b) -> None:
    total_a[...] = model.dist.quantile(u[:, 0])
    total_b[...] = model.dist.quantile(u[:, 1])
    np.less(total_b, total_a, out=b_first)
    np.minimum(total_a, total_b, out=t1)
    np.subtract(np.maximum(total_a, total_b), t1, out=t2)


def simulate_serial(model: "SerialTwoModel", n_trials: int, seed: int) -> Trials:
    """Simulate the two-stage serial model.

    Per trial: one uniform decides the order (a first with probability p),
    two more drive the iid stage draws.  With a first: totals are
    (z_a, z_a + z_b); with b first: (z_a + z_b, z_b).
    """
    arrays = _new_trials(n_trials)
    sample_into(partial(_serial_fill, model), 3, arrays, seed)
    return Trials(*arrays)


def simulate_parallel(model: "ParallelTwoModel", n_trials: int, seed: int) -> Trials:
    """Simulate the two-channel race; order set by comparison, ties to a."""
    arrays = _new_trials(n_trials)
    sample_into(partial(_parallel_fill, model), 2, arrays, seed)
    return Trials(*arrays)


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

    Each block is drawn into one buffer and counted in place on a few
    scratch rows (:func:`_sign_counts`), with no per-block temporaries.
    Every retained pair goes through the same floating-point operations as
    the expression above, so the counts, and the printed bytes, are those
    of evaluating it on the retained pairs alone.
    """
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples}")
    m = min(n_samples, BLOCK_TRIALS)
    work = np.empty((4, m))
    flags = np.empty((2, m), dtype=bool)
    n_cond = 0
    n_pos = 0
    for _, block in uniform_blocks(seed, n_samples, 2):
        kept, positive = _sign_counts(block, work, flags)
        n_cond += kept
        n_pos += positive
    if n_cond == 0:
        raise McError(f"no conditioned samples out of {n_samples}")
    frac = n_pos / n_cond
    stderr = math.sqrt(frac * (1.0 - frac) / n_cond)
    return Theorem1Result(n_samples=n_samples, n_conditioned=n_cond,
                          fraction_positive=frac, stderr=stderr, seed=seed)


def _sign_counts(u: np.ndarray, work: np.ndarray,
                 flags: np.ndarray) -> tuple[int, int]:
    """(retained, positive) pairs among the uniform pairs ``u[:, :2]``, as
    :func:`run_theorem1_mc` defines them, computed on the scratch rows
    ``work`` ((4, >= len(u)) float) and ``flags`` ((2, >= len(u)) bool).

    The kernel runs on every pair, retained or not; where alpha = 0 its
    division is by zero, so those warnings are silenced, and such a pair
    is never retained."""
    m = u.shape[0]
    alpha, beta, sq, expr3 = (row[:m] for row in work)
    keep, pos = (row[:m] for row in flags)
    np.copyto(alpha, u[:, 0])
    np.subtract(1.0, alpha, out=beta)
    np.multiply(beta, u[:, 1], out=beta)
    np.add(alpha, beta, out=beta)  # alpha + (1 - alpha) u1
    np.multiply(beta, beta, out=sq)
    np.greater_equal(sq, alpha, out=keep)
    np.greater(alpha, 0.0, out=pos)
    np.logical_and(keep, pos, out=keep)
    root = np.sqrt(alpha, out=sq)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(beta, root, out=expr3)
        np.subtract(root, expr3, out=expr3)
        np.square(expr3, out=expr3)
        np.multiply(0.25, expr3, out=expr3)
        np.subtract(1.0, beta, out=beta)
        np.subtract(beta, expr3, out=expr3)  # (1 - beta) - (...)^2 / 4
        np.greater(expr3, 0.0, out=pos)
    np.logical_and(pos, keep, out=pos)
    return int(np.count_nonzero(keep)), int(np.count_nonzero(pos))


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
