"""Trial traces streamed a slice of trials at a time: ``archlab simulate``.

A trace samples ``CHUNK_TRIALS`` trials with its architecture's sampler,
on the whole run's uniforms (see :mod:`archlab.mc`), and hands their rows
of the whole-run table (trials numbered from the slice's start) to the
writer before it draws the next slice.  So a trace's memory does not
depend on its number of trials, and its bytes are the whole-run table's.
"""

from __future__ import annotations

from functools import partial
from itertools import chain
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

from . import mc
from .numerics import _CHUNK_ROWS, _write_chunks

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .parallel import ParallelTwoModel
    from .recall import RecallModel
    from .serial import SerialTwoModel

#: Trials sampled per chunk: a writer's chunk of two-process rows.
CHUNK_TRIALS = _CHUNK_ROWS


class TableChunks:
    """A table in chunks of rows: its ``columns`` and, iterated once, the
    column chunks, each sampled when it is asked for.  The first chunk is
    sampled when the object is made, so that a bad model, size or seed
    raises before any row can be written; after it, only the writing can
    fail."""

    def __init__(self, columns: tuple[str, ...],
                 chunks: Iterator[Sequence[np.ndarray]]):
        self.columns = columns
        self._chunks = chain([next(chunks)], chunks)

    def __iter__(self) -> Iterator[Sequence[np.ndarray]]:
        return self._chunks

    def write(self, out, head: dict | None = None) -> None:
        """Write the rows as :func:`archlab.numerics.write_table` writes a
        whole table, each chunk as soon as it is sampled."""
        _write_chunks(out, self.columns, self._chunks, head)


def _table(trials: type, sample: Callable[[np.ndarray], tuple[np.ndarray, ...]],
           draws_per_trial: int, n_trials: int, seed: int) -> TableChunks:
    """The ``trials.table()`` of the run that :func:`archlab.mc._sample_run`
    samples, a slice of ``CHUNK_TRIALS`` trials at a time."""
    return TableChunks(trials.columns, (
        trials(*sample(u)).table(start) for start, u in
        mc.uniform_blocks(seed, n_trials, draws_per_trial, CHUNK_TRIALS)))


def serial(model: SerialTwoModel, n_trials: int, seed: int) -> TableChunks:
    """``mc.simulate_serial(model, n_trials, seed).table()`` in chunks."""
    return _table(mc.Trials, partial(mc._serial, model), 3, n_trials, seed)


def parallel(model: ParallelTwoModel, n_trials: int, seed: int) -> TableChunks:
    """``mc.simulate_parallel(model, n_trials, seed).table()`` in chunks."""
    return _table(mc.Trials, partial(mc._parallel, model), 2, n_trials, seed)


def recall_serial(model: RecallModel, n_trials: int, seed: int) -> TableChunks:
    """``recall.sample_vu_serial(...).table()`` in chunks."""
    from .recall import RecallTrials, _vu_serial

    return _table(RecallTrials, partial(_vu_serial, model), 2 * model.n,
                  n_trials, seed)


def recall_parallel(model: RecallModel, n_trials: int, seed: int) -> TableChunks:
    """``recall.sample_parallel_expo(...).table()`` in chunks."""
    from .recall import RecallTrials, _parallel_expo

    return _table(RecallTrials, partial(_parallel_expo, model), model.n,
                  n_trials, seed)
