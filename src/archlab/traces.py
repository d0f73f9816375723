"""Trial traces streamed a chunk of trials at a time: ``archlab simulate``.

Each trace samples ``CHUNK_TRIALS`` trials, turns them into rows of the
whole-run table (``Trials.table()`` or ``RecallTrials.table()``, trials
numbered from the chunk's start) and hands them to the writer in chunks of
at most ``numerics._CHUNK_ROWS`` rows before it draws the next chunk, so a
trace's memory does not depend on its number of trials.  The chunks are
sampled by the per-slice code of the whole-run samplers, on the same
uniforms (see :mod:`archlab.mc`), so their bytes are the whole-run table's.
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


def _table(trials: type, fill: Callable[..., None], draws_per_trial: int,
           new: Callable[[int], tuple[np.ndarray, ...]], n_trials: int,
           seed: int) -> TableChunks:
    """The ``trials.table()`` of a run, a chunk of ``CHUNK_TRIALS`` trials
    at a time: the new arrays ``new(m)`` of a chunk's m trials are sampled
    by ``fill`` as :func:`archlab.mc.sample_into` samples a whole run."""
    def chunks():
        for start, u in mc.uniform_blocks(seed, n_trials, draws_per_trial,
                                          CHUNK_TRIALS):
            arrays = new(len(u))
            fill(u, *arrays)
            cols = trials(*arrays).table(start)
            for lo in range(0, len(cols[0]), _CHUNK_ROWS):  # recall: n rows a trial
                yield [c[lo:lo + _CHUNK_ROWS] for c in cols]
    return TableChunks(trials.columns, chunks())


def serial(model: SerialTwoModel, n_trials: int, seed: int) -> TableChunks:
    """``mc.simulate_serial(model, n_trials, seed).table()`` in chunks."""
    return _table(mc.Trials, partial(mc._serial_fill, model), 3,
                  mc._new_trials, n_trials, seed)


def parallel(model: ParallelTwoModel, n_trials: int, seed: int) -> TableChunks:
    """``mc.simulate_parallel(model, n_trials, seed).table()`` in chunks."""
    return _table(mc.Trials, partial(mc._parallel_fill, model), 2,
                  mc._new_trials, n_trials, seed)


def recall_serial(model: RecallModel, n_trials: int, seed: int) -> TableChunks:
    """``recall.sample_vu_serial(model, n_trials, seed).table()`` in
    chunks."""
    from .recall import RecallTrials, _new_trials, _vu_serial_fill

    return _table(RecallTrials, partial(_vu_serial_fill, model), 2 * model.n,
                  partial(_new_trials, n_items=model.n), n_trials, seed)


def recall_parallel(model: RecallModel, n_trials: int, seed: int) -> TableChunks:
    """``recall.sample_parallel_expo(model, n_trials, seed).table()`` in
    chunks."""
    from .recall import RecallTrials, _new_trials, _parallel_expo_fill

    return _table(RecallTrials, partial(_parallel_expo_fill, model), model.n,
                  partial(_new_trials, n_items=model.n), n_trials, seed)
