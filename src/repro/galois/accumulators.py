"""Reducible accumulators (Galois ``GAccumulator``).

Operators running under ``do_all`` report statistics (pairs processed,
loss, ...) through accumulators that support thread-local update
and a final reduction.  Correctness under :class:`~repro.galois.do_all.
ThreadPoolDoAll` rests on a strict single-writer discipline: every cell is
written only by the thread that owns it, so ``update`` never performs a
read-modify-write on shared state (the classic ``+=``-on-a-shared-value race
that silently undercounts).  ``reset`` used to violate that discipline by
zeroing other threads' cells from the caller — concurrent with an owner's
``cell = op(cell, value)`` it could lose either the reset or the update.  It
now bumps a generation counter instead; each owner lazily discards its own
stale cell, and ``reduce`` ignores cells from previous generations.  The
design therefore does not lean on the GIL and a persistent pool can keep the
same accumulator across many ``run`` calls and resets.
"""

from __future__ import annotations

import threading

__all__ = ["GAccumulator"]


class _Cell:
    """One thread's slot: the running value plus the reset generation it
    belongs to.  Written only by the owning thread (single-writer)."""

    __slots__ = ("value", "generation")

    def __init__(self, value: float, generation: int):
        self.value = value
        self.generation = generation


class GAccumulator:
    """Summing accumulator: thread-local single-writer cells reduced by
    ``+``; ``+=`` via :meth:`update`."""

    def __init__(self, initial: float = 0.0):
        self._local = threading.local()
        self._cells: list[_Cell] = []
        self._lock = threading.Lock()
        self._generation = 0
        if initial:
            self.update(initial)

    def _cell(self) -> _Cell:
        cell: _Cell | None = getattr(self._local, "cell", None)
        generation = self._generation
        if cell is None:
            cell = _Cell(0.0, generation)
            self._local.cell = cell
            with self._lock:
                self._cells.append(cell)
        elif cell.generation != generation:
            # A reset happened since this thread last wrote; discard our own
            # stale value.  Only the owner writes, so no cross-thread race.
            cell.value = 0.0
            cell.generation = generation
        return cell

    def update(self, value: float) -> None:
        self._cell().value += value

    def __iadd__(self, value: float) -> "GAccumulator":
        self.update(value)
        return self

    @property
    def value(self) -> float:
        """The sum over every thread's cell of the current generation."""
        generation = self._generation
        with self._lock:
            values = [c.value for c in self._cells if c.generation == generation]
        out = 0.0
        for v in values:  # left to right: sum() compensates floats on 3.12+
            out += v
        return out

    def reset(self) -> None:
        """Invalidate all cells.  Safe against concurrent ``update`` calls:
        owners re-zero their own cell on their next update."""
        with self._lock:
            self._generation += 1
