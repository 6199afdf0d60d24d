"""Worklists in the style of Galois' scheduler policies.

Two policies are provided:

- :class:`ChunkedWorklist` — a FIFO of fixed-size chunks, the policy Galois
  uses for bulk data-parallel work.  GraphWord2Vec stores each host's shard
  of the training corpus in such a worklist and splits it into per-sync-round
  partitions (Algorithm 1, line 8).
- :class:`OrderedByIntegerMetric` — the OBIM soft-priority worklist used by
  data-driven algorithms such as delta-stepping SSSP (paper §2.4).

Both are deliberately simple, deterministic data structures: the simulated
executor processes items in a defined order so distributed runs are exactly
reproducible.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Generic, Iterable, Iterator, TypeVar

import numpy as np

T = TypeVar("T")

__all__ = ["ChunkedWorklist", "OrderedByIntegerMetric"]


class ChunkedWorklist(Generic[T]):
    """FIFO worklist that hands out work in fixed-size chunks.

    Items may be any sequence; for Word2Vec the items are word-id arrays
    (sentences).  ``partitions(k)`` splits the current content into ``k``
    roughly equal contiguous slices — this is how an epoch's work is divided
    into synchronization rounds.
    """

    def __init__(self, items: Iterable[T] = (), chunk_size: int = 64):
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        self.chunk_size = int(chunk_size)
        self._items: list[T] = list(items)
        self._cursor = 0

    def __len__(self) -> int:
        return len(self._items) - self._cursor

    def __iter__(self) -> Iterator[T]:
        return iter(self._items[self._cursor :])

    def push(self, item: T) -> None:
        self._items.append(item)

    def push_many(self, items: Iterable[T]) -> None:
        self._items.extend(items)

    def pop_chunk(self) -> list[T]:
        """Remove and return the next chunk (possibly short, empty at end).

        Consumed items are *released*: once the consumed prefix dominates the
        backing list it is deleted (amortized O(1)), so a worklist drained
        chunk-by-chunk does not pin the whole corpus's sentences for the rest
        of the run.
        """
        chunk = self._items[self._cursor : self._cursor + self.chunk_size]
        self._cursor += len(chunk)
        if self._cursor >= self.chunk_size and self._cursor * 2 >= len(self._items):
            del self._items[: self._cursor]
            self._cursor = 0
        return chunk

    def empty(self) -> bool:
        return self._cursor >= len(self._items)

    def reset(self) -> None:
        """Rewind the cursor to the oldest *retained* item.

        Items whose memory :meth:`pop_chunk` already released cannot be
        restored — build a fresh worklist for a new epoch (cheap: items are
        held by reference).
        """
        self._cursor = 0

    def shuffle(self, rng: np.random.Generator) -> None:
        """Permute pending items in place (SGD epoch shuffling trick)."""
        pending = self._items[self._cursor :]
        order = rng.permutation(len(pending))
        self._items[self._cursor :] = [pending[i] for i in order]

    def partitions(self, k: int) -> list[list[T]]:
        """Split pending items into ``k`` contiguous, nearly equal slices.

        The first ``len % k`` slices get one extra item; empty slices are
        returned (not dropped) when there are fewer items than partitions, so
        the caller's round count is exactly ``k``.
        """
        if k <= 0:
            raise ValueError(f"partition count must be positive, got {k}")
        pending = self._items[self._cursor :]
        n = len(pending)
        base, extra = divmod(n, k)
        out: list[list[T]] = []
        start = 0
        for i in range(k):
            size = base + (1 if i < extra else 0)
            out.append(pending[start : start + size])
            start += size
        assert start == n
        return out


class OrderedByIntegerMetric(Generic[T]):
    """Soft priority worklist: items are binned by an integer metric.

    Mirrors Galois' OBIM: work proceeds from the lowest non-empty bin, new
    items can land in any bin, and items within a bin are unordered (FIFO
    here, for determinism).  Used by delta-stepping SSSP.
    """

    def __init__(self, metric: Callable[[T], int]):
        self._metric = metric
        self._bins: dict[int, deque[T]] = {}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def push(self, item: T) -> None:
        key = int(self._metric(item))
        if key < 0:
            raise ValueError(f"OBIM metric must be non-negative, got {key}")
        self._bins.setdefault(key, deque()).append(item)
        self._size += 1

    def push_many(self, items: Iterable[T]) -> None:
        for item in items:
            self.push(item)

    def empty(self) -> bool:
        return self._size == 0

    def pop_bin(self) -> tuple[int, list[T]]:
        """Remove and return ``(priority, items)`` of the lowest bin."""
        if self._size == 0:
            raise IndexError("pop from empty OBIM worklist")
        key = min(self._bins)
        items = list(self._bins.pop(key))
        self._size -= len(items)
        return key, items

    def pop(self) -> T:
        """Remove and return a single lowest-priority item."""
        if self._size == 0:
            raise IndexError("pop from empty OBIM worklist")
        key = min(self._bins)
        bin_ = self._bins[key]
        item = bin_.popleft()
        if not bin_:
            del self._bins[key]
        self._size -= 1
        return item
