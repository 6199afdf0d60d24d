"""Batched query execution: micro-batching, caching, parallel search.

The :class:`QueryEngine` sits between callers and an
:class:`~repro.serve.index.Index`:

- **Micro-batching** — :meth:`QueryEngine.submit` buffers queries and
  flushes automatically once ``max_batch`` are pending (or on an explicit
  :meth:`QueryEngine.flush`), so the index always sees the batched-matmul
  shape it is fastest at.
- **Result cache** — a bounded :class:`LRUCache` keyed on ``(word, k)``
  with hit/miss/eviction counters.  Lookups happen in arrival order at
  flush time, and a result computed earlier *in the same flush* counts as
  a hit — which makes cache accounting a pure function of the query
  stream and cache size, independent of how the stream is chopped into
  batches.
- **Parallel search** — the distinct missing queries of a flush are
  searched in fixed-size blocks through a
  :class:`~repro.galois.do_all.DoAllExecutor` (the PR-2 pool; ``workers=``
  / ``executor=`` knobs and the ``REPRO_WORKERS`` env default follow the
  trainer's conventions).  Blocks write disjoint slices of pre-allocated
  output arrays and the block size never depends on the executor, so
  results are bit-identical for every ``workers`` setting.  The engine
  serves *any* :class:`~repro.serve.index.Index` — exact, IVF, or sharded —
  through the same machinery; an index only has to honor the batched
  ``search`` contract.
- **Sanitized execution** — ``sanitize=`` (default: the ``REPRO_SANITIZE``
  environment variable, the trainer's convention) wraps the executor in
  the :mod:`repro.analysis` do_all race detector: every search block's
  read/write row sets are shadow-recorded and cross-checked at the flush
  barrier, and any overlap raises
  :class:`~repro.analysis.runtime.SanitizeError`.  Observation never
  perturbs results.

Batch latency is measured with a :class:`~repro.galois.timers.StatTimer`
whose clock is injectable; everything else the engine reports (answers,
batch composition, cache accounting) is deterministic.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Hashable

import numpy as np

from repro.analysis.runtime import (
    DoAllRaceSanitizer,
    SanitizedExecutor,
    SanitizeError,
    note_read,
    note_write,
    sanitize_from_env,
)
from repro.galois.do_all import (
    SerialExecutor,
    do_all,
    executor_from_env,
    resolve_executor,
)
from repro.galois.timers import StatTimer
from repro.serve.index import Index
from repro.util.checks import positive_integer

__all__ = ["CacheStats", "LRUCache", "EngineStats", "QueryTicket", "QueryEngine"]

#: Placeholder cached under a key whose result is being computed by the
#: current flush; replaced (without a recency refresh) once known.
_PENDING = object()


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class LRUCache:
    """Bounded least-recently-used mapping with access accounting.

    ``get`` refreshes recency and counts a hit or miss; ``peek`` neither
    refreshes nor counts (bookkeeping lookups).  Inserting beyond
    ``capacity`` evicts the least recently used entry.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable):
        """The cached value, refreshing recency; ``None`` on miss."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return self._entries[key]
        self.stats.misses += 1
        return None

    def peek(self, key: Hashable):
        """The cached value without touching recency or counters."""
        return self._entries.get(key)

    def put(self, key: Hashable, value) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = value
            return
        self._entries[key] = value
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def replace(self, key: Hashable, value) -> None:
        """Swap the value of a present key without touching recency.

        A no-op when ``key`` was evicted in the meantime — used to
        backfill results computed for placeholder entries.
        """
        if key in self._entries:
            self._entries[key] = value


@dataclass
class EngineStats:
    """What one engine did: batches, their sizes, measured latencies.

    ``cache`` aliases the engine cache's own counters, so there is one
    authoritative account of hits/misses/evictions.
    """

    queries: int = 0
    batches: int = 0
    batch_sizes: list[int] = field(default_factory=list)
    batch_seconds: list[float] = field(default_factory=list)
    cache: CacheStats = field(default_factory=CacheStats)


@dataclass
class QueryTicket:
    """One submitted query; ``result`` is set when its batch flushes.

    ``result`` is ``(ids, scores)`` — parallel ``(k,)`` arrays, row ids
    into the store (``-1`` padding where an approximate index came up
    short) and cosine scores.
    """

    word: str
    k: int
    result: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def done(self) -> bool:
        return self.result is not None


class QueryEngine:
    """Micro-batching, caching front-end over an index.

    ``max_batch`` bounds how many queries buffer before an automatic
    flush; ``search_block`` is the fixed slice of distinct missing
    queries handed to each ``do_all`` operator invocation (fixed so
    answers cannot depend on executor width).  ``executor``/``workers``
    follow :func:`repro.galois.do_all.resolve_executor`, defaulting to
    the process-shared ``REPRO_WORKERS`` pool and serial execution last.
    ``sanitize`` (default: the ``REPRO_SANITIZE`` environment variable,
    the trainer's convention) runs every flush under the
    :mod:`repro.analysis` do_all race detector; findings raise
    :class:`~repro.analysis.runtime.SanitizeError` at the flush barrier,
    and observation never changes answers.  ``clock`` is handed to the
    internal :class:`StatTimer` measuring per-flush latency.
    """

    def __init__(
        self,
        index: Index,
        max_batch: int = 64,
        cache_size: int = 1024,
        executor=None,
        workers: int | None = None,
        search_block: int = 32,
        clock: Callable[[], float] | None = None,
        sanitize: bool | None = None,
    ):
        if max_batch <= 0:
            raise ValueError(f"max_batch must be positive, got {max_batch}")
        if search_block <= 0:
            raise ValueError(f"search_block must be positive, got {search_block}")
        self.index = index
        self.max_batch = int(max_batch)
        self.search_block = int(search_block)
        self._executor = resolve_executor(executor, workers) or executor_from_env()
        self.sanitize = sanitize_from_env() if sanitize is None else bool(sanitize)
        self._race_sanitizer: DoAllRaceSanitizer | None = None
        if self.sanitize:
            self._race_sanitizer = DoAllRaceSanitizer()
            self._executor = SanitizedExecutor(
                self._executor or SerialExecutor(),
                self._race_sanitizer,
                name="serve.flush",
            )
        self._clock = clock
        self.cache = LRUCache(cache_size)
        self.stats = EngineStats(cache=self.cache.stats)
        self._timer = self._new_timer()
        self._pending: list[QueryTicket] = []

    def _new_timer(self) -> StatTimer:
        kwargs = {} if self._clock is None else {"clock": self._clock}
        return StatTimer("serve.flush", **kwargs)

    @property
    def pending(self) -> int:
        return len(self._pending)

    # -- submission --------------------------------------------------------
    def submit(self, word: str, k: int = 10) -> QueryTicket:
        """Enqueue one query; flushes automatically at ``max_batch``."""
        k = positive_integer(k, "k")
        self.index.store.id_of(word)  # unknown words fail at submit time
        ticket = QueryTicket(word, k)
        self._pending.append(ticket)
        if len(self._pending) >= self.max_batch:
            self.flush()
        return ticket

    def query(
        self, words: list[str], k: int = 10
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Submit ``words`` and flush; results in submission order."""
        tickets = [self.submit(word, k) for word in words]
        self.flush()
        return [t.result for t in tickets]

    # -- flushing ----------------------------------------------------------
    def flush(self) -> int:
        """Process every pending query; returns the batch size."""
        batch, self._pending = self._pending, []
        if not batch:
            return 0
        self.stats.queries += len(batch)
        self.stats.batches += 1
        self.stats.batch_sizes.append(len(batch))
        self._timer.start()
        try:
            # Replay the cache protocol in arrival order, inserting a
            # placeholder for every miss.  This reproduces the hit/miss/
            # eviction sequence of one-query-at-a-time serving exactly —
            # a later in-flush duplicate hits the placeholder, and a
            # miss's insertion can evict an entry before a later query
            # reaches it — so cache accounting never depends on how the
            # stream is chopped into batches.
            missing: list[tuple[str, int]] = []
            missing_seen: set[tuple[str, int]] = set()
            waiting: list[QueryTicket] = []
            for ticket in batch:
                key = (ticket.word, ticket.k)
                cached = self.cache.get(key)  # counts hit or miss
                if cached is None:
                    self.cache.put(key, _PENDING)
                    # A key re-misses within one flush when its _PENDING
                    # placeholder was evicted by a later miss (cache
                    # smaller than the flush).  The replay above still
                    # counts the miss and re-inserts the placeholder —
                    # accounting is untouched — but the key must be
                    # searched once, not once per re-miss.
                    if key not in missing_seen:
                        missing_seen.add(key)
                        missing.append(key)
                    waiting.append(ticket)
                elif cached is _PENDING:
                    waiting.append(ticket)
                else:
                    ticket.result = cached
            if missing:
                fresh = self._search_missing(missing)
                for key in missing:
                    self.cache.replace(key, fresh[key])
                # Tickets take results directly: with a cache smaller
                # than the flush, an entry may already be evicted again
                # by the time its ticket is resolved.
                for ticket in waiting:
                    ticket.result = fresh[(ticket.word, ticket.k)]
        finally:
            self.stats.batch_seconds.append(self._timer.stop())
        return len(batch)

    def _search_missing(
        self, missing: list[tuple[str, int]]
    ) -> dict[tuple[str, int], tuple[np.ndarray, np.ndarray]]:
        store = self.index.store
        vectors = np.stack([store.matrix[store.id_of(w)] for w, _ in missing])
        ks = [k for _, k in missing]
        k_max = max(ks)
        m = len(missing)
        width_cap = min(k_max, len(store))
        out_ids = np.full((m, width_cap), -1, dtype=np.int64)
        out_scores = np.full((m, width_cap), -np.inf, dtype=np.float32)

        def operator(start: int) -> None:
            sl = slice(start, min(start + self.search_block, m))
            rows = np.arange(sl.start, sl.stop)
            note_read(vectors, rows, "serve.queries")
            ids, scores = self.index.search(vectors[sl], k_max)
            note_write(out_ids, rows, "serve.out_ids")
            note_write(out_scores, rows, "serve.out_scores")
            out_ids[sl] = ids
            out_scores[sl] = scores

        do_all(range(0, m, self.search_block), operator, executor=self._executor)
        if self._race_sanitizer is not None and self._race_sanitizer.findings:
            raise SanitizeError(self._race_sanitizer.findings, context="serve.flush")
        fresh: dict[tuple[str, int], tuple[np.ndarray, np.ndarray]] = {}
        for row, (key, want) in enumerate(zip(missing, ks)):
            width = min(want, width_cap)
            ids = out_ids[row, :width].copy()
            scores = out_scores[row, :width].copy()
            ids.flags.writeable = False
            scores.flags.writeable = False
            fresh[key] = (ids, scores)
        return fresh

    # -- reporting ---------------------------------------------------------
    @property
    def latency_timer(self) -> StatTimer:
        return self._timer

    @property
    def sanitize_findings(self) -> list:
        """Race findings collected so far (empty when sanitizers are off)."""
        if self._race_sanitizer is None:
            return []
        return list(self._race_sanitizer.findings)

    def reset_stats(self) -> None:
        """Zero counters and measurements (cache contents survive)."""
        self.cache.stats = CacheStats()
        self.stats = EngineStats(cache=self.cache.stats)
        self._timer = self._new_timer()
