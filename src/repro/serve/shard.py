"""Sharded, replicated, hot-swappable serving over an embedding store.

This module closes the train→serve loop: the embedding matrix a
distributed trainer produced is split into contiguous row shards (the
same block distribution :mod:`repro.gluon` gives masters), each shard
optionally held by several replicas, and batched top-k queries are
scatter-gathered across the shards with a deterministic merge.

**Bit-identical scatter-gather.**  float32 GEMM results depend on operand
shapes (BLAS kernels tile differently per shape), so a naive per-shard
matmul would *not* reproduce the single-host answers bit for bit.  The
:class:`ShardPlan` therefore aligns every shard boundary to a multiple of
the :class:`~repro.serve.index.ExactIndex` ``block_rows`` grid, and each
shard runs a local ``ExactIndex`` with the same ``block_rows`` (the query
tile height is a class constant).  Every GEMM a shard issues is then *the
same GEMM* — same shape, same bytes — the single-host reference
(:meth:`ShardPlan.reference_index`) issues for that row block, and the
per-block candidate sets are identical.  Top-k selection under the total
order (descending score, ascending id) is associative —
``top_k(top_k(A) ∪ B) == top_k(A ∪ B)`` — so merging per-shard top-k
lists with :func:`~repro.serve.index.top_k_desc` yields answers
bit-identical to the reference for every shard count, replica count and
worker setting.

**Replicas, failover, recovery.**  Each shard's ``replicas`` copies are
routed load-aware (fewest queries served, lowest replica id on ties —
deterministic).  A :class:`~repro.cluster.faults.FaultSchedule` can be
attached: each ``search`` call is one serving round, scheduled crashes
kill the mapped replica (``host = shard * replicas + replica``), routing
fails over to a surviving replica (identical answers — replicas hold the
same rows), and the replica rejoins after ``recovery_rounds`` rounds with
detect/restore time and checkpoint bytes accounted in a
:class:`~repro.cluster.faults.FaultReport`.  A shard with no live replica
raises :class:`~repro.cluster.faults.UnrecoverableFaultError`.

**Generations.**  :meth:`ShardedIndex.promote` atomically swaps in a new
store (e.g. a training checkpoint resumed past more rounds) *without
draining*: queries already submitted but not yet flushed are answered by
the new generation; none are dropped.  Each generation keeps a running
sha256 fingerprint of every ``(word, ids, scores)`` answer it served —
the per-generation analogue of ``WorkloadReport.answers_sha256`` — so a
hot swap is observable as a deterministic fingerprint change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import hashlib

import numpy as np

from repro.analysis.runtime import (
    DoAllRaceSanitizer,
    SanitizedExecutor,
    SanitizeError,
    note_read,
    note_write,
    sanitize_from_env,
)
from repro.cluster.faults import (
    FaultReport,
    FaultSchedule,
    UnrecoverableFaultError,
)
from repro.galois.do_all import SerialExecutor, do_all, resolve_executor
from repro.gluon.partition_stats import PartitionStats, analyze_partitions
from repro.gluon.partitioner import Partition, contiguous_partitions
from repro.gluon.proxies import block_boundaries
from repro.serve.engine import LRUCache, QueryEngine
from repro.serve.index import ExactIndex, _check_queries, top_k_desc
from repro.serve.store import EmbeddingStore
from repro.util.checks import positive_integer

__all__ = ["ShardPlan", "ShardGeneration", "ShardedIndex", "ShardedEngine"]

#: Rows of the matrix to chunk per ExactIndex block by default; shard
#: boundaries must land on multiples of this for GEMM-shape parity.
_DEFAULT_BLOCK_ROWS = 8192


@dataclass(frozen=True)
class ShardPlan:
    """How ``num_rows`` embedding rows split into grid-aligned shards.

    ``block_rows`` is the GEMM block size shared by every shard's local
    index *and* the single-host reference; every interior shard boundary
    is a multiple of it, which is what makes the scatter-gather merge
    bit-identical (see the module docstring).  The default block size is
    ``min(8192, max(1, num_rows // num_shards))`` so small stores still
    split into ``num_shards`` non-empty shards.
    """

    num_rows: int
    num_shards: int
    replicas: int = 1
    block_rows: int | None = None
    bounds: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.num_rows <= 0:
            raise ValueError(f"num_rows must be positive, got {self.num_rows}")
        if self.num_shards <= 0:
            raise ValueError(f"num_shards must be positive, got {self.num_shards}")
        if self.num_shards > self.num_rows:
            raise ValueError(
                f"num_shards={self.num_shards} exceeds {self.num_rows} rows"
            )
        if self.replicas <= 0:
            raise ValueError(f"replicas must be positive, got {self.replicas}")
        if self.block_rows is None:
            object.__setattr__(
                self,
                "block_rows",
                min(_DEFAULT_BLOCK_ROWS, max(1, self.num_rows // self.num_shards)),
            )
        if self.block_rows <= 0:
            raise ValueError(f"block_rows must be positive, got {self.block_rows}")
        num_blocks = -(-self.num_rows // self.block_rows)
        if self.num_shards > num_blocks:
            raise ValueError(
                f"num_shards={self.num_shards} exceeds the {num_blocks} row "
                f"blocks of block_rows={self.block_rows}; shrink block_rows"
            )
        # Distribute whole row-blocks over shards, then convert back to
        # row offsets: every interior boundary is a block_rows multiple.
        block_bounds = block_boundaries(num_blocks, self.num_shards)
        bounds = np.minimum(block_bounds * self.block_rows, self.num_rows)
        object.__setattr__(self, "bounds", bounds.astype(np.int64))

    @property
    def num_hosts(self) -> int:
        return self.num_shards * self.replicas

    def shard_sizes(self) -> np.ndarray:
        return np.diff(self.bounds)

    def shard_slice(self, shard: int) -> slice:
        return slice(int(self.bounds[shard]), int(self.bounds[shard + 1]))

    def partitions(self, replicated: bool = True) -> list[Partition]:
        """The plan as gluon partitions (replica hosts hold mirrors)."""
        return contiguous_partitions(
            self.bounds, self.replicas if replicated else 1
        )

    def stats(self) -> PartitionStats:
        """Partition quality of the replicated layout (rf == replicas)."""
        return analyze_partitions(self.partitions(replicated=True))

    def sub_stores(self, store: EmbeddingStore) -> list[EmbeddingStore]:
        """Per-shard stores sharing memory with ``store`` (row slices)."""
        if len(store) != self.num_rows:
            raise ValueError(
                f"store has {len(store)} rows but the plan covers {self.num_rows}"
            )
        words = store.words
        subs = []
        for shard in range(self.num_shards):
            sl = self.shard_slice(shard)
            subs.append(
                EmbeddingStore(
                    store.matrix[sl], words[sl.start : sl.stop],
                    norms=store.norms[sl],
                )
            )
        return subs

    def reference_index(self, store: EmbeddingStore) -> ExactIndex:
        """The single-host index sharded answers are bit-identical to.

        Parity requires the reference to walk the *same* ``block_rows``
        grid the shards do — ``ExactIndex(store)`` at its default block
        size only coincides when ``plan.block_rows`` is also 8192.
        """
        return ExactIndex(store, block_rows=self.block_rows)

    def as_dict(self) -> dict:
        stats = self.stats()
        sizes = self.shard_sizes()
        return {
            "num_rows": self.num_rows,
            "num_shards": self.num_shards,
            "replicas": self.replicas,
            "block_rows": self.block_rows,
            "bounds": [int(b) for b in self.bounds],
            "replication_factor": stats.replication_factor,
            "master_balance": float(sizes.max() / sizes.mean()),
        }


@dataclass
class ShardGeneration:
    """One hot-swappable store generation and its running answer digest."""

    number: int
    store: EmbeddingStore
    sub_stores: list[EmbeddingStore]
    indexes: list[ExactIndex]
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)
    answered: int = 0

    @property
    def fingerprint(self) -> str:
        """sha256 over every (word, ids, scores) this generation served."""
        return self.digest.hexdigest()

    def record(self, word: str, ids: np.ndarray, scores: np.ndarray) -> None:
        fingerprint_update(self.digest, word, ids, scores)
        self.answered += 1

    def summary(self) -> dict:
        return {
            "number": self.number,
            "answered": self.answered,
            "fingerprint": self.fingerprint,
        }


def fingerprint_update(
    digest, word: str, ids: np.ndarray, scores: np.ndarray
) -> None:
    """Fold one answered query into a sha256 running digest.

    The byte layout matches ``WorkloadReport.answers_sha256`` — word bytes,
    a NUL, int64 ids, float32 scores — so a single-generation load run's
    generation fingerprint equals the report fingerprint.
    """
    digest.update(word.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(np.ascontiguousarray(ids, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(scores, dtype=np.float32).tobytes())


class ShardedIndex:
    """Scatter-gather :class:`~repro.serve.index.Index` over shard replicas.

    Satisfies the ``Index`` protocol, so a plain ``QueryEngine`` can serve
    it; :class:`ShardedEngine` adds generation fingerprints and cache
    hygiene across promotions.  ``executor``/``workers`` control the
    *shard* scatter loop and default to serial — when the index runs
    inside a ``QueryEngine`` flush the engine's query-block ``do_all``
    already carries the parallelism, and nesting two loops on the shared
    ``REPRO_WORKERS`` pool could deadlock.  ``sanitize`` wraps an
    explicitly configured shard executor in the do_all race detector;
    with the default serial scatter the per-shard ``note_read`` /
    ``note_write`` calls instead attach to whatever sanitized loop is
    already active (the engine's), which is how ``REPRO_SANITIZE``
    watches the scatter-gather path end to end.
    """

    def __init__(
        self,
        store: EmbeddingStore,
        num_shards: int = 2,
        replicas: int = 1,
        plan: ShardPlan | None = None,
        block_rows: int | None = None,
        executor=None,
        workers: int | None = None,
        sanitize: bool | None = None,
        faults: FaultSchedule | None = None,
        recovery_rounds: int = 2,
    ):
        if plan is None:
            plan = ShardPlan(len(store), num_shards, replicas, block_rows)
        elif plan.num_rows != len(store):
            raise ValueError(
                f"plan covers {plan.num_rows} rows but store has {len(store)}"
            )
        if recovery_rounds <= 0:
            raise ValueError(
                f"recovery_rounds must be positive, got {recovery_rounds}"
            )
        self.plan = plan
        self._executor = resolve_executor(executor, workers) or SerialExecutor()
        self.sanitize = sanitize_from_env() if sanitize is None else bool(sanitize)
        self._race_sanitizer: DoAllRaceSanitizer | None = None
        if self.sanitize and resolve_executor(executor, workers) is not None:
            # Own sanitizer only around an explicitly configured shard
            # executor: wrapping the default serial loop would shadow an
            # enclosing engine's sanitized chunk record.
            self._race_sanitizer = DoAllRaceSanitizer()
            self._executor = SanitizedExecutor(
                self._executor, self._race_sanitizer, name="serve.shard"
            )
        self.faults = faults
        self.recovery_rounds = int(recovery_rounds)
        self.fault_report = FaultReport()
        self.failovers = 0
        self.recoveries = 0
        self._round = 0
        # dead_until[s, r]: first round replica r of shard s serves again
        # (0 = alive and never crashed in the current outage window).
        self._dead_until = np.zeros((plan.num_shards, plan.replicas), np.int64)
        self._replica_load = np.zeros((plan.num_shards, plan.replicas), np.int64)
        self._generation = self._build_generation(0, store)
        self.retired: list[dict] = []

    def _build_generation(self, number: int, store: EmbeddingStore) -> ShardGeneration:
        subs = self.plan.sub_stores(store)
        indexes = [ExactIndex(sub, block_rows=self.plan.block_rows) for sub in subs]
        return ShardGeneration(number, store, subs, indexes)

    # -- Index protocol ----------------------------------------------------
    @property
    def store(self) -> EmbeddingStore:
        return self._generation.store

    @property
    def generation(self) -> ShardGeneration:
        return self._generation

    @property
    def rounds_served(self) -> int:
        return self._round

    def replica_load(self) -> np.ndarray:
        return self._replica_load.copy()

    def promote(self, store: EmbeddingStore) -> ShardGeneration:
        """Atomically swap in ``store`` as the next generation.

        The new store must match the plan's row count and dim, and its
        word table must equal the live one row for row — same vocabulary,
        new vectors (a ``ValueError`` naming ``words`` otherwise).
        In-flight queries submitted to an engine but not yet flushed are
        answered by the new generation; nothing is drained or dropped.
        """
        if len(store) != self.plan.num_rows or store.dim != self.store.dim:
            raise ValueError(
                f"promoted store shape ({len(store)}, {store.dim}) does not "
                f"match serving shape ({self.plan.num_rows}, {self.store.dim})"
            )
        if store.words != self.store.words:
            raise ValueError(
                "promoted store's words differ from the live generation's "
                "(promote swaps vectors, not vocabularies)"
            )
        old = self._generation
        new = self._build_generation(old.number + 1, store)
        self.retired.append(old.summary())
        self._generation = new  # single reference swap — no partial state
        return new

    # -- fault handling ----------------------------------------------------
    def _apply_faults(self, round_index: int) -> None:
        """Kill replicas the schedule crashes at this serving round."""
        if self.faults is None:
            return
        rounds = self.faults.rounds_per_epoch
        key = divmod(round_index, rounds) if rounds > 0 else (0, round_index)
        for event in self.faults.crashes_at(*key):
            shard, replica = divmod(event.host, self.plan.replicas)
            if shard >= self.plan.num_shards:
                continue
            if self._dead_until[shard, replica] > round_index:
                continue  # already down
            self._dead_until[shard, replica] = round_index + self.recovery_rounds
            report = self.fault_report
            report.crashes += 1
            report.detect_s += self.faults.config.detect_timeout_s
            lost = self._generation.sub_stores[shard].memory_bytes()
            report.checkpoint_restore_bytes += lost
            report.restore_s += lost / self.faults.config.restore_bandwidth_Bps

    def _route(self, round_index: int, num_queries: int) -> np.ndarray:
        """Pick one replica per shard for this round, deterministically.

        Least-loaded wins, ascending replica id breaks ties; a shard with
        dead replicas counts a failover, a replica whose outage window
        just ended counts a recovery.  Runs serially *before* the shard
        scatter — routing state (load counters, outage windows) is never
        touched from inside the parallel loop.
        """
        chosen = np.empty(self.plan.num_shards, dtype=np.int64)
        for shard in range(self.plan.num_shards):
            best = -1
            dead_seen = False
            for replica in range(self.plan.replicas):
                until = self._dead_until[shard, replica]
                if until > round_index:
                    dead_seen = True
                    continue
                if until != 0:  # outage window elapsed — back in rotation
                    self._dead_until[shard, replica] = 0
                    self.recoveries += 1
                if best < 0 or (
                    self._replica_load[shard, replica]
                    < self._replica_load[shard, best]
                ):
                    best = replica
            if best < 0:
                raise UnrecoverableFaultError(
                    f"shard {shard}: all {self.plan.replicas} replicas dead "
                    f"at serving round {round_index}"
                )
            if dead_seen:
                self.failovers += 1
            chosen[shard] = best
            self._replica_load[shard, best] += num_queries
        return chosen

    # -- search ------------------------------------------------------------
    def search(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        k = positive_integer(k, "k")
        plan = self.plan
        generation = self._generation  # pin: promote() must not split a call
        # Validate only, ahead of the round counter, so a rejected call
        # serves no round and fires no scheduled crash.  Each shard's local
        # ExactIndex normalizes the (raw) queries itself, exactly as the
        # single-host reference does; normalizing here too would normalize
        # twice, perturbing low-order bits relative to the reference.
        q = _check_queries(queries, generation.store.dim)
        round_index = self._round
        self._round += 1
        self._apply_faults(round_index)
        n = q.shape[0]
        k = min(k, plan.num_rows)
        self._route(round_index, n)  # replica pick + load/failover accounting
        shard_ids: list[np.ndarray | None] = [None] * plan.num_shards
        shard_scores: list[np.ndarray | None] = [None] * plan.num_shards

        # note_read/note_write only under the scatter's *own* sanitized
        # executor.  With the default serial scatter the notes would attach
        # to an enclosing sanitized loop (e.g. the engine's flush), where
        # the call-local output arrays are freed after the merge — the
        # sanitizer keys arrays by id(), so a recycled address would show
        # up as a bogus cross-chunk write-write overlap.
        sanitized = self._race_sanitizer is not None

        def scatter(shard: int) -> None:
            if sanitized:
                note_read(q, np.arange(n), "serve.shard.queries")
            ids, scores = generation.indexes[shard].search(q, k)
            ids = ids + plan.bounds[shard]  # local rows → global rows
            if sanitized:
                note_write(ids, np.arange(ids.shape[0]), f"serve.shard{shard}.ids")
                note_write(scores, np.arange(scores.shape[0]), f"serve.shard{shard}.scores")
            shard_ids[shard] = ids
            shard_scores[shard] = scores

        do_all(range(plan.num_shards), scatter, executor=self._executor)
        if self._race_sanitizer is not None and self._race_sanitizer.findings:
            raise SanitizeError(
                self._race_sanitizer.findings, context="serve.shard"
            )
        cand_ids = np.concatenate(shard_ids, axis=1)
        cand_scores = np.concatenate(shard_scores, axis=1)
        return top_k_desc(cand_scores, cand_ids, k)

    # -- reporting ---------------------------------------------------------
    def serve_extras(self) -> dict:
        """JSON-ready sharding facts for ``WorkloadReport.extras``."""
        extras = {
            "plan": self.plan.as_dict(),
            "generation": self._generation.number,
            "generations": self.retired + [self._generation.summary()],
            "rounds_served": self._round,
            "replica_load": self._replica_load.tolist(),
            "failovers": self.failovers,
            "recoveries": self.recoveries,
        }
        if self.faults is not None:
            extras["faults"] = self.fault_report.as_dict()
        return extras

    def __repr__(self) -> str:
        return (
            f"ShardedIndex(rows={self.plan.num_rows}, "
            f"shards={self.plan.num_shards}, replicas={self.plan.replicas}, "
            f"generation={self._generation.number})"
        )


class ShardedEngine(QueryEngine):
    """A :class:`~repro.serve.engine.QueryEngine` over a :class:`ShardedIndex`.

    Adds two behaviors the sharded tier needs on top of the stock engine:

    - every flushed answer is folded into the *serving* generation's
      sha256 fingerprint (arrival order — the same stream order
      ``WorkloadReport.answers_sha256`` hashes), and
    - :meth:`promote` swaps the result cache for an empty one (preserving
      the live :class:`~repro.serve.engine.CacheStats` object, so the
      engine's stats alias stays intact) — a hot swap must never serve a
      previous generation's cached answers.
    """

    def __init__(self, index: ShardedIndex, **kwargs):
        if not isinstance(index, ShardedIndex):
            raise TypeError(f"ShardedEngine requires a ShardedIndex, got {type(index).__name__}")
        super().__init__(index, **kwargs)

    def flush(self) -> int:
        batch = list(self._pending)
        generation = self.index.generation
        count = super().flush()
        for ticket in batch:
            generation.record(ticket.word, *ticket.result)
        return count

    def promote(self, store: EmbeddingStore) -> ShardGeneration:
        """Hot-swap ``store`` in under live load; returns the generation.

        Pending (submitted, unflushed) queries are *not* drained — they
        resolve against the new generation at the next flush, so no query
        is dropped and the answer stream switches at a batch boundary.
        """
        generation = self.index.promote(store)
        stale = self.cache
        fresh = LRUCache(stale.capacity)
        fresh.stats = stale.stats  # EngineStats.cache aliases this object
        self.cache = fresh
        return generation

    def serve_extras(self) -> dict:
        return self.index.serve_extras()
