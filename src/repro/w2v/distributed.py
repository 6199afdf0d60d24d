"""GraphWord2Vec: distributed Word2Vec training (paper Algorithm 1, §4).

Formulation.  Vocabulary words are graph nodes carrying two labels (the
embedding and output-layer vectors); training pairs are edges generated on
the fly each round from the per-host worklist (the host's contiguous shard
of the corpus).  Because an edge may connect any pair of nodes, the graph
is partitioned with the *replicate-all* policy: every host holds a proxy
for every node, masters block-distributed (paper §4.2, Figures 4/5).

Execution.  Per epoch, each host's worklist is split into ``S``
synchronization rounds.  A round applies the Word2Vec operator to the
host's chunk (updating its replica in place) and then bulk-synchronizes
both label fields through Gluon: mirrors ship the round's *deltas* (each
row after the round minus before it), the master folds them with the configured combiner (model combiner
by default), and new canonical values are broadcast back under the
configured communication plan (RepModel-Naive / RepModel-Opt / PullModel).
After all rounds the learning rate decays and the next epoch begins.

Configurations.  The paper evaluates Skip-Gram with negative sampling; all
four {Skip-Gram, CBOW} x {negative sampling, hierarchical softmax}
combinations are supported (``Word2VecParams.architecture``/``objective``).
Under hierarchical softmax the output field has one node per Huffman inner
node (V-1), synchronized over its own replicate-all partitions.

Determinism.  Every stochastic choice (shuffles, subsampling, windows,
negatives) is drawn from a seed tree keyed by (epoch, round, host), so runs
are pure functions of the seed — in particular the *same* training examples
are generated under every communication plan, which is what makes the
"plans differ only in bytes, never in the model" invariant testable.

Fault tolerance.  With ``faults`` enabled the trainer consults a
:class:`~repro.cluster.faults.FaultSchedule`; the canonical store —
written only by folds — is the round-granular checkpoint (writing it to
stable storage is modeled as overlapped with compute, so it costs no
modeled time; restores are charged when a crash happens).  Transient
message faults are retransmitted inside the phase barrier (extra bytes +
backoff, payloads intact).  A fail-stop host crash loses the host's
replica and its in-round work; recovery restores the host's own master
block from the checkpoint, streams surviving masters' blocks over the
network, and replays the lost worklist chunk.  Because the store holds
the fold frontier's values and work generation is seed-pure, the replayed
updates are *bit-identical* to the lost ones: faults cost time and bytes,
never model quality.  The
modeled recovery time redistributes the dead host's shard across the
surviving hosts — consistent with how the simulation treats all wall-clock
(values come from the sequential execution, time from the concurrency
model).  The schedule itself is a pure function of the seed, so faulty runs
are exactly as reproducible as fault-free ones.

Timing.  Each host step's thread-time compute, scaled by the schedule's
slow-host factor for its slot (stragglers; a heterogeneous cluster is a
schedule that slows a host in every slot), is booked once with its
inspection and recovery seconds in the ``metrics`` ledger
(:class:`~repro.cluster.metrics.ClusterMetrics`); communication is priced
by :data:`~repro.cluster.network.SCALED_DEFAULT`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import time
from typing import Callable

import numpy as np

from repro.analysis.runtime import (
    DoAllRaceSanitizer,
    GluonSyncChecker,
    SanitizedExecutor,
    sanitize_from_env,
)
from repro.cluster.faults import FaultConfig, FaultReport, FaultSchedule
from repro.cluster.metrics import ClusterMetrics
from repro.cluster.network import SCALED_DEFAULT
from repro.cluster.simulator import DistributedRunReport
from repro.core.combiners import GradientCombiner, get_combiner
from repro.dgraph.engine import TrainingEngine, resolve_training_engine
from repro.galois.do_all import (
    DoAllExecutor,
    SerialExecutor,
    executor_from_env,
    resolve_executor,
)
from repro.gluon.comm import VALUE_BYTES, SimulatedNetwork
from repro.gluon.partitioner import replicate_all_partitions
from repro.gluon.plans import CommPlan, get_plan
from repro.gluon.proxies import master_block_slice
from repro.gluon.sync import FieldSync, GluonSynchronizer
from repro.text.corpus import Corpus
from repro.text.negative_sampling import UnigramTable
from repro.util import artifact
from repro.util.heap import hold_heap
from repro.util.rng import SeedSequenceTree
from repro.w2v.huffman import HuffmanTree
from repro.w2v.model import Word2VecModel
from repro.w2v.params import Word2VecParams
from repro.w2v.steps import RoundWork, build_round_works, output_rows_for

__all__ = ["GraphWord2Vec", "DistributedTrainResult", "default_sync_rounds"]


def default_sync_rounds(num_hosts: int) -> int:
    """The paper's rule of thumb: frequency grows ~linearly with hosts.

    Matches the host(frequency) labels of Figures 8/9 — 1(1), 2(3), 4(6),
    8(12), 16(24), 32(48), 64(96): ``S = max(1, round(1.5 * H))``.
    """
    if num_hosts <= 0:
        raise ValueError(f"num_hosts must be positive, got {num_hosts}")
    return max(1, round(1.5 * num_hosts))


@dataclass
class DistributedTrainResult:
    """Final canonical model plus the run's accounting."""

    model: Word2VecModel
    report: DistributedRunReport
    epoch_pairs: list[int] = field(default_factory=list)


class GraphWord2Vec:
    """Distributed Word2Vec on the simulated Gluon cluster."""

    def __init__(
        self,
        corpus: Corpus,
        params: Word2VecParams = Word2VecParams(),
        num_hosts: int = 1,
        sync_rounds_per_epoch: int | None = None,
        combiner: str | GradientCombiner = "mc",
        plan: str | CommPlan = "opt",
        seed: int | None = None,
        faults: FaultConfig | FaultSchedule | None = None,
        executor: DoAllExecutor | None = None,
        workers: int | None = None,
        sanitize: bool | None = None,
        engine: str | TrainingEngine = "bsp",
        staleness: int = 0,
        delay_compensation: float = 0.0,
    ):
        """``executor``/``workers`` choose how the per-host compute (and
        PullModel inspection) phases execute: pass a
        :class:`~repro.galois.do_all.DoAllExecutor`, or ``workers=N`` to get
        a private :class:`~repro.galois.do_all.ThreadPoolDoAll` (``N=1`` =
        serial); at most one of the two.  When neither is given the
        ``REPRO_WORKERS`` environment variable is consulted, else execution
        is serial.  Per-host replicas are disjoint arrays, so the trained
        model is *bit-identical* under every executor — parallelism changes
        only the real wall-clock, never results or the modeled timing
        (per-host compute is measured with ``time.thread_time``, which is
        contention-independent).

        ``faults`` enables fault injection: pass a
        :class:`~repro.cluster.faults.FaultConfig` (a schedule is
        materialized from this trainer's seed tree) or a pre-built
        :class:`~repro.cluster.faults.FaultSchedule`.  ``None`` (default)
        leaves every fault hook disengaged — byte accounting, timing and
        the final model are bit-identical to a build without the fault
        subsystem.  A heterogeneous cluster is a schedule built with
        explicit ``stragglers``: a slow host's measured compute is scaled
        by its factor before entering the timing model, where the slowest
        host of each fold shows the straggler effect.  Training results
        are unaffected — only the modeled wall-clock changes.  Modeled
        communication is priced with
        :data:`~repro.cluster.network.SCALED_DEFAULT`.

        ``sanitize`` enables the :mod:`repro.analysis.runtime` sanitizers:
        compute loops run under a :class:`SanitizedExecutor` (cross-host
        data-race detection) and both synchronizers get a
        :class:`GluonSyncChecker` (protocol auditing).  Findings raise
        :class:`~repro.analysis.runtime.SanitizeError` at the next fold.
        Sanitizers observe and never perturb, so a sanitized run
        is bit-identical to an unsanitized one.  ``None`` (default) defers
        to the ``REPRO_SANITIZE`` environment variable."""
        hold_heap()
        if num_hosts <= 0:
            raise ValueError(f"num_hosts must be positive, got {num_hosts}")
        vocab_size = len(corpus.vocabulary)
        output_rows = output_rows_for(params, vocab_size)
        if min(vocab_size, output_rows) < num_hosts:
            raise ValueError(
                f"vocabulary ({vocab_size}) smaller than host count ({num_hosts})"
            )
        self.corpus = corpus.split_long_sentences(params.max_sentence_length)
        self.params = params
        self.num_hosts = int(num_hosts)
        self.sync_rounds = (
            default_sync_rounds(num_hosts)
            if sync_rounds_per_epoch is None
            else int(sync_rounds_per_epoch)
        )
        if self.sync_rounds < 1:
            raise ValueError(f"sync rounds must be >= 1, got {self.sync_rounds}")
        self.combiner = (
            get_combiner(combiner) if isinstance(combiner, str) else combiner
        )
        self.plan = get_plan(plan) if isinstance(plan, str) else plan
        # The execution engine owns the round loop's clock model: hosts
        # may lead the fold frontier by ``staleness`` rounds, and "bsp"
        # (every round a global barrier) names the staleness-0 schedule
        # (see repro.dgraph.async_engine).  Trainer code talks to the
        # TrainingEngine seam only.
        self.engine = resolve_training_engine(
            engine, staleness=staleness, delay_compensation=delay_compensation
        )
        resolved = resolve_executor(executor, workers)
        if resolved is None:
            resolved = executor_from_env()
        self.executor: DoAllExecutor = resolved or SerialExecutor()
        self.sanitize = sanitize_from_env() if sanitize is None else bool(sanitize)
        if self.sanitize:
            self.race_sanitizer: DoAllRaceSanitizer | None = DoAllRaceSanitizer()
            self.sync_checker: GluonSyncChecker | None = GluonSyncChecker()
            self.executor = SanitizedExecutor(
                self.executor, self.race_sanitizer, name="w2v"
            )
        else:
            self.race_sanitizer = None
            self.sync_checker = None
        self._seeds = SeedSequenceTree(seed if seed is not None else 0)

        # Fault injection: the schedule is a pure function of the seed tree,
        # so faulty runs are exactly as reproducible as fault-free ones.
        if faults is None:
            self.fault_schedule: FaultSchedule | None = None
        elif isinstance(faults, FaultSchedule):
            if faults.num_hosts != self.num_hosts:
                raise ValueError(
                    f"fault schedule built for {faults.num_hosts} hosts, "
                    f"trainer has {self.num_hosts}"
                )
            self.fault_schedule = faults
        elif isinstance(faults, FaultConfig):
            self.fault_schedule = FaultSchedule.generate(
                faults,
                seed=self._seeds.subtree("faults").seed,
                num_hosts=self.num_hosts,
                epochs=params.epochs,
                rounds_per_epoch=self.sync_rounds,
            )
        else:
            raise TypeError(
                f"faults must be FaultConfig, FaultSchedule or None, got {type(faults)!r}"
            )
        self.fault_report = (
            FaultReport() if self.fault_schedule is not None else None
        )
        self._fault_injector = (
            self.fault_schedule.message_injector()
            if self.fault_schedule is not None
            else None
        )

        vocab = corpus.vocabulary
        self._keep_prob = vocab.keep_probabilities(params.subsample_threshold)
        self._table = (
            UnigramTable(vocab.counts) if params.objective == "negative" else None
        )
        self._tree = (
            HuffmanTree.from_counts(vocab.counts)
            if params.objective == "hierarchical"
            else None
        )

        # Substrate: replicate-all partitions per field (the output layer
        # has its own node space under hierarchical softmax), one network.
        self.network = SimulatedNetwork(self.num_hosts, fault_injector=self._fault_injector)
        self.partitions = replicate_all_partitions(vocab_size, self.num_hosts)
        self._sync_emb = GluonSynchronizer(self.partitions, self.network)
        if output_rows == vocab_size:
            self.partitions_out = self.partitions
            self._sync_out = self._sync_emb
        else:
            self.partitions_out = replicate_all_partitions(
                output_rows, self.num_hosts
            )
            self._sync_out = GluonSynchronizer(self.partitions_out, self.network)
        if self.sync_checker is not None:
            # One checker serves both synchronizers (state is keyed by
            # field name; the two fields have distinct names).
            self._sync_emb.checker = self.sync_checker
            self._sync_out.checker = self.sync_checker
        self.metrics = ClusterMetrics(self.num_hosts)

        # Model replicas: identical initialization on every host (all hosts
        # derive it from the shared seed, as they derive node ids from the
        # shared hash function).  The engine measures each step's deltas
        # against its own pre-kernel rows.
        init = Word2VecModel.initialize(
            vocab_size, params.dim, self._seeds.child("init"), output_rows=output_rows
        )
        self._fields: dict[str, FieldSync] = {}
        for name, values in (("embedding", init.embedding), ("training", init.training)):
            self._fields[name] = FieldSync(name, [values.copy() for _ in range(self.num_hosts)])
            if self.sync_checker is not None:
                self.sync_checker.watch(self._fields[name])

        # Per-host contiguous shards of the corpus (Algorithm 1, line 4).
        self._shards = self.corpus.shard(self.num_hosts)
        self._epoch_chunks_cache: dict[int, list[list[list[np.ndarray]]]] = {}
        self._work_cache: dict[tuple[int, int, int], tuple[RoundWork, float]] = {}
        self._pairs_total = 0
        self._epoch_pairs: list[int] = []
        self._peak_access_rows = 0
        self._completed_epochs = 0
        # Round-granular progress: rounds finished inside the current epoch,
        # and the training pairs those rounds processed.
        self._completed_rounds = 0
        self._partial_pairs = 0
        # Engine state: the canonical value store (the fold frontier's
        # ground truth — only folds write it, and replica master rows may
        # carry unfolded work), bounded-staleness bookkeeping
        # (pending-stale rows, next-round access sets), the replayed
        # event-order makespan of the spans trained so far, and the
        # step/fold timeline the Chrome trace renders.
        self._canonical = {"embedding": init.embedding, "training": init.training}
        self._async_state: dict = {"pending_stale": {}, "next_access": {}}
        self._async_makespan_s = 0.0
        self.async_timeline = None

    # ------------------------------------------------------------------
    # Deterministic work generation
    # ------------------------------------------------------------------
    def _epoch_chunks(self, epoch: int) -> list[list[list[np.ndarray]]]:
        """``[host][round] -> sentences`` for ``epoch`` (shuffled, memoized)."""
        cached = self._epoch_chunks_cache.get(epoch)
        if cached is not None:
            return cached
        per_host: list[list[list[np.ndarray]]] = []
        for host in range(self.num_hosts):
            sentences = list(self._shards[host])
            if self.params.shuffle_each_epoch and len(sentences) > 1:
                rng = self._seeds.subtree("epoch", epoch).child("shuffle", host)
                order = rng.permutation(len(sentences))
                sentences = [sentences[i] for i in order]
            # Contiguous split into S nearly-equal rounds (Algorithm 1 l.8).
            S = self.sync_rounds
            base, extra = divmod(len(sentences), S)
            rounds = []
            start = 0
            for s in range(S):
                size = base + (1 if s < extra else 0)
                rounds.append(sentences[start : start + size])
                start += size
            per_host.append(rounds)
        # Only the current and next epoch are ever needed: by the time epoch
        # ``e`` is requested (compute of ``e``, or PullModel inspection of
        # ``e`` from the last round of ``e-1``), epochs ``< e`` can never be
        # asked for again — drop them so their shuffled sentence lists don't
        # pin dead corpus memory for the rest of the run.  Only the serial
        # wave pre-pass generates work, so nothing here races.
        self._epoch_chunks_cache = {
            k: self._epoch_chunks_cache[k]
            for k in sorted(self._epoch_chunks_cache)
            if k >= epoch
        }
        self._epoch_chunks_cache[epoch] = per_host
        return per_host

    def _get_work(self, epoch: int, round_index: int, host: int) -> RoundWork:
        """The (memoized) round work for one (epoch, round, host) slot.

        Work is a pure function of the seed tree, so inspection (which needs
        it one sync early under PullModel) and compute see the same edges
        without storing more than ~two rounds of examples.  The engine
        builds a wave's slots together (:meth:`_build_works`) and drops a
        slot's entry once its step has run.
        """
        key = (epoch, round_index, host)
        entry = self._work_cache.get(key)
        if entry is None:
            entry = self._work_cache[key] = self._build_works([key])[0]
        return entry[0]

    def _build_works(
        self, slots: list[tuple[int, int, int]]
    ) -> list[tuple[RoundWork, float]]:
        """Generate the ``(epoch, round, host)`` slots' work in one batch,
        bypassing the memo cache; each with its share of the thread time
        generation took — what PullModel inspection of the slot is charged,
        whichever pass generated it.  The batch's time is shared in
        proportion to the slots' examples.

        A pure function of the seed tree: slot ``(e, r, h)`` draws from
        ``h``'s stream of round ``r``'s subtree, derived once per round.
        """
        start = time.thread_time()
        chunks = {
            e: self._epoch_chunks(e)
            for e in sorted({e for e, _r, _h in slots}, reverse=True)
        }
        rounds = {
            (e, r): self._seeds.subtree("epoch", e).subtree("round", r)
            for e, r in dict.fromkeys((e, r) for e, r, _h in slots)
        }
        works = build_round_works(
            [
                (chunks[e][host][r], rounds[(e, r)].child("pairs", host))
                for e, r, host in slots
            ],
            params=self.params,
            keep_prob=self._keep_prob,
            table=self._table,
            tree=self._tree,
        )
        elapsed = time.thread_time() - start
        examples = sum(work.num_examples for work in works)
        return [
            (work, elapsed * (work.num_examples / examples if examples else 1 / len(works)))
            for work in works
        ]

    def _access_rows(self, host: int, work: RoundWork) -> list[np.ndarray]:
        """``host``'s replica rows on ``work``'s access sets (embedding,
        then output layer) as they stand now: taken just before a step's
        kernel, what its deltas are measured against."""
        return [
            self._fields["embedding"].arrays[host][work.embedding_access],
            self._fields["training"].arrays[host][work.output_access],
        ]

    def _next_slot(self, epoch: int, round_index: int) -> tuple[int, int] | None:
        if round_index + 1 < self.sync_rounds:
            return epoch, round_index + 1
        if epoch + 1 < self.params.epochs:
            return epoch + 1, 0
        return None

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def train(
        self,
        epoch_callback: Callable[[int, Word2VecModel], None] | None = None,
        until_epoch: int | None = None,
        until_round: int | None = None,
    ) -> DistributedTrainResult:
        """Train remaining epochs (all, or up to ``until_epoch`` exclusive).

        ``until_epoch`` does not change the learning-rate schedule — it only
        pauses training, so a paused-and-resumed run replays the exact same
        steps as an uninterrupted one (see :meth:`save_checkpoint`).
        ``until_round`` pauses with round granularity: training stops once
        ``until_round`` *global* synchronization rounds (``epoch *
        sync_rounds + round``) have completed, mid-epoch boundaries
        included.
        """
        params = self.params
        stop = params.epochs if until_epoch is None else min(until_epoch, params.epochs)

        self._async_makespan_s += self.engine.run(
            self, stop, until_round, epoch_callback
        )

        if self.fault_report is not None:
            self.fault_report.absorb_injector(self._fault_injector)
        report = DistributedRunReport.build(
            num_hosts=self.num_hosts,
            sync_rounds_per_epoch=self.sync_rounds,
            epochs=params.epochs,
            plan=self.plan.name,
            combiner=self.combiner.name,
            metrics=self.metrics,
            network=self.network,
            model=SCALED_DEFAULT,
            pairs_processed=self._pairs_total + self._partial_pairs,
            peak_replica_rows=self._peak_access_rows,
            fault_report=self.fault_report,
            makespan_s=self._async_makespan_s,
        )
        return DistributedTrainResult(
            model=self.canonical_model(),
            report=report,
            epoch_pairs=list(self._epoch_pairs),
        )

    def _roll_epoch(
        self,
        epoch: int,
        epoch_callback: Callable[[int, Word2VecModel], None] | None,
    ) -> None:
        """Close out ``epoch``: pair accounting, progress, user callback.

        Called by the engine at every epoch boundary (the last round of
        the epoch has folded), so callbacks observe the same canonical
        states under every staleness.
        """
        self._pairs_total += self._partial_pairs
        self._epoch_pairs.append(self._partial_pairs)
        self._partial_pairs = 0
        self._completed_rounds = 0
        self._completed_epochs = epoch + 1
        if epoch_callback is not None:
            epoch_callback(epoch, self.canonical_model())

    @property
    def sanitize_findings(self):
        """All sanitizer findings so far (empty when ``sanitize`` is off)."""
        findings = []
        if self.race_sanitizer is not None:
            findings.extend(self.race_sanitizer.findings)
        if self.sync_checker is not None:
            findings.extend(self.sync_checker.findings)
        return findings

    def _time_factor(self, epoch: int, s: int, host: int) -> float:
        """The slow-host factor of one slot: the fault schedule's, else 1."""
        if self.fault_schedule is None:
            return 1.0
        return self.fault_schedule.straggler_factor(epoch, s, host)

    def _recover_host(
        self,
        epoch: int,
        s: int,
        crash,
        lr: float,
    ) -> tuple[RoundWork, list[np.ndarray], int, float, float]:
        """Fail-stop recovery of one crashed host.

        (1) The barrier times out and declares the host dead; (2) its
        replacement restores its own master block from stable storage and
        every surviving master's block over the network; (3) the lost
        worklist chunk is replayed on the restored replica (work generation
        is a pure function of the seed tree, so the replay redoes exactly
        the lost updates).  Both restores read the canonical store: it is
        the state at the fold frontier, whereas a survivor's replica rows
        carry its own unfolded local view, which is not what recovery must
        rebuild.

        Returns ``(work, before, pairs, lost_s, recovery_s)``: the replayed
        work, its access rows as restored (what the replay's deltas are
        measured against), the measured compute the doomed attempt burned
        on the dead host (before its slow-host factor), and the modeled
        detect + restore + replay stall.  The replay is redistributed
        across the survivors (values come from the sequential execution,
        wall-clock from the concurrency model, as everywhere in this
        simulation).  With a sync checker attached, the restored own
        block rebases its shadow, as ``restore_host`` rebases the rest.
        """
        assert self.fault_schedule is not None and self.fault_report is not None
        config = self.fault_schedule.config
        report = self.fault_report
        h = crash.host
        report.crashes += 1
        report.detect_s += config.detect_timeout_s

        # (2) own block from stable storage — the only copy that survives
        # the crash — then the survivors' blocks (the recovery phases are
        # priced into recovery time, not regular communication, by the
        # report builder).
        storage_bytes = net_bytes = 0
        for name, sync in (("embedding", self._sync_emb), ("training", self._sync_out)):
            field_obj = self._fields[name]
            canon = self._canonical[name]
            block = master_block_slice(sync.bounds, h)
            field_obj.land(h, block, canon[block])
            if self.sync_checker is not None:
                self.sync_checker.after_restore(field_obj, h, block, canon[block])
            storage_bytes += (block.stop - block.start) * field_obj.dim * VALUE_BYTES
            net_bytes += sync.restore_host(field_obj, h, [canon] * self.num_hosts)
        report.checkpoint_restore_bytes += storage_bytes
        report.recovery_bytes += net_bytes
        storage_s = storage_bytes / config.restore_bandwidth_Bps

        # (3) replay (thread_time, like the compute phase: recovery cost
        # must not depend on what else shares the simulator's cores).
        work = self._get_work(epoch, s, h)
        before = self._access_rows(h, work)
        start = time.thread_time()
        _loss, pairs = work.apply(
            self._fields["embedding"].arrays[h],
            self._fields["training"].arrays[h],
            lr,
            self.params.batch_pairs,
        )
        replay_measured = time.thread_time() - start

        crashed = {ev.host for ev in self.fault_schedule.crashes_at(epoch, s)}
        survivors = [sv for sv in range(self.num_hosts) if sv not in crashed]
        if survivors:
            replay_s = (
                replay_measured
                * max(self._time_factor(epoch, s, sv) for sv in survivors)
                / len(survivors)
            )
        else:
            replay_s = replay_measured * self._time_factor(epoch, s, h)
        report.replay_s += replay_s
        report.restore_s += storage_s
        return (
            work,
            before,
            pairs,
            crash.loss_fraction * replay_measured,
            config.detect_timeout_s + storage_s + replay_s,
        )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _config_fingerprint(self) -> str:
        """Identifies the training configuration a checkpoint belongs to."""
        base = (
            f"{self.params!r}|hosts={self.num_hosts}|S={self.sync_rounds}"
            f"|combiner={self.combiner.name}|plan={self.plan.name}"
            f"|seed={self._seeds.seed}|corpus_tokens={self.corpus.num_tokens}"
        )
        if self.engine.staleness or self.engine.delay_compensation:
            # s=0, λ=0 is the lock-step (BSP) schedule under either engine
            # name, so its checkpoints carry this unscoped fingerprint.
            # Any s>0 (or compensated) run replays a different
            # interleaving, so its checkpoints are its own.
            base += (
                f"|engine={self.engine.name}|s={self.engine.staleness}"
                f"|lam={self.engine.delay_compensation}"
            )
        return base

    def save_checkpoint(self) -> bytes:
        """Serialize the canonical model and training progress.

        Checkpoints are round-granular: training resumed from one replays
        the remaining rounds exactly (work generation is a pure function of
        the seed tree), including from mid-epoch boundaries reached via
        ``train(until_round=...)``.  Communication/compute accounting
        restarts at resume, so a resumed run's report covers only
        post-resume work.
        """
        return artifact.encode(
            "checkpoint",
            {
                "completed_epochs": int(self._completed_epochs),
                "completed_rounds": int(self._completed_rounds),
                "partial_pairs": int(self._partial_pairs),
                "pairs_total": int(self._pairs_total),
                "epoch_pairs": [int(p) for p in self._epoch_pairs],
                "fingerprint": self._config_fingerprint(),
            },
            self._canonical,
        )

    def load_checkpoint(self, blob: bytes) -> int:
        """Restore a checkpoint into this trainer; returns the next epoch.

        The trainer must be constructed with the same corpus, parameters,
        topology and seed the checkpoint was taken from (verified).  All
        replicas are set to the canonical values, which matches the
        post-sync state for the RepModel plans and is a valid (fully
        refreshed) state for PullModel.
        """
        fields, arrays, _ = artifact.read(blob, "checkpoint")
        if fields["fingerprint"] != self._config_fingerprint():
            raise ValueError(
                "checkpoint belongs to a different training configuration"
            )
        for name in ("embedding", "training"):
            np.copyto(self._canonical[name], arrays[name])
            for h in range(self.num_hosts):
                self._fields[name].land(h, slice(None), arrays[name])
        self._completed_epochs = fields["completed_epochs"]
        self._completed_rounds = fields["completed_rounds"]
        self._partial_pairs = fields["partial_pairs"]
        self._pairs_total = fields["pairs_total"]
        self._epoch_pairs = fields["epoch_pairs"]
        self._work_cache.clear()
        self._epoch_chunks_cache.clear()
        # Every replica row is canonical again: nothing is pending-stale.
        self._async_state = {"pending_stale": {}, "next_access": {}}
        if self.sync_checker is not None:
            # Replicas were rebuilt from canonical values: all prior
            # stale/residual tracking is void, and the audit restarts
            # from these values.
            self.sync_checker.reset_state()
            for name in ("embedding", "training"):
                self.sync_checker.watch(self._fields[name])
        return self._completed_epochs

    # ------------------------------------------------------------------
    # Model assembly
    # ------------------------------------------------------------------
    def canonical_model(self) -> Word2VecModel:
        """The canonical model: a copy of the store the folds write."""
        return Word2VecModel(
            self._canonical["embedding"].copy(), self._canonical["training"].copy()
        )
