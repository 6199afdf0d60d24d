"""The training engine: bounded-staleness (SSP) rounds, BSP at ``staleness=0``.

The stale-synchronous-parallel engine lets hosts advance their round
clocks independently, up to a staleness bound ``s``: a host may start
global round ``g`` only while ``g - folds_done <= s``, where
``folds_done`` equals the slowest host's completed-round clock (round
``r`` *folds* — reduce + broadcast — the moment every host has finished
it).  ``s = 0`` therefore *is* the paper's lock-step loop (Algorithm 1:
compute, then a Gluon sync every host waits for) — the same code under a
different schedule, not a second driver kept equal to it.  A fold is a
call of the one kernel (:meth:`repro.gluon.sync.GluonSynchronizer.fold` —
owner routing, wire formulas, rotating combiner order, message sequence),
handed this engine's contributions (deltas buffered at capture time) and
*destination* (the canonical store, and a landing that preserves
read-my-writes).  ``tests/test_async_engine.py`` pins the ``s = 0``
schedule against a lock-step oracle that folds bit-vector-flagged
``current − base`` deltas through the same kernel under every
communication plan.

Determinism story.  The interleaving is not discovered from wall-clock —
it is *recorded*: :func:`build_interleaving` runs a virtual event loop
whose per-step durations come from the trainer's modeled time factors
plus a seed-keyed jitter, producing a causal event list (start / end /
fold) that is a pure function of the seed.  Execution then replays that
list, and the *measured* per-step times are laid back onto the recorded
order to produce the reported makespan.  Replay, checkpointing and crash
recovery are exact at every ``s`` because every started round folds at a
deterministic point of the recorded schedule.

Mirror semantics.  Because hosts run ahead of the fold frontier, the
canonical model cannot be read off replica master blocks; the trainer
owns a dedicated canonical store (``trainer._canonical``) that only the
fold kernel mutates — which also makes it the round-granular checkpoint
crash recovery restores from.  Replicas are bounded-staleness mirrors:
fold broadcasts and PullModel refreshes overwrite rows with canonical
values *plus* the host's still-unfolded buffered deltas on those rows
(read-my-writes), and per-(field, host) pending-stale row marks drive an
extra ``refresh``/``refresh-request`` phase pair so a host never computes
on a row whose master changed without a broadcast reaching it.  Fold
order across fields is priority-scheduled dirtiest-first (rows touched by
buffered, unfolded rounds, a per-row count that buffering and folding
keep up to date) through the galois
:class:`~repro.galois.worklist.OrderedByIntegerMetric` worklist (only
when ``s > 0``; at ``s = 0`` the declaration order is kept so the
transient-fault injector sees one fixed send sequence).

Work generation is one batch per wave: before a wave runs, every slot it
steps — and, under PullModel, the next slot each step's inspection reads —
is generated in one :func:`repro.w2v.steps.build_round_works` call.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import partial
import heapq
import time
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.analysis.runtime import SanitizeError, note_write
from repro.dgraph.engine import TrainingEngine, compensate_delta
from repro.galois.do_all import do_all
from repro.galois.worklist import OrderedByIntegerMetric
from repro.util.rng import keyed_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.w2v.distributed import GraphWord2Vec
    from repro.w2v.model import Word2VecModel
    from repro.w2v.steps import RoundWork

__all__ = [
    "SSPTrainingEngine",
    "ScheduledEvent",
    "AsyncSchedule",
    "AsyncTimeline",
    "build_interleaving",
]

#: The lock-step schedule synchronizes embedding before training: a fixed
#: order fixes the per-round message sequence, and hence the
#: transient-fault injector's draw order.
_FIELD_ORDER = ("embedding", "training")


def _empty_ids() -> np.ndarray:
    return np.empty(0, dtype=np.int64)


# ----------------------------------------------------------------------
# Recorded interleaving schedule
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScheduledEvent:
    """One event of the recorded interleaving (virtual time units).

    ``kind`` is ``"start"`` / ``"end"`` (``host`` >= 0) or ``"fold"``
    (``host`` == -1).  ``lead`` is, for starts, how many rounds the host
    led the fold frontier when it began — the quantity the staleness
    bound caps.
    """

    kind: str
    time: float
    round_index: int
    host: int = -1
    lead: int = 0


@dataclass
class AsyncSchedule:
    """A causal, time-ordered event list; a pure function of the seed."""

    num_hosts: int
    start_round: int
    end_round: int
    staleness: int
    events: list[ScheduledEvent] = dc_field(default_factory=list)

    @property
    def max_lead(self) -> int:
        """Largest observed clock lead (<= staleness by construction)."""
        return max((e.lead for e in self.events if e.kind == "start"), default=0)


def build_interleaving(
    num_hosts: int,
    start_round: int,
    end_round: int,
    staleness: int,
    duration: Callable[[int, int], float],
) -> AsyncSchedule:
    """Record the SSP interleaving for rounds ``[start_round, end_round)``.

    A virtual event loop: each idle host starts its next round ``g`` as
    soon as ``g - min(clock) <= staleness`` (``min(clock)`` equals the
    fold frontier — round ``r`` folds at the event that completes it on
    the last host).  ``duration(host, g)`` supplies virtual step lengths;
    ties break by host index, so the event list is deterministic.  The
    returned list is ordered causally: every step appears after exactly
    the folds it observed.
    """
    if num_hosts <= 0:
        raise ValueError(f"num_hosts must be positive, got {num_hosts}")
    if staleness < 0:
        raise ValueError(f"staleness must be >= 0, got {staleness}")
    sched = AsyncSchedule(num_hosts, start_round, end_round, staleness)
    if end_round <= start_round:
        return sched
    events = sched.events
    clock = [start_round] * num_hosts  # completed rounds per host
    running = [False] * num_hosts
    folds_done = start_round
    heap: list[tuple[float, int, int]] = []  # (end_time, host, round)
    ends_count: dict[int, int] = {}

    def try_start(now: float) -> None:
        for h in range(num_hosts):
            if running[h]:
                continue
            g = clock[h]
            if g >= end_round or g - folds_done > staleness:
                continue
            lead = g - folds_done
            events.append(ScheduledEvent("start", now, g, h, lead))
            heapq.heappush(heap, (now + float(duration(h, g)), h, g))
            running[h] = True

    try_start(0.0)
    while heap:
        t, h, g = heapq.heappop(heap)
        events.append(ScheduledEvent("end", t, g, h))
        running[h] = False
        clock[h] = g + 1
        done = ends_count.get(g, 0) + 1
        if done == num_hosts:
            ends_count.pop(g, None)
            folds_done = g + 1
            events.append(ScheduledEvent("fold", t, g))
        else:
            ends_count[g] = done
        try_start(t)
    return sched


# ----------------------------------------------------------------------
# Measured timeline (Chrome trace input)
# ----------------------------------------------------------------------
@dataclass
class AsyncTimeline:
    """Measured-replay timeline of a run, for the Chrome trace.

    ``steps``: ``(host, round, start_s, dur_s)`` compute slices;
    ``inspections``: the same shape, PullModel inspection of the next slot
    following each step; ``folds``: ``(round, time_s, rec_lo, rec_hi)``
    where the record range indexes ``network.phase_records`` emitted since
    the previous fold (wave refresh/recovery phases included);
    ``recoveries``: ``(host, round, start_s, dur_s)`` modeled recovery
    stalls.  Times are absolute across multiple ``train()`` calls of the
    same trainer.
    """

    num_hosts: int
    steps: list = dc_field(default_factory=list)
    inspections: list = dc_field(default_factory=list)
    folds: list = dc_field(default_factory=list)
    recoveries: list = dc_field(default_factory=list)
    makespan_s: float = 0.0


class _RunState:
    """Per-``run()`` buffers: everything folds drain, keyed by round."""

    def __init__(self, trainer: "GraphWord2Vec", start_fold: int) -> None:
        self.folds_done = start_fold
        # field -> round -> {host: (ids, delta_f64, drift_base_f64|None)}
        self.contrib: dict[str, dict[int, dict[int, tuple]]] = {
            name: {} for name in _FIELD_ORDER
        }
        self.lr_of: dict[int, float] = {}
        self.compute_buf: dict[int, np.ndarray] = {}
        self.inspect_buf: dict[int, np.ndarray] = {}
        self.recovery_buf: dict[int, np.ndarray] = {}
        self.base_times: dict[int, list[float]] = {}
        self.slow_times: dict[int, list[float]] = {}
        self.pairs_buf: dict[int, int] = {}
        # (host, round) -> modeled compute seconds, for the measured replay.
        self.measured: dict[tuple[int, int], float] = {}
        # (host, round, seconds) spans for the timeline, in wave order.
        self.inspect_spans: list[tuple[int, int, float]] = []
        self.recovery_spans: list[tuple[int, int, float]] = []
        self.fold_records: dict[int, tuple[int, int]] = {}
        self.rec_cursor = len(trainer.network.phase_records)
        # field -> per row, the buffered (unfolded) captures touching it,
        # and the rows where that count is nonzero: the fold priority
        # (kept at s > 0 only, its one reader).
        self.row_refs: dict[str, np.ndarray] = {}
        self.dirty: dict[str, int] = {name: 0 for name in _FIELD_ORDER}

    def count_dirty(self, fname: str, ids: np.ndarray, num_nodes: int, step: int) -> None:
        """A capture on the strictly ascending ``ids`` is buffered
        (``step=+1``) or folded (``-1``)."""
        refs = self.row_refs.get(fname)
        if refs is None:
            refs = self.row_refs[fname] = np.zeros(num_nodes, dtype=np.int64)
        refs[ids] += step
        edge = 1 if step > 0 else 0  # the count a row reaches as it turns dirty / clean
        self.dirty[fname] += step * int(np.count_nonzero(refs[ids] == edge))

    def round_array(self, table: dict[int, np.ndarray], g: int, H: int) -> np.ndarray:
        arr = table.get(g)
        if arr is None:
            arr = table[g] = np.zeros(H)
        return arr


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class SSPTrainingEngine(TrainingEngine):
    """Stale-synchronous-parallel round driver for :class:`GraphWord2Vec`.

    ``staleness=0`` is the lock-step BSP schedule; ``staleness=s`` lets
    each host run up to ``s`` rounds past the slowest host before blocking.
    ``delay_compensation=λ`` applies :func:`~repro.dgraph.engine.
    compensate_delta` to stale contributions at fold time (Zheng et al.'s
    correction for asynchronous SGD, as a comparator configuration).
    """

    name = "async"

    def __init__(self, staleness: int = 0, delay_compensation: float = 0.0):
        if staleness < 0:
            raise ValueError(f"staleness must be >= 0, got {staleness}")
        if delay_compensation < 0:
            raise ValueError(
                f"delay_compensation must be >= 0, got {delay_compensation}"
            )
        self.staleness = int(staleness)
        self.delay_compensation = float(delay_compensation)
        #: The interleaving of the most recent ``run()`` (replay evidence).
        self.last_schedule: AsyncSchedule | None = None

    # -- driver ---------------------------------------------------------
    def run(
        self,
        trainer: "GraphWord2Vec",
        stop_epoch: int,
        until_round: int | None,
        epoch_callback: Callable[[int, "Word2VecModel"], None] | None,
    ) -> float:
        S = trainer.sync_rounds
        H = trainer.num_hosts
        if trainer.async_timeline is None:
            trainer.async_timeline = AsyncTimeline(num_hosts=H)
        g0 = trainer._completed_epochs * S + trainer._completed_rounds
        g1 = stop_epoch * S
        if until_round is not None:
            g1 = min(g1, until_round)
        if g1 <= g0:
            return 0.0
        sched_seed = trainer._seeds.subtree("async-schedule").seed

        def vdur(host: int, g: int) -> float:
            # Modeled speed factors drive the interleaving; the 1% keyed
            # jitter breaks ties on homogeneous clusters so s>0 schedules
            # are generic — and still a pure function of the seed.
            jitter = float(keyed_rng(sched_seed, host, g).random())
            return trainer._time_factor(g // S, g % S, host) * (1.0 + 0.01 * jitter)

        schedule = build_interleaving(H, g0, g1, self.staleness, vdur)
        self.last_schedule = schedule

        run = _RunState(trainer, g0)
        wave: list[ScheduledEvent] = []
        for ev in schedule.events:
            if ev.kind == "start":
                wave.append(ev)
            elif ev.kind == "fold":
                self._flush_wave(trainer, run, wave)
                wave.clear()
                self._fold_round(trainer, run, ev.round_index, epoch_callback)
        assert not wave, "every started round must fold before the schedule ends"
        return self._replay_measured(trainer, run, schedule)

    # -- wave execution -------------------------------------------------
    def _flush_wave(
        self,
        trainer: "GraphWord2Vec",
        run: _RunState,
        wave: list[ScheduledEvent],
    ) -> None:
        """Execute all steps started since the previous fold.

        No fold happens inside a wave, so mirror state is constant except
        for the hosts' own kernels: steps of distinct hosts commute and
        run as per-host chains under the trainer's executor (hosts run
        concurrently on a cluster; the executor mirrors that on real
        cores).  Everything that touches shared state (work generation,
        refresh phases, accounting) runs serially in wave order, so
        results and metrics are bit-identical under any executor and any
        thread schedule.
        """
        if not wave:
            return
        S = trainer.sync_rounds
        schedule = trainer.fault_schedule
        checker = trainer.sync_checker
        state = trainer._async_state

        # Serial pre-pass: learning rates, crash lookup.
        steps: list[tuple[ScheduledEvent, object]] = []
        for ev in wave:
            e, s = divmod(ev.round_index, S)
            crash = None
            if schedule is not None:
                for cev in schedule.crashes_at(e, s):
                    if cev.host == ev.host:
                        crash = cev
            if ev.round_index not in run.lr_of:
                run.lr_of[ev.round_index] = trainer.params.learning_rate_for_epoch(e)
            steps.append((ev, crash))

        # Generate round work in one batch (shared caches): every slot this
        # wave runs and, under access-set plans, the next slot each step's
        # inspection reads.  Entries stay cached until the step's post-pass.
        cache = trainer._work_cache
        wanted = []
        for ev, _crash in steps:
            e, s = divmod(ev.round_index, S)
            wanted.append((e, s, ev.host))
            nxt = trainer._next_slot(e, s)
            if trainer.plan.requires_access_sets and nxt is not None:
                wanted.append((*nxt, ev.host))
        missing = [key for key in dict.fromkeys(wanted) if key not in cache]
        if missing:
            cache.update(zip(missing, trainer._build_works(missing)))
        works: dict[tuple[int, int], "RoundWork"] = {
            (ev.host, ev.round_index): cache[(*divmod(ev.round_index, S), ev.host)][0]
            for ev, _crash in steps
        }

        # PullModel refresh: rows a live step will access whose master
        # changed in a fold this host's mirror never received.  Empty at
        # s=0 (every access set is covered by the preceding fold's
        # broadcast), so no phase records are emitted there.
        if trainer.plan.requires_access_sets:
            for fname in _FIELD_ORDER:
                stale = state["pending_stale"].get(fname)
                if stale is None:
                    continue
                access: dict[int, list[np.ndarray]] = {}
                for ev, crash in steps:
                    if crash is None:
                        work = works[(ev.host, ev.round_index)]
                        access.setdefault(ev.host, []).append(
                            work.embedding_access if fname == "embedding" else work.output_access
                        )
                need = [_empty_ids()] * trainer.num_hosts
                for host in sorted(access):
                    parts = access[host]
                    ids = parts[0] if len(parts) == 1 else np.unique(np.concatenate(parts))
                    need[host] = ids[stale[host][ids]]
                if any(rows.size for rows in need):
                    self._refresh(trainer, run, fname, need)

        # Staleness audit: the steps start here, their mirrors refreshed.
        if checker is not None:
            for ev, _crash in steps:
                for fname in _FIELD_ORDER:
                    checker.note_async_step(
                        fname, ev.host, ev.round_index, run.folds_done, self.staleness
                    )

        # Execute: batches of crash-free steps as parallel per-host
        # chains, crashed steps serially at their wave position (so a
        # round's recovery phases precede its sync phases).
        batch: list[ScheduledEvent] = []
        for ev, crash in steps:
            if crash is None:
                batch.append(ev)
            else:
                self._run_batch(trainer, run, batch, works)
                batch = []
                self._recover_step(trainer, run, ev.host, ev.round_index, crash)
        self._run_batch(trainer, run, batch, works)

    def _run_batch(
        self,
        trainer: "GraphWord2Vec",
        run: _RunState,
        batch: list[ScheduledEvent],
        works: dict[tuple[int, int], "RoundWork"],
    ) -> None:
        if not batch:
            return
        emb_field = trainer._fields["embedding"]
        out_field = trainer._fields["training"]
        chains: dict[int, list[int]] = {}
        order: list[int] = []
        for ev in batch:
            if ev.host not in chains:
                chains[ev.host] = []
                order.append(ev.host)
            chains[ev.host].append(ev.round_index)
        slots: dict[int, list[tuple]] = {h: [] for h in order}

        def run_chain(host: int) -> None:
            # A host's steps are sequential; each step's delta is its
            # access rows after its kernel minus the same rows gathered
            # just before it, so a round's delta never absorbs another
            # round's writes.  Everything touched here is host-local
            # (replica arrays, their checker shadows, the private slot list).
            for g in chains[host]:
                work = works[(host, g)]
                before = trainer._access_rows(host, work)
                # thread_time = this thread's CPU time: the measurement
                # feeding the timing model stays contention-independent,
                # so reported per-host times do not change just because
                # the simulator itself runs hosts concurrently.
                start = time.thread_time()
                _loss, pairs = work.apply(
                    emb_field.arrays[host],
                    out_field.arrays[host],
                    run.lr_of[g],
                    trainer.params.batch_pairs,
                    compute_loss=trainer.compute_loss,
                )
                measured = time.thread_time() - start
                # Shadow access records for the race sanitizer (no-ops
                # when the loop is not sanitized).  Hosts write disjoint
                # replica arrays, so a clean report here is the
                # parallel-compute invariant.
                note_write(
                    emb_field.arrays[host], work.embedding_access,
                    label=f"embedding[host={host}]",
                )
                note_write(
                    out_field.arrays[host], work.output_access,
                    label=f"training[host={host}]",
                )
                captures = self._capture(trainer, host, work, before)
                # The flush pre-pass generated every slot this wave
                # inspects: the call only *reads* the work cache.
                inspected = self._inspect_next(trainer, host, g)
                slots[host].append((g, measured, pairs, captures, inspected))

        do_all(order, run_chain, executor=trainer.executor)

        # Serial post-pass in wave order: fold buffers, metrics,
        # inspection bookkeeping.
        for ev in batch:
            entry = slots[ev.host].pop(0)
            self._post_step(trainer, run, ev.host, *entry)

    @staticmethod
    def _inspect_next(
        trainer: "GraphWord2Vec", host: int, g: int
    ) -> "tuple[RoundWork, float] | None":
        """PullModel inspection after ``host``'s step ``g``: its next
        slot's work, which the wave's pre-pass generated, with the thread
        time its generation is charged.  ``None`` when the plan needs no
        access sets or training ends with ``g``.  Reads the work cache
        only, so it is safe inside the parallel chain.
        """
        if not trainer.plan.requires_access_sets:
            return None
        nxt = trainer._next_slot(*divmod(g, trainer.sync_rounds))
        if nxt is None:
            return None
        return trainer._work_cache[(*nxt, host)]

    def _post_step(
        self,
        trainer: "GraphWord2Vec",
        run: _RunState,
        host: int,
        g: int,
        measured: float,
        pairs: int,
        captures: list[tuple],
        inspected: "tuple[RoundWork, float] | None",
        lost_s: float | None = None,
    ) -> None:
        """Serial bookkeeping of one executed step.  ``lost_s`` marks a
        crashed-and-replayed step: the modeled compute its doomed attempt
        burned, charged instead of ``measured`` (the replay itself is
        recovery time, and a dead host is no straggler sample)."""
        H = trainer.num_hosts
        e, s = divmod(g, trainer.sync_rounds)
        del trainer._work_cache[(e, s, host)]
        if lost_s is None:
            factor = trainer._time_factor(e, s, host)
            compute_s = measured * factor
            run.base_times.setdefault(g, []).append(
                measured * trainer.host_speed_factors[host]
            )
            run.slow_times.setdefault(g, []).append(compute_s)
        else:
            compute_s = lost_s
        run.round_array(run.compute_buf, g, H)[host] += compute_s
        run.measured[(host, g)] = run.measured.get((host, g), 0.0) + compute_s
        run.pairs_buf[g] = run.pairs_buf.get(g, 0) + pairs
        for fname, capture in zip(_FIELD_ORDER, captures):
            run.contrib[fname].setdefault(g, {})[host] = capture
            if self.staleness:
                run.count_dirty(fname, capture[0], trainer._fields[fname].num_nodes, +1)
        if trainer.plan.requires_access_sets:
            state = trainer._async_state
            if inspected is None:
                state["next_access"][("embedding", host)] = _empty_ids()
                state["next_access"][("training", host)] = _empty_ids()
            else:
                next_work, inspect_s = inspected
                run.round_array(run.inspect_buf, g, H)[host] += inspect_s
                run.inspect_spans.append((host, g, inspect_s))
                state["next_access"][("embedding", host)] = next_work.embedding_access
                state["next_access"][("training", host)] = next_work.output_access
                trainer._peak_access_rows = max(
                    trainer._peak_access_rows,
                    int(next_work.embedding_access.size + next_work.output_access.size),
                )

    def _capture(
        self,
        trainer: "GraphWord2Vec",
        host: int,
        work: "RoundWork",
        before: list[np.ndarray],
    ) -> list[tuple]:
        """The step's deltas, immediately post-kernel.

        Deferred folding: the float64 delta per touched row — the row now
        minus ``before``, the step's own gather of its access rows taken
        just before the kernel — is buffered until the round folds.  With
        delay compensation enabled the float64 pre-kernel rows are kept too
        (drift = canonical-at-fold − rows-before-the-step).  The sync
        checker, when attached, shadows the captured rows: they hold no
        unshipped work.  Host-local arrays only — safe inside the parallel
        chain.
        """
        lam = self.delay_compensation
        checker = trainer.sync_checker
        out = []
        for (fname, ids), old in zip(
            (("embedding", work.embedding_access), ("training", work.output_access)),
            before,
        ):
            field = trainer._fields[fname]
            if not ids.size:
                out.append((ids, np.empty((0, field.dim)), None))
                continue
            delta = np.take(field.arrays[host], ids, axis=0).astype(np.float64)
            if checker is not None:
                checker.note_capture(field, host, ids)
            delta -= old
            out.append((ids, delta, old.astype(np.float64) if lam > 0 else None))
        return out

    def _recover_step(
        self,
        trainer: "GraphWord2Vec",
        run: _RunState,
        host: int,
        g: int,
        crash,
    ) -> None:
        """Fail-stop recovery for one crashed step.

        The trainer's recovery body restores the replica from the
        canonical store and replays the lost chunk; here the replay is
        captured and booked like any other step.
        """
        e, s = divmod(g, trainer.sync_rounds)
        work, before, pairs, lost_s, recovery_s = trainer._recover_host(
            e, s, crash, run.lr_of[g]
        )
        # The rebuilt replica is wholly canonical: nothing is stale, and
        # the host's uncaptured in-round work is what the replay redid.
        for fname in _FIELD_ORDER:
            stale = trainer._async_state["pending_stale"].get(fname)
            if stale is not None:
                stale[host] = False
        captures = self._capture(trainer, host, work, before)
        run.round_array(run.recovery_buf, g, trainer.num_hosts)[host] += recovery_s
        run.recovery_spans.append((host, g, recovery_s))
        self._post_step(
            trainer, run, host, g, 0.0, pairs, captures,
            self._inspect_next(trainer, host, g), lost_s=lost_s,
        )

    def _refresh(
        self,
        trainer: "GraphWord2Vec",
        run: _RunState,
        fname: str,
        need: list[np.ndarray],
    ) -> None:
        """Pull the stale rows ``need[h]`` a wave is about to access
        (PullModel, s>0).

        The fold kernel's request → broadcast half with nothing changed at
        any master — so the plan ships exactly the requested rows — under
        dedicated ``refresh-request:``/``refresh:`` phase names, so the
        report's byte breakdown shows staleness traffic separately.
        """
        H = trainer.num_hosts
        sync = trainer._sync_emb if fname == "embedding" else trainer._sync_out
        stale = trainer._async_state["pending_stale"][fname]
        received = sync.broadcast(
            trainer._fields[fname],
            trainer.plan,
            [_empty_ids()] * H,
            need,
            [trainer._canonical[fname]] * H,
            partial(self._apply_values, trainer, run, fname),
            request_phase=f"refresh-request:{fname}",
            broadcast_phase=f"refresh:{fname}",
        )
        for h, got in enumerate(received):
            stale[h][got] = False

    def _apply_values(
        self,
        trainer: "GraphWord2Vec",
        run: _RunState,
        fname: str,
        host: int,
        ids: np.ndarray,
        vals: np.ndarray,
    ) -> np.ndarray:
        """Land canonical values on a mirror, preserving read-my-writes.

        The row becomes canonical-as-received *plus* the host's buffered
        not-yet-folded deltas on it: the host keeps seeing its own recent
        updates, the next step measures only its own work (against its
        pre-kernel gather), and the buffered deltas fold later untouched.
        With no pending deltas (always at s=0) this is the plain broadcast
        overwrite (``FieldSync.land``), bit for bit.  Returns what it stored.
        """
        field = trainer._fields[fname]
        buffered = run.contrib[fname]
        if buffered:
            adjust = self._pending_adjustment(buffered, host, ids, field.dim)
            if adjust is not None:
                dtype = field.arrays[host].dtype
                vals = (np.asarray(vals, dtype=np.float64) + adjust).astype(dtype)
        return field.land(host, ids, vals)

    @staticmethod
    def _pending_adjustment(
        buffered: dict[int, dict[int, tuple]], host: int, ids: np.ndarray, dim: int
    ) -> np.ndarray | None:
        """Sum of ``host``'s buffered unfolded deltas restricted to ``ids``.

        ``None`` when no buffered round touches any of the rows (the
        overwhelmingly common case, and always at s=0).  Rounds are
        summed in ascending order for determinism.
        """
        if not ids.size:
            return None
        total: np.ndarray | None = None
        for g in sorted(buffered):
            entry = buffered[g].get(host)
            if entry is None:
                continue
            cids, delta, _drift = entry
            if not cids.size:
                continue
            pos = np.searchsorted(cids, ids)
            pos = np.clip(pos, 0, cids.size - 1)
            hit = cids[pos] == ids
            if not hit.any():
                continue
            if total is None:
                total = np.zeros((len(ids), dim))
            total[hit] += delta[pos[hit]]
        return total

    def _fold_round(
        self,
        trainer: "GraphWord2Vec",
        run: _RunState,
        g: int,
        epoch_callback,
    ) -> None:
        """Fold global round ``g``: metrics, gluon sync, round bookkeeping.

        The sync frontier only ever advances to a round every host has
        finished, so folds fire in global-round order; each one is a round
        barrier's accounting + sync (Algorithm 1, line 10).
        """
        S = trainer.sync_rounds
        e, s = divmod(g, S)
        metrics = trainer.metrics
        network = trainer.network
        H = trainer.num_hosts

        metrics.begin_round()
        for table, record in (
            (run.compute_buf, metrics.record_compute),
            (run.inspect_buf, metrics.record_inspection),
            (run.recovery_buf, metrics.record_recovery),
        ):
            buf = table.pop(g, None)
            if buf is not None:
                for h in range(H):
                    if buf[h]:
                        record(h, float(buf[h]))
        base = run.base_times.pop(g, [])
        slow = run.slow_times.pop(g, [])
        report = trainer.fault_report
        if report is not None and slow and slow != base:
            report.straggler_rounds += 1
            report.straggler_extra_s += max(slow) - max(base)

        # Priority-schedule the fields: dirtiest mirror state syncs first
        # (galois worklist; the metric is "rows still clean", so the
        # field with more dirty rows pops first).  At s=0 the declaration
        # order is kept: the lock-step schedule syncs embedding before
        # training, and reordering would permute the fault injector's
        # draw sequence, changing which faults a seed's BSP run sees.
        if self.staleness == 0:
            order = list(_FIELD_ORDER)
        else:
            M = max(trainer._fields[name].num_nodes for name in _FIELD_ORDER)
            worklist = OrderedByIntegerMetric(
                lambda fname: M - run.dirty[fname]
            )
            for fname in _FIELD_ORDER:
                worklist.push(fname)
            order = [worklist.pop() for _ in _FIELD_ORDER]

        lr = run.lr_of[g]
        for fname in order:
            self._fold_field(trainer, run, fname, g, lr)
        metrics.end_round()
        run.fold_records[g] = (run.rec_cursor, len(network.phase_records))
        run.rec_cursor = len(network.phase_records)

        if trainer.sanitize:
            findings = trainer.sanitize_findings
            if findings:
                raise SanitizeError(findings, context=f"epoch {e} round {s}")

        run.folds_done = g + 1
        trainer._partial_pairs += run.pairs_buf.pop(g, 0)
        trainer._completed_rounds = s + 1
        if s + 1 == S:
            trainer._roll_epoch(e, epoch_callback)

    def _fold_field(
        self,
        trainer: "GraphWord2Vec",
        run: _RunState,
        fname: str,
        g: int,
        lr: float,
    ) -> None:
        """Fold round ``g``'s buffered deltas for one field into canon.

        Delay compensation, then the shared kernel
        (:meth:`~repro.gluon.sync.GluonSynchronizer.fold`) with this
        engine's destination, then the staleness ledgers.  The kernel
        reduces into the canonical store instead of master replica rows —
        under SSP a master's replica also carries its own not-yet-folded
        local work — and lands values through :meth:`_apply_values`
        (read-my-writes).  ``fold_offset`` is the global round, so the
        inductive fold order rotates and no host's shard is permanently
        favored by the combiner.  At s=0 no delta is pending at a fold and
        replica rows equal canon on every touched row, so a lock-step
        caller measuring ``current − base`` deltas feeds the kernel the
        same contributions and destination values (the oracle in
        ``tests/test_async_engine.py``).
        """
        field = trainer._fields[fname]
        sync = trainer._sync_emb if fname == "embedding" else trainer._sync_out
        plan = trainer.plan
        canon = trainer._canonical[fname]
        state = trainer._async_state
        H = trainer.num_hosts
        lam = self.delay_compensation

        # Every host finished round g, so every host has an entry.
        contribs = run.contrib[fname].pop(g)
        touched: list[np.ndarray] = []
        deltas: list[np.ndarray] = []
        for h in range(H):
            ids, delta, drift_base = contribs[h]
            if self.staleness:
                run.count_dirty(fname, ids, field.num_nodes, -1)
            if lam > 0 and ids.size:
                # Drift = how far canon moved since this delta was
                # captured; zero exactly when the contribution is fresh.
                drift = canon[ids].astype(np.float64) - drift_base
                delta = compensate_delta(delta, drift, lam, lr)
            touched.append(ids)
            deltas.append(delta)

        accessed_next = None
        if plan.requires_access_sets:
            accessed_next = [
                state["next_access"].get((fname, h), _empty_ids()) for h in range(H)
            ]
        result = sync.fold(
            field, touched, deltas, trainer.combiner, plan,
            canonical=[canon] * H,
            land=partial(self._apply_values, trainer, run, fname),
            accessed_next=accessed_next, fold_offset=g,
        )

        # PullModel staleness ledger, one row mark per host: rows whose
        # canon changed this fold that a mirror did not receive are now
        # pending-stale for it; rows it did receive are fresh again.
        # Per-master unions are ascending over disjoint ascending blocks,
        # so the concatenation is sorted and a host's own block one slice.
        if plan.requires_access_sets:
            stale = state["pending_stale"].get(fname)
            if stale is None:
                stale = state["pending_stale"][fname] = np.zeros((H, field.num_nodes), dtype=bool)
            changed_all = np.concatenate(result.changed_per_master)
            cut = np.searchsorted(changed_all, sync.bounds).tolist()
            for h in range(H):
                stale[h][changed_all[:cut[h]]] = True
                stale[h][changed_all[cut[h + 1]:]] = True
                stale[h][result.received_per_host[h]] = False

        if trainer.sync_checker is not None:
            trainer.sync_checker.note_async_fold(fname, g)

    def _replay_measured(
        self,
        trainer: "GraphWord2Vec",
        run: _RunState,
        schedule: AsyncSchedule,
    ) -> float:
        """Replay the interleaving with measured durations -> makespan.

        The schedule's virtual durations fixed the *order* of events; the
        modeled wall-clock replays that order with the actual modeled
        per-step compute times: a host starts its next round as soon as
        its previous one ends, except that a fold is a causal barrier —
        the schedule only starts a round once the staleness bound allows
        it, and the fold it waited on must have happened.  At s=0 every
        round starts at the previous fold and ends measured later, so the
        makespan collapses to the sum over rounds of the slowest host:
        the barrier makespan, wait bucket included.
        """
        H = trainer.num_hosts
        avail = [0.0] * H
        start_m: dict[tuple[int, int], float] = {}
        end_m: dict[tuple[int, int], float] = {}
        ends_of: dict[int, list[float]] = {}
        last_fold = 0.0
        offset = trainer._async_makespan_s
        timeline = trainer.async_timeline
        for ev in schedule.events:
            h, g = ev.host, ev.round_index
            if ev.kind == "start":
                start_m[(h, g)] = max(avail[h], last_fold)
            elif ev.kind == "end":
                dur = run.measured.get((h, g), 0.0)
                end = start_m[(h, g)] + dur
                end_m[(h, g)] = end
                avail[h] = end
                ends_of.setdefault(g, []).append(end)
                timeline.steps.append((h, g, offset + start_m[(h, g)], dur))
            else:  # fold
                fold_t = max(max(ends_of.pop(g)), last_fold)
                last_fold = fold_t
                rec_lo, rec_hi = run.fold_records[g]
                timeline.folds.append((g, offset + fold_t, rec_lo, rec_hi))
        # Inspection and recovery follow the step they belong to.
        for spans, out in (
            (run.inspect_spans, timeline.inspections),
            (run.recovery_spans, timeline.recoveries),
        ):
            for host, g, dur in spans:
                out.append((host, g, offset + end_m[(host, g)], dur))
        makespan = max(max(avail), last_fold)
        timeline.makespan_s = offset + makespan
        return makespan
