"""Property battery for the one training engine (bounded-staleness SSP).

The contract under test (see ``docs/internals.md``):

- **Lock-step**: the ``s=0`` schedule *is* BSP — bit-identical (model
  bits, pairs, bytes per phase, message counts) to Algorithm 1 written
  out as a lock-step loop over ``lockstep_sync`` (the oracle below),
  under every communication plan and executor width.
- **Determinism**: ``SSP(s>0)`` is a pure function of the seed (the
  interleaving is recorded and replayed), so same-seed runs agree
  bitwise and checkpoints resume exactly.
- **Bound**: no host ever starts a round more than ``s`` folds ahead of
  the sync frontier; ``GluonSyncChecker.note_async_step`` turns any
  violation into a sanitizer finding.
"""

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from repro.analysis.runtime import GluonSyncChecker, SanitizeError
from repro.cluster.faults import FaultConfig
from repro.cluster.network import SCALED_DEFAULT
from repro.dgraph.async_engine import SSPTrainingEngine, build_interleaving
from repro.dgraph.engine import TrainingEngine, compensate_delta, resolve_training_engine
from repro.gluon.bitvector import BitVector
from repro.gluon.comm import SimulatedNetwork
from repro.gluon.proxies import master_block_slice
from repro.gluon.sync import FieldSync, GluonSynchronizer
from repro.text.synthetic import SyntheticCorpusSpec, generate_corpus
from repro.w2v.distributed import GraphWord2Vec, default_sync_rounds
from repro.w2v.model import Word2VecModel
from repro.w2v.params import Word2VecParams
from repro.w2v.steps import RoundWork
from tests.test_cluster import slow_hosts
from tests.test_gluon_fold_oracle import lockstep_sync

SPEC = SyntheticCorpusSpec(
    num_tokens=1500, pairs_per_family=3, filler_vocab=60, questions_per_family=3
)
PARAMS = Word2VecParams(dim=8, epochs=1, negatives=3, window=3, subsample_threshold=1e-2)
HOSTS = 3
SEED = 5

#: The fault schedules the determinism property is pinned against
#: (schedules are generated from the trainer's seed tree, so a key here
#: names one exact schedule).
FAULTS = {
    "none": None,
    "transient": FaultConfig(drop_prob=0.05, corrupt_prob=0.02, straggler_prob=0.3),
    "crash": FaultConfig(crash_prob=0.1, max_crashes=2, straggler_prob=0.2),
}

_corpus = None


def corpus():
    global _corpus
    if _corpus is None:
        _corpus = generate_corpus(SPEC, seed=1)[0]
    return _corpus


def make(plan="opt", fault_key="none", workers=None, **kw):
    return GraphWord2Vec(
        corpus(),
        PARAMS,
        num_hosts=HOSTS,
        seed=SEED,
        plan=plan,
        faults=FAULTS[fault_key],
        workers=workers,
        **kw,
    )


def fingerprint(result):
    """Everything the determinism property compares bitwise.

    Measured timing floats are deliberately excluded — they vary run to
    run; every *modeled* quantity (values, bytes, messages, counters)
    must agree exactly.
    """
    report = result.report
    faults = report.faults
    return (
        result.model,
        report.comm_bytes,
        report.comm_messages,
        dict(report.bytes_by_phase),
        report.pairs_processed,
        result.epoch_pairs,
        None
        if faults is None
        else (
            faults.crashes,
            faults.straggler_rounds,
            faults.recovery_bytes,
            faults.checkpoint_restore_bytes,
            faults.resent_bytes,
            faults.nack_bytes,
        ),
    )


def lockstep_oracle(plan):
    """Algorithm 1 written out lock-step over an *untrained* trainer's own
    fields, synchronizers and seed-pure work generation: every host applies
    its round and flags what it touched, then ``lockstep_sync`` folds
    each field, deltas measured against its bases.  Fault-free.  Returns
    ``(model, pairs, network)``."""
    t = make(plan=plan)
    fields = [(t._fields["embedding"], t._sync_emb), (t._fields["training"], t._sync_out)]
    bases = {field.name: [a.copy() for a in field.arrays] for field, _ in fields}
    slots = [(e, r) for e in range(PARAMS.epochs) for r in range(t.sync_rounds)]
    pairs = 0

    def work_of(slot):
        return [work for work, _s in t._build_works([(*slot, h) for h in range(HOSTS)])]

    for fold, slot in enumerate(slots):
        works = work_of(slot)
        nxt = work_of(slots[fold + 1]) if fold + 1 < len(slots) else None
        lr = PARAMS.learning_rate_for_epoch(slot[0])
        for h, work in enumerate(works):
            replicas = (field.arrays[h] for field, _ in fields)
            pairs += work.apply(*replicas, lr, PARAMS.batch_pairs)[1]
        for (field, sync), rows in zip(fields, ("embedding_access", "output_access")):
            flags = [BitVector(field.num_nodes) for _ in range(HOSTS)]
            for h, work in enumerate(works):
                flags[h].set_many(getattr(work, rows))
            accessed = None
            if t.plan.requires_access_sets:  # PullModel: the next slot's rows
                empty = np.empty(0, dtype=np.int64)
                accessed = [getattr(w, rows) for w in nxt] if nxt else [empty] * HOSTS
            lockstep_sync(
                sync, field, bases[field.name], flags, t.combiner, t.plan,
                accessed_next=accessed, fold_offset=fold,
            )
    blocks = [
        np.concatenate(
            [field.arrays[m][master_block_slice(sync.bounds, m)] for m in range(HOSTS)]
        )
        for field, sync in fields
    ]
    return Word2VecModel(*blocks), pairs, t.network


# ----------------------------------------------------------------------
# The engine seam
# ----------------------------------------------------------------------
class TestEngineSeam:
    def test_resolution(self):
        # One engine: "bsp" names its staleness-0 schedule, not a class.
        bsp = resolve_training_engine("bsp")
        assert type(bsp) is SSPTrainingEngine and bsp.staleness == 0
        assert TrainingEngine.__subclasses__() == [SSPTrainingEngine]
        eng = resolve_training_engine("async", staleness=3, delay_compensation=0.5)
        assert isinstance(eng, SSPTrainingEngine)
        assert eng.staleness == 3
        assert eng.delay_compensation == 0.5
        # "ssp" is an alias; instances pass through.
        assert isinstance(resolve_training_engine("ssp"), SSPTrainingEngine)
        assert resolve_training_engine(eng) is eng

    def test_bsp_rejects_async_knobs(self):
        with pytest.raises(ValueError, match="staleness"):
            resolve_training_engine("bsp", staleness=1)
        with pytest.raises(ValueError, match="delay_compensation"):
            resolve_training_engine("bsp", delay_compensation=0.1)
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_training_engine("bulk")

    def test_compensate_delta(self):
        delta = np.array([[0.5, -0.25]])
        drift = np.array([[0.1, 0.2]])
        lam, lr = 0.4, 0.05
        out = compensate_delta(delta, drift, lam, lr)
        expected = delta - (lam / lr) * delta * delta * drift
        np.testing.assert_array_equal(out, expected)
        # λ=0 is the exact identity (bit-parity path).
        assert compensate_delta(delta, drift, 0.0, lr) is delta

    def test_delay_compensation_changes_stale_runs_only(self):
        # Compensation corrects drift, and only a stale contribution has
        # drift: under the same stragglers it is inert at s=0 and acts at s=2.
        stragglers = FaultConfig(straggler_prob=0.4, straggler_factor=(4.0, 6.0))

        def model(staleness, dc):
            return GraphWord2Vec(
                corpus(), PARAMS, num_hosts=HOSTS, seed=SEED, sync_rounds_per_epoch=4,
                faults=stragglers, engine="async", staleness=staleness, delay_compensation=dc,
            ).train().model

        assert model(0, 0.0) == model(0, 0.5)
        assert model(2, 0.0) != model(2, 0.5)


# ----------------------------------------------------------------------
# The recorded interleaving
# ----------------------------------------------------------------------
class TestInterleaving:
    @settings(max_examples=50, deadline=None)
    @given(
        hosts=st.integers(min_value=1, max_value=5),
        rounds=st.integers(min_value=1, max_value=12),
        staleness=st.integers(min_value=0, max_value=4),
        dur_seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_bound_and_completeness(self, hosts, rounds, staleness, dur_seed):
        rng = np.random.default_rng(dur_seed)
        durs = {
            (h, g): float(rng.uniform(0.5, 2.0))
            for h in range(hosts)
            for g in range(rounds)
        }
        sched = build_interleaving(
            hosts, 0, rounds, staleness, lambda h, g: durs[(h, g)]
        )
        # Every host starts and ends every round exactly once; every
        # round folds exactly once, in order.
        starts = [e for e in sched.events if e.kind == "start"]
        folds = [e for e in sched.events if e.kind == "fold"]
        assert len(starts) == hosts * rounds
        assert [f.round_index for f in folds] == list(range(rounds))
        # The staleness bound holds at every start event.
        assert sched.max_lead <= staleness
        # A round's fold happens only after all its end events.
        seen_ends: dict[int, int] = {}
        for e in sched.events:
            if e.kind == "end":
                seen_ends[e.round_index] = seen_ends.get(e.round_index, 0) + 1
            elif e.kind == "fold":
                assert seen_ends.get(e.round_index) == hosts

    def test_zero_staleness_is_lockstep(self):
        sched = build_interleaving(3, 0, 4, 0, lambda h, g: 1.0 + 0.1 * h)
        assert sched.max_lead == 0
        # With s=0 no round g+1 event may precede fold g.
        folds_done = 0
        for e in sched.events:
            if e.kind == "start":
                assert e.round_index == folds_done
            elif e.kind == "fold":
                folds_done += 1


# ----------------------------------------------------------------------
# Lock-step: the s=0 schedule == the BSP oracle, bitwise
# ----------------------------------------------------------------------
def test_ssp_zero_is_bitwise_bsp():
    for plan in ("opt", "naive", "pull"):
        model, pairs, network = lockstep_oracle(plan)
        for workers in (1, 4):
            trainer = make(plan=plan, workers=workers, engine="async", staleness=0)
            result = trainer.train()
            assert result.model == model
            assert result.report.pairs_processed == pairs
            assert trainer.network.total_bytes == network.total_bytes
            assert trainer.network.total_messages == network.total_messages
            assert trainer.network.stats.bytes_by_phase == network.stats.bytes_by_phase


# ----------------------------------------------------------------------
# One fold kernel under every schedule
# ----------------------------------------------------------------------
@pytest.mark.parametrize("plan", ["opt", "pull"])
@pytest.mark.parametrize(
    "engine_kw",
    [
        None,  # the lock-step oracle: lockstep_sync fronts the same kernel
        {"engine": "async", "staleness": 0},
        {"engine": "async", "staleness": 2},
    ],
    ids=["bsp", "ssp0", "ssp2"],
)
def test_every_fold_goes_through_the_one_kernel(monkeypatch, plan, engine_kw):
    spans = []  # per kernel call: the phase-record index range it emitted
    kernel = GluonSynchronizer.fold

    def counted(self, *args, **kwargs):
        lo = len(self.network.phase_records)
        result = kernel(self, *args, **kwargs)
        spans.append(range(lo, len(self.network.phase_records)))
        return result

    monkeypatch.setattr(GluonSynchronizer, "fold", counted)
    if engine_kw is None:
        network = lockstep_oracle(plan)[2]
    else:
        trainer = make(plan=plan, **engine_kw)
        trainer.train()
        network = trainer.network

    # One kernel call per field per fold ...
    assert len(spans) == 2 * make().sync_rounds * PARAMS.epochs
    # ... and no reduce/broadcast phase anywhere else.
    inside = {i for span in spans for i in span}
    kinds = [r.name.split(":")[0] for r in network.phase_records]
    assert {kinds.count("reduce"), kinds.count("broadcast")} == {len(spans)}
    assert [
        kind
        for i, kind in enumerate(kinds)
        if i not in inside and kind in ("reduce", "request", "broadcast")
    ] == []


def test_fold_python_work_is_linear_in_hosts(monkeypatch):
    """The fold kernel's algorithmic property, pinned by count, not clock:
    at H = 32 a fold combines every master's rows in one state with exactly
    H ``accumulate`` calls (one per source, empty ones included — not one
    per (master, source)),
    accumulates each contribution row exactly once, and lands at most twice
    per host (its own folded rows, then everything it received)."""
    H = 32
    trainer = GraphWord2Vec(
        corpus(), PARAMS, num_hosts=H, seed=SEED, sync_rounds_per_epoch=2
    )
    folds = []  # per kernel call: what it created, accumulated and landed
    kernel = GluonSynchronizer.fold
    combiner_cls = type(trainer.combiner)
    state_cls = type(trainer.combiner.create(1, PARAMS.dim))
    create, accumulate, land = combiner_cls.create, state_cls.accumulate, FieldSync.land

    def counted_fold(self, field, touched, *args, **kwargs):
        folds.append({"rows": sum(len(t) for t in touched), "creates": 0,
                      "accumulated": [], "lands": [0] * H})
        return kernel(self, field, touched, *args, **kwargs)

    def counted_create(self, num_rows, dim):
        folds[-1]["creates"] += 1
        return create(self, num_rows, dim)

    def counted_accumulate(self, rows, deltas):
        folds[-1]["accumulated"].append(len(rows))
        return accumulate(self, rows, deltas)

    def counted_land(self, host, ids, vals):
        folds[-1]["lands"][host] += 1
        return land(self, host, ids, vals)

    monkeypatch.setattr(GluonSynchronizer, "fold", counted_fold)
    monkeypatch.setattr(combiner_cls, "create", counted_create)
    monkeypatch.setattr(state_cls, "accumulate", counted_accumulate)
    monkeypatch.setattr(FieldSync, "land", counted_land)
    trainer.train()

    assert len(folds) == 2 * trainer.sync_rounds * PARAMS.epochs
    for fold in folds:
        assert fold["creates"] == 1
        assert len(fold["accumulated"]) == H
        assert sum(fold["accumulated"]) == fold["rows"]
        assert max(fold["lands"]) <= 2
    # The workload does conflict: some row is touched by several hosts.
    assert max(sum(n > 0 for n in fold["accumulated"]) for fold in folds) > 1


#: Crashes and transient message faults in one schedule.
CRASH_AND_TRANSIENT = FaultConfig(
    crash_prob=0.15, max_crashes=2, drop_prob=0.05, corrupt_prob=0.02
)


@pytest.mark.parametrize("plan, staleness", [("opt", 0), ("pull", 2)])
def test_every_phase_is_one_exchange(monkeypatch, plan, staleness):
    """Folds, broadcasts, refreshes and crash restores charge each phase
    with one ``exchange`` call and never fall back to per-message sends."""
    sends, exchanged = [], []
    real_send, real_exchange = SimulatedNetwork.send, SimulatedNetwork.exchange

    def counted_send(self, *args, **kwargs):
        sends.append(args)
        return real_send(self, *args, **kwargs)

    def counted_exchange(self, *args, **kwargs):
        exchanged.append(self._active)
        return real_exchange(self, *args, **kwargs)

    monkeypatch.setattr(SimulatedNetwork, "send", counted_send)
    monkeypatch.setattr(SimulatedNetwork, "exchange", counted_exchange)
    trainer = GraphWord2Vec(
        corpus(), PARAMS, num_hosts=HOSTS, seed=SEED, plan=plan,
        faults=CRASH_AND_TRANSIENT, engine="async", staleness=staleness,
    )
    trainer.train()
    records = trainer.network.phase_records
    kinds = {r.name.split(":")[0] for r in records}
    assert {"reduce", "broadcast", "recovery"} <= kinds
    assert sends == []
    assert [sum(e is r for e in exchanged) for r in records] == [1] * len(records)


class TestSanitizedTwin:
    """The sync checker only reads replicas: a sanitized run equals its
    plain twin bit for bit and, with its shadows rebased at every landing,
    capture and crash restore, reports nothing — also across crashes,
    where a restore that left a shadow stale would show as dropped
    writes."""

    @pytest.mark.parametrize("plan, staleness", [("opt", 0), ("pull", 2)])
    def test_sanitized_twin_is_bit_identical(self, plan, staleness):
        runs = []
        for sanitize in (False, True):
            trainer = GraphWord2Vec(
                corpus(), PARAMS, num_hosts=HOSTS, seed=SEED, plan=plan,
                faults=CRASH_AND_TRANSIENT, engine="async", staleness=staleness,
                sanitize=sanitize,
            )
            result = trainer.train()
            runs.append((trainer, result))
        (plain, plain_result), (audited, audited_result) = runs
        assert plain.sync_checker is None and audited.sync_checker is not None
        assert audited.sanitize_findings == []
        assert plain_result.report.faults.crashes > 0
        assert fingerprint(plain_result) == fingerprint(audited_result)
        for name in ("embedding", "training"):
            assert plain._canonical[name].tobytes() == audited._canonical[name].tobytes()
            for a, b in zip(plain._fields[name].arrays, audited._fields[name].arrays):
                assert a.tobytes() == b.tobytes()
        assert plain.network.stats == audited.network.stats
        # Fault counters (the measured replay/straggler seconds excluded).
        counters = [
            "crashes", "recovery_bytes", "checkpoint_restore_bytes", "messages_dropped",
            "messages_corrupted", "retransmissions", "escalations", "resent_bytes",
            "nack_bytes", "backoff_s", "detect_s", "restore_s",
        ]
        assert [getattr(plain.fault_report, c) for c in counters] == [
            getattr(audited.fault_report, c) for c in counters
        ]


# ----------------------------------------------------------------------
# Determinism and the staleness bound at s > 0
# ----------------------------------------------------------------------
@settings(max_examples=10, deadline=None)
@given(
    plan=st.sampled_from(["opt", "pull"]),
    fault_key=st.sampled_from(sorted(FAULTS)),
    staleness=st.sampled_from([1, 2, 4]),
    workers=st.sampled_from([1, 4]),
)
def test_ssp_seed_determinism(plan, fault_key, staleness, workers):
    options = dict(plan=plan, fault_key=fault_key, engine="async", staleness=staleness)
    a = make(workers=workers, **options).train()
    b = make(workers=1, **options).train()
    assert fingerprint(a) == fingerprint(b)


@pytest.mark.parametrize("staleness", [0, 2])
@pytest.mark.parametrize("plan", ["opt", "pull"])
def test_each_round_work_is_built_once(monkeypatch, plan, staleness):
    # PullModel inspection needs a slot's work one sync early, and at s>0
    # a wave may hold a host's rounds g and g+1 together: whichever pass
    # generates a slot first, nobody generates it again or strands a copy.
    import repro.w2v.distributed as distributed

    builds = []
    real = distributed.build_round_works
    monkeypatch.setattr(
        distributed,
        "build_round_works",
        lambda slots, **kwargs: builds.extend(slots) or real(slots, **kwargs),
    )
    trainer = GraphWord2Vec(
        corpus(),
        PARAMS.with_(epochs=2),
        num_hosts=HOSTS,
        seed=SEED,
        plan=plan,
        faults=FaultConfig(straggler_prob=0.5, straggler_factor=(4.0, 4.0)),
        engine="async",
        staleness=staleness,
    )
    trainer.train()
    assert len(builds) == HOSTS * trainer.sync_rounds * 2
    assert trainer._work_cache == {}


class TestStalenessBound:
    def test_sanitized_runs_stay_clean(self):
        # The engine's scheduler respects the bound; the checker would
        # abort the run otherwise (SanitizeError at the fold).  Under
        # PullModel at s>0 a mirror row may go stale while its host runs
        # ahead — the SSP contract, not a stale read.
        for plan in ("opt", "pull"):
            for s in (0, 1, 2, 4):
                trainer = make(plan=plan, engine="async", staleness=s, sanitize=True)
                trainer.train()
                assert trainer.sanitize_findings == []
                assert trainer.sync_checker.rounds_observed == 2 * trainer.sync_rounds

    def test_checker_flags_violations(self):
        checker = GluonSyncChecker()
        # Lead 3 with bound 2 -> staleness-exceeded.
        checker.note_async_step("embedding", 0, 3, 0, 2)
        kinds = [f.kind for f in checker.findings]
        assert "staleness-exceeded" in kinds
        # Rounds must move forward per (field, host).
        checker = GluonSyncChecker()
        checker.note_async_step("embedding", 0, 1, 0, 4)
        checker.note_async_step("embedding", 0, 0, 0, 4)
        assert [f.kind for f in checker.findings] == ["clock-skew"]
        # Folds advance one at a time once seeded.
        checker = GluonSyncChecker()
        checker.note_async_fold("embedding", 0)
        checker.note_async_fold("embedding", 2)
        assert [f.kind for f in checker.findings] == ["fold-skipped"]


class TestSanitizedFolds:
    """The checker's hooks sit on the fold kernel, so every schedule is
    audited — not only lock-step callers."""

    @pytest.mark.parametrize("staleness", [0, 2])
    def test_write_outside_the_access_set_is_a_dropped_write(self, monkeypatch, staleness):
        real = RoundWork.apply
        leaked = []

        def leaky(self, embedding, output, *args, **kwargs):
            # One row the work never declared: capture will not ship it.
            row = np.setdiff1d(np.arange(len(embedding)), self.embedding_access)[0]
            embedding[row] += 1.0
            leaked.append(int(row))
            return real(self, embedding, output, *args, **kwargs)

        monkeypatch.setattr(RoundWork, "apply", leaky)
        trainer = make(engine="async", staleness=staleness, sanitize=True)
        with pytest.raises(SanitizeError, match="dropped-write") as raised:
            trainer.train()
        dropped = [f for f in raised.value.findings if f.kind == "dropped-write"]
        assert {f.details["field"] for f in dropped} == {"embedding"}
        assert all(set(f.details["rows"]) <= set(leaked) for f in dropped)
        assert trainer.metrics.num_rounds == 1  # raised at the first fold

    def test_divergence_is_reported_at_the_fold_that_produced_it(self):
        # SUM of every host's update at a blow-up rate (Fig 6), hosts
        # running up to two rounds ahead.  workers=1: np.errstate is per
        # thread, pool threads would warn.
        options = dict(combiner="sum", workers=1, engine="async", staleness=2)
        params = PARAMS.with_(learning_rate=40.0, epochs=4)
        with np.errstate(all="ignore"):
            trainer = GraphWord2Vec(
                corpus(), params, num_hosts=HOSTS, seed=SEED, sanitize=True, **options
            )
            with pytest.raises(SanitizeError, match="non-finite") as raised:
                trainer.train()
        finding = next(f for f in raised.value.findings if f.kind == "non-finite")
        assert finding.details["round"] == trainer.metrics.num_rounds - 1
        assert trainer.metrics.num_rounds < 4 * trainer.sync_rounds
        assert len(finding.details["rows"]) > 0


# ----------------------------------------------------------------------
# Checkpointing mid-run
# ----------------------------------------------------------------------
class TestAsyncCheckpointing:
    @pytest.mark.parametrize("staleness", [0, 2])
    @pytest.mark.parametrize("plan", ["opt", "pull"])
    def test_resume_replays_bit_identically(self, plan, staleness):
        # Pausing drains the pipeline to the fold frontier, so the
        # canonical checkpoint captures the whole state; resuming from
        # the blob must match the same trainer continuing past the
        # pause, bitwise, and be deterministic across resumes.
        t1 = make(plan=plan, engine="async", staleness=staleness)
        t1.train(until_round=4)
        blob = t1.save_checkpoint()
        continued = t1.train().model
        t2 = make(plan=plan, engine="async", staleness=staleness)
        t2.load_checkpoint(blob)
        resumed = t2.train().model
        assert resumed == continued
        t3 = make(plan=plan, engine="async", staleness=staleness)
        t3.load_checkpoint(blob)
        assert t3.train().model == resumed

    def test_s0_resume_matches_uninterrupted_bsp(self):
        # At s=0 the drain barrier coincides with the round barrier, so a
        # paused-and-resumed run equals the uninterrupted lock-step loop
        # exactly.
        t1 = make(engine="async", staleness=0)
        t1.train(until_round=3)
        t2 = make(engine="async", staleness=0)
        t2.load_checkpoint(t1.save_checkpoint())
        assert t2.train().model == lockstep_oracle("opt")[0]

    def test_checkpoints_are_engine_scoped(self):
        t1 = make(engine="async", staleness=2)
        t1.train(until_round=2)
        blob = t1.save_checkpoint()
        with pytest.raises(ValueError, match="different training configuration"):
            make().load_checkpoint(blob)
        # s=0 is BSP, checkpoints included: the fingerprints are
        # interchangeable in both directions.
        t2 = make(engine="async", staleness=0)
        t2.train(until_round=2)
        make().load_checkpoint(t2.save_checkpoint())


# ----------------------------------------------------------------------
# The wait bucket
# ----------------------------------------------------------------------
class TestWaitAccounting:
    def test_bsp_wait_is_barrier_slack(self):
        trainer = GraphWord2Vec(
            corpus(),
            PARAMS,
            num_hosts=HOSTS,
            seed=SEED,
            faults=slow_hosts([1.0, 3.0, 1.5], PARAMS.epochs, default_sync_rounds(HOSTS)),
        )
        b = trainer.train().report.breakdown
        compute = trainer.metrics.table("compute")
        assert b.wait_s > 0
        assert b.compute_s == pytest.approx(sum(r.mean() for r in compute))
        assert b.compute_s + b.wait_s == pytest.approx(sum(r.max() for r in compute))

    def test_ssp_slack_shrinks_under_stragglers(self):
        # Bounded staleness exists to absorb straggler slack: under a
        # persistent straggler schedule SSP(s=2) must wait strictly less
        # than BSP on the same workload.
        faults = FaultConfig(straggler_prob=0.6, straggler_factor=(4.0, 4.0))
        bsp = GraphWord2Vec(
            corpus(), PARAMS, num_hosts=HOSTS, seed=SEED, faults=faults
        ).train()
        ssp = GraphWord2Vec(
            corpus(),
            PARAMS,
            num_hosts=HOSTS,
            seed=SEED,
            faults=faults,
            engine="async",
            staleness=2,
        ).train()
        assert ssp.report.breakdown.wait_s < bsp.report.breakdown.wait_s

    def test_async_timeline_is_exposed(self):
        trainer = make(engine="async", staleness=1)
        trainer.train()
        timeline = trainer.async_timeline
        assert timeline is not None
        assert len(timeline.steps) == HOSTS * trainer.sync_rounds * PARAMS.epochs
        assert len(timeline.folds) == trainer.sync_rounds * PARAMS.epochs
        last_step_end = max(start + dur for _, _, start, dur in timeline.steps)
        assert timeline.makespan_s >= last_step_end > 0
        # The Chrome trace renders it without error and covers all rows.
        from repro.cluster.trace import build_chrome_trace

        events = build_chrome_trace(
            timeline, trainer.network.phase_records, SCALED_DEFAULT
        )
        tids = {e["tid"] for e in events}
        assert set(range(HOSTS + 1)) <= tids
        assert any(e.get("cat") == "communication" for e in events)
