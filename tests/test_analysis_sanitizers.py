"""Runtime sanitizers: the do_all race detector and the Gluon sync
checker each catch their known-bad scenario and stay silent on known-good
runs — including full GraphWord2Vec training, which must additionally be
bit-identical with sanitizers on."""

import numpy as np
import pytest

from repro.analysis.runtime import (
    DoAllRaceSanitizer,
    GluonSyncChecker,
    SanitizedExecutor,
    SanitizeError,
    SanitizeFinding,
    note_read,
    note_write,
    sanitize_from_env,
)
from repro.cluster.faults import FaultConfig
from repro.core.combiners import get_combiner
from repro.dgraph.bsp import BSPEngine
from repro.galois.do_all import SerialExecutor, ThreadPoolDoAll
from repro.gluon.bitvector import BitVector
from repro.gluon.comm import ID_BYTES, VALUE_BYTES, SimulatedNetwork
from repro.gluon.partitioner import replicate_all_partitions
from repro.gluon.plans import CommPlan, get_plan
from repro.gluon.sync import FieldSync, GluonSynchronizer
from repro.w2v.distributed import GraphWord2Vec
from repro.w2v.params import Word2VecParams
from tests.test_gluon_fold_oracle import lockstep_sync


# ----------------------------------------------------------------------
# do_all race detector
# ----------------------------------------------------------------------
def sanitized_run(items, operator, inner=None):
    sanitizer = DoAllRaceSanitizer()
    executor = SanitizedExecutor(inner or SerialExecutor(), sanitizer)
    executor.run(items, operator)
    return sanitizer


class TestDoAllRaceSanitizer:
    def test_overlapping_writes_caught_with_chunk_pair(self):
        shared = np.zeros((10, 2))

        def op(item):
            rows = np.arange(0, 6) if item == 0 else np.arange(4, 10)
            shared[rows] += 1.0
            note_write(shared, rows, label="shared")

        sanitizer = sanitized_run([0, 1], op)
        kinds = {f.kind for f in sanitizer.findings}
        assert kinds == {"write-write"}
        [finding] = sanitizer.findings
        # The offending chunk pair and the overlap are named.
        assert finding.details["chunks"] == (0, 1)
        assert set(finding.details["rows"]) == {4, 5}
        assert finding.details["array"] == "shared"
        assert "shared" in str(finding)

    def test_read_write_conflict_caught_both_directions(self):
        shared = np.zeros((8, 2))

        def op(item):
            if item == 0:
                note_write(shared, np.array([1, 2]), label="shared")
            else:
                note_read(shared, np.array([2, 3]), label="shared")

        sanitizer = sanitized_run([0, 1], op)
        assert [f.kind for f in sanitizer.findings] == ["read-write"]
        [finding] = sanitizer.findings
        assert finding.details["chunks"] == (0, 1)  # writer chunk first
        assert finding.details["rows"] == [2]

    def test_disjoint_writes_and_distinct_arrays_are_clean(self):
        a = np.zeros((8, 2))
        b = np.zeros((8, 2))

        def op(item):
            note_write(a, np.array([item]), label="a")
            if item == 0:
                # Rows another chunk writes on a *different* array never
                # conflict with writes on this one.
                note_write(b, np.array([1, 2]), label="b")
            note_read(a, np.array([item]), label="a")

        sanitizer = sanitized_run([0, 1, 2], op)
        assert sanitizer.findings == []
        assert sanitizer.loops_checked == 1

    def test_results_identical_under_wrapping_and_thread_pool(self):
        with ThreadPoolDoAll(workers=4) as pool:
            out = np.zeros(64)

            def op(item):
                out[item] = item * 2
                note_write(out, np.array([item]), label="out")

            sanitizer = sanitized_run(list(range(64)), op, inner=pool)
        assert sanitizer.findings == []
        assert np.array_equal(out, np.arange(64) * 2.0)

    def test_notes_outside_sanitized_loop_are_noops(self):
        arr = np.zeros((4, 2))
        note_write(arr, np.array([0]))
        note_read(arr, np.array([1]))  # nothing to assert beyond "no crash"

    def test_loop_checked_even_when_operator_raises(self):
        shared = np.zeros((4, 2))

        def op(item):
            note_write(shared, np.array([0, 1]), label="shared")
            if item == 1:
                raise RuntimeError("operator failure")

        sanitizer = DoAllRaceSanitizer()
        executor = SanitizedExecutor(SerialExecutor(), sanitizer)
        with pytest.raises(RuntimeError, match="operator failure"):
            executor.run([0, 1], op)
        # Access records collected before the error still carry evidence.
        assert any(f.kind == "write-write" for f in sanitizer.findings)

    def test_empty_loop_runs_inner_and_collects_nothing(self):
        sanitizer = sanitized_run([], lambda item: None)
        assert sanitizer.findings == []


# ----------------------------------------------------------------------
# Gluon sync checker: direct synchronizer scenarios
# ----------------------------------------------------------------------
def make_sync(V=8, D=2, H=2, checker=None):
    """A synchronizer, its field (watched by ``checker``) and delta bases."""
    parts = replicate_all_partitions(V, H)
    sync = GluonSynchronizer(parts, SimulatedNetwork(H))
    sync.checker = checker
    init = np.arange(V * D, dtype=np.float32).reshape(V, D)
    field = FieldSync("f", arrays=[init.copy() for _ in range(H)])
    if checker is not None:
        checker.watch(field)
    return sync, field, [init.copy() for _ in range(H)]


def finish_round(field, bases, updated):
    """What a lock-step caller does at a round boundary."""
    for base, arr in zip(bases, field.arrays):
        np.copyto(base, arr)
    for bv in updated:
        bv.reset()


class TestGluonSyncChecker:
    def test_dropped_mirror_write_before_reduce(self):
        checker = GluonSyncChecker()
        sync, field, bases = make_sync(checker=checker)
        # Host 1 writes row 6 but never flags it: the delta will never be
        # shipped to the master.
        field.arrays[1][6] += 1.0
        upd = [BitVector(8), BitVector(8)]
        lockstep_sync(sync, field, bases, upd, get_combiner("mc"), get_plan("opt"))
        kinds = [f.kind for f in checker.findings]
        assert kinds == ["dropped-write"]
        [finding] = checker.findings
        assert finding.details["host"] == 1
        assert finding.details["rows"] == [6]

    def test_stale_mirror_read_after_master_change(self):
        """PullModel: host 0's master row changes in round 1 without being
        broadcast to host 1; host 1 updating it in round 2 is a stale read."""
        checker = GluonSyncChecker()
        sync, field, bases = make_sync(checker=checker)
        plan = get_plan("pull")
        empty = np.empty(0, dtype=np.int64)

        # Round 1: host 0 updates its own master row 1; nobody accesses
        # anything next round, so the change reaches no mirror.
        field.arrays[0][1] += 1.0
        upd = [BitVector(8), BitVector(8)]
        upd[0].set(1)
        lockstep_sync(
            sync, field, bases, upd, get_combiner("mc"), plan, accessed_next=[empty, empty]
        )
        assert checker.findings == []
        finish_round(field, bases, upd)

        # Round 2: host 1 writes the now-stale row 1 without having pulled it.
        field.arrays[1][1] += 1.0
        upd[1].set(1)
        lockstep_sync(
            sync, field, bases, upd, get_combiner("mc"), plan, accessed_next=[empty, empty]
        )
        assert "stale-read" in [f.kind for f in checker.findings]
        stale = [f for f in checker.findings if f.kind == "stale-read"][0]
        assert stale.details["host"] == 1
        assert stale.details["rows"] == [1]

    @pytest.mark.parametrize("ahead", [True, False])
    def test_stale_read_is_judged_from_the_steps_start(self, ahead):
        """A row that goes stale while its host runs ahead of the fold
        frontier is the bounded-staleness contract; a row already stale
        when the step started is a stale read."""
        checker = GluonSyncChecker()
        sync, field, bases = make_sync(checker=checker)
        plan = get_plan("pull")
        empty = np.empty(0, dtype=np.int64)
        if ahead:  # host 1 starts round 1 before round 0 folds (lead 1)
            checker.note_async_step("f", 1, 1, 0, 1)

        # Round 0: host 0 changes its master row 1; no mirror receives it.
        field.arrays[0][1] += 1.0
        upd = [BitVector(8), BitVector(8)]
        upd[0].set(1)
        lockstep_sync(
            sync, field, bases, upd, get_combiner("mc"), plan, accessed_next=[empty, empty]
        )
        finish_round(field, bases, upd)
        if not ahead:  # host 1 starts round 1 at the frontier, unrefreshed
            checker.note_async_step("f", 1, 1, 1, 1)

        # Round 1 folds host 1's update of row 1.
        field.arrays[1][1] += 1.0
        upd[1].set(1)
        lockstep_sync(
            sync, field, bases, upd, get_combiner("mc"), plan,
            accessed_next=[empty, empty], fold_offset=1,
        )
        assert [f.kind for f in checker.findings] == ([] if ahead else ["stale-read"])

    def test_pullmodel_confined_staleness_round_trip_is_clean(self):
        """The sanctioned PullModel discipline: pull a row before touching
        it.  Residual (reduced-but-not-refreshed) rows must not be flagged
        as dropped writes in later rounds."""
        checker = GluonSyncChecker()
        sync, field, bases = make_sync(checker=checker)
        plan = get_plan("pull")
        empty = np.empty(0, dtype=np.int64)

        # Round 1: host 1 updates foreign row 2 but will not re-access it;
        # its replica legitimately keeps the un-refreshed local value.
        field.arrays[1][2] += 1.0
        upd = [BitVector(8), BitVector(8)]
        upd[1].set(2)
        lockstep_sync(
            sync, field, bases, upd, get_combiner("mc"), plan, accessed_next=[empty, empty]
        )
        for bv in upd:
            bv.reset()  # bases NOT re-snapshotted: residual row must persist

        # Round 2: no writes at all — the lingering residual on host 1 is
        # expected state, not a dropped write.
        lockstep_sync(
            sync, field, bases, upd, get_combiner("mc"), plan, accessed_next=[empty, empty]
        )
        assert checker.findings == []
        assert checker.rounds_observed == 2

    def test_redundant_broadcast_flagged_with_fake_plan(self):
        class BlastPlan(CommPlan):
            """Ships one unchanged row alongside the changed set."""

            name = "blast"

            def reduce_wire_bytes(self, num_updated, dim, block_size):
                return num_updated * (ID_BYTES + dim * VALUE_BYTES)

            def broadcast_selection(self, changed_ids, block_size, accessed_ids, dim):
                ids = np.union1d(changed_ids, np.array([2], dtype=np.int64))
                return ids, int(ids.size) * dim * VALUE_BYTES

        checker = GluonSyncChecker()
        sync, field, bases = make_sync(checker=checker)
        field.arrays[0][1] += 1.0
        upd = [BitVector(8), BitVector(8)]
        upd[0].set(1)
        lockstep_sync(sync, field, bases, upd, get_combiner("mc"), BlastPlan())
        redundant = [f for f in checker.findings if f.kind == "redundant-broadcast"]
        assert redundant, [str(f) for f in checker.findings]
        assert all(f.details["rows"] == [2] for f in redundant)

    @pytest.mark.parametrize("plan", ["naive", "opt", "pull"])
    def test_clean_two_round_exchange_all_plans(self, plan):
        checker = GluonSyncChecker()
        sync, field, bases = make_sync(checker=checker)
        plan = get_plan(plan)
        for round_index in range(2):
            upd = [BitVector(8), BitVector(8)]
            writes = {0: 1 + round_index, 1: 5 + round_index}
            accessed = []
            for host, row in writes.items():
                field.arrays[host][row] += 1.0
                upd[host].set(row)
                accessed.append(np.array([writes[host]], dtype=np.int64))
            kwargs = (
                {"accessed_next": accessed} if plan.requires_access_sets else {}
            )
            lockstep_sync(sync, field, bases, upd, get_combiner("mc"), plan, **kwargs)
            finish_round(field, bases, upd)
        assert checker.findings == []
        assert checker.rounds_observed == 2

    @pytest.mark.parametrize("host0_stores", [True, False])
    def test_landing_rebases_the_shadow(self, host0_stores):
        """The shadow takes what a landing stored, not the receiver's
        replica: rounds whose receivers store what they get stay clean,
        and a host that stores nothing of what it received is flagged at
        the next fold."""
        checker = GluonSyncChecker()
        sync, field, bases = make_sync(checker=checker)

        def land(host, ids, vals):
            if host == 0 and not host0_stores:
                return vals  # claims the rows, stores none of them
            bases[host][ids] = vals
            return field.land(host, ids, vals)

        # Round 1: host 1 updates its own master row 5, which RepModel-Opt
        # broadcasts to host 0.  Round 2 writes nothing.
        field.arrays[1][5] += 1.0
        for touched in ([], [5]), ([], []):
            touched = [np.array(ids, dtype=np.int64) for ids in touched]
            deltas = [a[t].astype(np.float64) - b[t] for a, b, t in zip(field.arrays, bases, touched)]
            sync.fold(
                field, touched, deltas, get_combiner("mc"), get_plan("opt"),
                canonical=bases, land=land,
            )
        if host0_stores:
            assert checker.findings == []
        else:
            [finding] = checker.findings
            assert finding.kind == "dropped-write"
            assert finding.details == {"field": "f", "host": 0, "rows": [5]}

    def test_unwatched_field_is_rejected_before_any_phase(self):
        checker = GluonSyncChecker()
        sync, field, bases = make_sync(checker=checker)
        other = FieldSync("g", arrays=[a + 1.0 for a in field.arrays])
        upd = [BitVector(8), BitVector(8)]
        upd[0].set(1)
        empty, pull = np.empty(0, dtype=np.int64), get_plan("pull")
        for call in (
            lambda: lockstep_sync(sync, other, bases, upd, get_combiner("mc"), get_plan("opt")),
            lambda: sync.broadcast(other, pull, [empty] * 2, [empty, np.array([1])], bases, other.land, "r", "b"),
            lambda: sync.restore_host(other, 1, bases),
        ):
            with pytest.raises(ValueError, match="field 'g' is not watched"):
                call()
        assert sync.network.phase_records == [] and checker.findings == []
        assert all(np.array_equal(a, b + 1.0) for a, b in zip(other.arrays, field.arrays))

    def test_restore_clears_tracking_state(self):
        checker = GluonSyncChecker()
        sync, field, bases = make_sync(checker=checker)
        checker._stale[("f", 1)] = np.array([3], dtype=np.int64)
        sync.restore_host(field, 1, bases)
        assert checker._stale[("f", 1)].size == 0
        checker._stale[("f", 0)] = np.array([5], dtype=np.int64)
        checker.reset_state()
        assert checker._stale == {} and checker._residual == {}


# ----------------------------------------------------------------------
# BSP value-mode: phantom-sync detection
# ----------------------------------------------------------------------
class _FakeSyncResult:
    def __init__(self, any_changed):
        self.any_changed = any_changed


class TestBSPPhantomSync:
    def test_observe_bsp_round_flags_change_without_work(self):
        checker = GluonSyncChecker()
        checker.observe_bsp_round(0, local_work=3, result=_FakeSyncResult(True))
        assert checker.findings == []
        checker.observe_bsp_round(1, local_work=0, result=_FakeSyncResult(True))
        assert [f.kind for f in checker.findings] == ["phantom-sync"]
        assert checker.findings[0].details["round"] == 1

    def test_bsp_engine_feeds_the_checker(self):
        checker = GluonSyncChecker()
        engine = BSPEngine(num_hosts=1, sync_checker=checker)
        # Labels "change" in round 0 although compute did nothing: a
        # synchronizer inventing updates.
        # The engine raises at quiescence, after the second round.
        results = iter([_FakeSyncResult(True), _FakeSyncResult(False)])
        with pytest.raises(SanitizeError, match="phantom-sync"):
            engine.run(compute=lambda host, r: 0, sync=lambda: next(results))
        assert len(engine.history) == 2
        assert [f.kind for f in checker.findings] == ["phantom-sync"]


# ----------------------------------------------------------------------
# Trainer integration
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def corpus():
    from repro.experiments import datasets

    return datasets.load("tiny-sim")[0]


PARAMS = Word2VecParams(dim=8, epochs=1, negatives=3)


class TestTrainerIntegration:
    @pytest.mark.parametrize("plan", ["naive", "opt", "pull"])
    def test_sanitized_training_clean_and_bit_identical(self, corpus, plan):
        base = GraphWord2Vec(
            corpus, PARAMS, num_hosts=4, seed=3, plan=plan
        ).train()
        trainer = GraphWord2Vec(
            corpus, PARAMS, num_hosts=4, seed=3, plan=plan, sanitize=True
        )
        result = trainer.train()
        assert trainer.sanitize_findings == []
        assert np.array_equal(base.model.embedding, result.model.embedding)
        assert np.array_equal(base.model.training, result.model.training)
        assert trainer.sync_checker.rounds_observed > 0
        assert trainer.race_sanitizer.loops_checked > 0

    def test_parallel_compute_sanitizes_clean(self, corpus):
        trainer = GraphWord2Vec(
            corpus, PARAMS, num_hosts=4, seed=3, workers=4, sanitize=True
        )
        result = trainer.train()
        assert trainer.sanitize_findings == []
        base = GraphWord2Vec(corpus, PARAMS, num_hosts=4, seed=3).train()
        assert np.array_equal(base.model.embedding, result.model.embedding)

    def test_crash_recovery_sanitizes_clean(self, corpus):
        config = FaultConfig(crash_prob=0.3, drop_prob=0.05)
        trainer = GraphWord2Vec(
            corpus, PARAMS, num_hosts=4, seed=11, faults=config, sanitize=True
        )
        result = trainer.train()
        assert result.report.faults.crashes > 0  # the scenario actually ran
        assert trainer.sanitize_findings == []

    def test_findings_raise_at_round_barrier(self, corpus):
        trainer = GraphWord2Vec(corpus, PARAMS, num_hosts=2, seed=3, sanitize=True)
        trainer.sync_checker.findings.append(
            SanitizeFinding("gluon", "dropped-write", "synthetic", {})
        )
        with pytest.raises(SanitizeError, match="dropped-write"):
            trainer.train(until_round=1)

    def test_divergence_is_reported_at_the_round_it_broke(self, corpus):
        """SUM of 8 hosts' updates at a blow-up rate (Fig 6): non-finite rows
        are a finding naming round, field and host — without sanitize the
        same run trains through the NaNs silently."""
        params = PARAMS.with_(learning_rate=40.0, epochs=4)
        # workers=1: np.errstate is per thread, pool threads would warn.
        options = dict(num_hosts=8, combiner="sum", seed=3, sync_rounds_per_epoch=4, workers=1)
        with np.errstate(all="ignore"):
            silent = GraphWord2Vec(corpus, params, sanitize=False, **options).train()
            assert not np.isfinite(silent.model.embedding).all()
            trainer = GraphWord2Vec(corpus, params, sanitize=True, **options)
            with pytest.raises(SanitizeError, match="non-finite") as raised:
                trainer.train()
        finding = next(f for f in raised.value.findings if f.kind == "non-finite")
        assert finding.details["field"] in ("embedding", "training")
        assert 0 <= finding.details["host"] < 8
        # Reported at the sync that produced it, not at the end of training.
        assert finding.details["round"] == trainer.metrics.num_rounds - 1 < 15
        assert len(finding.details["rows"]) > 0

        # A run resumed from round 3 names the trainer's round, not the
        # number of syncs this process has seen.
        donor = GraphWord2Vec(corpus, params, sanitize=True, **options)
        with np.errstate(all="ignore"):
            donor.train(until_round=3)
            resumed = GraphWord2Vec(corpus, params, sanitize=True, **options)
            resumed.load_checkpoint(donor.save_checkpoint())
            with pytest.raises(SanitizeError, match="non-finite") as raised:
                resumed.train()
        again = next(f for f in raised.value.findings if f.kind == "non-finite")
        assert again.details == finding.details
        assert resumed.metrics.num_rounds < trainer.metrics.num_rounds

    def test_checkpoint_resume_resets_checker_state(self, corpus):
        donor = GraphWord2Vec(corpus, PARAMS, num_hosts=2, seed=5, sanitize=True)
        donor.train(until_round=2)
        blob = donor.save_checkpoint()
        resumed = GraphWord2Vec(corpus, PARAMS, num_hosts=2, seed=5, sanitize=True)
        resumed.sync_checker._stale[("embedding", 0)] = np.array([1], dtype=np.int64)
        resumed.load_checkpoint(blob)
        assert resumed.sync_checker._stale == {}
        resumed.train()
        assert resumed.sanitize_findings == []

    def test_env_var_enables_sanitizers(self, corpus, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize_from_env()
        trainer = GraphWord2Vec(corpus, PARAMS, num_hosts=2, seed=3)
        assert trainer.sanitize
        assert isinstance(trainer.executor, SanitizedExecutor)
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert not sanitize_from_env()
        trainer = GraphWord2Vec(corpus, PARAMS, num_hosts=2, seed=3)
        assert not trainer.sanitize
        # Explicit argument beats the environment.
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        trainer = GraphWord2Vec(corpus, PARAMS, num_hosts=2, seed=3, sanitize=False)
        assert not trainer.sanitize


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCLI:
    def test_sanitize_flag_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["train", "--hosts", "2", "--sanitize"])
        assert args.sanitize is True
        args = build_parser().parse_args(["train", "--hosts", "2"])
        assert args.sanitize is False

    def test_sanitize_requires_multiple_hosts(self, capsys):
        from repro.cli import main

        assert main(["train", "--sanitize"]) == 2
        assert "--sanitize requires --hosts > 1" in capsys.readouterr().err

    def test_sanitized_train_runs(self, capsys):
        from repro.cli import main

        code = main(
            [
                "train",
                "--hosts", "2",
                "--sanitize",
                "--dim", "8",
                "--epochs", "1",
                "--negatives", "3",
            ]
        )
        assert code == 0
        assert "modeled cluster time" in capsys.readouterr().out
