import numpy as np
import pytest

from repro.analysis.runtime import GluonSyncChecker, SanitizeError
from repro.dgraph.bsp import BSPEngine, RoundStats
from repro.gluon.comm import PhaseRecord
from repro.gluon.sync import ValueSyncResult


def make_result(changed_per_host):
    empty = PhaseRecord(name="x", num_hosts=len(changed_per_host))
    return ValueSyncResult(
        field="x",
        changed_local=[np.array(c, dtype=np.int64) for c in changed_per_host],
        reduce_record=empty,
        broadcast_record=empty,
    )


class TestBSPEngine:
    def test_terminates_on_quiescence(self):
        work = [3, 2, 0, 0]

        def compute(host, round_index):
            return work[round_index] if host == 0 else 0

        def sync():
            return make_result([[], []])

        engine = BSPEngine(2)
        # Rounds: r0 work=3, r1 work=2, r2 work=0 -> terminate at round 3? No:
        # round 2 has no work and no sync changes -> stops after 3 rounds.
        rounds = engine.run(compute, sync)
        assert rounds == 3
        assert [s.local_work for s in engine.history] == [3, 2, 0]

    def test_sync_changes_extend_execution(self, monkeypatch):
        # A sync change without local work is a phantom sync by
        # construction; this checks the loop rule, not the sanitizer.
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        sync_changes = iter([[[1]], [[]], [[]]])

        def compute(host, round_index):
            return 0

        def sync():
            return make_result(next(sync_changes))

        engine = BSPEngine(1)
        rounds = engine.run(compute, sync)
        assert rounds == 2  # first round's sync changed something

    def test_work_pending_extends_execution(self):
        pending = {"rounds": 0}

        def compute(host, round_index):
            pending["rounds"] = round_index
            return 0

        def sync():
            return make_result([[]])

        engine = BSPEngine(1)
        rounds = engine.run(
            compute, sync, work_pending=lambda h: pending["rounds"] < 2
        )
        assert rounds == 3

    def test_max_rounds_exceeded(self):
        engine = BSPEngine(1, max_rounds=5)
        with pytest.raises(RuntimeError, match="did not quiesce"):
            engine.run(lambda h, r: 1, lambda: make_result([[]]))

    def test_validation(self):
        with pytest.raises(ValueError):
            BSPEngine(0)
        with pytest.raises(ValueError):
            BSPEngine(1, max_rounds=0)

    def test_history_records(self):
        engine = BSPEngine(2)
        engine.run(lambda h, r: 0, lambda: make_result([[], []]))
        assert len(engine.history) == 1
        stats = engine.history[0]
        assert isinstance(stats, RoundStats)
        assert stats.round_index == 0
        assert not stats.sync_changed


class TestBSPSanitize:
    def test_env_attaches_a_checker(self, monkeypatch):
        """Under ``REPRO_SANITIZE`` a phantom sync — labels change in a
        round where no host worked — raises at quiescence."""
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert BSPEngine(1).sync_checker is None
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        engine = BSPEngine(1)
        assert isinstance(engine.sync_checker, GluonSyncChecker)
        changes = iter([[[1]], [[]]])
        with pytest.raises(SanitizeError, match="phantom-sync.*BSP round 0"):
            engine.run(lambda h, r: 0, lambda: make_result(next(changes)))
