import numpy as np
import pytest

from repro.core.combiners import get_combiner
from repro.gluon.bitvector import BitVector
from repro.gluon.comm import SimulatedNetwork
from repro.gluon.partitioner import partition_edges, replicate_all_partitions
from repro.gluon.plans import get_plan
from repro.gluon.sync import FieldSync, GluonSynchronizer
from tests.test_gluon_fold_oracle import lockstep_sync


def make_replicated(V=8, D=2, H=3, dtype=np.float32):
    parts = replicate_all_partitions(V, H)
    net = SimulatedNetwork(H)
    sync = GluonSynchronizer(parts, net)
    init = np.arange(V * D, dtype=dtype).reshape(V, D)
    field = FieldSync("f", arrays=[init.copy() for _ in range(H)])
    return parts, net, sync, field, [init.copy() for _ in range(H)]


class TestFieldSync:
    def test_shape_checks(self):
        with pytest.raises(ValueError, match="inconsistent"):
            FieldSync("f", arrays=[np.zeros((2, 2)), np.zeros((3, 2))])
        with pytest.raises(ValueError, match="2-D"):
            FieldSync("f", arrays=[np.zeros(4)])


class TestReplicatedSync:
    def test_disjoint_updates_propagate_everywhere(self):
        _, _, sync, field, bases = make_replicated()
        field.arrays[0][0] += 1.0
        field.arrays[2][7] += 2.0
        upd = [BitVector(8) for _ in range(3)]
        upd[0].set(0)
        upd[2].set(7)
        lockstep_sync(sync, field, bases, upd, get_combiner("mc"), get_plan("opt"))
        for h in range(3):
            assert np.allclose(field.arrays[h], field.arrays[0])
        assert np.allclose(field.arrays[1][0], bases[1][0])

    def test_orthogonal_conflict_sums_under_mc(self):
        _, _, sync, field, bases = make_replicated(V=4, D=2, H=2)
        field.arrays[0][1] += np.array([1.0, 0.0], dtype=np.float32)
        field.arrays[1][1] += np.array([0.0, 1.0], dtype=np.float32)
        base_row = bases[0][1].copy()
        upd = [BitVector(4), BitVector(4)]
        upd[0].set(1)
        upd[1].set(1)
        lockstep_sync(sync, field, bases, upd, get_combiner("mc"), get_plan("opt"))
        assert np.allclose(field.arrays[0][1], base_row + np.array([1.0, 1.0]))

    def test_parallel_conflict_avg_vs_sum(self):
        for name, factor in (("avg", 1.5), ("sum", 3.0), ("mc", 1.0), ("keep_first", 1.0)):
            _, _, sync, field, bases = make_replicated(V=4, D=2, H=2)
            delta = np.array([1.0, 0.0], dtype=np.float32)
            base_row = bases[0][2].copy()
            field.arrays[0][2] += delta
            field.arrays[1][2] += 2 * delta
            upd = [BitVector(4), BitVector(4)]
            upd[0].set(2)
            upd[1].set(2)
            lockstep_sync(sync, field, bases, upd, get_combiner(name), get_plan("opt"))
            assert np.allclose(
                field.arrays[0][2], base_row + factor * delta
            ), name

    def test_fold_offset_rotates_first_host(self):
        # With keep_first, fold_offset decides whose delta survives.
        for offset, expected in ((0, 1.0), (1, 2.0)):
            _, _, sync, field, bases = make_replicated(V=4, D=1, H=2)
            base = bases[0][0].copy()
            field.arrays[0][0] += 1.0
            field.arrays[1][0] += 2.0
            upd = [BitVector(4), BitVector(4)]
            upd[0].set(0)
            upd[1].set(0)
            lockstep_sync(
                sync, field, bases, upd, get_combiner("keep_first"), get_plan("opt"),
                fold_offset=offset,
            )
            assert np.allclose(field.arrays[0][0], base + expected)

    def test_bases_repaired_after_sync(self):
        _, _, sync, field, bases = make_replicated()
        field.arrays[1][3] += 5.0
        upd = [BitVector(8) for _ in range(3)]
        upd[1].set(3)
        lockstep_sync(sync, field, bases, upd, get_combiner("sum"), get_plan("opt"))
        for h in range(3):
            assert np.array_equal(bases[h], field.arrays[h])

    def test_single_host_no_communication(self):
        parts = replicate_all_partitions(4, 1)
        net = SimulatedNetwork(1)
        sync = GluonSynchronizer(parts, net)
        field = FieldSync("f", arrays=[np.zeros((4, 2), np.float32)])
        field.arrays[0][1] += 1.0
        upd = [BitVector(4)]
        upd[0].set(1)
        result = lockstep_sync(
            sync, field, [np.zeros((4, 2), np.float32)], upd, get_combiner("mc"), get_plan("opt")
        )
        assert net.total_bytes == 0
        assert [c.tolist() for c in result.changed_per_master] == [[1]]
        assert np.allclose(field.arrays[0][1], 1.0)

    def test_pull_requires_access_sets(self):
        _, _, sync, field, bases = make_replicated()
        upd = [BitVector(8) for _ in range(3)]
        with pytest.raises(ValueError, match="requires access sets"):
            lockstep_sync(sync, field, bases, upd, get_combiner("mc"), get_plan("pull"))

    def test_pull_refreshes_only_accessed(self):
        _, _, sync, field, bases = make_replicated(V=8, D=2, H=2)
        field.arrays[0][6] += 3.0  # node 6 is in host 1's master block
        upd = [BitVector(8), BitVector(8)]
        upd[0].set(6)
        accessed = [np.array([6]), np.empty(0, dtype=np.int64)]
        lockstep_sync(
            sync, field, bases, upd, get_combiner("mc"), get_plan("pull"), accessed_next=accessed
        )
        # Master (host 1) applied the canonical update...
        assert np.allclose(field.arrays[1][6], bases[1][6])
        assert np.allclose(field.arrays[1][6] - 3.0, field.arrays[0][6] - 3.0)
        # ... host 0 pulled node 6 because it will access it next round.
        assert np.allclose(field.arrays[0][6], field.arrays[1][6])

    def test_pull_leaves_unaccessed_stale(self):
        _, _, sync, field, bases = make_replicated(V=8, D=2, H=2)
        stale_before = field.arrays[1][0].copy()
        field.arrays[0][0] += 1.0  # node 0: host 0's own master block
        upd = [BitVector(8), BitVector(8)]
        upd[0].set(0)
        accessed = [np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)]
        lockstep_sync(
            sync, field, bases, upd, get_combiner("mc"), get_plan("pull"), accessed_next=accessed
        )
        # Host 1 does not access node 0 next round: replica stays stale.
        assert np.allclose(field.arrays[1][0], stale_before)

    def test_short_accessed_next_is_rejected_up_front(self):
        _, net, sync, field, bases = make_replicated(V=8, D=2, H=3)
        field.arrays[0][6] += 3.0
        upd = [BitVector(8) for _ in range(3)]
        upd[0].set(6)
        before = [a.copy() for a in field.arrays]
        with pytest.raises(ValueError, match="accessed_next"):
            lockstep_sync(
                sync, field, bases, upd, get_combiner("mc"), get_plan("pull"),
                accessed_next=[np.array([6]), np.empty(0, dtype=np.int64)],
            )
        # Rejected before any phase ran: no traffic, replicas untouched.
        assert net.phase_records == [] and net.total_bytes == 0
        assert all(np.array_equal(a, b) for a, b in zip(field.arrays, before))

    def test_requires_fully_replicated(self):
        parts = partition_edges(np.array([0, 1]), np.array([1, 2]), 4, 2, policy="oec")
        net = SimulatedNetwork(2)
        sync = GluonSynchronizer(parts, net)
        field = FieldSync("f", arrays=[np.zeros((4, 1), np.float32)] * 2)
        bases = [np.zeros((4, 1), np.float32)] * 2
        upd = [BitVector(4), BitVector(4)]
        with pytest.raises(ValueError, match="'f': the fold requires fully replicated"):
            lockstep_sync(sync, field, bases, upd, get_combiner("mc"), get_plan("opt"))
        assert net.phase_records == []


class TestFoldBoundary:
    """Hostile contributions fail at the kernel boundary — a field- and
    host-named ``ValueError`` before any phase opens (slices silently
    mis-route what masks used to tolerate)."""

    V, D, H = 8, 2, 3

    def _fold(self, touched, deltas, plan="opt", accessed_next=None, match=""):
        _, net, sync, field, bases = make_replicated(V=self.V, D=self.D, H=self.H)
        before = [a.copy() for a in field.arrays + bases]
        with pytest.raises(ValueError, match=match) as err:
            sync.fold(
                field, touched, deltas, get_combiner("mc"), get_plan(plan),
                canonical=bases, land=field.land, accessed_next=accessed_next,
            )
        assert "'f'" in str(err.value)  # the field is named
        assert net.phase_records == [] and net.total_bytes == 0
        assert all(np.array_equal(a, b) for a, b in zip(field.arrays + bases, before))

    def _good(self):
        touched = [np.array([0, 5]), np.array([2]), np.empty(0, dtype=np.int64)]
        return touched, [np.ones((len(t), self.D)) for t in touched]

    def test_wrong_number_of_contributions(self):
        touched, deltas = self._good()
        self._fold(touched[:2], deltas, match=r"touched needs one id array per host \(3\), got 2")
        self._fold(touched + touched[:1], deltas, match=r"touched .*got 4")
        self._fold(touched, deltas[:2], match=r"deltas needs one array per host, got 2")

    @pytest.mark.parametrize("ids", [[5, 0], [0, 0, 5]], ids=["unsorted", "duplicate"])
    def test_touched_must_be_strictly_ascending(self, ids):
        touched, deltas = self._good()
        touched[1], deltas[1] = np.array(ids), np.ones((len(ids), self.D))
        self._fold(touched, deltas, match=r"touched\[1\] must be a strictly ascending 1-D id array")

    def test_touched_must_be_one_dimensional(self):
        touched, deltas = self._good()
        touched[0] = np.array([[0, 5]])
        self._fold(touched, deltas, match=r"touched\[0\] must be a strictly ascending 1-D id array")

    @pytest.mark.parametrize("ids", [[-1, 3], [3, 8]], ids=["negative", "past-the-end"])
    def test_ids_out_of_range(self, ids):
        touched, deltas = self._good()
        touched[2], deltas[2] = np.array(ids), np.ones((2, self.D))
        self._fold(touched, deltas, match=r"touched\[2\] has ids outside \[0, 8\)")

    @pytest.mark.parametrize("shape", [(1, 2), (2, 3), (2,)])
    def test_delta_shape_must_match_touched(self, shape):
        touched, deltas = self._good()
        deltas[0] = np.ones(shape)
        self._fold(touched, deltas, match=r"deltas\[0\] has shape .* expected \(2, 2\)")

    def test_access_sets_must_be_ascending_under_an_access_set_plan(self):
        touched, deltas = self._good()
        accessed = [np.array([6, 1]), np.array([2]), np.empty(0, dtype=np.int64)]
        self._fold(
            touched, deltas, plan="pull", accessed_next=accessed,
            match=r"accessed_next\[0\] must be a strictly ascending 1-D id array",
        )
        # RepModel plans never read access sets: nothing to reject.
        _, _, sync, field, bases = make_replicated(V=self.V, D=self.D, H=self.H)
        sync.fold(
            field, touched, deltas, get_combiner("mc"), get_plan("opt"),
            canonical=bases, land=field.land, accessed_next=accessed,
        )


class TestPlanEquivalence:
    """Plans must change bytes, never the model (DESIGN.md §5)."""

    def _run(self, plan_name, rounds=3):
        rng = np.random.default_rng(0)
        parts = replicate_all_partitions(10, 3)
        net = SimulatedNetwork(3)
        sync = GluonSynchronizer(parts, net)
        init = rng.normal(size=(10, 4)).astype(np.float32)
        field = FieldSync("f", arrays=[init.copy() for _ in range(3)])
        bases = [init.copy() for _ in range(3)]
        plan = get_plan(plan_name)
        update_rng = np.random.default_rng(99)
        for r in range(rounds):
            # Each host updates a deterministic pseudo-random subset.
            touches = [
                np.sort(update_rng.choice(10, size=update_rng.integers(1, 6), replace=False))
                for _ in range(3)
            ]
            # PullModel semantics: a host may only touch refreshed rows, so
            # the access sets passed below cover every row.
            upd = [BitVector(10) for _ in range(3)]
            for h, t in enumerate(touches):
                field.arrays[h][t] += update_rng.normal(size=(len(t), 4)).astype(np.float32)
                upd[h].set_many(t)
            accessed = None
            if plan.requires_access_sets:
                # Refresh everything a host might touch next: all rows.
                accessed = [np.arange(10, dtype=np.int64) for _ in range(3)]
            lockstep_sync(
                sync, field, bases, upd, get_combiner("mc"), plan, accessed_next=accessed,
                fold_offset=r,
            )
        return field.arrays[0].copy(), net.total_bytes

    def test_models_identical_across_plans(self):
        model_opt, bytes_opt = self._run("opt")
        model_naive, bytes_naive = self._run("naive")
        model_pull, bytes_pull = self._run("pull")
        assert np.array_equal(model_opt, model_naive)
        assert np.array_equal(model_opt, model_pull)
        # Naive pays dense cost: strictly more bytes than Opt here.
        assert bytes_naive > bytes_opt


class TestValueSync:
    def _setup(self):
        src = np.array([0, 1, 2, 3])
        dst = np.array([1, 2, 3, 0])
        parts = partition_edges(src, dst, 4, 2, policy="oec")
        net = SimulatedNetwork(2)
        return parts, net, GluonSynchronizer(parts, net)

    def test_min_reduction_and_broadcast(self):
        parts, net, sync = self._setup()
        arrays = []
        updated = []
        for part in parts:
            arr = np.full(part.num_local, 100.0)
            arrays.append(arr)
            updated.append(BitVector(part.num_local))
        # Host 0 lowers its mirror of node 2 (master on host 1).
        p0 = parts[0]
        if p0.has_proxy(2):
            local = p0.to_local(2)
            arrays[0][local] = 5.0
            updated[0].set(local)
        result = sync.sync_value("dist", arrays, updated, np.minimum)
        p1 = parts[1]
        assert arrays[1][p1.to_local(2)] == 5.0
        assert result.any_changed
        # Bit vectors cleared.
        assert all(not u.any() for u in updated)

    def test_no_updates_no_traffic(self):
        parts, net, sync = self._setup()
        arrays = [np.zeros(p.num_local) for p in parts]
        updated = [BitVector(p.num_local) for p in parts]
        result = sync.sync_value("x", arrays, updated, np.minimum)
        assert not result.any_changed
        assert net.total_bytes == 0

    def test_2d_labels(self):
        parts, net, sync = self._setup()
        arrays = [np.full((p.num_local, 3), 100.0) for p in parts]
        updated = [BitVector(p.num_local) for p in parts]
        p0 = parts[0]
        local = p0.to_local(2)  # node 2's master is on host 1
        arrays[0][local] = [5.0, 6.0, 7.0]
        updated[0].set(local)
        result = sync.sync_value("vec", arrays, updated, np.minimum)
        p1 = parts[1]
        assert arrays[1][p1.to_local(2)].tolist() == [5.0, 6.0, 7.0]
        assert result.any_changed

    def test_master_own_update_broadcast_to_mirrors(self):
        parts, net, sync = self._setup()
        arrays = [np.full(p.num_local, 50.0) for p in parts]
        updated = [BitVector(p.num_local) for p in parts]
        # Host 1 updates its own master node 2; host 0 has a mirror of 2.
        p1 = parts[1]
        local = p1.to_local(2)
        arrays[1][local] = 7.0
        updated[1].set(local)
        sync.sync_value("dist", arrays, updated, np.minimum)
        p0 = parts[0]
        assert arrays[0][p0.to_local(2)] == 7.0


class TestSynchronizerValidation:
    def test_partition_network_mismatch(self):
        parts = replicate_all_partitions(4, 2)
        with pytest.raises(ValueError, match="partitions but network"):
            GluonSynchronizer(parts, SimulatedNetwork(3))

    def test_empty_partitions(self):
        with pytest.raises(ValueError):
            GluonSynchronizer([], SimulatedNetwork(1))
