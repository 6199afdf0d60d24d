import math

import numpy as np
import pytest

from repro.cluster.metrics import ClusterMetrics, TimeBreakdown
from repro.cluster.network import INFINIBAND_56G, NetworkModel
from repro.cluster.simulator import DistributedRunReport
from repro.gluon.comm import PhaseRecord, SimulatedNetwork


class TestNetworkModel:
    def test_phase_time_formula(self):
        model = NetworkModel(latency_s=1e-3, bandwidth_Bps=1e6)
        record = PhaseRecord(name="x", num_hosts=4)
        record.sent[0] = 2_000_000
        record.recv[1] = 2_000_000
        record.messages = 1
        expected = 1e-3 * math.ceil(math.log2(4)) + 2_000_000 / 1e6
        assert model.phase_time(record) == pytest.approx(expected)

    def test_empty_phase_free(self):
        model = NetworkModel()
        record = PhaseRecord(name="x", num_hosts=8)
        assert model.phase_time(record) == 0.0

    def test_two_host_latency_depth_one(self):
        model = NetworkModel(latency_s=1.0, bandwidth_Bps=1e12)
        record = PhaseRecord(name="x", num_hosts=2)
        record.sent[0] = 1
        record.recv[1] = 1
        record.messages = 1
        assert model.phase_time(record) == pytest.approx(1.0, abs=1e-6)

    def test_total_time_sums(self):
        model = NetworkModel(latency_s=0.0, bandwidth_Bps=1.0)
        records = []
        for volume in (10, 20):
            r = PhaseRecord(name="p", num_hosts=2)
            r.sent[0] = volume
            r.recv[1] = volume
            r.messages = 1
            records.append(r)
        assert model.total_time(records) == pytest.approx(30.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkModel(latency_s=-1)
        with pytest.raises(ValueError):
            NetworkModel(bandwidth_Bps=0)

    def test_infiniband_preset_faster_than_default(self):
        record = PhaseRecord(name="x", num_hosts=2)
        record.sent[0] = 10**9
        record.recv[1] = 10**9
        record.messages = 1
        assert INFINIBAND_56G.phase_time(record) < NetworkModel().phase_time(record)


class TestTimeBreakdown:
    def test_total(self):
        b = TimeBreakdown(compute_s=1.0, communication_s=2.0, inspection_s=0.5)
        assert b.total_s == pytest.approx(3.5)

    def test_total_includes_recovery(self):
        b = TimeBreakdown(compute_s=1.0, communication_s=2.0, inspection_s=0.5, recovery_s=0.25)
        assert b.total_s == pytest.approx(3.75)

    def test_add(self):
        a = TimeBreakdown(1.0, 2.0, 3.0)
        b = TimeBreakdown(0.5, 0.5, 0.5)
        c = a + b
        assert (c.compute_s, c.communication_s, c.inspection_s) == (1.5, 2.5, 3.5)

    def test_add_carries_recovery(self):
        c = TimeBreakdown(recovery_s=1.0) + TimeBreakdown(recovery_s=0.5)
        assert c.recovery_s == pytest.approx(1.5)

    def test_recovery_defaults_to_zero(self):
        # Fault-free breakdowns must be unchanged by the recovery field.
        assert TimeBreakdown(1.0, 2.0, 0.5).recovery_s == 0.0


class TestClusterMetrics:
    def test_round_max_semantics(self):
        m = ClusterMetrics(3)
        m.begin_round()
        m.record_compute(0, 1.0)
        m.record_compute(1, 3.0)
        m.record_compute(2, 2.0)
        m.end_round()
        m.begin_round()
        m.record_compute(0, 5.0)
        m.end_round()
        assert m.modeled_compute_s() == pytest.approx(8.0)  # 3 + 5
        assert m.sequential_compute_s() == pytest.approx(11.0)
        assert m.num_rounds == 2

    def test_inspection_tracked_separately(self):
        m = ClusterMetrics(2)
        m.begin_round()
        m.record_inspection(0, 0.5)
        m.record_compute(0, 1.0)
        m.end_round()
        assert m.modeled_inspection_s() == pytest.approx(0.5)
        assert m.modeled_compute_s() == pytest.approx(1.0)

    def test_per_host(self):
        m = ClusterMetrics(2)
        m.begin_round()
        m.record_compute(0, 1.0)
        m.record_compute(1, 2.0)
        m.end_round()
        assert m.per_host_compute_s().tolist() == [1.0, 2.0]

    def test_lifecycle_errors(self):
        m = ClusterMetrics(2)
        with pytest.raises(RuntimeError):
            m.end_round()
        with pytest.raises(RuntimeError):
            m.record_compute(0, 1.0)
        m.begin_round()
        with pytest.raises(RuntimeError):
            m.begin_round()
        with pytest.raises(ValueError):
            m.record_compute(0, -1.0)
        with pytest.raises(ValueError):
            m.record_recovery(0, -1.0)
        m.end_round()
        with pytest.raises(RuntimeError):
            m.record_recovery(0, 1.0)

    def test_recovery_round_max_semantics(self):
        m = ClusterMetrics(3)
        m.begin_round()
        m.record_recovery(0, 1.0)
        m.record_recovery(1, 3.0)
        m.end_round()
        m.begin_round()
        m.record_recovery(2, 2.0)
        m.end_round()
        assert m.modeled_recovery_s() == pytest.approx(5.0)  # 3 + 2
        assert m.modeled_compute_s() == 0.0

    def test_public_round_accessors_are_readonly_views(self):
        m = ClusterMetrics(2)
        m.begin_round()
        m.record_compute(0, 1.0)
        m.record_inspection(1, 0.5)
        m.record_recovery(0, 0.25)
        m.end_round()
        for rounds, expect in (
            (m.compute_rounds, [1.0, 0.0]),
            (m.inspection_rounds, [0.0, 0.5]),
            (m.recovery_rounds, [0.25, 0.0]),
        ):
            assert len(rounds) == 1
            assert rounds[0].tolist() == expect
            assert not rounds[0].flags.writeable
            with pytest.raises(ValueError):
                rounds[0][0] = 9.0

    def test_accessors_agree_with_aggregates(self):
        m = ClusterMetrics(2)
        for compute in ([1.0, 2.0], [4.0, 3.0]):
            m.begin_round()
            for host, sec in enumerate(compute):
                m.record_compute(host, sec)
            m.end_round()
        assert m.modeled_compute_s() == pytest.approx(
            sum(r.max() for r in m.compute_rounds)
        )
        assert m.sequential_compute_s() == pytest.approx(
            sum(r.sum() for r in m.compute_rounds)
        )


class TestStragglerAccounting:
    """With heterogeneous hosts each round prices at the slowest host."""

    def test_host_speed_factors_round_max(self):
        from repro.text.synthetic import SyntheticCorpusSpec, generate_corpus
        from repro.w2v.distributed import GraphWord2Vec
        from repro.w2v.params import Word2VecParams

        spec = SyntheticCorpusSpec(
            num_tokens=2000, pairs_per_family=3, filler_vocab=60, questions_per_family=3
        )
        corpus = generate_corpus(spec, seed=1)[0]
        params = Word2VecParams(dim=8, epochs=1, negatives=3, window=3)
        factors = [1.0, 4.0, 1.5]
        trainer = GraphWord2Vec(
            corpus, params, num_hosts=3, seed=5, host_speed_factors=factors
        )
        result = trainer.train()
        rounds = trainer.metrics.compute_rounds
        assert len(rounds) == trainer.sync_rounds
        # Each round's modeled compute is the per-round max over hosts...
        per_round_max = [float(r.max()) for r in rounds]
        assert trainer.metrics.modeled_compute_s() == pytest.approx(sum(per_round_max))
        # ...and the breakdown's buckets add up to the total.
        b = result.report.breakdown
        assert b.total_s == pytest.approx(
            b.compute_s + b.communication_s + b.inspection_s + b.recovery_s + b.wait_s
        )
        # Busy compute + barrier wait spans the compute critical path: the
        # heterogeneous factors make the wait bucket strictly positive.
        assert b.compute_s == pytest.approx(trainer.metrics.modeled_busy_s())
        assert b.compute_s + b.wait_s == pytest.approx(
            trainer.metrics.modeled_compute_s()
        )
        assert b.wait_s > 0.0
        assert b.recovery_s == 0.0

    def test_scheduled_straggler_stretches_round_max(self):
        from repro.cluster.faults import FaultConfig
        from repro.text.synthetic import SyntheticCorpusSpec, generate_corpus
        from repro.w2v.distributed import GraphWord2Vec
        from repro.w2v.params import Word2VecParams

        spec = SyntheticCorpusSpec(
            num_tokens=2000, pairs_per_family=3, filler_vocab=60, questions_per_family=3
        )
        corpus = generate_corpus(spec, seed=1)[0]
        params = Word2VecParams(dim=8, epochs=1, negatives=3, window=3)
        faulty = GraphWord2Vec(
            corpus, params, num_hosts=3, seed=5,
            faults=FaultConfig(straggler_prob=0.5, straggler_factor=(3.0, 3.0)),
        )
        result = faulty.train()
        faults = result.report.faults
        assert faults.straggler_rounds > 0
        schedule = faulty.fault_schedule
        # Recorded times are measured * factor; dividing the factor back out
        # recovers the un-straggled round max, and the report's extra_s is
        # exactly the sum of the per-round differences.
        extra = 0.0
        for s, recorded in enumerate(faulty.metrics.compute_rounds):
            factors = np.array([schedule.straggler_factor(0, s, h) for h in range(3)])
            extra += float(recorded.max() - (recorded / factors).max())
        assert faults.straggler_extra_s == pytest.approx(extra, rel=1e-9)


class TestDistributedRunReport:
    def test_build_groups_phases(self):
        metrics = ClusterMetrics(2)
        metrics.begin_round()
        metrics.record_compute(0, 1.0)
        metrics.end_round()
        net = SimulatedNetwork(2)
        with net.phase("reduce:embedding"):
            net.send(0, 1, 100)
        with net.phase("reduce:training"):
            net.send(0, 1, 100)
        with net.phase("broadcast:embedding"):
            net.send(1, 0, 50)
        report = DistributedRunReport.build(
            num_hosts=2,
            sync_rounds_per_epoch=3,
            epochs=1,
            plan="RepModel-Opt",
            combiner="mc",
            metrics=metrics,
            network=net,
            model=NetworkModel(),
            makespan_s=1.0,
        )
        # One of two hosts computed for the whole 1.0 s makespan.
        assert report.breakdown.compute_s == report.breakdown.wait_s == 0.5
        assert set(report.bytes_by_phase) == {"reduce", "broadcast"}
        assert report.bytes_by_phase["reduce"] == 232  # 2 x (100 + 16 header)
        assert report.total_time_s > 0
        assert report.comm_messages == 3
