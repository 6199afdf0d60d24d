import math

import numpy as np
import pytest

from repro.cluster.faults import FaultConfig, FaultSchedule
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

    def test_recovery_defaults_to_zero(self):
        # Fault-free breakdowns must be unchanged by the recovery field.
        assert TimeBreakdown(1.0, 2.0, 0.5).recovery_s == 0.0


def book(metrics: ClusterMetrics, round_index: int, host: int, compute=0.0, **kinds) -> None:
    """One full-speed step: modeled compute equals measured."""
    metrics.record(round_index, host, compute=compute, measured=compute, **kinds)


def build_report(metrics: ClusterMetrics, makespan_s: float = 0.0) -> DistributedRunReport:
    return DistributedRunReport.build(
        num_hosts=metrics.num_hosts, sync_rounds_per_epoch=1, epochs=1, plan="opt",
        combiner="mc", metrics=metrics, network=SimulatedNetwork(metrics.num_hosts),
        model=NetworkModel(), makespan_s=makespan_s,
    )


class TestClusterMetrics:
    def test_round_max_semantics(self):
        m = ClusterMetrics(3)
        for host, seconds in enumerate((1.0, 3.0, 2.0)):
            book(m, 0, host, seconds)
        book(m, 1, 0, 5.0)
        compute = m.table("compute")
        assert compute.tolist() == [[1.0, 3.0, 2.0], [5.0, 0.0, 0.0]]
        assert sum(r.max() for r in compute) == pytest.approx(8.0)  # 3 + 5
        assert build_report(m).sequential_compute_s == pytest.approx(11.0)
        # Folds are the engine's to count: booking steps folds nothing.
        assert m.num_rounds == 0

    def test_inspection_tracked_separately(self):
        m = ClusterMetrics(2)
        book(m, 0, 0, 1.0, inspection=0.5)
        report = build_report(m)
        assert report.breakdown.inspection_s == pytest.approx(0.5)
        assert report.breakdown.compute_s == pytest.approx(0.5)  # mean of [1, 0]

    def test_per_host(self):
        m = ClusterMetrics(2)
        m.record(0, 0, compute=3.0, measured=1.0)
        book(m, 0, 1, 2.0)
        assert m.seconds(0, "compute").tolist() == [3.0, 2.0]
        assert m.seconds(0, "measured").tolist() == [1.0, 2.0]

    def test_rejects_negative_seconds(self):
        m = ClusterMetrics(2)
        for kinds in (
            dict(compute=-1.0, measured=1.0),
            dict(compute=1.0, measured=-1.0),
            dict(compute=1.0, measured=1.0, inspection=-1.0),
            dict(compute=1.0, measured=1.0, recovery=-1.0),
        ):
            with pytest.raises(ValueError, match="negative time"):
                m.record(0, 0, **kinds)
        assert m.table("compute").shape == (0, 2)

    def test_a_step_books_once(self):
        # Booking a (round, host) again replaces its entry: the ledger
        # holds each step's seconds once.
        m = ClusterMetrics(2)
        book(m, 0, 1, 1.0, recovery=2.0)
        book(m, 0, 1, 4.0)
        assert m.seconds(0, "compute").tolist() == [0.0, 4.0]
        assert m.seconds(0, "recovery").tolist() == [0.0, 0.0]

    def test_recovery_round_max_semantics(self):
        m = ClusterMetrics(3)
        book(m, 0, 0, recovery=1.0)
        book(m, 0, 1, recovery=3.0)
        book(m, 1, 2, recovery=2.0)
        report = build_report(m)
        assert report.breakdown.recovery_s == pytest.approx(5.0)  # 3 + 2
        assert report.breakdown.compute_s == 0.0

    def test_public_round_accessors_are_readonly_views(self):
        m = ClusterMetrics(2)
        book(m, 0, 0, 1.0, recovery=0.25)
        book(m, 0, 1, inspection=0.5)
        for kind, expect in (
            ("compute", [1.0, 0.0]),
            ("inspection", [0.0, 0.5]),
            ("recovery", [0.25, 0.0]),
        ):
            for rows in (m.table(kind), m.seconds(0, kind)[None]):
                assert rows.tolist() == [expect]
            for view in (m.table(kind), m.seconds(0, kind)):
                assert not view.flags.writeable
                with pytest.raises(ValueError):
                    view[0] = 9.0
        assert m.seconds(0, "compute").tolist() == [1.0, 0.0]

    def test_accessors_agree_with_aggregates(self):
        m = ClusterMetrics(2)
        # Rounds booked out of order read back ascending.
        for g, compute in ((1, [4.0, 3.0]), (0, [1.0, 2.0])):
            for host, sec in enumerate(compute):
                book(m, g, host, sec)
        assert m.table("compute").tolist() == [[1.0, 2.0], [4.0, 3.0]]
        report = build_report(m, makespan_s=6.0)
        assert report.breakdown.compute_s == pytest.approx(5.0)  # 1.5 + 3.5
        assert report.breakdown.wait_s == pytest.approx(1.0)
        assert report.sequential_compute_s == pytest.approx(10.0)


def slow_hosts(factors: list[float], epochs: int, rounds: int) -> FaultSchedule:
    """A heterogeneous cluster: host h runs factors[h] times slower in every
    slot."""
    return FaultSchedule(
        FaultConfig(), len(factors), epochs, rounds, crashes={},
        stragglers={
            (e, s, h): f
            for e in range(epochs) for s in range(rounds) for h, f in enumerate(factors)
            if f != 1.0
        },
        message_seed=0,
    )


class TestStragglerAccounting:
    """With heterogeneous hosts each round prices at the slowest host."""

    def test_slow_host_schedule_round_max(self):
        from repro.text.synthetic import SyntheticCorpusSpec, generate_corpus
        from repro.w2v.distributed import GraphWord2Vec, default_sync_rounds
        from repro.w2v.params import Word2VecParams

        spec = SyntheticCorpusSpec(
            num_tokens=2000, pairs_per_family=3, filler_vocab=60, questions_per_family=3
        )
        corpus = generate_corpus(spec, seed=1)[0]
        params = Word2VecParams(dim=8, epochs=1, negatives=3, window=3)
        trainer = GraphWord2Vec(
            corpus, params, num_hosts=3, seed=5,
            faults=slow_hosts([1.0, 4.0, 1.5], 1, default_sync_rounds(3)),
        )
        result = trainer.train()
        compute = trainer.metrics.table("compute")
        assert len(compute) == trainer.metrics.num_rounds == trainer.sync_rounds
        # Each round's modeled compute is the measured one times the
        # host's factor, and every round straggles.
        assert np.array_equal(compute, trainer.metrics.table("measured") * [1.0, 4.0, 1.5])
        assert result.report.faults.straggler_rounds == trainer.sync_rounds
        # The breakdown's buckets add up to the total...
        b = result.report.breakdown
        assert b.total_s == pytest.approx(
            b.compute_s + b.communication_s + b.inspection_s + b.recovery_s + b.wait_s
        )
        # ...and busy compute + barrier wait spans the compute critical
        # path, the per-round max: the slow hosts make the wait strictly
        # positive.
        assert b.compute_s == pytest.approx(sum(r.mean() for r in compute))
        assert b.compute_s + b.wait_s == pytest.approx(sum(r.max() for r in compute))
        assert b.wait_s > 0.0
        assert b.recovery_s == 0.0

    def test_scheduled_straggler_stretches_round_max(self):
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
        # The ledger keeps each step's measured seconds beside the modeled
        # ones, so the report's extra_s is exactly the sum over rounds of
        # the modeled round max minus the measured one.
        extra = 0.0
        for recorded, measured in zip(
            faulty.metrics.table("compute"), faulty.metrics.table("measured")
        ):
            if (recorded != measured).any():
                extra += float(recorded.max() - measured.max())
        assert faults.straggler_extra_s == extra


class TestDistributedRunReport:
    def test_build_groups_phases(self):
        metrics = ClusterMetrics(2)
        book(metrics, 0, 0, 1.0)
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
