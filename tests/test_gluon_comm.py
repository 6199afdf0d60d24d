import contextlib

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from repro.cluster.faults import TransientFaultInjector
from repro.gluon.comm import HEADER_BYTES, MessageStats, PhaseRecord, SimulatedNetwork, Slices


class TestSend:
    def test_delivery_order(self):
        net = SimulatedNetwork(3)
        net.send(0, 2, 10, payload="a")
        net.send(1, 2, 20, payload="b")
        assert net.drain(2) == [(0, "a"), (1, "b")]
        assert net.drain(2) == []

    def test_header_charged(self):
        net = SimulatedNetwork(2)
        net.send(0, 1, 100)
        assert net.total_bytes == 100 + HEADER_BYTES

    def test_loopback_rejected(self):
        net = SimulatedNetwork(2)
        with pytest.raises(ValueError, match="loopback"):
            net.send(1, 1, 4)

    def test_bad_hosts_rejected(self):
        net = SimulatedNetwork(2)
        with pytest.raises(ValueError):
            net.send(0, 2, 4)
        with pytest.raises(ValueError):
            net.send(-1, 0, 4)

    def test_negative_bytes_rejected(self):
        net = SimulatedNetwork(2)
        with pytest.raises(ValueError):
            net.send(0, 1, -1)

    def test_pending(self):
        net = SimulatedNetwork(2)
        net.send(0, 1, 0)
        assert net.pending(1) == 1
        net.drain(1)
        assert net.pending(1) == 0


class TestPhases:
    def test_phase_records_per_host_traffic(self):
        net = SimulatedNetwork(3)
        with net.phase("reduce") as record:
            net.send(0, 1, 84)  # 100 on the wire
            net.send(2, 1, 184)  # 200 on the wire
        assert record.sent.tolist() == [100, 0, 200]
        assert record.recv.tolist() == [0, 300, 0]
        assert record.max_host_bytes() == 300
        assert record.messages == 2

    def test_phase_bytes_aggregated(self):
        net = SimulatedNetwork(2)
        with net.phase("reduce"):
            net.send(0, 1, 84)
        with net.phase("broadcast"):
            net.send(1, 0, 84)
        assert net.stats.bytes_by_phase == {"reduce": 100, "broadcast": 100}
        assert net.stats.messages_by_phase == {"reduce": 1, "broadcast": 1}

    def test_phases_do_not_nest(self):
        net = SimulatedNetwork(2)
        with net.phase("a"):
            with pytest.raises(RuntimeError, match="do not nest"):
                net._begin_phase("b")

    def test_default_phase_outside_blocks(self):
        net = SimulatedNetwork(2)
        net.send(0, 1, 0)
        net.send(1, 0, 0)
        assert net.stats.bytes_by_phase == {"default": 2 * HEADER_BYTES}
        # One shared default record, not one per message.
        assert len(net.phase_records) == 1

    def test_conservation_sent_equals_received(self):
        net = SimulatedNetwork(4)
        rng = np.random.default_rng(0)
        with net.phase("p") as record:
            for _ in range(50):
                a, b = rng.choice(4, size=2, replace=False)
                net.send(int(a), int(b), int(rng.integers(0, 1000)))
        assert record.sent.sum() == record.recv.sum()
        assert record.total_bytes == record.sent.sum()


class TestPhaseRecord:
    def test_empty_record(self):
        r = PhaseRecord(name="x", num_hosts=3)
        assert r.total_bytes == 0
        assert r.max_host_bytes() == 0

    def test_invalid_network(self):
        with pytest.raises(ValueError):
            SimulatedNetwork(0)


def _network(H, faulty):
    injector = TransientFaultInjector(0.2, 0.1, max_retries=3, seed=11) if faulty else None
    return SimulatedNetwork(H, fault_injector=injector)


def _charges(net):
    """What a batch of messages charges: records, stats, injector draws."""
    injector = net.fault_injector
    return (
        [(r.name, r.sent.tolist(), r.recv.tolist(), r.messages, r.resent_bytes)
         for r in net.phase_records],
        net.stats,
        None if injector is None else injector.snapshot(),
    )


def _state(net):
    """Everything a batch of messages can change, comparable with ==."""
    return (*_charges(net), [net.drain(h) for h in range(net.num_hosts)])


@st.composite
def batches(draw):
    H = draw(st.integers(min_value=2, max_value=6))
    n = draw(st.integers(min_value=0, max_value=40))
    src = draw(st.lists(st.integers(0, H - 1), min_size=n, max_size=n))
    dst = [
        (s + draw(st.integers(1, H - 1))) % H for s in src
    ]  # never a loopback
    nbytes = draw(st.lists(st.integers(0, 5000), min_size=n, max_size=n))
    return H, src, dst, nbytes


class TestExchange:
    @settings(max_examples=150, deadline=None)
    @given(batch=batches(), faulty=st.booleans(), phased=st.booleans())
    def test_exchange_equals_the_loop_of_sends(self, batch, faulty, phased):
        H, src, dst, nbytes = batch
        payloads = [("payload", i) for i in range(len(src))]
        one, many = _network(H, faulty), _network(H, faulty)
        for net, batched in ((one, False), (many, True)):
            for name in ("reduce", "broadcast"):  # two phases: state carries over
                with net.phase(name) if phased else contextlib.nullcontext():
                    if batched:
                        net.exchange(src, dst, nbytes, payloads)
                    else:
                        for args in zip(src, dst, nbytes, payloads):
                            net.send(*args)
        assert _state(many) == _state(one)

    @settings(max_examples=150, deadline=None)
    @given(batch=batches(), faulty=st.booleans(), data=st.data())
    def test_sliced_exchange_equals_the_loop_of_sends(self, batch, faulty, data):
        """A batch whose payloads are row ranges of shared arrays charges,
        draws and delivers exactly what sending each range's slices one
        message at a time does; a delivery read whole is its messages'
        slices concatenated in arrival order."""
        H, src, dst, nbytes = batch
        n = len(src)
        bases = [(np.arange(12) + 100 * b, np.arange(24.0).reshape(12, 2) + b) for b in range(3)]
        base = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        lo = data.draw(st.lists(st.integers(0, 12), min_size=n, max_size=n))
        hi = [data.draw(st.integers(a, 12)) for a in lo]
        slices = Slices(bases, base, lo, hi)
        cut = [tuple(a[l:h] for a in bases[b]) for b, l, h in zip(base, lo, hi)]
        one, many, whole = (_network(H, faulty) for _ in range(3))
        for name in ("reduce", "broadcast"):
            with one.phase(name), many.phase(name), whole.phase(name):
                for args in zip(src, dst, nbytes, cut):
                    one.send(*args)
                many.exchange(src, dst, nbytes, slices)
                whole.exchange(src, dst, nbytes, slices)
        sent = [one.drain(h) for h in range(H)]
        assert _charges(many) == _charges(one) == _charges(whole)
        for h in range(H):
            got = many.drain(h)
            assert [s for s, _ in got] == [s for s, _ in sent[h]]
            for (_, mine), (_, theirs) in zip(got, sent[h]):
                assert all(np.array_equal(a, b) for a, b in zip(mine, theirs))
            deliveries = whole.receive(h)
            assert [s for d in deliveries for s in d.src.tolist()] == [s for s, _ in sent[h]]
            for k in range(2):
                assert np.array_equal(
                    np.concatenate([bases[0][k][:0]] + [d.rows(k) for d in deliveries]),
                    np.concatenate([bases[0][k][:0]] + [p[k] for _, p in sent[h]]),
                )

    def test_payloads_default_to_none(self):
        net = SimulatedNetwork(3)
        net.exchange([0, 1], [2, 2], [4, 8])
        assert net.drain(2) == [(0, None), (1, None)]
        assert net.total_bytes == 12 + 2 * HEADER_BYTES

    def test_empty_exchange_charges_nothing(self):
        net = _network(3, faulty=True)
        net.exchange([], [], [], [])
        with net.phase("p") as record:
            net.exchange(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.int64))
        assert net.stats == MessageStats()
        assert net.fault_injector.messages_seen == 0
        # No default record was opened; the phase's stays all zero.
        assert net.phase_records == [record] and record.total_bytes == 0 and record.messages == 0

    @pytest.mark.parametrize(
        "args, field",
        [
            (([0, 3], [1, 0], [1, 1]), r"src\[1\]"),
            (([0, -1], [1, 0], [1, 1]), r"src\[1\]"),
            (([0, 1], [1, 5], [1, 1]), r"dst\[1\]"),
            (([0, 2], [1, 2], [1, 1]), "loopback"),
            (([0, 1], [1, 0], [1, -4]), r"nbytes\[1\]"),
            (([0, 1], [1], [1, 1]), "dst"),
            (([0, 1], [1, 0], [1, 1], ["only one"]), "payloads"),
            (([[0, 1]], [[1, 0]], [[1, 1]]), "src"),
            (([0, 1], [1, 0], [1, 1], Slices([(np.arange(3),)], [0], [0], [1])), "payloads.base"),
            (([0, 1], [1, 0], [1, 1], Slices([(np.arange(3),)], [0, 1], [0, 0], [1, 1])), r"payloads\[1\]"),
            (([0, 1], [1, 0], [1, 1], Slices([(np.arange(3),)], [0, 0], [0, 2], [1, 1])), r"payloads\[1\]"),
        ],
    )
    def test_bad_entry_rejected_before_anything_is_charged(self, args, field):
        net = _network(3, faulty=True)
        with pytest.raises(ValueError, match=field):
            with net.phase("p"):
                # A good first message must not be charged either.
                net.exchange(*args)
        assert net.stats == MessageStats()
        assert net.fault_injector.messages_seen == 0
        assert all(net.pending(h) == 0 for h in range(3))
        assert net.phase_records[0].total_bytes == 0
