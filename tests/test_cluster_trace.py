import json

import pytest

from repro.cluster.metrics import ClusterMetrics
from repro.cluster.network import SCALED_DEFAULT, NetworkModel
from repro.cluster.trace import build_chrome_trace, trace_json
from repro.dgraph.async_engine import AsyncTimeline
from repro.gluon.comm import SimulatedNetwork


def add_fake_round(timeline, net, compute=(0.1, 0.3), inspect=(), recover=()):
    """One lock-step round appended to ``timeline``: every host starts at
    the previous fold, the round folds when the slowest host ends, and the
    fold owns the phase records emitted meanwhile.  ``inspect`` / ``recover``
    hold ``(host, seconds)`` spans following that host's compute; a
    recovery also emits its restore phase, as the engine's wave does."""
    round_index = len(timeline.folds)
    start = timeline.makespan_s
    rec_lo = len(net.phase_records)
    for host, seconds in enumerate(compute):
        timeline.steps.append((host, round_index, start, seconds))
    for host, seconds in inspect:
        timeline.inspections.append((host, round_index, start + compute[host], seconds))
    for host, seconds in recover:
        timeline.recoveries.append((host, round_index, start + compute[host], seconds))
        with net.phase("recovery:f"):
            net.send(1 - host, host, 500)
        net.drain(host)
    with net.phase("reduce:f"):
        net.send(0, 1, 1000)
    with net.phase("broadcast:f"):
        net.send(1, 0, 1000)
    net.drain(0)
    net.drain(1)
    timeline.makespan_s = start + max(compute)
    timeline.folds.append((round_index, timeline.makespan_s, rec_lo, len(net.phase_records)))


def fake_run(*rounds, hosts=2):
    timeline = AsyncTimeline(num_hosts=hosts)
    net = SimulatedNetwork(hosts)
    for kwargs in rounds:
        add_fake_round(timeline, net, **kwargs)
    return timeline, net


class TestBuildChromeTrace:
    def test_event_structure(self):
        timeline, net = fake_run({})
        events = build_chrome_trace(timeline, net.phase_records, NetworkModel())
        kinds = {e.get("cat") for e in events if e["ph"] == "X"}
        assert kinds == {"compute", "communication", "wait"}
        # Two compute events (one per host) + two comm phases; the fast
        # host idles at the barrier (0.3 - 0.1 = 0.2s wait slice).
        compute = [e for e in events if e.get("cat") == "compute"]
        comm = [e for e in events if e.get("cat") == "communication"]
        waits = [e for e in events if e.get("cat") == "wait"]
        assert len(compute) == 2
        assert len(comm) == 2
        assert len(waits) == 1
        assert waits[0]["tid"] == 0
        assert waits[0]["dur"] == pytest.approx(0.2 * 1e6)
        # Communication starts after the slowest host's compute (0.3s),
        # on the network row, in the order the fold emitted it.
        assert min(c["ts"] for c in comm) >= 0.3 * 1e6 - 1
        assert {c["tid"] for c in comm} == {2}
        assert [c["name"] for c in comm] == ["reduce:f (fold r0)", "broadcast:f (fold r0)"]
        assert comm[0]["ts"] + comm[0]["dur"] <= comm[1]["ts"]

    def test_bsp_barrier_between_rounds(self):
        timeline, net = fake_run({"compute": (0.1, 0.2)}, {"compute": (0.1, 0.2)})
        events = build_chrome_trace(timeline, net.phase_records, NetworkModel())
        round1 = [e for e in events if e.get("name") == "compute r1"]
        round0 = [e for e in events if e.get("name") == "compute r0"]
        # Round 1 starts after all of round 0.
        end_of_round0 = max(e["ts"] + e["dur"] for e in round0)
        assert all(e["ts"] >= end_of_round0 for e in round1)
        # The fast host waits at both barriers.
        waits = [e for e in events if e.get("cat") == "wait"]
        assert [(e["tid"], e["name"]) for e in waits] == [(0, "wait r0"), (0, "wait r1")]

    def test_inspection_follows_compute_and_shortens_the_wait(self):
        timeline, net = fake_run({"inspect": [(0, 0.05)]})
        events = build_chrome_trace(timeline, net.phase_records, NetworkModel())
        [inspect] = [e for e in events if e.get("cat") == "inspection"]
        assert (inspect["tid"], inspect["name"]) == (0, "inspect r0")
        assert inspect["ts"] == pytest.approx(0.1 * 1e6)
        assert inspect["dur"] == pytest.approx(0.05 * 1e6)
        [wait] = [e for e in events if e.get("cat") == "wait"]
        assert wait["ts"] == pytest.approx(0.15 * 1e6)
        assert wait["dur"] == pytest.approx(0.15 * 1e6)

    def test_thread_labels(self):
        timeline = AsyncTimeline(num_hosts=3, steps=[(0, 0, 0.0, 0.1)], makespan_s=0.1)
        events = build_chrome_trace(timeline, [], NetworkModel())
        labels = {
            e["args"]["name"] for e in events if e["ph"] == "M"
        }
        assert labels == {"host 0", "host 1", "host 2", "network"}

    def test_comm_args_carry_bytes(self):
        timeline, net = fake_run({})
        events = build_chrome_trace(timeline, net.phase_records, NetworkModel())
        comm = [e for e in events if e.get("cat") == "communication"]
        assert all(e["args"]["bytes"] > 0 for e in comm)
        assert all(e["args"]["messages"] == 1 for e in comm)


class TestTraceMetricsContract:
    """The timeline and ClusterMetrics tell the same story of a run."""

    def test_accessors_expose_round_history(self):
        metrics = ClusterMetrics(2)
        metrics.record(0, 0, compute=0.1, measured=0.1, recovery=0.2)
        metrics.record(0, 1, compute=0.0, measured=0.0, inspection=0.05)
        assert len(metrics.table("compute")) == 1
        assert metrics.table("compute")[0].tolist() == [0.1, 0.0]
        assert metrics.table("inspection")[0].tolist() == [0.0, 0.05]
        assert metrics.table("recovery")[0].tolist() == [0.2, 0.0]
        # Views are read-only: a consumer cannot corrupt the ledger.
        for kind in ("compute", "inspection", "recovery"):
            assert not metrics.table(kind).flags.writeable
            assert not metrics.seconds(0, kind).flags.writeable

    def test_trace_matches_accessor_data(self):
        # On a real run every compute / inspect / recover slice is the
        # per-round per-host figure ClusterMetrics recorded.
        from repro.cluster.faults import FaultConfig

        trainer = small_trainer(plan="pull", faults=FaultConfig(crash_prob=0.3))
        result = trainer.train()
        assert result.report.faults.crashes > 0
        events = build_chrome_trace(
            trainer.async_timeline, trainer.network.phase_records, SCALED_DEFAULT
        )
        for cat, prefix, kind in (
            ("compute", "compute", "compute"),
            ("inspection", "inspect", "inspection"),
            ("recovery", "recover", "recovery"),
        ):
            rounds = trainer.metrics.table(kind)
            drawn = {
                (int(e["name"].removeprefix(f"{prefix} r")), e["tid"]): e["dur"]
                for e in events
                if e.get("cat") == cat
            }
            recorded = {
                (g, host): seconds * 1e6
                for g, per_host in enumerate(rounds)
                for host, seconds in enumerate(per_host)
                if seconds > 0
            }
            assert drawn == pytest.approx(recorded)
            assert drawn

    def test_recovery_spans_rendered_and_stall_barrier(self):
        timeline, net = fake_run({"compute": (0.1, 0.2), "recover": [(1, 0.5)]})
        events = build_chrome_trace(timeline, net.phase_records, NetworkModel())
        recovery = [e for e in events if e.get("cat") == "recovery"]
        assert len(recovery) == 1
        assert recovery[0]["tid"] == 1
        assert recovery[0]["dur"] == pytest.approx(0.5 * 1e6)
        # Recovery starts where the crashed host's compute ended (0.2s) ...
        assert recovery[0]["ts"] == pytest.approx(0.2 * 1e6)
        # ... and communication waits for it.
        comm = [e for e in events if e.get("cat") == "communication"]
        assert min(c["ts"] for c in comm) >= (0.2 + 0.5) * 1e6 - 1

    def test_recovery_phases_render_inside_the_crash_rounds_fold(self):
        # A crash round emits more phase records than a clean one; each
        # fold owns its own record range, so the restore traffic is drawn
        # in the round that crashed and later rounds keep their own phases.
        timeline, net = fake_run({"recover": [(1, 0.5)]}, {}, {})
        events = build_chrome_trace(timeline, net.phase_records, NetworkModel())
        comm = [e for e in events if e.get("cat") == "communication"]
        assert [e["name"] for e in comm] == [
            "recovery:f (fold r0)", "reduce:f (fold r0)", "broadcast:f (fold r0)",
            "reduce:f (fold r1)", "broadcast:f (fold r1)",
            "reduce:f (fold r2)", "broadcast:f (fold r2)",
        ]
        # The network row plays in order, each fold no earlier than its time.
        assert all(a["ts"] + a["dur"] <= b["ts"] + 1e-6 for a, b in zip(comm, comm[1:]))
        for round_index, fold_s, _lo, _hi in timeline.folds:
            first = next(e for e in comm if e["name"].endswith(f"(fold r{round_index})"))
            assert first["ts"] >= fold_s * 1e6 - 1

    def test_fault_free_trace_has_no_recovery_spans(self):
        timeline, net = fake_run({})
        events = build_chrome_trace(timeline, net.phase_records, NetworkModel())
        assert not [e for e in events if e.get("cat") == "recovery"]


def small_trainer(**options):
    from repro.experiments import datasets
    from repro.w2v.distributed import GraphWord2Vec
    from repro.w2v.params import Word2VecParams

    corpus, _ = datasets.load("tiny-sim")
    params = Word2VecParams(
        dim=16, epochs=1, negatives=4, window=3, subsample_threshold=1e-2
    )
    return GraphWord2Vec(corpus, params, num_hosts=3, seed=5, **options)


class TestTraceJson:
    def test_valid_json(self):
        timeline, net = fake_run({})
        blob = trace_json(timeline, net.phase_records, NetworkModel())
        parsed = json.loads(blob)
        assert "traceEvents" in parsed
        assert len(parsed["traceEvents"]) > 0

    def test_trace_from_real_training(self):
        trainer = small_trainer()
        result = trainer.train()
        blob = trace_json(trainer.async_timeline, trainer.network.phase_records, SCALED_DEFAULT)
        parsed = json.loads(blob)
        cats = {e.get("cat") for e in parsed["traceEvents"] if e["ph"] == "X"}
        assert "compute" in cats and "communication" in cats
        # Per host, compute + wait slices tile the makespan: their mean is
        # the report's compute_s + wait_s.
        tiled = sum(
            e["dur"] for e in parsed["traceEvents"] if e.get("cat") in ("compute", "wait")
        )
        breakdown = result.report.breakdown
        assert tiled / 3 / 1e6 == pytest.approx(breakdown.compute_s + breakdown.wait_s)
