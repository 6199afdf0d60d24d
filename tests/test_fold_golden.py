"""The fold parity sweep as data: recorded outputs of twelve trainings.

Each row of ``tests/data/fold_golden.json`` names one configuration — the
communication plan, the schedule (BSP, or SSP at staleness 2), the model
(Skip-Gram with negative sampling or CBOW with hierarchical softmax), the
combiner, the host count and the fault schedule — and what training it
must produce, bit for bit: the sha256 of the canonical model, the pair
count, the bytes of every phase, the message count and the fault counters.
The configurations pair up every axis value with every other at least
once, and half of them run under crashes, transient message faults and
stragglers.

A change that is meant to keep every output (a refactor, a speed-up of the
fold) must pass this file unmodified.  A deliberate re-pin rewrites the
file with::

    PYTHONPATH=src python tests/test_fold_golden.py --record

and its diff shows which configurations moved.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
import sys
import threading
from unittest import mock

import numpy as np
import pytest

from repro.cluster.faults import FaultConfig
from repro.cluster.network import SCALED_DEFAULT
from repro.cluster.trace import trace_json
from repro.text.synthetic import SyntheticCorpusSpec, generate_corpus
from repro.w2v.distributed import GraphWord2Vec
from repro.w2v.params import Word2VecParams

GOLDEN = Path(__file__).resolve().parent / "data" / "fold_golden.json"

SPEC = SyntheticCorpusSpec(
    num_tokens=1500, pairs_per_family=3, filler_vocab=60, questions_per_family=3
)
MODELS = {
    "sg-ns": dict(architecture="skipgram", objective="negative"),
    "cbow-hs": dict(architecture="cbow", objective="hierarchical"),
}
FAULTS = {
    "none": None,
    "crash+transient": FaultConfig(
        crash_prob=0.1, max_crashes=2, drop_prob=0.05, corrupt_prob=0.02,
        straggler_prob=0.2,
    ),
}
FAULT_COUNTERS = (
    "crashes", "recovery_bytes", "checkpoint_restore_bytes", "messages_dropped",
    "messages_corrupted", "retransmissions", "escalations", "resent_bytes",
    "nack_bytes", "straggler_rounds", "straggler_extra_s",
)
BREAKDOWN = ("compute_s", "communication_s", "inspection_s", "recovery_s", "wait_s")
#: (plan, staleness, model, combiner, hosts, faults)
CONFIGS = [
    ("opt", 0, "sg-ns", "mc", 4, "none"),
    ("opt", 2, "cbow-hs", "avg", 8, "crash+transient"),
    ("naive", 0, "cbow-hs", "mc", 8, "none"),
    ("naive", 2, "sg-ns", "avg", 4, "crash+transient"),
    ("pull", 0, "sg-ns", "avg", 8, "crash+transient"),
    ("pull", 2, "cbow-hs", "mc", 4, "none"),
    ("opt", 0, "cbow-hs", "avg", 4, "crash+transient"),
    ("opt", 2, "sg-ns", "mc", 8, "none"),
    ("naive", 0, "sg-ns", "mc", 8, "crash+transient"),
    ("pull", 2, "sg-ns", "mc", 8, "crash+transient"),
    ("pull", 0, "cbow-hs", "mc", 4, "crash+transient"),
    ("naive", 2, "cbow-hs", "avg", 4, "none"),
]


def config_id(config) -> str:
    plan, staleness, model, combiner, hosts, faults = config
    return f"{plan}-s{staleness}-{model}-{combiner}-h{hosts}-{faults}"


class StepClock:
    """Stands in for ``time.thread_time``: every call advances the calling
    thread's clock by :attr:`STEP_S`.  Each measured interval is then a
    whole number of steps, whichever thread measured it and whatever it
    measured before, so the timing outputs are the same under every
    executor.  The step has more than one significant bit, so products with
    the fault schedule's slowdown factors round as real measurements do."""

    STEP_S = 5 * 2.0**-12

    def __init__(self) -> None:
        self._local = threading.local()

    def __call__(self) -> float:
        calls = getattr(self._local, "calls", 0)
        self._local.calls = calls + 1
        return calls * self.STEP_S


def run(config, corpus) -> dict:
    """Train one configuration; everything the sweep pins."""
    plan, staleness, model, combiner, hosts, faults = config
    params = Word2VecParams(
        dim=8, epochs=1, negatives=3, window=3, subsample_threshold=1e-2, **MODELS[model]
    )
    trainer = GraphWord2Vec(
        corpus, params, num_hosts=hosts, seed=5, plan=plan, combiner=combiner,
        faults=FAULTS[faults], engine="async", staleness=staleness,
    )
    with mock.patch("time.thread_time", StepClock()):
        result = trainer.train()
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(result.model.embedding).tobytes())
    digest.update(np.ascontiguousarray(result.model.training).tobytes())
    report = result.report
    return {
        "model_sha256": digest.hexdigest(),
        "pairs": report.pairs_processed,
        "bytes_by_phase": dict(sorted(trainer.network.stats.bytes_by_phase.items())),
        "messages": report.comm_messages,
        "faults": None if report.faults is None else {
            name: getattr(report.faults, name) for name in FAULT_COUNTERS
        },
        "timing": {
            "breakdown": {name: getattr(report.breakdown, name) for name in BREAKDOWN},
            "sequential_compute_s": report.sequential_compute_s,
            "folded_rounds": trainer.metrics.num_rounds,
            "trace_sha256": hashlib.sha256(
                trace_json(
                    trainer.async_timeline, trainer.network.phase_records, SCALED_DEFAULT
                ).encode()
            ).hexdigest(),
        },
    }


def record() -> None:
    corpus = generate_corpus(SPEC, seed=1)[0]
    rows = {config_id(c): run(c, corpus) for c in CONFIGS}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def golden_corpus():
    return generate_corpus(SPEC, seed=1)[0]


@pytest.mark.parametrize("config", CONFIGS, ids=config_id)
def test_fold_outputs_match_the_recorded_sweep(config, golden_corpus):
    golden = json.loads(GOLDEN.read_text())
    assert run(config, golden_corpus) == golden[config_id(config)]


def test_sweep_covers_every_axis():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(config_id(c) for c in CONFIGS)
    for axis, values in enumerate(
        (("naive", "opt", "pull"), (0, 2), tuple(MODELS), ("mc", "avg"), (4, 8), tuple(FAULTS))
    ):
        assert {c[axis] for c in CONFIGS} == set(values)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(f"usage: {sys.argv[0]} --record")
    record()
