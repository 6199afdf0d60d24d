"""Property battery: training results are invariant to transient faults.

For a fixed training seed the final embeddings must be bit-identical
(a) across every communication plan and (b) under *any* transient-only
fault schedule — message drops, corruption and stragglers may cost bytes
and modeled time but can never change what the model computes.
"""

from hypothesis import given, settings, strategies as st
import pytest

from repro.cluster.faults import FaultConfig, FaultSchedule
from repro.text.synthetic import SyntheticCorpusSpec, generate_corpus
from repro.w2v.distributed import GraphWord2Vec
from repro.w2v.params import Word2VecParams

pytestmark = pytest.mark.faults

SPEC = SyntheticCorpusSpec(
    num_tokens=1500, pairs_per_family=3, filler_vocab=60, questions_per_family=3
)
PARAMS = Word2VecParams(dim=8, epochs=1, negatives=3, window=3, subsample_threshold=1e-2)
HOSTS = 3
SEED = 5

_corpus = None
_baseline = None
_baseline_bytes: dict[str, int] = {}


def corpus():
    global _corpus
    if _corpus is None:
        _corpus = generate_corpus(SPEC, seed=1)[0]
    return _corpus


def baseline_model():
    """The fault-free reference, identical under every plan (verified once)."""
    global _baseline
    if _baseline is None:
        models = {}
        for plan in ("opt", "naive", "pull"):
            result = GraphWord2Vec(
                corpus(), PARAMS, num_hosts=HOSTS, seed=SEED, plan=plan
            ).train()
            models[plan] = result.model
            _baseline_bytes[plan] = result.report.comm_bytes
        assert models["opt"] == models["naive"] == models["pull"]
        _baseline = models["opt"]
    return _baseline


def baseline_comm_bytes(plan: str) -> int:
    baseline_model()
    return _baseline_bytes[plan]


@settings(max_examples=10, deadline=None)
@given(
    plan=st.sampled_from(["opt", "naive", "pull"]),
    drop=st.floats(min_value=0.0, max_value=0.15),
    corrupt=st.floats(min_value=0.0, max_value=0.1),
    straggler=st.floats(min_value=0.0, max_value=0.5),
    schedule_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_transient_faults_never_change_the_model(
    plan, drop, corrupt, straggler, schedule_seed
):
    config = FaultConfig(
        drop_prob=drop, corrupt_prob=corrupt, straggler_prob=straggler
    )
    trainer = GraphWord2Vec(corpus(), PARAMS, num_hosts=HOSTS, seed=SEED, plan=plan)
    schedule = FaultSchedule.generate(
        config,
        seed=schedule_seed,
        num_hosts=HOSTS,
        epochs=PARAMS.epochs,
        rounds_per_epoch=trainer.sync_rounds,
    )
    assert not schedule.has_crashes
    faulty = GraphWord2Vec(
        corpus(), PARAMS, num_hosts=HOSTS, seed=SEED, plan=plan, faults=schedule
    ).train()

    assert faulty.model == baseline_model()
    report = faulty.report
    faults = report.faults
    # Accounting invariants: fault bytes are itemized exactly (retransmitted
    # payloads + NACKs, on top of the plan's fault-free wire total), and the
    # only fault-induced *time* for transient-only schedules is the
    # retransmission backoff — stragglers stretch the compute bucket.
    assert report.comm_bytes == baseline_comm_bytes(plan) + (
        faults.resent_bytes + faults.nack_bytes
    )
    assert report.breakdown.recovery_s == pytest.approx(faults.backoff_s)


@settings(max_examples=6, deadline=None)
@given(
    crash=st.floats(min_value=0.05, max_value=0.6),
    max_crashes=st.integers(min_value=1, max_value=4),
    schedule_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_crash_recovery_never_changes_the_model(crash, max_crashes, schedule_seed):
    config = FaultConfig(crash_prob=crash, max_crashes=max_crashes)
    trainer = GraphWord2Vec(corpus(), PARAMS, num_hosts=HOSTS, seed=SEED)
    schedule = FaultSchedule.generate(
        config,
        seed=schedule_seed,
        num_hosts=HOSTS,
        epochs=PARAMS.epochs,
        rounds_per_epoch=trainer.sync_rounds,
    )
    faulty = GraphWord2Vec(
        corpus(), PARAMS, num_hosts=HOSTS, seed=SEED, faults=schedule
    ).train()
    assert faulty.model == baseline_model()
    if schedule.has_crashes:
        assert faulty.report.faults.crashes == len(schedule.all_crashes())
        assert faulty.report.breakdown.recovery_s > 0
