"""Fault-injection battery: schedules, injectors, recovery, reporting."""

from dataclasses import fields
import math

from hypothesis import given, settings, strategies as st
import pytest

from repro.cluster.faults import (
    CrashEvent,
    FaultConfig,
    FaultReport,
    FaultSchedule,
    TransientFaultInjector,
    parse_fault_spec,
)
from repro.gluon.comm import HEADER_BYTES
from repro.text.synthetic import SyntheticCorpusSpec, generate_corpus
from repro.w2v.distributed import GraphWord2Vec
from repro.w2v.params import Word2VecParams

pytestmark = pytest.mark.faults


@pytest.fixture(scope="module")
def corpus():
    spec = SyntheticCorpusSpec(
        num_tokens=4000, pairs_per_family=4, filler_vocab=80, questions_per_family=4
    )
    return generate_corpus(spec, seed=1)[0]


PARAMS = Word2VecParams(dim=16, epochs=2, negatives=4, window=3, subsample_threshold=1e-2)


def make(corpus, **kw):
    defaults = dict(num_hosts=3, seed=5)
    defaults.update(kw)
    return GraphWord2Vec(corpus, PARAMS, **defaults)


class TestFaultConfig:
    def test_defaults_are_fault_free(self):
        config = FaultConfig()
        assert not config.has_transient
        assert config.crash_prob == 0.0 and config.straggler_prob == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(crash_prob=1.5),
            dict(drop_prob=-0.1),
            dict(drop_prob=0.7, corrupt_prob=0.5),
            dict(straggler_factor=(0.5, 2.0)),
            dict(straggler_factor=(3.0, 2.0)),
            dict(detect_timeout_s=-1.0),
            dict(restore_bandwidth_Bps=0.0),
            dict(max_retries=0),
            dict(max_crashes=-1),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultConfig(**kwargs)


class TestFaultSchedule:
    CONFIG = FaultConfig(crash_prob=0.1, drop_prob=0.01, straggler_prob=0.2)

    def test_same_seed_same_schedule(self):
        a = FaultSchedule.generate(self.CONFIG, seed=9, num_hosts=4, epochs=3, rounds_per_epoch=5)
        b = FaultSchedule.generate(self.CONFIG, seed=9, num_hosts=4, epochs=3, rounds_per_epoch=5)
        assert a.all_crashes() == b.all_crashes()
        for e in range(3):
            for s in range(5):
                for h in range(4):
                    assert a.straggler_factor(e, s, h) == b.straggler_factor(e, s, h)

    def test_different_seed_different_schedule(self):
        kw = dict(num_hosts=4, epochs=4, rounds_per_epoch=8)
        a = FaultSchedule.generate(self.CONFIG, seed=9, **kw)
        b = FaultSchedule.generate(self.CONFIG, seed=10, **kw)
        assert a.all_crashes() != b.all_crashes() or a._stragglers != b._stragglers

    def test_at_most_one_crash_per_round(self):
        schedule = FaultSchedule.generate(
            FaultConfig(crash_prob=0.9), seed=3, num_hosts=8, epochs=2, rounds_per_epoch=6
        )
        for e in range(2):
            for s in range(6):
                assert len(schedule.crashes_at(e, s)) <= 1

    def test_max_crashes_budget(self):
        schedule = FaultSchedule.generate(
            FaultConfig(crash_prob=0.9, max_crashes=2),
            seed=3, num_hosts=8, epochs=2, rounds_per_epoch=6,
        )
        assert len(schedule.all_crashes()) <= 2

    def test_empty_schedule_has_nothing(self):
        schedule = FaultSchedule.empty(4, epochs=3, rounds_per_epoch=5)
        assert not schedule.has_crashes
        assert not schedule._stragglers
        assert not schedule.has_message_faults
        assert schedule.message_injector() is None

    def test_crash_events_well_formed(self):
        schedule = FaultSchedule.generate(
            FaultConfig(crash_prob=0.5), seed=11, num_hosts=3, epochs=2, rounds_per_epoch=4
        )
        for ev in schedule.all_crashes():
            assert isinstance(ev, CrashEvent)
            assert 0 <= ev.host < 3
            assert 0 <= ev.epoch < 2 and 0 <= ev.round_index < 4
            assert 0.0 <= ev.loss_fraction <= 1.0
            assert schedule.crashes_at(ev.epoch, ev.round_index) == (ev,)

    def test_straggler_factors_in_range(self):
        config = FaultConfig(straggler_prob=0.5, straggler_factor=(2.0, 3.0))
        schedule = FaultSchedule.generate(
            config, seed=11, num_hosts=3, epochs=2, rounds_per_epoch=4
        )
        assert schedule._stragglers
        for factor in schedule._stragglers.values():
            assert 2.0 <= factor <= 3.0


class TestTransientFaultInjector:
    def test_clean_channel_free(self):
        injector = TransientFaultInjector(drop_prob=0.0, corrupt_prob=0.0)
        extra, delay = injector.on_send(1000)
        assert (extra, delay) == (0, 0.0)
        assert injector.snapshot()["messages_seen"] == 1

    def test_drop_costs_one_retransmission(self):
        # drop_prob=1 with max_retries=1: exactly one retransmit then escalate.
        injector = TransientFaultInjector(
            drop_prob=1.0, corrupt_prob=0.0, max_retries=1, backoff_s=0.5
        )
        extra, delay = injector.on_send(1000)
        assert extra == 1000
        assert delay == pytest.approx(0.5)
        assert injector.messages_dropped == 1
        assert injector.escalations == 1

    def test_corruption_adds_nack(self):
        injector = TransientFaultInjector(
            drop_prob=0.0, corrupt_prob=1.0, max_retries=1, backoff_s=0.5
        )
        extra, _delay = injector.on_send(1000)
        assert extra == 1000 + HEADER_BYTES
        assert injector.nack_bytes == HEADER_BYTES

    def test_exponential_backoff(self):
        injector = TransientFaultInjector(
            drop_prob=1.0, corrupt_prob=0.0, max_retries=3, backoff_s=1.0
        )
        _extra, delay = injector.on_send(10)
        assert delay == pytest.approx(1.0 + 2.0 + 4.0)

    def test_deterministic_stream(self):
        a = TransientFaultInjector(drop_prob=0.3, corrupt_prob=0.1, seed=7)
        b = TransientFaultInjector(drop_prob=0.3, corrupt_prob=0.1, seed=7)
        outcomes_a = [a.on_send(100) for _ in range(200)]
        outcomes_b = [b.on_send(100) for _ in range(200)]
        assert outcomes_a == outcomes_b
        assert a.snapshot() == b.snapshot()


class TestZeroOverheadWhenDisabled:
    def test_empty_schedule_bit_identical(self, corpus):
        baseline = make(corpus).train()
        empty = FaultSchedule.empty(3, PARAMS.epochs, 0)
        shadowed = make(corpus, faults=empty).train()
        assert shadowed.model == baseline.model
        assert shadowed.report.comm_bytes == baseline.report.comm_bytes
        assert shadowed.report.comm_messages == baseline.report.comm_messages
        assert shadowed.report.bytes_by_phase == baseline.report.bytes_by_phase
        assert shadowed.report.breakdown.recovery_s == 0.0
        assert shadowed.report.breakdown.total_s == pytest.approx(
            shadowed.report.breakdown.compute_s
            + shadowed.report.breakdown.communication_s
            + shadowed.report.breakdown.inspection_s
            + shadowed.report.breakdown.wait_s
        )
        assert shadowed.report.faults is not None
        assert shadowed.report.faults.total_faults == 0

    def test_no_faults_means_no_report(self, corpus):
        assert make(corpus).train().report.faults is None


class TestCrashRecovery:
    CONFIG = FaultConfig(crash_prob=0.15, max_crashes=3)

    @pytest.mark.parametrize("plan", ["opt", "naive", "pull"])
    def test_model_bit_identical_to_fault_free(self, corpus, plan):
        baseline = make(corpus, plan=plan).train()
        faulty = make(corpus, plan=plan, faults=self.CONFIG).train()
        assert faulty.model == baseline.model
        assert faulty.epoch_pairs == baseline.epoch_pairs

    def test_report_itemizes_recovery(self, corpus):
        result = make(corpus, faults=self.CONFIG).train()
        report = result.report
        faults = report.faults
        assert faults.crashes == len(
            make(corpus, faults=self.CONFIG).fault_schedule.all_crashes()
        )
        assert faults.crashes > 0, "seed must schedule at least one crash"
        assert faults.recovery_bytes > 0
        assert faults.checkpoint_restore_bytes > 0
        assert faults.detect_s == pytest.approx(
            faults.crashes * self.CONFIG.detect_timeout_s
        )
        assert report.breakdown.recovery_s > 0
        # Restore traffic shows up as its own phase kind and in the totals.
        assert report.bytes_by_phase.get("recovery", 0) > 0
        assert report.comm_bytes > 0

    def test_recovery_priced_out_of_communication(self, corpus):
        baseline = make(corpus).train().report
        faulty = make(corpus, faults=self.CONFIG).train().report
        # Crashes add recovery time, not steady-state communication time.
        assert faulty.breakdown.communication_s == pytest.approx(
            baseline.breakdown.communication_s, rel=1e-6
        )

    def test_crash_in_every_round_still_exact(self, corpus):
        config = FaultConfig(crash_prob=0.95)
        baseline = make(corpus).train()
        faulty = make(corpus, faults=config).train()
        assert faulty.model == baseline.model
        assert faulty.report.faults.crashes > PARAMS.epochs

    def test_prebuilt_schedule_host_mismatch_rejected(self, corpus):
        schedule = FaultSchedule.empty(5, 1, 1)
        with pytest.raises(ValueError, match="hosts"):
            make(corpus, faults=schedule)

    def test_bad_faults_type_rejected(self, corpus):
        with pytest.raises(TypeError):
            make(corpus, faults="crash=0.1")


class TestTransientFaultsEndToEnd:
    CONFIG = FaultConfig(drop_prob=0.02, corrupt_prob=0.01)

    @pytest.mark.parametrize("plan", ["opt", "naive", "pull"])
    def test_model_unaffected_resent_bytes_accounted(self, corpus, plan):
        baseline = make(corpus, plan=plan).train()
        faulty = make(corpus, plan=plan, faults=self.CONFIG).train()
        assert faulty.model == baseline.model
        faults = faulty.report.faults
        assert faults.retransmissions > 0
        assert faults.resent_bytes > 0
        # Retransmissions inflate wire totals but not message counts.
        assert faulty.report.comm_bytes == baseline.report.comm_bytes + (
            faults.resent_bytes + faults.nack_bytes
        )
        assert faulty.report.comm_messages == baseline.report.comm_messages
        assert faulty.report.breakdown.recovery_s == pytest.approx(faults.backoff_s)


class TestStragglers:
    CONFIG = FaultConfig(straggler_prob=0.3)

    def test_model_unaffected_time_accounted(self, corpus):
        baseline = make(corpus).train()
        faulty = make(corpus, faults=self.CONFIG).train()
        assert faulty.model == baseline.model
        faults = faulty.report.faults
        assert faults.straggler_rounds > 0
        assert faults.straggler_extra_s > 0.0


class TestFaultReport:
    def test_summary_no_faults(self):
        assert FaultReport().summary() == "no faults injected"

    def test_summary_mentions_counts(self):
        report = FaultReport(crashes=2, messages_dropped=3, resent_bytes=500)
        text = report.summary()
        assert "2 crash(es)" in text and "3 drop(s)" in text

    def test_recovery_time_composition(self):
        report = FaultReport(detect_s=1.0, restore_s=2.0, replay_s=3.0, backoff_s=0.5)
        assert report.recovery_time_s == pytest.approx(6.5)

    def test_fault_bytes_composition(self):
        report = FaultReport(recovery_bytes=100, resent_bytes=20, nack_bytes=3)
        assert report.fault_bytes == 123


class TestParseFaultSpec:
    def test_aliases(self):
        config = parse_fault_spec("crash=0.02,drop=0.01,corrupt=0.005,straggler=0.1")
        assert config.crash_prob == 0.02
        assert config.drop_prob == 0.01
        assert config.corrupt_prob == 0.005
        assert config.straggler_prob == 0.1

    def test_full_field_names_and_types(self):
        config = parse_fault_spec(
            "detect_timeout_s=0.5,max_crashes=2,max_retries=4,straggler_factor=2:4"
        )
        assert config.detect_timeout_s == 0.5
        assert config.max_crashes == 2
        assert config.max_retries == 4
        assert config.straggler_factor == (2.0, 4.0)

    def test_empty_spec_fault_free(self):
        config = parse_fault_spec("")
        assert config == FaultConfig()

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown fault spec key"):
            parse_fault_spec("explode=1")

    def test_malformed_item_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_fault_spec("crash")

    @pytest.mark.parametrize(
        "spec, field",
        [
            ("restore_bandwidth_Bps=nan", "restore_bandwidth_Bps"),
            ("restore_bandwidth_Bps=inf", "restore_bandwidth_Bps"),
            ("detect_timeout_s=inf", "detect_timeout_s"),
            ("detect_timeout_s=nan", "detect_timeout_s"),
            ("retry_backoff_s=nan", "retry_backoff_s"),
            ("retry_backoff_s=-1", "retry_backoff_s"),
            ("straggler_factor=2:inf", "straggler_factor"),
            ("crash=nan", "crash_prob"),
            ("crash=abc", "crash"),
            ("max_retries=1.5", "max_retries"),
            ("straggler_factor=2:x", "straggler_factor"),
        ],
    )
    def test_bad_values_name_their_field(self, spec, field):
        with pytest.raises(ValueError, match=field):
            parse_fault_spec(spec)

    def test_injector_rejects_each_negative_probability(self):
        # The sum is a valid probability; each term on its own is not.
        with pytest.raises(ValueError, match="drop_prob"):
            TransientFaultInjector(drop_prob=-0.5, corrupt_prob=0.6)
        with pytest.raises(ValueError, match="corrupt_prob"):
            TransientFaultInjector(drop_prob=0.6, corrupt_prob=-0.5)
        with pytest.raises(ValueError, match="corrupt_prob"):
            TransientFaultInjector(drop_prob=0.0, corrupt_prob=float("nan"))


FIELD_NAMES = [f.name for f in fields(FaultConfig)]
SPEC_KEYS = FIELD_NAMES + ["crash", "drop", "corrupt", "straggler"]
SPEC_VALUES = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1", "2", "1e400", "abc", "", "2:4", "4:2", "1:nan"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(min_value=-5, max_value=10).map(str),
    st.text(alphabet="0123456789.:-eainf", max_size=6),
)
SPEC_ITEMS = st.one_of(
    st.tuples(st.sampled_from(SPEC_KEYS), SPEC_VALUES).map("=".join),
    st.text(alphabet="abcdrops_=:,.0123456789 ", max_size=12),
)


@settings(max_examples=300, deadline=None)
@given(items=st.lists(SPEC_ITEMS, max_size=4))
def test_fuzzed_specs_give_a_config_or_a_named_value_error(items):
    """Every spec parses to a valid config or fails with a ``ValueError``
    naming what is wrong — never another exception, never a config that
    would poison the timing model."""
    spec = ",".join(items)
    try:
        config = parse_fault_spec(spec)
    except ValueError as exc:
        message = str(exc)
        named = [key for key in SPEC_KEYS if key in message]
        assert named or "malformed fault spec item" in message or "unknown fault spec key" in message, message
        return
    assert isinstance(config, FaultConfig)
    costs = (config.detect_timeout_s, config.retry_backoff_s, config.restore_bandwidth_Bps)
    assert all(math.isfinite(x) for x in (*costs, *config.straggler_factor))
