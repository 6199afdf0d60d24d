"""Convergence-vs-wallclock: BSP vs bounded-staleness SSP, recorded.

Trains the same workload under the BSP engine and SSP(s ∈ {1, 2, 4}) on
two schedules — a clean cluster and a straggler-heavy one — and records
cumulative (modeled wall-clock, analogy accuracy) curves per epoch into
``BENCH_train.json`` at the repo root.  The claim under test, and the
headline CI gates on:

- **Clean cluster**: staleness buys little — every variant reaches the
  same quality, and SSP's wall-clock stays close to BSP's (no straggler
  slack to absorb).
- **Stragglers**: BSP pays the slowest host every round (sum of per-round
  maxima); SSP(s>0) overlaps rounds and pays roughly the per-host mean,
  so SSP(s=2) finishes in <= 0.8x BSP's wall-clock at equal final quality
  (within tolerance) — the convergence curve shifts left, not down.

The per-epoch accuracy probes pause training, and pausing an SSP run
drains its pipeline (see internals: "Async execution"), which forfeits
some cross-round overlap.  The curves therefore *understate* SSP's
advantage, and the headline is measured on dedicated uninterrupted runs.
Model bits and accuracies are pure functions of the seed; the wall-clock
fields are modeled from measured per-step compute and carry measurement
noise, which the 0.8 gate leaves margin for (uninterrupted ratio ~0.68).
"""

from pathlib import Path

from repro.bench import merge_bench_row
from repro.cluster.faults import FaultConfig
from repro.eval.analogy import evaluate_analogies
from repro.experiments import datasets, harness
from repro.w2v.distributed import GraphWord2Vec

REPO_ROOT = Path(__file__).resolve().parents[1]
OUT_PATH = REPO_ROOT / "BENCH_train.json"

HOSTS = 4
EPOCHS = 12
SEED = 7
STALENESS_SWEEP = (1, 2, 4)

#: The straggler schedule the headline is pinned against: each host runs
#: 4-6x slow on ~40% of its rounds, so the BSP barrier pays a straggler
#: nearly every round while SSP keeps the fast hosts streaming.
STRAGGLER = FaultConfig(straggler_prob=0.4, straggler_factor=(4.0, 6.0))

#: The headline gate: SSP(s=2) wall-clock vs BSP under stragglers ...
HEADLINE_MAX_SPEED_RATIO = 0.8
#: ... at no more than this much final analogy accuracy given up.
HEADLINE_ACCURACY_TOLERANCE = 0.05


def _curve(corpus, questions, params, *, staleness=None, faults=None):
    """Cumulative (wall-clock, accuracy) points after each epoch."""
    engine_kw = (
        {} if staleness is None else {"engine": "async", "staleness": staleness}
    )
    trainer = GraphWord2Vec(
        corpus,
        params,
        num_hosts=HOSTS,
        seed=SEED,
        faults=faults,
        **engine_kw,
    )
    points = []
    for epoch in range(1, params.epochs + 1):
        result = trainer.train(until_epoch=epoch)
        accuracy = evaluate_analogies(
            result.model, corpus.vocabulary, questions
        ).total
        points.append(
            {
                "epoch": epoch,
                "wallclock_s": round(result.report.breakdown.total_s, 6),
                "analogy": round(accuracy, 6),
            }
        )
    return points


def _variant_label(staleness):
    return "bsp" if staleness is None else f"ssp-{staleness}"


def _uninterrupted(corpus, questions, params, *, staleness=None, faults=None):
    """Final (wall-clock, accuracy) of a run with no mid-train pauses."""
    engine_kw = (
        {} if staleness is None else {"engine": "async", "staleness": staleness}
    )
    trainer = GraphWord2Vec(
        corpus, params, num_hosts=HOSTS, seed=SEED, faults=faults, **engine_kw
    )
    result = trainer.train()
    accuracy = evaluate_analogies(result.model, corpus.vocabulary, questions).total
    return {
        "wallclock_s": round(result.report.breakdown.total_s, 6),
        "analogy": round(accuracy, 6),
    }


def run_convergence():
    corpus, questions = datasets.load("tiny-sim")
    params = harness.experiment_params(epochs=EPOCHS, dim=32)
    curves = {}
    for schedule, faults in (("clean", None), ("straggler", STRAGGLER)):
        for staleness in (None,) + STALENESS_SWEEP:
            curves[f"{schedule}/{_variant_label(staleness)}"] = _curve(
                corpus, questions, params, staleness=staleness, faults=faults
            )
    finals = {
        label: _uninterrupted(
            corpus, questions, params, staleness=staleness, faults=STRAGGLER
        )
        for label, staleness in (("bsp", None), ("ssp-2", 2))
    }
    return curves, finals


def test_async_convergence_vs_wallclock(once):
    curves, finals = once(run_convergence)

    print("\nConvergence vs wall-clock (cumulative, modeled seconds):")
    for label, points in curves.items():
        trail = " ".join(
            f"e{p['epoch']}:{p['wallclock_s']:.1f}s/{p['analogy']:.0%}"
            for p in points
        )
        print(f"  {label:18s} {trail}")

    def final(label, field):
        return curves[label][-1][field]

    headline = {
        "hosts": HOSTS,
        "epochs": EPOCHS,
        "bsp_straggler_wallclock_s": finals["bsp"]["wallclock_s"],
        "ssp2_straggler_wallclock_s": finals["ssp-2"]["wallclock_s"],
        "speed_ratio": round(
            finals["ssp-2"]["wallclock_s"] / finals["bsp"]["wallclock_s"], 6
        ),
        "bsp_final_analogy": finals["bsp"]["analogy"],
        "ssp2_final_analogy": finals["ssp-2"]["analogy"],
        "max_speed_ratio": HEADLINE_MAX_SPEED_RATIO,
        "accuracy_tolerance": HEADLINE_ACCURACY_TOLERANCE,
    }
    merge_bench_row(
        OUT_PATH, "train:async-convergence", {"headline": headline, "curves": curves}
    )
    print(
        f"  headline (uninterrupted, stragglers): SSP(s=2) "
        f"{headline['speed_ratio']:.2f}x BSP wall-clock, analogy "
        f"{headline['ssp2_final_analogy']:.0%} vs {headline['bsp_final_analogy']:.0%}"
    )

    # The headline: SSP(s=2) under stragglers is decisively faster ...
    assert headline["speed_ratio"] <= HEADLINE_MAX_SPEED_RATIO, (
        f"SSP(s=2) took {headline['speed_ratio']:.2f}x BSP's wall-clock under "
        f"stragglers; expected <= {HEADLINE_MAX_SPEED_RATIO}"
    )
    # ... at equal quality within tolerance.
    assert (
        headline["ssp2_final_analogy"]
        >= headline["bsp_final_analogy"] - HEADLINE_ACCURACY_TOLERANCE
    )
    # Clean-cluster sanity: every variant converges (accuracy improves
    # from the first epoch to the last).
    for staleness in (None,) + STALENESS_SWEEP:
        points = curves[f"clean/{_variant_label(staleness)}"]
        assert points[-1]["analogy"] >= points[0]["analogy"]
    # More staleness never costs wall-clock under stragglers.
    sweep = [
        curves[f"straggler/ssp-{s}"][-1]["wallclock_s"] for s in STALENESS_SWEEP
    ]
    assert sweep == sorted(sweep, reverse=True) or max(sweep) <= final(
        "straggler/bsp", "wallclock_s"
    )
