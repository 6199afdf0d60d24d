"""The recall-vs-QPS frontier: IVF (float32 / int8 rescoring) against brute force.

Runs :func:`repro.serve.frontier.sweep_frontier` at serving scale
(vocab 10^5) and at the small CI smoke configuration, records both into
``BENCH_serve.json`` (keys ``frontier`` and ``frontier_smoke``, next to
the latency rows), and asserts the headline claim of the ANN work: at
10^5 vocabulary at least one IVF point strictly dominates the exact index
on QPS while holding recall@10 >= 0.9.

Each recorded point carries a ``recall_floor`` (measured recall minus a
0.05 cross-environment margin); the CI serve job re-runs the smoke sweep
via ``python -m repro serve-bench --frontier --check-floors`` and fails
if any point regresses below its recorded floor, or if a swept point has
no recorded floor at all.
"""

from pathlib import Path

from repro.bench import merge_bench_row
from repro.serve.frontier import FrontierConfig, check_frontier_floors, sweep_frontier

OUT_PATH = Path(__file__).resolve().parents[1] / "BENCH_serve.json"

#: The full-scale frontier: 10^5 rows, 64 dims, ~sqrt(V) cells.  Family
#: count keeps ~250 rows per family, the geometry trained embeddings show.
FULL_CONFIG = FrontierConfig(
    vocab_size=100_000,
    dim=64,
    clusters=400,
    num_queries=2048,
    recall_queries=128,
    nlist=316,
    nprobes=(1, 2, 4, 8, 16, 32),
    quant_nprobes=(8, 16),
)

#: The CI smoke sweep is FrontierConfig's defaults — the same config
#: ``serve-bench --frontier`` runs with no flags, so the floors recorded
#: here are exactly what ``--check-floors`` re-measures.
SMOKE_CONFIG = FrontierConfig()


def _print_points(payload):
    for point in payload["points"]:
        print(
            f"  {point['label']:24s} recall@10={point['recall_at_k']:.3f} "
            f"floor={point['recall_floor']:.3f} qps={point['qps']:>10,.0f} "
            f"mem={point['memory_bytes'] // 1024:>8d}KiB"
        )


def test_frontier_full_scale(once):
    payload = once(sweep_frontier, FULL_CONFIG)
    merge_bench_row(OUT_PATH, "frontier", payload)
    print(f"\nfrontier (vocab={FULL_CONFIG.vocab_size}):")
    _print_points(payload)

    by_label = {p["label"]: p for p in payload["points"]}
    exact_qps = by_label["exact"]["qps"]
    dominating = [
        p
        for p in payload["points"]
        if p["family"].startswith("ivf")
        and p["recall_at_k"] >= 0.9
        and p["qps"] > exact_qps
    ]
    assert dominating, (
        f"no IVF point beats exact ({exact_qps:,.0f} qps) at recall@10 >= 0.9: "
        f"{[(p['label'], p['recall_at_k'], round(p['qps'])) for p in payload['points']]}"
    )
    best = max(dominating, key=lambda p: p["qps"])
    print(
        f"  headline: {best['label']} = {best['qps'] / exact_qps:.1f}x exact "
        f"at recall {best['recall_at_k']:.3f}"
    )


def test_frontier_smoke_records_floors(once):
    payload = once(sweep_frontier, SMOKE_CONFIG)
    merge_bench_row(OUT_PATH, "frontier_smoke", payload)
    print(f"\nfrontier smoke (vocab={SMOKE_CONFIG.vocab_size}):")
    _print_points(payload)
    # The payload must hold its own floors (so a fresh identical run will
    # pass --check-floors) and every point must carry one.
    assert check_frontier_floors(payload, payload) == []
    assert all("recall_floor" in p for p in payload["points"])


def test_smoke_config_is_cli_default():
    """One source of truth: the smoke floors are only meaningful if
    ``serve-bench --frontier`` (no flags) reruns the identical config."""
    assert SMOKE_CONFIG == FrontierConfig()
