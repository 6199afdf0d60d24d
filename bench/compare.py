#!/usr/bin/env python3
"""Compare two result files written by ``run.py``: base A against B.

    python3 bench/compare.py A.json B.json

One row per workload x end-to-end metric, judged by the bound that
``BENCHMARK.json`` records for the metric:

- ``unresolved`` — the run-to-run spread (distance between quartiles over
  the median, the larger of the two sides) exceeds the bound, or a side has
  fewer than two runs, so nothing can be said; never reported as unchanged;
- ``regressed`` / ``improved`` — B's median is worse / better than A's by
  more than the bound;
- ``within-bound`` — otherwise.

``setup_s`` is judged by its medians alone: it has three samples a side and
one slow page-fault storm among them is common, which is why the builder's
contract also exempts its spread.

Every ratio is printed with its base.  Exact outputs of one seed (model
hash, pair count, gluon byte and message counts, examples generated) are
compared bit for bit below the table.  Exits 1 if any row regressed, any
row is unresolved, or an exact output differs — so running it on two sets
of runs of one commit is the A/A acceptance check.
"""

from __future__ import annotations

import json
import sys

import common

EXACT_LAYER_COUNTS = (
    "gluon.bytes_total",
    "gluon.bytes_reduce",
    "gluon.bytes_broadcast",
    "gluon.bytes_request",
    "gluon.messages",
    "w2v.steps.examples",
)


def load(path: str) -> tuple[dict, dict[tuple[str, int], dict]]:
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    return document, {(r["workload"], r["trace"]): r for r in document["results"]}


def verdict(base: dict, new: dict, metric: dict) -> tuple[str, float, float | None]:
    """``(verdict, worsening as a share of the base, spread)``."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    worse = sign * (new["median"] - base["median"]) / abs(base["median"])
    spreads = [common.spread(base), common.spread(new)]
    if None in spreads:
        return "unresolved", worse, None
    spread = max(spreads)
    if spread > metric["bound"] and metric["name"] != "setup_s":
        return "unresolved", worse, spread
    if worse > metric["bound"]:
        return "regressed", worse, spread
    if worse < -metric["bound"]:
        return "improved", worse, spread
    return "within-bound", worse, spread


def exact_outputs(result_plain: dict | None, result_traced: dict | None) -> dict:
    out = {}
    if result_plain is not None:
        for key, value in (result_plain["rows"][0].get("exact") or {}).items():
            out[key] = value
    if result_traced is not None:
        layers = result_traced["rows"][0].get("per_layer", {})
        for name in EXACT_LAYER_COUNTS:
            out[name] = layers.get(name)
    return out


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    doc_a, results_a = load(sys.argv[1])
    doc_b, results_b = load(sys.argv[2])
    contract = common.load_contract()
    bad = 0

    print(f"{'workload':16s} {'metric':12s} {'A median':>13s} {'B median':>13s} "
          f"{'B/A':>7s} {'worse by':>9s} {'spread':>7s} {'bound':>6s}  verdict")
    for workload in (w["name"] for w in contract["workloads"]):
        a, b = results_a.get((workload, 0)), results_b.get((workload, 0))
        if a is None or b is None:
            continue
        for metric in contract["end_to_end"]:
            base, new = a["stats"][metric["name"]], b["stats"][metric["name"]]
            word, worse, spread = verdict(base, new, metric)
            bad += word in ("regressed", "unresolved")
            shown = "n<2" if spread is None else f"{spread:6.1%}"
            print(f"{workload:16s} {metric['name']:12s} {base['median']:13.6g} "
                  f"{new['median']:13.6g} {new['median'] / base['median']:7.3f} "
                  f"{worse:+9.1%} {shown:>7s} {metric['bound']:6.0%}  {word}"
                  f"  (base {base['median']:.6g} {metric['unit']}, n={base['n']}/{new['n']})")

    if doc_a["seed"] == doc_b["seed"] and doc_a["scale"] == doc_b["scale"]:
        print("\nexact outputs (same seed):")
        for workload in (w["name"] for w in contract["workloads"]):
            exact_a = exact_outputs(results_a.get((workload, 0)), results_a.get((workload, 1)))
            exact_b = exact_outputs(results_b.get((workload, 0)), results_b.get((workload, 1)))
            for key in sorted(set(exact_a) & set(exact_b)):
                if not exact_a[key] and not exact_b[key]:
                    continue  # a layer this workload does not touch
                same = exact_a[key] == exact_b[key]
                bad += not same
                print(f"  {workload:16s} {key:24s} {'match' if same else 'DIFFERS'}"
                      + ("" if same else f"  A={exact_a[key]} B={exact_b[key]}"))
    else:
        print("\nexact outputs not compared: the two files used different seeds or scales")
    print(f"\n{bad} row(s) regressed, unresolved or differing")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
