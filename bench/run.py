#!/usr/bin/env python3
"""The benchmark's one command.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

measures one workload once and prints, as the last line of stdout, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` — every
end-to-end metric of ``BENCHMARK.json`` with ``--trace 0``, every per-layer
metric with ``--trace 1``.

    python3 bench/run.py --seed 7 [--repeats 3] [--out FILE]

runs every workload ``--repeats`` times untraced and once traced, prints
each metric's median with its spread, and writes all rows to ``FILE``
(default ``bench/out/results-seed7.json``) for ``compare.py``.

Each measurement runs in a fresh ``child.py`` process, one at a time.
``setup_s`` is the median over at least three fresh processes of the CPU
time from process start to the first timed call; when fewer measurement runs
are asked for, extra set-up-only children make up the count.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import common

MIN_SETUP_SAMPLES = 3


def run_child(workload: str, args, trace: int, setup_only: bool = False) -> dict:
    command = [
        sys.executable, str(common.BENCH_DIR / "child.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--scale", str(args.scale),
    ]
    if setup_only:
        command.append("--setup-only")
    # One BLAS thread: the process is then single-threaded, so its CPU time
    # (the benchmark's clock) is the time a caller waits on a quiet machine.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run(
        command, cwd=common.REPO_ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=170
    )
    if done.returncode != 0:
        raise SystemExit(f"child for {workload} exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(workload: str, args, trace: int, repeats: int, table: dict) -> dict:
    """``repeats`` runs of one (workload, mode); medians over the runs."""
    section = "per_layer" if trace else "end_to_end"
    rows = [run_child(workload, args, trace) for _ in range(repeats)]
    setups = [row["setup_s"] for row in rows]
    while len(setups) < MIN_SETUP_SAMPLES and not trace:
        setups.append(run_child(workload, args, trace, setup_only=True)["setup_s"])
    samples: dict[str, list[float]] = {}
    for row in rows:
        for name, value in row.get(section, {}).items():
            samples.setdefault(name, []).append(value)
    if not trace:
        samples["setup_s"] = setups
    expected = set(table)
    if set(samples) != expected:
        missing, extra = expected - set(samples), set(samples) - expected
        raise SystemExit(
            f"{workload}: metrics differ from BENCHMARK.json: "
            f"missing {sorted(missing)}, unexpected {sorted(extra)}"
        )
    # Exact outputs must repeat bit for bit across runs of one seed.
    exact = {json.dumps(row.get("exact"), sort_keys=True) for row in rows}
    return {
        "workload": workload,
        "trace": trace,
        "correct": all(row["correct"] for row in rows) and len(exact) == 1,
        "attempted": sum(row["attempted"] for row in rows),
        "failed": sum(row["failed"] for row in rows),
        "stats": {name: common.quartiles(values) for name, values in samples.items()},
        "rows": rows,
    }


def print_result(result: dict, table: dict) -> None:
    mode = "traced" if result["trace"] else "untraced"
    print(f"== {result['workload']} ({mode}, {len(result['rows'])} run(s)) "
          f"correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for row in result["rows"]:
        for check, passed in row["checks"].items():
            if not passed:
                print(f"   CHECK FAILED: {check}")
    for name, stats in result["stats"].items():
        line = f"   {name:34s} {stats['median']:16.6g} {table[name]['unit']:9s}"
        if stats["n"] > 1:
            line += f" [{stats['min']:.6g} .. {stats['max']:.6g}] n={stats['n']}"
        print(line)


def contract_line(result: dict, table: dict) -> str:
    metrics = {
        name: {"value": stats["median"], "unit": table[name]["unit"]}
        for name, stats in result["stats"].items()
    }
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", help="run only this workload (default: all)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long one run measures (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics; 1: per-layer metrics; "
                             "unset: untraced repeats plus one traced run")
    parser.add_argument("--repeats", type=int, default=None,
                        help="untraced runs per workload (default 1 with --trace, else 3)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink corpora and stores (smoke tests only)")
    parser.add_argument("--out", default=None, help="where to write all rows as JSON")
    parser.add_argument("--list", action="store_true", help="print the workload specs")
    args = parser.parse_args()

    if not (common.SRC_DIR / "repro").is_dir():
        print(f"error: the program under test is missing ({common.SRC_DIR}/repro)",
              file=sys.stderr)
        return 2
    specs = common.load_specs()
    if args.list:
        for spec in specs.values():
            print(json.dumps(spec, indent=2))
        return 0
    if args.workload is not None and args.workload not in specs:
        print(f"error: unknown workload {args.workload!r}; choose from {list(specs)}",
              file=sys.stderr)
        return 2
    contract = common.load_contract()
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    if args.repeats is None:
        args.repeats = 1 if args.trace is not None else 3
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    # Per mode (0 untraced, 1 traced): the metrics BENCHMARK.json names for it.
    tables = [
        {metric["name"]: metric for metric in contract[section]}
        for section in ("end_to_end", "per_layer")
    ]
    names = [args.workload] if args.workload else list(specs)
    modes = [args.trace] if args.trace is not None else [0, 1]
    results = []
    for name in names:
        for trace in modes:
            result = measure(name, args, trace, 1 if trace else args.repeats, tables[trace])
            print_result(result, tables[trace])
            results.append(result)

    if args.trace is None or args.out is not None:
        common.OUT_DIR.mkdir(exist_ok=True)
        out = args.out or str(common.OUT_DIR / f"results-seed{args.seed}.json")
        with open(out, "w", encoding="utf-8") as handle:
            json.dump({"seed": args.seed, "seconds": args.seconds, "scale": args.scale,
                       "results": results}, handle)
        print(f"rows written to {out}")
    correct = all(result["correct"] for result in results)
    if args.workload and args.trace is not None:
        print(contract_line(results[0], tables[args.trace]))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
