"""What the parent, the child and the comparison tool share.

Kept free of ``numpy`` and ``repro`` imports: the parent process only
orchestrates, so its own start-up stays out of every measurement.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
import statistics

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
CONTRACT_PATH = REPO_ROOT / "BENCHMARK.json"


def load_contract() -> dict:
    return json.loads(CONTRACT_PATH.read_text(encoding="utf-8"))


def load_specs() -> dict[str, dict]:
    """Workload specs by name, in the order ``BENCHMARK.json`` lists them."""
    specs = {}
    for path in sorted((BENCH_DIR / "workloads").glob("*.json")):
        spec = json.loads(path.read_text(encoding="utf-8"))
        if spec["name"] != path.stem:
            raise ValueError(f"{path}: name {spec['name']!r} does not match the file name")
        specs[spec["name"]] = spec
    order = [w["name"] for w in load_contract()["workloads"]]
    if sorted(order) != sorted(specs):
        raise ValueError(
            f"BENCHMARK.json lists {sorted(order)} but bench/workloads/ holds {sorted(specs)}"
        )
    return {name: specs[name] for name in order}


def spec_sha256(spec: dict) -> str:
    return hashlib.sha256(json.dumps(spec, sort_keys=True).encode()).hexdigest()


def derive_seed(seed: int, label: str) -> int:
    """The sub-seed of ``seed`` for one generated input (corpus, store, ...)."""
    digest = hashlib.sha256(f"{int(seed)}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def quartiles(values: list[float]) -> dict:
    """Median, quartiles, extremes and count of one metric's samples."""
    ordered = sorted(values)
    out = {
        "median": statistics.median(ordered),
        "min": ordered[0],
        "max": ordered[-1],
        "n": len(ordered),
    }
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
        out["q1"], out["q3"] = q1, q3
    return out


def spread(stats: dict) -> float | None:
    """Inter-quartile distance as a share of the median; None if unknown."""
    if "q1" not in stats or stats["median"] == 0:
        return None
    return (stats["q3"] - stats["q1"]) / abs(stats["median"])
