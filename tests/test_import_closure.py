"""Import graph: what a process loads, and when.

Package ``__init__`` files declare lazy exports (``repro._exports``), so a
serving process loads the serving stack and nothing else, and every import
happens at set-up: a timed unit — a training round, a flush — imports
nothing, or a lazy export would move import cost into ``op_p95_ms``.  Each
check runs in a fresh interpreter, since this one has imported everything.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
import subprocess
import sys
import textwrap

SRC = Path(__file__).resolve().parents[1] / "src"

#: What ``bench/child.py`` imports to set up and drive a serve workload.
SERVING = [
    "repro.serve.engine",
    "repro.serve.index",
    "repro.serve.workload",
    "repro.serve.workload.arrivals",
    "repro.serve.workload.spec",
    "repro.serve.workload.tenants",
]

#: Training, simulation, analysis and experiment code; SciPy is the
#: trainer's dependency (the scatter primitive and ``scipy.stats``).
NOT_SERVING = [
    "scipy",
    "repro.w2v.distributed",
    "repro.w2v.shared_memory",
    "repro.w2v.sgd",
    "repro.dgraph",
    "repro.cluster",
    "repro.core",
    "repro.gluon.sync",
    "repro.analysis.lint",
    "repro.analysis.dataflow",
    "repro.experiments",
    "repro.baselines",
]


def run_fresh(code: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def loaded_after(*modules: str) -> list[str]:
    code = f"""
        import importlib, json, sys
        for name in {list(modules)!r}:
            importlib.import_module(name)
        print(json.dumps(sorted(sys.modules)))
    """
    return json.loads(run_fresh(code))


def under(loaded: list[str], prefixes: list[str]) -> list[str]:
    return [m for m in loaded if any(m == p or m.startswith(p + ".") for p in prefixes)]


def test_import_repro_loads_no_subpackage():
    assert under(loaded_after("repro"), ["repro"]) == ["repro", "repro._exports"]


def test_serving_loads_no_training_stack():
    loaded = loaded_after(*SERVING)
    assert under(loaded, NOT_SERVING) == []
    # The closure itself: store, index, engine and what they import.
    assert "repro.serve.engine" in loaded and "repro.w2v.model" in loaded


def test_timed_work_imports_nothing():
    code = """
        import sys

        import numpy as np

        from repro.serve.engine import QueryEngine
        from repro.serve.index import ExactIndex
        from repro.serve.store import EmbeddingStore
        from repro.text.synthetic import SyntheticCorpusSpec, generate_corpus
        from repro.w2v.distributed import GraphWord2Vec
        from repro.w2v.params import Word2VecParams

        corpus, _ = generate_corpus(SyntheticCorpusSpec(num_tokens=3000), seed=3)
        params = Word2VecParams(dim=8, epochs=1, negatives=2)
        trainers = [
            GraphWord2Vec(corpus, params, num_hosts=3, plan="opt", engine="bsp", seed=1),
            GraphWord2Vec(
                corpus, params, num_hosts=3, plan="pull", engine="async", staleness=2, seed=1
            ),
        ]
        matrix = np.random.default_rng(0).standard_normal((300, 8)).astype(np.float32)
        store = EmbeddingStore(matrix, [f"w{i}" for i in range(300)])
        engine = QueryEngine(ExactIndex(store), max_batch=8)

        grown = []
        for trainer in trainers:
            before = set(sys.modules)
            trainer.train(until_round=1)
            grown.append(sorted(set(sys.modules) - before))
        before = set(sys.modules)
        for word in ("w1", "w2", "w1"):
            engine.submit(word, 5)
        engine.flush()
        grown.append(sorted(set(sys.modules) - before))
        print(grown)
    """
    assert run_fresh(code).strip() == "[[], [], []]"
