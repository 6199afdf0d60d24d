"""Spans and counters recorded from outside the program.

The benchmark measures layers by timing calls into their public functions;
nothing under ``src/`` is edited.  :func:`install` rebinds each target to a
wrapper that opens a span around the call:

- a function imported by name (``build_round_work``, ``sample_negatives``,
  ``do_all``) is rebound in every loaded ``repro`` module whose attribute is
  that function, so ``from x import f`` importers see the wrapper too;
- a method (``RoundWork.apply``, ``GluonSynchronizer.sync_replicated``,
  ``CombineState.accumulate/result`` on every concrete subclass,
  ``TrainingEngine.run`` on every concrete subclass, ``ExactIndex.search``,
  ``QueryEngine.submit/flush``, ``SimulatedNetwork.phase``) is rebound on
  its class.

A span is ``(name, start, end, parent)``; spans stay in memory and
:meth:`Tracer.dump` writes them when the run ends.  A span's *self* time is
its duration minus the part its children cover, so self times of all spans
under a root add up to the root's duration exactly.

The tracer keeps one open-span stack, so it is only valid single-threaded —
which is what the benchmark runs (``workers=1``, one BLAS thread).

Every time the benchmark reports is read from :data:`clock`, the CPU time of
the process.  On the virtualised boxes this runs on, neighbours' load makes
wall-clock time of identical work vary by 2x (the hypervisor steals the
CPU); the process's CPU time does not count stolen time, and for a
single-threaded CPU-bound run on a quiet machine the two are equal.
"""

from __future__ import annotations

import functools
import json
import sys
import time

clock = time.process_time


class Tracer:
    """In-memory span and counter store."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # Parallel arrays, one entry per span.
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self._open: list[int] = []
        self.counters: dict[str, float] = {}

    def begin(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._open[-1] if self._open else -1)
        self.span_end.append(0.0)
        self._open.append(index)
        self.span_start.append(clock())
        return index

    def end(self, index: int) -> None:
        self.span_end[index] = clock()
        if self._open.pop() != index:
            raise RuntimeError("spans must close in the order they opened")

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``."""
        if self._open:
            raise RuntimeError(f"{len(self._open)} spans still open")
        covered = [0.0] * len(self.span_name)
        for index, parent in enumerate(self.span_parent):
            if parent >= 0:
                covered[parent] += self.span_end[index] - self.span_start[index]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for index, name_id in enumerate(self.span_name):
            row = out[self.names[name_id]]
            duration = self.span_end[index] - self.span_start[index]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - covered[index]
        return out

    def dump(self, path) -> None:
        """Write every span as ``[name index, start us, duration us, parent]``."""
        origin = self.span_start[0] if self.span_start else 0.0
        spans = [
            [name_id, round((start - origin) * 1e6, 1), round((end - start) * 1e6, 1), parent]
            for name_id, start, end, parent in zip(
                self.span_name, self.span_start, self.span_end, self.span_parent
            )
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"names": self.names, "counters": self.counters, "spans": spans}, handle
            )


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> None:
        self._index = self._tracer.begin(self._name)

    def __exit__(self, *exc) -> None:
        self._tracer.end(self._index)


class _TracedContext:
    """A context manager opening a span around another context manager."""

    def __init__(self, tracer: Tracer, name: str, inner):
        self._tracer = tracer
        self._name = name
        self._inner = inner

    def __enter__(self):
        self._index = self._tracer.begin(self._name)
        return self._inner.__enter__()

    def __exit__(self, *exc):
        try:
            return self._inner.__exit__(*exc)
        finally:
            self._tracer.end(self._index)


def _traced(tracer: Tracer, name: str, fn, observe=None):
    """``fn`` wrapped in a span; ``observe(args, result)`` records counters."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if observe is not None:
            observe(args, result)
        return result

    return wrapper


def _concrete_subclasses(cls) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_concrete_subclasses(sub))
    return found


def install(tracer: Tracer):
    """Rebind every traced target; returns the function that undoes it."""
    from repro.core.combiners import CombineState
    from repro.dgraph import async_engine  # noqa: F401 - defines SSPTrainingEngine
    from repro.dgraph.engine import TrainingEngine
    from repro.galois.do_all import do_all
    from repro.gluon.comm import SimulatedNetwork
    from repro.gluon.sync import GluonSynchronizer
    from repro.serve.engine import QueryEngine
    from repro.serve.index import ExactIndex
    from repro.w2v.sgd import sample_negatives
    from repro.w2v.steps import RoundWork, build_round_work

    undo: list[tuple[object, str, object]] = []

    def rebind(owner, attr: str, replacement) -> None:
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def rebind_function(original, name: str, observe=None) -> None:
        wrapper = _traced(tracer, name, original, observe)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    rebind(module, attr, wrapper)

    def rebind_method(cls, attr: str, name: str, observe=None) -> None:
        if attr in cls.__dict__:
            rebind(cls, attr, _traced(tracer, name, cls.__dict__[attr], observe))

    count = tracer.count
    rebind_function(
        build_round_work,
        "w2v.steps.build_round_work",
        lambda args, work: count("w2v.steps.examples", work.num_examples),
    )
    rebind_function(sample_negatives, "text.sample_negatives")
    rebind_function(do_all, "galois.do_all")
    rebind_method(
        RoundWork,
        "apply",
        "w2v.sgd.apply",
        lambda args, result: count("w2v.sgd.pairs", result[1]),
    )
    rebind_method(GluonSynchronizer, "sync_replicated", "gluon.sync_replicated")
    for state in _concrete_subclasses(CombineState):
        rebind_method(
            state,
            "accumulate",
            "core.combine.accumulate",
            lambda args, result: count("core.combine.rows", len(args[1])),
        )
        rebind_method(state, "result", "core.combine.result")
    for engine in _concrete_subclasses(TrainingEngine):
        rebind_method(engine, "run", "dgraph.engine.run")

    def observe_search(args, result) -> None:
        index, queries = args[0], args[1]
        rows = 1 if queries.ndim == 1 else queries.shape[0]
        tile = index.query_block
        count("serve.index.query_rows", rows)
        count("serve.index.tile_rows", -(-rows // tile) * tile)

    rebind_method(ExactIndex, "search", "serve.index.search", observe_search)
    rebind_method(QueryEngine, "submit", "serve.engine.submit")
    rebind_method(QueryEngine, "flush", "serve.engine.flush")

    # Reduce / request / broadcast run inside ``network.phase(...)`` blocks
    # under both engines (``sync_replicated`` for BSP, the SSP fold for
    # async), so the phase context is the one seam that sees both.
    original_phase = SimulatedNetwork.__dict__["phase"]

    @functools.wraps(original_phase)
    def phase(self, name: str):
        kind = name.split(":", 1)[0]
        return _TracedContext(tracer, f"gluon.phase.{kind}", original_phase(self, name))

    rebind(SimulatedNetwork, "phase", phase)

    def uninstall() -> None:
        while undo:
            owner, attr, original = undo.pop()
            setattr(owner, attr, original)

    return uninstall
