"""One measurement of one workload, in a process of its own.

``run.py`` starts this once per (workload, repeat), so peak RSS, warm
caches and ``functools.lru_cache``d datasets cannot leak between runs.  The
child builds its inputs from the seed, measures for ``--seconds``, checks
the outputs, and prints one JSON row as the last line of its stdout.

With ``--trace 1`` the first part of the run is untraced and the rest runs
under :mod:`trace` wrappers; the row then carries per-layer numbers and
the tracing overhead (traced cost over untraced cost, minus 1).

Every time, ``--seconds`` included, is CPU seconds of this process
(:data:`trace.clock`; see that module for why), and every reported time is
scaled to the reference box by the run's calibration (:mod:`calibrate`).
``bench.wall_over_cpu`` and ``bench.machine_speed`` record both corrections.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback

import common
import trace as bench_trace
from calibrate import Calibrator

sys.path.insert(0, str(common.SRC_DIR))

import numpy as np  # noqa: E402

clock = bench_trace.clock

#: A train run starts another unit while less than this share of the window
#: is used (so the last unit may overrun the window by most of its length).
WINDOW_SHARE_BEFORE_LAST_UNIT = 0.8
#: Calibration samples taken before every train unit and after the last.
CALIBRATIONS_PER_UNIT = 6
#: Reference seconds between calibration samples while serving.
CALIBRATION_PERIOD_S = 0.5


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def scaled(value: int, scale: float, floor: int) -> int:
    return max(floor, int(round(value * scale)))


# --------------------------------------------------------------------------
# Training workloads
# --------------------------------------------------------------------------
def build_train(spec: dict, seed: int, scale: float):
    """The corpus, its questions and a factory of fresh trainers."""
    from repro.cluster.faults import FaultConfig
    from repro.text.synthetic import SyntheticCorpusSpec, generate_corpus
    from repro.w2v.distributed import GraphWord2Vec
    from repro.w2v.params import Word2VecParams
    from repro.w2v.shared_memory import SharedMemoryWord2Vec

    sizes = dict(spec["corpus"])
    sizes["num_tokens"] = scaled(sizes["num_tokens"], scale, 4000)
    corpus, questions = generate_corpus(
        SyntheticCorpusSpec(name=spec["name"], **sizes),
        seed=common.derive_seed(seed, "corpus"),
    )
    params = Word2VecParams(**spec["params"])
    options = dict(spec["trainer"])
    trainer_class = options.pop("class")
    trainer_seed = common.derive_seed(seed, "trainer")
    if "faults" in spec:
        faults = dict(spec["faults"])
        faults["straggler_factor"] = tuple(faults["straggler_factor"])
        options["faults"] = FaultConfig(**faults)

    def make_trainer():
        if trainer_class == "SharedMemoryWord2Vec":
            return SharedMemoryWord2Vec(corpus, params, seed=trainer_seed, **options)
        return GraphWord2Vec(corpus, params, seed=trainer_seed, **options)

    make_trainer()  # construction is part of set-up; every unit makes its own
    return corpus, questions, make_trainer


def scheduled_operations(spec: dict) -> int:
    """Operations one unit schedules: sync rounds, or epochs without hosts."""
    per_epoch = spec["trainer"].get("sync_rounds_per_epoch", 1)
    return spec.get("unit_rounds", per_epoch * spec["params"]["epochs"])


def train_unit(spec: dict, trainer) -> dict:
    """Run one unit on a fresh trainer; what it did, by public reports."""
    scheduled = scheduled_operations(spec)
    if spec["trainer"]["class"] == "SharedMemoryWord2Vec":
        model = trainer.train()
        return {
            "model": model,
            "pairs": sum(stats.pairs for stats in trainer.epoch_stats),
            "scheduled": scheduled,
            "completed": len(trainer.epoch_stats),
            "report": None,
        }
    result = trainer.train(until_round=scheduled)
    return {
        "model": result.model,
        "pairs": result.report.pairs_processed,
        "scheduled": scheduled,
        "completed": min(scheduled, trainer.metrics.num_rounds),
        "report": result.report,
    }


def model_sha256(model) -> str:
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(model.embedding).tobytes())
    digest.update(np.ascontiguousarray(model.training).tobytes())
    return digest.hexdigest()


def run_train(spec: dict, args, built, calibrator: Calibrator) -> dict:
    from repro.eval.analogy import evaluate_analogies

    corpus, questions, make_trainer = built
    tracer = bench_trace.Tracer()
    uninstall = None
    units: list[dict] = []
    attempted = failed = 0
    begin_wall = time.perf_counter()
    begin_cpu = clock()
    try:
        while True:
            traced = bool(args.trace) and bool(units)
            if traced and uninstall is None:
                uninstall = bench_trace.install(tracer)
            trainer = make_trainer()
            calibrator.sample(CALIBRATIONS_PER_UNIT)
            root = tracer.span("bench.unit") if traced else contextlib.nullcontext()
            start = clock()
            try:
                with root:
                    unit = train_unit(spec, trainer)
            except Exception:  # a failed unit is a result, not a crash
                traceback.print_exc()
                attempted += scheduled_operations(spec)
                failed += scheduled_operations(spec)
                break
            unit["cpu_s"] = clock() - start
            unit["traced"] = traced
            model = unit.pop("model")
            unit["sha256"] = model_sha256(model)
            unit["finite"] = bool(
                np.isfinite(model.embedding).all() and np.isfinite(model.training).all()
            )
            attempted += unit["scheduled"]
            failed += (
                unit["scheduled"] - unit["completed"] if unit["finite"] else unit["scheduled"]
            )
            units.append(unit)
            # The window is in reference seconds like every reported time, so
            # the number of units does not depend on the machine's state.
            elapsed = sum(u["cpu_s"] for u in units) * calibrator.speed()
            enough = elapsed >= WINDOW_SHARE_BEFORE_LAST_UNIT * args.seconds
            if enough and (not args.trace or traced):
                break
    finally:
        if uninstall is not None:
            uninstall()
    calibrator.sample(CALIBRATIONS_PER_UNIT)
    wall_over_cpu = (time.perf_counter() - begin_wall) / (clock() - begin_cpu)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    speed = calibrator.speed()

    checks = {"ran": bool(units)}
    row: dict = {"attempted": max(attempted, 1), "failed": failed, "checks": checks,
                 "speed": speed}
    if not units:
        return row
    start = clock()
    accuracy = evaluate_analogies(model, corpus.vocabulary, questions).total
    analogy_s = clock() - start
    checks["model_identical_across_units"] = len({u["sha256"] for u in units}) == 1
    checks["pairs_identical_across_units"] = len({u["pairs"] for u in units}) == 1
    checks["all_rows_finite"] = all(u["finite"] for u in units)
    checks["every_round_finished"] = failed == 0
    # Floors were recorded at full size; a scaled-down smoke run learns less.
    floor = spec["analogy_floor"] if args.scale == 1.0 else 0.0
    checks["analogy_at_or_above_floor"] = accuracy >= floor
    row["exact"] = {"model_sha256": units[0]["sha256"], "pairs": units[0]["pairs"]}
    row["samples"] = {
        "unit_cpu_s": [u["cpu_s"] for u in units],
        "unit_traced": [u["traced"] for u in units],
        "calibration_s": calibrator.samples,
        "wall_over_cpu": wall_over_cpu,
    }

    plain = [u for u in units if not u["traced"]]
    costs = [u["cpu_s"] * speed for u in plain]
    if not args.trace:
        row["end_to_end"] = {
            # Interference only ever slows a unit down, so throughput is read
            # from the fastest unit (as ``timeit`` does); latency from all.
            "items_per_s": plain[0]["pairs"] / min(costs),
            "op_p50_ms": percentile(costs, 50) * 1e3,
            "op_p95_ms": percentile(costs, 95) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        return row

    traced_units = [u for u in units if u["traced"]]
    n = len(traced_units)
    layers = layer_metrics(tracer, root="bench.unit", per=n, speed=speed)
    traced_cost = sum(u["cpu_s"] for u in traced_units) * speed / n
    layers["bench.trace.overhead_share"] = traced_cost / float(np.median(costs)) - 1.0
    layers["bench.wall_over_cpu"] = wall_over_cpu
    pairs = traced_units[0]["pairs"]
    layers["w2v.sgd.ns_per_pair"] = layers["w2v.sgd.kernel_s"] / pairs * 1e9 if pairs else 0.0
    layers["eval.analogy_s"] = analogy_s * speed
    layers["eval.analogy_acc"] = accuracy
    report = traced_units[0]["report"]
    if report is not None:
        by_phase = report.bytes_by_phase
        layers["gluon.bytes_total"] = report.comm_bytes
        layers["gluon.bytes_reduce"] = by_phase.get("reduce", 0)
        layers["gluon.bytes_broadcast"] = by_phase.get("broadcast", 0)
        layers["gluon.bytes_request"] = by_phase.get("request", 0)
        layers["gluon.messages"] = report.comm_messages
        layers["dgraph.rounds"] = traced_units[0]["completed"]
        # The program's own modeled times, passed through unscaled.
        breakdown = report.breakdown
        layers["cluster.modeled_total_s"] = breakdown.total_s
        layers["cluster.modeled_compute_s"] = breakdown.compute_s
        layers["cluster.modeled_comm_s"] = breakdown.communication_s
        layers["cluster.modeled_wait_s"] = breakdown.wait_s
        layers["cluster.modeled_inspection_s"] = breakdown.inspection_s
        if report.faults is not None:
            layers["cluster.straggler_rounds"] = report.faults.straggler_rounds
    row["per_layer"] = layers
    row["trace_file"] = dump_trace(tracer, args)
    return row


# --------------------------------------------------------------------------
# Serving workloads
# --------------------------------------------------------------------------
class ReferenceClock:
    """Reference-box seconds since it was made.

    CPU seconds of this process times the machine speed the calibration has
    measured so far; the calibration itself runs with the clock stopped.
    The serve loops read only this clock, so due times, windows and
    latencies are all in reference seconds, and the open loop offers the
    same load relative to capacity whatever state the machine is in.
    """

    def __init__(self, calibrator: Calibrator):
        self._calibrator = calibrator
        calibrator.sample(CALIBRATIONS_PER_UNIT)
        self._rate = calibrator.speed()
        self._scaled = 0.0
        self._cpu = clock()
        self._next_calibration = CALIBRATION_PERIOD_S
        self.tracer = None  # set while tracing, to give calibration a span

    def now(self) -> float:
        return self._scaled + (clock() - self._cpu) * self._rate

    def tick(self) -> None:
        """Every ``CALIBRATION_PERIOD_S``: stop, time the kernel, update the rate."""
        now = self.now()
        if now < self._next_calibration:
            return
        span = self.tracer.begin("bench.calibrate") if self.tracer is not None else None
        self._calibrator.sample()
        if span is not None:
            self.tracer.end(span)
        self._scaled = now
        self._cpu = clock()
        self._rate = self._calibrator.speed()
        self._next_calibration = now + CALIBRATION_PERIOD_S


class ServeLog:
    """Per-query times on the loop's :class:`ReferenceClock`, and the tickets."""

    def __init__(self) -> None:
        self.tickets: list = []
        self.due: list[float] = []
        self.sent: list[float] = []
        self.done: list[float] = []
        self.errors = 0

    def window(self, lo: int, hi: int) -> dict:
        due = np.asarray(self.due[lo:hi])
        done = np.asarray(self.done[lo:hi])
        return {
            "queries": hi - lo,
            "latency_s": done - due,
            "late_s": np.asarray(self.sent[lo:hi]) - due,
            "span_s": float(done[-1] - due[0]) if hi > lo else 0.0,
        }


def build_serve(spec: dict, seed: int, scale: float, seconds: float):
    """Store, engine and the generated query stream (words and due times)."""
    from repro.serve.engine import QueryEngine
    from repro.serve.index import ExactIndex
    from repro.serve.workload.arrivals import arrival_times_us, arrivals_from_dict
    from repro.serve.workload.spec import StoreSpec
    from repro.serve.workload.tenants import TenantMix

    timings = {}
    sizes = dict(spec["store"])
    sizes["vocab_size"] = scaled(sizes["vocab_size"], scale, 2000)
    sizes["clusters"] = scaled(sizes["clusters"], scale, 20)
    start = clock()
    store = StoreSpec(**sizes).build(common.derive_seed(seed, "store"))
    store.normalized()  # lazy set-up finishes before timing
    timings["serve.store.build_s"] = clock() - start
    index = ExactIndex(store)
    engine = QueryEngine(index, **spec["engine"])

    start = clock()
    stream_seed = common.derive_seed(seed, "stream")
    due_s = None
    if spec["loop"] == "open":
        process = arrivals_from_dict(spec["arrivals"])
        count = int(spec["arrivals"]["qps"] * seconds * 1.2) + 64
        due_s = arrival_times_us(process, count, stream_seed) / 1e6
        count = int(np.searchsorted(due_s, seconds))
        due_s = due_s[:count]
    else:
        count = int(spec["stream_queries_per_second"] * seconds)
    mix = TenantMix.from_dict(spec["tenants"])
    _tenant, ids = mix.query_stream(len(store), max(count, 1), stream_seed)
    words = [store.word_of(int(i)) for i in ids]
    timings["serve.workload.stream_s"] = clock() - start
    return store, engine, words, due_s, timings


def drive_closed(engine, words, cursor: int, k: int, concurrency: int, until: float,
                 timer: ReferenceClock, log: ServeLog) -> int:
    """Lock-step waves until ``until``; the stream wraps if it runs out."""
    n = len(words)
    while True:
        timer.tick()
        start = timer.now()
        if start >= until:
            return cursor
        try:
            wave = [engine.submit(words[(cursor + i) % n], k) for i in range(concurrency)]
            engine.flush()
        except Exception:
            traceback.print_exc()
            log.errors += concurrency
            wave = []
        done = timer.now()
        cursor += concurrency
        log.tickets.extend(wave)
        log.due.extend([start] * len(wave))
        log.sent.extend([start] * len(wave))
        log.done.extend([done] * len(wave))


def drive_open(engine, words, due_s, first: int, stop: int, k: int, max_batch: int,
               timer: ReferenceClock, log: ServeLog) -> None:
    """Send queries ``first..stop`` at their due times on the reference clock.

    Every due query (up to ``max_batch``) is submitted, then the batch is
    flushed; latency counts from the due time, so a stall delays — and is
    charged to — every query that became due during it.  Waiting for the
    next due time spins, because the clock only advances while this
    process runs.
    """
    i = first
    while i < stop:
        timer.tick()
        now = timer.now()
        if due_s[i] > now:
            idle = timer.tracer.begin("bench.idle") if timer.tracer is not None else None
            while now < due_s[i]:
                now = timer.now()
            if idle is not None:
                timer.tracer.end(idle)
        j = i
        limit = min(stop, i + max_batch)
        while j < limit and due_s[j] <= now:
            j += 1
        try:
            batch = [engine.submit(words[x], k) for x in range(i, j)]
            engine.flush()
        except Exception:
            traceback.print_exc()
            log.errors += j - i
            batch = []
        done = timer.now()
        log.tickets.extend(batch)
        log.due.extend(due_s[i : i + len(batch)].tolist())
        log.sent.extend([now] * len(batch))
        log.done.extend([done] * len(batch))
        i = j


def run_serve(spec: dict, args, built, calibrator: Calibrator) -> dict:
    from repro.serve.index import ExactIndex

    store, engine, words, due_s, setup_timings = built
    k = spec["k"]
    seconds = args.seconds
    # Window edges as shares of the run: warm-up, then (traced runs only)
    # an untraced measured part, then the traced part.
    edges = [0.0, spec["warmup_share"], 1.0]
    if args.trace:
        edges.insert(2, 0.4)
    tracer = bench_trace.Tracer() if args.trace else None
    log = ServeLog()
    windows: list[tuple[int, int]] = []  # [lo, hi) indices into the log
    stats: list = []
    uninstall = None
    begin_wall = time.perf_counter()
    begin_cpu = clock()
    timer = ReferenceClock(calibrator)
    try:
        cursor = 0
        for part, (lo_share, hi_share) in enumerate(zip(edges, edges[1:])):
            traced = bool(args.trace) and part == 2
            if traced:
                uninstall = bench_trace.install(tracer)
                timer.tracer = tracer
            engine.reset_stats()
            lo = len(log.tickets)
            root = tracer.span("bench.drive") if traced else contextlib.nullcontext()
            with root:
                if spec["loop"] == "closed":
                    cursor = drive_closed(
                        engine, words, cursor, k, spec["concurrency"],
                        hi_share * seconds, timer, log,
                    )
                else:
                    first = int(np.searchsorted(due_s, lo_share * seconds))
                    stop = int(np.searchsorted(due_s, hi_share * seconds))
                    drive_open(
                        engine, words, due_s, first, stop, k,
                        spec["engine"]["max_batch"], timer, log,
                    )
            windows.append((lo, len(log.tickets)))
            stats.append(engine.stats)
    finally:
        if uninstall is not None:
            uninstall()
    wall_over_cpu = (time.perf_counter() - begin_wall) / (clock() - begin_cpu)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    speed = calibrator.speed()

    attempted = len(log.tickets) + log.errors
    unresolved = sum(1 for ticket in log.tickets if not ticket.done)
    failed = log.errors + unresolved
    checks = {"every_ticket_resolved": failed == 0 and attempted > 0}
    row: dict = {"attempted": max(attempted, 1), "failed": failed, "checks": checks,
                 "speed": speed}

    measured_lo, measured_hi = windows[1]
    measured = log.window(measured_lo, measured_hi)
    checks["measured_queries"] = measured["queries"] > 0
    if not checks["measured_queries"]:
        return row

    # Recall against a direct scan, on an evenly spaced sample of answers.
    answered = [t for t in log.tickets[measured_lo:] if t.done]
    step = max(1, len(answered) // spec["recall_sample"])
    sample = answered[::step][: spec["recall_sample"]]
    vectors = np.stack([store.matrix[store.id_of(t.word)] for t in sample])
    truth, _ = ExactIndex(store).search(vectors, k)
    hits = sum(
        len(set(truth[row_i].tolist()) & set(t.result[0].tolist()))
        for row_i, t in enumerate(sample)
    )
    recall = hits / float(truth.size)
    checks["exact_recall_is_1"] = recall == 1.0
    row["samples"] = {
        "measured_queries": measured["queries"],
        "calibration_s": calibrator.samples,
        "wall_over_cpu": wall_over_cpu,
    }

    latency = measured["latency_s"]
    if not args.trace:
        row["end_to_end"] = {
            "items_per_s": measured["queries"] / measured["span_s"],
            "op_p50_ms": percentile(latency, 50) * 1e3,
            "op_p95_ms": percentile(latency, 95) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        return row

    traced_lo, traced_hi = windows[2]
    traced = log.window(traced_lo, traced_hi)
    layers = layer_metrics(tracer, root="bench.drive", per=1, speed=speed)
    for name, seconds_spent in setup_timings.items():
        layers[name] = seconds_spent * speed

    # Cost per query with and without wrappers: window time per query in
    # the closed loop; time inside submit+flush per query in the open loop,
    # where the window is set by the arrival rate.
    def cost(window: dict) -> float:
        if spec["loop"] == "closed":
            return window["span_s"] / window["queries"]
        return float((window["latency_s"] - window["late_s"]).mean())

    layers["bench.trace.overhead_share"] = cost(traced) / cost(measured) - 1.0
    layers["bench.wall_over_cpu"] = wall_over_cpu
    layers["bench.gen_late_p99_ms"] = percentile(traced["late_s"], 99) * 1e3
    traced_latency = traced["latency_s"]
    layers["serve.engine.p99_ms"] = percentile(traced_latency, 99) * 1e3
    layers["serve.engine.p99_9_ms"] = percentile(traced_latency, 99.9) * 1e3
    limit_s = spec["latency_limit_ms"] / 1e3
    layers["serve.slo_miss_rate"] = float((traced_latency > limit_s).mean())
    layers["serve.recall_at_10"] = recall
    engine_stats = stats[2]
    layers["serve.engine.batch_mean"] = (
        float(np.mean(engine_stats.batch_sizes)) if engine_stats.batch_sizes else 0.0
    )
    layers["serve.cache.hit_rate"] = engine_stats.cache.hit_rate
    layers["serve.cache.evictions"] = engine_stats.cache.evictions
    row["per_layer"] = layers
    row["trace_file"] = dump_trace(tracer, args)
    return row


# --------------------------------------------------------------------------
# Shared
# --------------------------------------------------------------------------
def layer_metrics(tracer, root: str, per: int, speed: float) -> dict[str, float]:
    """Per-layer numbers from the spans under ``root``, divided by ``per``.

    ``per`` is the number of traced units, so a train workload reports
    per-unit figures however many units fit the window.  Times are scaled
    by the run's machine ``speed`` like every other time reported.
    """
    summary = tracer.summary()
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def span(name: str) -> dict:
        return summary.get(name, zero)

    def self_s(*names: str) -> float:
        return sum(span(n)["self_s"] for n in names) * speed / per

    def calls(*names: str) -> float:
        return sum(span(n)["calls"] for n in names) / per

    def counter(name: str) -> float:
        return tracer.counters.get(name, 0) / per

    gluon = [name for name in summary if name.startswith("gluon.")]
    # The calibration kernel runs with the clock stopped.
    wall = span(root)["total_s"] - span("bench.calibrate")["total_s"]
    tile_rows = counter("serve.index.tile_rows")
    return {
        "bench.machine_speed": speed,
        "bench.trace.wall_s": wall * speed / per,
        "bench.trace.units": per,
        "bench.trace.residual_share": span(root)["self_s"] / wall if wall else 0.0,
        "bench.trace.overhead_share": 0.0,
        "bench.wall_over_cpu": 0.0,
        "bench.gen_late_p99_ms": 0.0,
        "w2v.steps.build_s": self_s("w2v.steps.build_round_work"),
        "w2v.steps.examples": counter("w2v.steps.examples"),
        "text.negatives.draw_s": self_s("text.sample_negatives"),
        "w2v.sgd.kernel_s": self_s("w2v.sgd.apply"),
        "w2v.sgd.calls": calls("w2v.sgd.apply"),
        "w2v.sgd.ns_per_pair": 0.0,
        "galois.do_all_s": self_s("galois.do_all"),
        "galois.do_all.calls": calls("galois.do_all"),
        "gluon.sync_s": self_s(*gluon),
        "gluon.sync.calls": calls("gluon.sync_replicated"),
        "gluon.phase.calls": calls(*[n for n in gluon if n.startswith("gluon.phase.")]),
        "gluon.bytes_total": 0,
        "gluon.bytes_reduce": 0,
        "gluon.bytes_broadcast": 0,
        "gluon.bytes_request": 0,
        "gluon.messages": 0,
        "core.combine_s": self_s("core.combine.accumulate", "core.combine.result"),
        "core.combine.calls": calls("core.combine.accumulate", "core.combine.result"),
        "core.combine.rows": counter("core.combine.rows"),
        "dgraph.engine_s": self_s("dgraph.engine.run"),
        "dgraph.rounds": 0,
        "cluster.modeled_total_s": 0.0,
        "cluster.modeled_compute_s": 0.0,
        "cluster.modeled_comm_s": 0.0,
        "cluster.modeled_wait_s": 0.0,
        "cluster.modeled_inspection_s": 0.0,
        "cluster.straggler_rounds": 0,
        "eval.analogy_s": 0.0,
        "eval.analogy_acc": 0.0,
        "serve.store.build_s": 0.0,
        "serve.workload.stream_s": 0.0,
        "serve.index.search_s": self_s("serve.index.search"),
        "serve.index.search_calls": calls("serve.index.search"),
        "serve.index.useful_row_share": (
            counter("serve.index.query_rows") / tile_rows if tile_rows else 0.0
        ),
        "serve.engine.flush_s": self_s("serve.engine.flush"),
        "serve.engine.submit_s": self_s("serve.engine.submit"),
        "serve.engine.batch_mean": 0.0,
        "serve.engine.p99_ms": 0.0,
        "serve.engine.p99_9_ms": 0.0,
        "serve.cache.hit_rate": 0.0,
        "serve.cache.evictions": 0,
        "serve.slo_miss_rate": 0.0,
        "serve.recall_at_10": 0.0,
        "bench.idle_s": self_s("bench.idle"),
    }


def dump_trace(tracer, args) -> str:
    common.OUT_DIR.mkdir(exist_ok=True)
    path = common.OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.dump(path)
    return str(path.relative_to(common.REPO_ROOT))


def environment(args, spec: dict) -> dict:
    """The fingerprint every result row carries."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=common.REPO_ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"  # the driver's checkout is not a git repository
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": next(
            (os.environ[v] for v in thread_vars if v in os.environ), "default"
        ),
        "git_sha": sha,
        "seed": args.seed,
        "spec_sha256": common.spec_sha256(spec),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and report only setup_s")
    args = parser.parse_args()
    spec = common.load_specs()[args.workload]

    if spec["kind"] == "train":
        built, run = build_train(spec, args.seed, args.scale), run_train
    else:
        built, run = build_serve(spec, args.seed, args.scale, args.seconds), run_serve
    setup_cpu_s = clock()  # CPU seconds since the process started
    calibrator = Calibrator(spec["calibration"])
    if args.setup_only:
        calibrator.sample(CALIBRATIONS_PER_UNIT)
        print(json.dumps({"workload": args.workload,
                          "setup_s": setup_cpu_s * calibrator.speed()}))
        return 0
    row = run(spec, args, built, calibrator)
    row.update(
        workload=args.workload,
        seconds=args.seconds,
        scale=args.scale,
        trace=args.trace,
        setup_s=setup_cpu_s * row["speed"],
        correct=all(row["checks"].values()),
        env=environment(args, spec),
        description=spec,
    )
    print(json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
