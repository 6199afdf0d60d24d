"""Command-line interface.

Subcommands::

    repro datasets                         # Table 1 of the presets
    repro train [--dataset NAME | --corpus FILE] [--hosts H] [...]
    repro neighbors --model MODEL --dataset NAME --word W
    repro eval --model MODEL --dataset NAME
    repro experiment {table1,table2,table3,fig6,fig7,fig8,fig9}
    repro serve-bench [--model MODEL] [--queries N] [--json FILE]
    repro serve-bench --workload SPEC.json   # SLO-gated workload harness

Invoke as ``python -m repro`` or ``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
from pathlib import Path
import sys

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GraphWord2Vec: distributed Word2Vec on a graph-analytics substrate",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list dataset presets (Table 1)")

    train = sub.add_parser("train", help="train a Word2Vec model")
    source = train.add_mutually_exclusive_group()
    source.add_argument("--dataset", default="tiny-sim", help="synthetic preset name")
    source.add_argument("--corpus", type=Path, help="text file (one sentence per line)")
    train.add_argument("--hosts", type=int, default=1)
    train.add_argument("--sync-rounds", type=int, default=None)
    train.add_argument("--combiner", default="mc", choices=["mc", "avg", "sum", "keep_first"])
    train.add_argument("--plan", default="opt", choices=["naive", "opt", "pull"])
    train.add_argument("--dim", type=int, default=64)
    train.add_argument("--epochs", type=int, default=8)
    train.add_argument("--window", type=int, default=5)
    train.add_argument("--negatives", type=int, default=10)
    train.add_argument("--learning-rate", type=float, default=0.025)
    train.add_argument("--subsample", type=float, default=1e-3)
    train.add_argument("--min-count", type=int, default=1)
    train.add_argument(
        "--architecture", default="skipgram", choices=["skipgram", "cbow"]
    )
    train.add_argument(
        "--objective", default="negative", choices=["negative", "hierarchical"]
    )
    train.add_argument("--seed", type=int, default=7)
    train.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "thread-pool width for the compute phase; with --hosts > 1 the "
            "simulated hosts overlap on real cores (results bit-identical "
            "to serial), with --hosts 1 training is Hogwild-style "
            "(deterministic pair counts, racy vectors). Default: serial, or "
            "the REPRO_WORKERS environment variable for multi-host runs."
        ),
    )
    train.add_argument(
        "--faults",
        metavar="SPEC",
        help=(
            "inject faults into the simulated cluster (multi-host only); "
            "SPEC is comma-separated key=value, e.g. "
            "'crash=0.02,drop=0.01,corrupt=0.005,straggler=0.1'. "
            "Keys map to repro.cluster.FaultConfig fields."
        ),
    )
    train.add_argument(
        "--sanitize",
        action="store_true",
        help=(
            "run the repro.analysis sanitizers (do_all race detection and "
            "Gluon sync protocol checking) during training (multi-host "
            "only); findings abort the run with a report. Results are "
            "bit-identical to an unsanitized run. Defaults to the "
            "REPRO_SANITIZE environment variable."
        ),
    )
    train.add_argument(
        "--engine",
        default="bsp",
        choices=["bsp", "async"],
        help=(
            "round schedule for multi-host training: 'bsp' (every round "
            "a global barrier) or 'async' (bounded-staleness SSP; hosts "
            "run ahead up to --staleness rounds). One engine runs both: "
            "bsp is async with --staleness 0."
        ),
    )
    train.add_argument(
        "--staleness",
        type=int,
        default=0,
        metavar="S",
        help="staleness bound for --engine async (rounds a host may lead by)",
    )
    train.add_argument(
        "--delay-compensation",
        type=float,
        default=0.0,
        metavar="LAMBDA",
        help=(
            "delay-compensation strength for --engine async: stale "
            "contributions are corrected for canonical drift at fold time "
            "(Zheng et al.; 0 disables)"
        ),
    )
    train.add_argument(
        "--trace",
        type=Path,
        metavar="FILE",
        help="write Chrome-trace events of the modeled timeline (chrome://tracing)",
    )
    train.add_argument("--save", type=Path, help="write the trained model (a model artifact)")

    neighbors = sub.add_parser("neighbors", help="nearest-neighbor queries")
    neighbors.add_argument("--model", type=Path, required=True)
    neighbors.add_argument("--dataset", default="tiny-sim")
    neighbors.add_argument("--word", required=True)
    neighbors.add_argument("--topn", type=int, default=10)

    evaluate = sub.add_parser("eval", help="analogy accuracy of a saved model")
    evaluate.add_argument("--model", type=Path, required=True)
    evaluate.add_argument("--dataset", default="tiny-sim")
    evaluate.add_argument(
        "--method", default="add", choices=["add", "mul"],
        help="analogy objective: 3CosAdd (paper) or 3CosMul",
    )
    evaluate.add_argument(
        "--similarity", action="store_true",
        help="also report Spearman rho on planted word-similarity pairs",
    )

    experiment = sub.add_parser("experiment", help="run a paper table/figure")
    experiment.add_argument(
        "name",
        choices=["table1", "table2", "table3", "fig6", "fig7", "fig8", "fig9"],
    )

    serve = sub.add_parser(
        "serve-bench",
        help="benchmark the serving layer: exact search on a trained model, "
             "the recall-vs-QPS frontier (--frontier), or an SLO-gated "
             "multi-tenant workload (--workload)",
    )
    serve.add_argument("--model", type=Path, help="saved model (from train --save); trains fresh if omitted")
    serve.add_argument("--dataset", default="tiny-sim", help="synthetic preset name")
    serve.add_argument("--dim", type=int, default=None,
                       help="embedding dim (default: 48 when training fresh, "
                            "32 for --frontier)")
    serve.add_argument("--epochs", type=int, default=2, help="epochs when training fresh")
    serve.add_argument("--queries", type=int, default=512, help="load-run query count")
    serve.add_argument("--k", type=int, default=10, help="neighbors per query")
    serve.add_argument("--zipf", type=float, default=1.1, help="query-mix Zipf exponent")
    serve.add_argument("--max-batch", type=int, default=64, help="engine micro-batch bound")
    serve.add_argument("--cache-size", type=int, default=256, help="LRU result-cache capacity")
    serve.add_argument("--workers", type=int, default=None, metavar="N",
                       help="thread-pool width for batch search (default: serial "
                            "or the REPRO_WORKERS environment variable)")
    serve.add_argument("--shards", type=int, default=1, metavar="S",
                       help="also benchmark a scatter-gather tier over S shards "
                            "and verify its answers bit-match the single-host "
                            "reference (1 = skip)")
    serve.add_argument("--replicas", type=int, default=1, metavar="R",
                       help="replicas per shard for load-aware routing "
                            "(with --shards)")
    serve.add_argument("--seed", type=int, default=None,
                       help="workload + index seed (default: 7, or the library "
                            "default seed for --frontier)")
    serve.add_argument("--json", type=Path, metavar="FILE",
                       help="write the run reports (or frontier payload) as JSON")
    serve.add_argument("--trace", type=Path, metavar="FILE",
                       help="write Chrome-trace events (chrome://tracing)")
    frontier = serve.add_argument_group(
        "frontier", "recall-vs-QPS frontier sweep over a synthetic clustered store"
    )
    frontier.add_argument("--frontier", action="store_true",
                          help="sweep exact/IVF/int8 points instead of "
                               "benchmarking a trained model")
    frontier.add_argument("--vocab", type=int, default=None, metavar="V",
                          help="frontier store rows (default: 8000)")
    frontier.add_argument("--clusters", type=int, default=None,
                          help="planted family count in the frontier store "
                               "(default: 160)")
    frontier.add_argument("--nlist", type=int, default=None,
                          help="IVF cell count (default: ~sqrt of vocab)")
    frontier.add_argument("--nprobes", type=str, default=None, metavar="P1,P2,..",
                          help="comma-separated IVF probe widths "
                               "(default: 1,2,4,8,16)")
    frontier.add_argument("--check-floors", type=Path, metavar="FILE",
                          help="re-verify the sweep against the recall floors "
                               "recorded under 'frontier_smoke' in FILE; exits "
                               "1 if any point regressed")
    workload = serve.add_argument_group(
        "workload", "multi-tenant workload harness with SLO verdicts"
    )
    workload.add_argument("--workload", type=Path, metavar="SPEC.json",
                          help="run a workload spec (backend plugin, arrival "
                               "process, tenant mix, SLOs) instead of the "
                               "fixed exact benchmark; exits 1 if any SLO "
                               "verdict fails")
    workload.add_argument("--bench-json", type=Path, metavar="FILE",
                          default=Path("BENCH_serve.json"),
                          help="benchmark file the workload row (verdicts "
                               "included) is merged into "
                               "(default: BENCH_serve.json)")
    return parser


def _load_corpus(args):
    from repro.experiments import datasets
    from repro.text.corpus import Corpus

    if args.corpus is not None:
        text = args.corpus.read_text()
        corpus = Corpus.from_text(text, min_count=args.min_count)
        return corpus, None
    corpus, questions = datasets.load(args.dataset)
    return corpus, questions


def _params_from(args):
    from repro.w2v.params import Word2VecParams

    return Word2VecParams(
        dim=args.dim,
        window=args.window,
        negatives=args.negatives,
        learning_rate=args.learning_rate,
        epochs=args.epochs,
        subsample_threshold=args.subsample,
        min_count=args.min_count,
        architecture=args.architecture,
        objective=args.objective,
    )


def _cmd_datasets(_args) -> int:
    from repro.experiments import table1

    print(table1.format_result(table1.run()))
    return 0


def _cmd_train(args) -> int:
    from repro.eval.analogy import evaluate_analogies
    from repro.w2v.distributed import GraphWord2Vec
    from repro.w2v.shared_memory import SharedMemoryWord2Vec

    corpus, questions = _load_corpus(args)
    params = _params_from(args)
    fault_config = None
    if args.faults is not None:
        if args.hosts == 1:
            print("error: --faults requires --hosts > 1", file=sys.stderr)
            return 2
        from repro.cluster.faults import parse_fault_spec

        try:
            fault_config = parse_fault_spec(args.faults)
        except ValueError as exc:
            print(f"error: invalid --faults spec: {exc}", file=sys.stderr)
            return 2
    if args.workers is not None and args.workers < 1:
        print(f"error: --workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2
    if args.sanitize and args.hosts == 1:
        print("error: --sanitize requires --hosts > 1", file=sys.stderr)
        return 2
    if args.hosts == 1 and (args.engine != "bsp" or args.trace is not None):
        print("error: --engine/--trace require --hosts > 1", file=sys.stderr)
        return 2
    if args.engine == "bsp" and (args.staleness or args.delay_compensation):
        print(
            "error: --staleness/--delay-compensation require --engine async",
            file=sys.stderr,
        )
        return 2
    print(f"training on {corpus} with {params}")
    if args.hosts == 1:
        model = SharedMemoryWord2Vec(
            corpus, params, seed=args.seed, workers=args.workers
        ).train()
    else:
        trainer = GraphWord2Vec(
            corpus,
            params,
            num_hosts=args.hosts,
            sync_rounds_per_epoch=args.sync_rounds,
            combiner=args.combiner,
            plan=args.plan,
            seed=args.seed,
            faults=fault_config,
            workers=args.workers,
            sanitize=True if args.sanitize else None,
            engine=args.engine,
            staleness=args.staleness,
            delay_compensation=args.delay_compensation,
        )
        result = trainer.train()
        model = result.model
        report = result.report
        print(
            f"modeled cluster time {report.total_time_s:.2f}s "
            f"(compute {report.breakdown.compute_s:.2f}s, "
            f"comm {report.breakdown.communication_s:.2f}s, "
            f"inspect {report.breakdown.inspection_s:.2f}s, "
            f"recovery {report.breakdown.recovery_s:.2f}s, "
            f"wait {report.breakdown.wait_s:.2f}s); "
            f"{report.comm_bytes:,} bytes in {report.comm_messages:,} messages"
        )
        if report.faults is not None:
            print(f"faults: {report.faults.summary()}")
        if args.trace is not None:
            from repro.cluster.network import SCALED_DEFAULT
            from repro.cluster.trace import trace_json

            args.trace.write_text(
                trace_json(
                    trainer.async_timeline,
                    trainer.network.phase_records,
                    SCALED_DEFAULT,
                )
            )
            print(f"trace written to {args.trace}")
    if questions is not None:
        print(evaluate_analogies(model, corpus.vocabulary, questions))
    if args.save is not None:
        from repro.util.artifact import write_atomic

        write_atomic(args.save, [model.to_bytes()])
        print(f"model written to {args.save}")
    return 0


def _load_model(path: Path, corpus):
    """The model saved at ``path`` if it fits ``corpus``, else ``None``
    after printing why (unreadable, damaged, or another vocabulary)."""
    from repro.w2v.model import Word2VecModel

    try:
        model = Word2VecModel.from_bytes(path.read_bytes())
    except (OSError, ValueError) as err:
        print(f"error: --model {path}: {err}", file=sys.stderr)
        return None
    if model.vocab_size != len(corpus.vocabulary):
        print(
            f"error: model vocab ({model.vocab_size}) does not match dataset "
            f"({len(corpus.vocabulary)})",
            file=sys.stderr,
        )
        return None
    return model


def _cmd_neighbors(args) -> int:
    from repro.eval.similarity import most_similar
    from repro.experiments import datasets

    corpus, _ = datasets.load(args.dataset)
    model = _load_model(args.model, corpus)
    if model is None:
        return 2
    for word, score in most_similar(model, corpus.vocabulary, args.word, topn=args.topn):
        print(f"{score:+.3f}  {word}")
    return 0


def _cmd_eval(args) -> int:
    from repro.eval.analogy import evaluate_analogies
    from repro.eval.wordsim import build_planted_similarity, evaluate_similarity
    from repro.experiments import datasets

    corpus, questions = datasets.load(args.dataset)
    model = _load_model(args.model, corpus)
    if model is None:
        return 2
    accuracy = evaluate_analogies(
        model, corpus.vocabulary, questions, method=args.method
    )
    print(accuracy)
    for family, acc in sorted(accuracy.per_family.items()):
        print(f"  {family:24s} {acc:.1%}")
    if args.similarity:
        families = datasets.PRESETS[args.dataset].spec.resolve_families()
        pairs = build_planted_similarity(families)
        rho = evaluate_similarity(model, corpus.vocabulary, pairs)
        print(f"word similarity (Spearman rho over planted pairs): {rho:+.3f}")
    return 0


def _cmd_experiment(args) -> int:
    from repro.experiments import fig6, fig7, fig8, fig9, table1, table23

    name = args.name
    if name == "table1":
        print(table1.format_result(table1.run()))
    elif name in ("table2", "table3"):
        rows = table23.run()
        print(table23.format_table2(rows) if name == "table2" else table23.format_table3(rows))
    elif name == "fig6":
        print(fig6.format_result(fig6.run()))
    elif name == "fig7":
        print(fig7.format_result(fig7.run()))
    elif name == "fig8":
        print(fig8.format_result(fig8.run()))
    elif name == "fig9":
        print(fig9.format_result(fig9.run()))
    return 0


def _cmd_serve_frontier(args) -> int:
    import json

    from repro.serve import FrontierConfig, check_frontier_floors, sweep_frontier
    from repro.util.tables import format_table

    overrides = {}
    for flag, field in (
        ("vocab", "vocab_size"),
        ("dim", "dim"),
        ("clusters", "clusters"),
        ("seed", "seed"),
        ("nlist", "nlist"),
    ):
        value = getattr(args, flag)
        if value is not None:
            overrides[field] = value
    if args.nprobes is not None:
        overrides["nprobes"] = tuple(int(p) for p in args.nprobes.split(","))
    config = FrontierConfig(num_queries=args.queries, k=args.k, **overrides)
    payload = sweep_frontier(config)
    rows = [
        [
            point["label"],
            f"{point['recall_at_k']:.3f}",
            f"{point['recall_floor']:.3f}",
            float(point["qps"]),
            point["p50_query_ms"],
            point["build_seconds"],
            point["memory_bytes"] // 1024,
        ]
        for point in payload["points"]
    ]
    print(
        format_table(
            ["index", f"recall@{config.k}", "floor", "qps", "p50 ms/q",
             "build s", "KiB"],
            rows,
            title=(
                f"serve-bench frontier · vocab {config.vocab_size} · "
                f"dim {config.dim} · seed {config.seed}"
            ),
        )
    )
    if args.json is not None:
        args.json.write_text(json.dumps(payload, indent=2))
        print(f"frontier written to {args.json}")
    if args.check_floors is not None:
        recorded = json.loads(args.check_floors.read_text())
        section = recorded.get("frontier_smoke")
        if section is None:
            print(
                f"error: {args.check_floors} has no 'frontier_smoke' section",
                file=sys.stderr,
            )
            return 2
        violations = check_frontier_floors(payload, section)
        if violations:
            for violation in violations:
                print(f"floor regression: {violation}", file=sys.stderr)
            return 1
        print(
            f"all {len(section.get('points', []))} recorded recall floors hold"
        )
    return 0


def _emit_reports(args, reports, title: str, **header) -> None:
    """Print the table and summaries of ``reports``; write --json/--trace
    (``header`` entries lead the JSON payload)."""
    import json

    from repro.serve import format_reports

    print(format_reports(reports, title=title))
    for report in reports:
        print(report.summary())
    if args.json is not None:
        payload = {**header, "reports": [report.as_dict() for report in reports]}
        args.json.write_text(json.dumps(payload, indent=2))
        print(f"reports written to {args.json}")
    if args.trace is not None:
        events = [
            event
            for tid, report in enumerate(reports)
            for event in report.chrome_trace_events(tid)
        ]
        args.trace.write_text(json.dumps({"traceEvents": events}))
        print(f"trace written to {args.trace}")


def _cmd_serve_workload(args) -> int:
    import dataclasses

    from repro.bench import merge_bench_row
    from repro.serve import WorkloadSpec, run_workload
    from repro.serve.workload.slo import format_verdicts

    try:
        spec = WorkloadSpec.from_file(args.workload)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load workload spec {args.workload}: {exc}",
              file=sys.stderr)
        return 2
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    try:
        report = run_workload(spec, workers=args.workers)
    except ValueError as exc:
        # Spec-shaped problems surface here too (unknown backend name,
        # unconsumed backend options, missing store section).
        print(f"error: cannot run workload {spec.name}: {exc}", file=sys.stderr)
        return 2

    _emit_reports(
        args,
        [report],
        title=(
            f"serve-bench workload · {spec.name} · backend {spec.backend} "
            f"({spec.mode} loop) · seed {spec.seed}"
        ),
    )
    if report.verdicts:
        print(format_verdicts(report.verdicts))
    else:
        print("no SLO rules in spec — nothing to gate on")
    merge_bench_row(args.bench_json, f"workload:{spec.name}", report.bench_row())
    print(f"workload row merged into {args.bench_json}")
    if not report.slo_pass:
        failed = sum(1 for verdict in report.verdicts if not verdict.passed)
        print(f"error: {failed} SLO verdict(s) failed", file=sys.stderr)
        return 1
    return 0


def _cmd_serve_bench(args) -> int:
    if args.workload is not None:
        return _cmd_serve_workload(args)
    if args.frontier:
        return _cmd_serve_frontier(args)
    if args.dim is None:
        args.dim = 48
    if args.seed is None:
        args.seed = 7

    from repro.experiments import datasets
    from repro.serve import EmbeddingStore, ExactIndex, LoadConfig, QueryEngine, run_load

    corpus, _ = datasets.load(args.dataset)
    if args.model is not None:
        model = _load_model(args.model, corpus)
        if model is None:
            return 2
    else:
        from repro.w2v.params import Word2VecParams
        from repro.w2v.shared_memory import SharedMemoryWord2Vec

        params = Word2VecParams(dim=args.dim, epochs=args.epochs, negatives=6)
        print(f"training a fresh model on {corpus} ({params})")
        model = SharedMemoryWord2Vec(corpus, params, seed=args.seed).train()

    store = EmbeddingStore.from_model(model, corpus.vocabulary)
    print(f"store: {store}")

    config = LoadConfig(
        num_queries=args.queries, k=args.k, zipf_exponent=args.zipf, seed=args.seed
    )
    engine = QueryEngine(
        ExactIndex(store),
        max_batch=args.max_batch,
        cache_size=args.cache_size,
        workers=args.workers,
    )
    reports = [run_load(engine, config, index_label="exact")]

    if args.shards > 1:
        from repro.serve import ShardedEngine, ShardedIndex

        sharded_index = ShardedIndex(
            store, num_shards=args.shards, replicas=args.replicas
        )
        sharded_engine = ShardedEngine(
            sharded_index,
            max_batch=args.max_batch,
            cache_size=args.cache_size,
            workers=args.workers,
        )
        sharded_report = run_load(
            sharded_engine,
            config,
            index_label=f"sharded(s={args.shards},r={args.replicas})",
        )
        # Within-run parity gate: the scatter-gather answers must be
        # bit-identical to a single-host exact pass on the same block grid.
        reference_engine = QueryEngine(
            sharded_index.plan.reference_index(store),
            max_batch=args.max_batch,
            cache_size=args.cache_size,
            workers=args.workers,
        )
        reference_report = run_load(reference_engine, config, index_label="exact-grid")
        if sharded_report.answers_sha256 != reference_report.answers_sha256:
            print(
                "error: sharded answers diverge from the single-host reference "
                f"({sharded_report.answers_sha256[:16]} != "
                f"{reference_report.answers_sha256[:16]})",
                file=sys.stderr,
            )
            return 1
        print(
            f"sharded parity holds: {args.shards} shards x {args.replicas} "
            f"replicas bit-match the single-host reference "
            f"(sha256 {sharded_report.answers_sha256[:16]}…)"
        )
        reports += [sharded_report, reference_report]

    _emit_reports(
        args,
        reports,
        title=f"serve-bench · {args.dataset} · seed {args.seed}",
        dataset=args.dataset,
        shards=args.shards,
        replicas=args.replicas,
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "datasets": _cmd_datasets,
        "train": _cmd_train,
        "neighbors": _cmd_neighbors,
        "eval": _cmd_eval,
        "experiment": _cmd_experiment,
        "serve-bench": _cmd_serve_bench,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
