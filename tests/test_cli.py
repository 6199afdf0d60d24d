import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.dataset == "tiny-sim"
        assert args.hosts == 1
        assert args.combiner == "mc"

    def test_invalid_combiner_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--combiner", "magic"])

    def test_experiment_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_serve_bench_defaults(self):
        args = build_parser().parse_args(["serve-bench"])
        assert args.model is None
        assert args.dataset == "tiny-sim"
        assert args.queries == 512
        assert args.k == 10
        assert args.max_batch == 64
        assert args.cache_size == 256
        assert not args.frontier and args.check_floors is None


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "wiki-sim" in out

    def test_train_shared_memory_and_save(self, tmp_path, capsys):
        model_path = tmp_path / "model.npz"
        code = main(
            [
                "train", "--dataset", "tiny-sim", "--dim", "16", "--epochs", "1",
                "--negatives", "4", "--subsample", "1e-2",
                "--save", str(model_path),
            ]
        )
        assert code == 0
        assert model_path.exists()
        out = capsys.readouterr().out
        assert "semantic" in out

    def test_train_distributed(self, capsys):
        code = main(
            [
                "train", "--dataset", "tiny-sim", "--hosts", "3", "--dim", "16",
                "--epochs", "1", "--negatives", "4", "--subsample", "1e-2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "modeled cluster time" in out

    def test_train_distributed_workers(self, capsys):
        code = main(
            [
                "train", "--dataset", "tiny-sim", "--hosts", "3", "--dim", "16",
                "--epochs", "1", "--negatives", "4", "--subsample", "1e-2",
                "--workers", "2",
            ]
        )
        assert code == 0
        assert "modeled cluster time" in capsys.readouterr().out

    @pytest.mark.parametrize("schedule", [[], ["--engine", "async", "--staleness", "2"]])
    def test_train_trace(self, tmp_path, capsys, schedule):
        import json

        trace_path = tmp_path / "train.trace.json"
        code = main(
            [
                "train", "--dataset", "tiny-sim", "--hosts", "3", "--dim", "16",
                "--epochs", "1", "--negatives", "4", "--subsample", "1e-2",
                "--trace", str(trace_path), *schedule,
            ]
        )
        assert code == 0
        assert f"trace written to {trace_path}" in capsys.readouterr().out
        events = json.loads(trace_path.read_text())["traceEvents"]
        assert {"compute", "communication"} <= {e.get("cat") for e in events}

    def test_train_engine_argument_checks(self, tmp_path, capsys):
        base = ["train", "--dataset", "tiny-sim", "--epochs", "1"]
        for single_host in (["--engine", "async"], ["--trace", str(tmp_path / "t.json")]):
            assert main(base + single_host) == 2
            assert "--engine/--trace require --hosts > 1" in capsys.readouterr().err
        for knob in (["--staleness", "2"], ["--delay-compensation", "0.5"]):
            assert main(base + ["--hosts", "2", "--engine", "bsp"] + knob) == 2
            assert (
                "--staleness/--delay-compensation require --engine async"
                in capsys.readouterr().err
            )

    def test_train_hogwild_workers(self, capsys):
        code = main(
            [
                "train", "--dataset", "tiny-sim", "--dim", "16",
                "--epochs", "1", "--negatives", "4", "--subsample", "1e-2",
                "--workers", "2",
            ]
        )
        assert code == 0
        assert "training on" in capsys.readouterr().out

    def test_train_invalid_workers(self, capsys):
        code = main(
            ["train", "--dataset", "tiny-sim", "--epochs", "1", "--workers", "0"]
        )
        assert code == 2
        assert "--workers" in capsys.readouterr().err

    def test_train_custom_corpus(self, tmp_path, capsys):
        corpus_file = tmp_path / "text.txt"
        corpus_file.write_text(
            "\n".join(["the quick brown fox jumps over the lazy dog"] * 50)
        )
        code = main(
            [
                "train", "--corpus", str(corpus_file), "--dim", "8", "--epochs", "1",
                "--negatives", "2", "--subsample", "1e-1", "--window", "2",
            ]
        )
        assert code == 0

    def test_eval_similarity_and_mul(self, tmp_path, capsys):
        model_path = tmp_path / "model.npz"
        main(
            [
                "train", "--dataset", "tiny-sim", "--dim", "16", "--epochs", "1",
                "--negatives", "4", "--subsample", "1e-2",
                "--save", str(model_path),
            ]
        )
        capsys.readouterr()
        code = main(
            [
                "eval", "--model", str(model_path), "--dataset", "tiny-sim",
                "--method", "mul", "--similarity",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Spearman" in out

    def test_eval_and_neighbors(self, tmp_path, capsys):
        model_path = tmp_path / "model.npz"
        main(
            [
                "train", "--dataset", "tiny-sim", "--dim", "16", "--epochs", "1",
                "--negatives", "4", "--subsample", "1e-2",
                "--save", str(model_path),
            ]
        )
        capsys.readouterr()
        assert main(["eval", "--model", str(model_path), "--dataset", "tiny-sim"]) == 0
        out = capsys.readouterr().out
        assert "semantic" in out and "capital-common" in out

        assert (
            main(
                [
                    "neighbors", "--model", str(model_path),
                    "--dataset", "tiny-sim", "--word", "country00", "--topn", "3",
                ]
            )
            == 0
        )
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 3

    def test_neighbors_vocab_mismatch(self, tmp_path, capsys):
        from repro.w2v.model import Word2VecModel

        model = Word2VecModel.initialize(5, 4, np.random.default_rng(0))
        path = tmp_path / "wrong.npz"
        path.write_bytes(model.to_bytes())
        code = main(
            ["neighbors", "--model", str(path), "--dataset", "tiny-sim", "--word", "x"]
        )
        assert code == 2
        assert "does not match" in capsys.readouterr().err

    def test_serve_bench_end_to_end(self, tmp_path, capsys):
        import json

        model_path = tmp_path / "model.npz"
        main(
            [
                "train", "--dataset", "tiny-sim", "--dim", "16", "--epochs", "1",
                "--negatives", "4", "--subsample", "1e-2",
                "--save", str(model_path),
            ]
        )
        capsys.readouterr()
        json_path = tmp_path / "serve.json"
        trace_path = tmp_path / "serve.trace.json"
        code = main(
            [
                "serve-bench", "--model", str(model_path), "--dataset", "tiny-sim",
                "--queries", "64", "--k", "5", "--max-batch", "16",
                "--cache-size", "32",
                "--json", str(json_path), "--trace", str(trace_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "serve-bench" in out and "p99" in out

        payload = json.loads(json_path.read_text())
        assert payload["dataset"] == "tiny-sim"
        labels = {r["modeled"]["backend"] for r in payload["reports"]}
        assert labels == {"exact"}
        for report in payload["reports"]:
            assert report["modeled"]["num_queries"] == 64
            assert {"qps", "p50_ms", "p95_ms", "p99_ms"} <= set(
                report["measured"]["aggregate"]
            )
        trace = json.loads(trace_path.read_text())
        assert trace["traceEvents"]

    def test_serve_bench_vocab_mismatch(self, tmp_path, capsys):
        from repro.w2v.model import Word2VecModel

        model = Word2VecModel.initialize(5, 4, np.random.default_rng(0))
        path = tmp_path / "wrong.npz"
        path.write_bytes(model.to_bytes())
        code = main(
            ["serve-bench", "--model", str(path), "--dataset", "tiny-sim"]
        )
        assert code == 2
        assert "does not match" in capsys.readouterr().err

    def test_experiment_hs_cbow_via_train(self, capsys):
        code = main(
            [
                "train", "--dataset", "tiny-sim", "--dim", "16", "--epochs", "1",
                "--architecture", "cbow", "--objective", "hierarchical",
                "--subsample", "1e-2",
            ]
        )
        assert code == 0
