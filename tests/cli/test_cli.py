"""The ``repro`` command line: parsing, dispatch, and the full pipeline."""

import os

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.eval.experiments import EXPERIMENTS
from repro.models.registry import MODEL_NAMES


@pytest.fixture()
def isolated_cache(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
    return cache


TINY = [
    "--preset",
    "smoke",
    "--train-samples",
    "250",
    "--test-samples",
    "100",
    "--epochs",
    "6",
    "--post-epochs",
    "1",
    "--trials",
    "1",
]


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_help_lists_commands(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for command in ("train", "protect", "evaluate", "experiment"):
            assert command in out


class TestListCommands:
    def test_list_models(self, capsys):
        assert main(["list-models"]) == 0
        out = capsys.readouterr().out
        for name in MODEL_NAMES:
            assert name in out

    def test_list_experiments(self, capsys):
        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        for exp_id in EXPERIMENTS:
            assert exp_id in out

    def test_info(self, capsys):
        assert main(["info", "--model", "lenet", "--image-size", "16"]) == 0
        out = capsys.readouterr().out
        assert "parameters" in out
        assert "ReLU sites" in out

    def test_info_verbose_prints_tree(self, capsys):
        assert main(
            ["info", "--model", "lenet", "--image-size", "16", "--verbose"]
        ) == 0
        assert "Conv2d" in capsys.readouterr().out

    def test_info_unknown_model_is_error(self, capsys):
        assert main(["info", "--model", "transformer9000"]) == 1
        assert "error" in capsys.readouterr().err


class TestExperimentCommand:
    def test_unknown_id(self, capsys):
        assert main(["experiment", "--id", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_fig3_runs_without_training(self, capsys):
        """fig3 evaluates pure activation functions — no data, no model."""
        assert main(["experiment", "--id", "fig3", "--preset", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "FitReLU" in out

    def test_bad_preset(self, capsys):
        assert main(["experiment", "--id", "fig3", "--preset", "gigantic"]) == 1
        assert "unknown preset" in capsys.readouterr().err


class TestPipeline:
    def test_train_protect_evaluate(self, isolated_cache, tmp_path, capsys):
        checkpoint = tmp_path / "model.npz"

        assert main(["train", "--model", "lenet", *TINY]) == 0
        assert "trained lenet/synth10" in capsys.readouterr().out

        assert (
            main(
                [
                    "protect",
                    "--model",
                    "lenet",
                    "--method",
                    "clipact",
                    "--out",
                    str(checkpoint),
                    *TINY,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "clipact" in out
        assert checkpoint.exists()

        assert main(["evaluate", "--checkpoint", str(checkpoint), *TINY]) == 0
        out = capsys.readouterr().out
        assert "clean accuracy" in out
        assert "rate " not in out
        # Campaigns run only through `campaign run`.
        with pytest.raises(SystemExit) as excinfo:
            main(["evaluate", "--checkpoint", str(checkpoint), "--rates", "1e-5"])
        assert excinfo.value.code == 2

    def test_second_train_hits_cache(self, isolated_cache, capsys):
        assert main(["train", "--model", "lenet", *TINY]) == 0
        first = capsys.readouterr().out
        assert main(["train", "--model", "lenet", *TINY]) == 0
        second = capsys.readouterr().out
        # Same reported accuracy both times (the cache reproduces weights).
        assert first.split("accuracy")[1] == second.split("accuracy")[1]

    def test_protect_records_format_and_evaluate_uses_it(
        self, isolated_cache, tmp_path, capsys
    ):
        """Regression: campaigns used to hard-code Q15.16, so faults for a
        Q7.8 checkpoint landed in the wrong bit-space."""
        from repro.core.checkpoint import load_protected
        from repro.models.registry import build_model
        from repro.store import CampaignStore

        checkpoint = tmp_path / "q78.npz"
        assert (
            main(
                [
                    "protect",
                    "--model",
                    "lenet",
                    "--method",
                    "clipact",
                    "--format",
                    "q7.8",
                    "--out",
                    str(checkpoint),
                    *TINY,
                ]
            )
            == 0
        )
        capsys.readouterr()

        def builder():
            return build_model(
                "lenet", num_classes=10, scale=0.5, image_size=16, seed=0
            )

        _, meta = load_protected(checkpoint, builder)
        assert meta["format"] == "Q7.8"

        store = tmp_path / "q78-store"
        argv = ["campaign", "run", "--checkpoint", str(checkpoint), "--store"]
        assert main([*argv, str(store), "--rates", "1e-4", *TINY]) == 0
        captured = capsys.readouterr()
        assert "rate 1.0e-04" in captured.out
        with CampaignStore.open(store) as opened:
            assert opened.identity["word_bits"] == 16  # Q7.8 words
        # The manifest carries a format, so no fallback warning appears.
        assert "assuming Q15.16" not in captured.err

    def test_evaluate_warns_when_manifest_lacks_format(self, capsys):
        from repro.cli.main import _checkpoint_format
        from repro.quant.fixed_point import Q15_16
        from repro.quant.formats import Q3_4

        assert _checkpoint_format({}) is Q15_16
        assert "assuming Q15.16" in capsys.readouterr().err
        assert _checkpoint_format({"format": "Q3.4"}) == Q3_4
        assert capsys.readouterr().err == ""

    def test_evaluate_rejects_non_checkpoint(self, tmp_path, capsys):
        from repro.utils.serialization import save_state

        bare = tmp_path / "bare.npz"
        save_state(bare, {"weight": np.zeros(3)})
        assert main(["evaluate", "--checkpoint", str(bare)]) == 1
        assert "not a protected-model" in capsys.readouterr().err


class TestEnvironmentIsolation:
    def test_cache_dir_respected(self, isolated_cache):
        assert main(["train", "--model", "lenet", *TINY]) == 0
        assert os.environ["REPRO_CACHE_DIR"] == str(isolated_cache)
        assert any(isolated_cache.iterdir())


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(
            ["serve", "--checkpoint", "model.npz"]
        )
        assert args.checkpoint == ["model.npz"]
        assert args.host == "127.0.0.1"
        assert args.port == 8080
        assert args.max_batch == 32
        assert args.max_latency_ms == 5.0
        assert not hasattr(args, "batch_workers")
        assert args.registry_capacity == 4
        assert args.chaos_ber is None
        assert args.chaos_seed == 0

    def test_serve_collects_repeated_checkpoints_and_chaos(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--checkpoint",
                "fit=a.npz",
                "--checkpoint",
                "plain=b.npz",
                "--port",
                "0",
                "--chaos-ber",
                "1e-5",
                "--chaos-seed",
                "3",
            ]
        )
        assert args.checkpoint == ["fit=a.npz", "plain=b.npz"]
        assert args.port == 0
        assert args.chaos_ber == 1e-5
        assert args.chaos_seed == 3

    def test_serve_requires_checkpoint(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_serve_rejects_negative_port(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", "--checkpoint", "a.npz", "--port", "-1"]
            )
