"""Observability through the CLI: profile, tracing, status views."""

import json
import logging
import os
import re

import pytest

from repro.cli import main

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


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """One smoke-trained protected checkpoint shared by the module."""
    root = tmp_path_factory.mktemp("obs-cli")
    cache_before = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(root / "cache")
    try:
        path = root / "model.npz"
        code = main(
            [
                "protect",
                "--model",
                "lenet",
                "--method",
                "clipact",
                "--out",
                str(path),
                *TINY,
            ]
        )
        assert code == 0
        yield str(path)
    finally:
        if cache_before is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = cache_before


@pytest.fixture(scope="module")
def store(checkpoint, tmp_path_factory):
    """One complete two-trial campaign store."""
    path = tmp_path_factory.mktemp("obs-store") / "store"
    code = main(
        [
            "campaign",
            "run",
            "--checkpoint",
            checkpoint,
            "--store",
            str(path),
            "--rates",
            "1e-5",
            *TINY,
            "--trials",
            "2",
        ]
    )
    assert code == 0
    return str(path)


class TestProfileCommand:
    def test_prints_per_kernel_table(self, checkpoint, capsys):
        assert main(["profile", checkpoint, "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        assert "gather" in out and "gemm" in out and "epilogue" in out
        assert "conv" in out  # lenet has instrumented conv kernels
        # Each conv row names its layout; lenet's maps are all large
        # enough for the K-major one, and a batch of one is one block.
        assert "[im2col, block 1]" in out and "[nhwc]" not in out
        assert "ms/forward" in out
        memory = re.search(
            r"^memory: scratch arena [0-9.]+ [KM]B \((.*)\); "
            r"per-kernel out [0-9.]+ [KM]B, padded [0-9.]+ [KM]B$",
            out,
            re.MULTILINE,
        )
        assert memory is not None, out
        # K-major GEMMs write the kernel's own out buffer: the only
        # large scratch is the column matrix.
        assert "cols " in memory.group(1) and "gemm " not in memory.group(1)

    def test_writes_chrome_trace(self, checkpoint, tmp_path, capsys):
        trace = tmp_path / "kernels.json"
        code = main(
            [
                "profile",
                checkpoint,
                "--repeats",
                "1",
                "--warmup",
                "0",
                "--trace",
                str(trace),
            ]
        )
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        payload = json.loads(trace.read_text())
        complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert complete
        assert all(e["cat"] == "plan" for e in complete)


class TestGlobalFlags:
    def test_global_trace_exports_spans(self, checkpoint, tmp_path, capsys):
        trace = tmp_path / "session.json"
        code = main(
            ["--trace", str(trace), "profile", checkpoint, "--repeats", "1"]
        )
        assert code == 0
        assert "trace events" in capsys.readouterr().err
        names = {
            event["name"]
            for event in json.loads(trace.read_text())["traceEvents"]
            if event["ph"] == "X"
        }
        assert "runtime.compile" in names

    def test_global_trace_disabled_after_exit(self, checkpoint, tmp_path):
        from repro.obs import tracing_enabled

        trace = tmp_path / "session.json"
        main(["--trace", str(trace), "list-experiments"])
        assert not tracing_enabled()

    def test_log_level_sets_library_verbosity(self):
        root = logging.getLogger("repro")
        before = root.level
        try:
            assert main(["--log-level", "debug", "list-experiments"]) == 0
            assert root.level == logging.DEBUG
            assert main(["--log-level", "warning", "list-experiments"]) == 0
            assert root.level == logging.WARNING
        finally:
            root.setLevel(before)

    def test_log_level_rejects_unknown(self):
        with pytest.raises(SystemExit):
            main(["--log-level", "loud", "list-experiments"])


class TestStatusViews:
    def test_json_format_round_trips(self, store, capsys):
        code = main(
            ["campaign", "status", "--store", store, "--format", "json"]
        )
        assert code == 0
        status = json.loads(capsys.readouterr().out)
        assert status["complete"] is True
        assert status["journaled"] == status["expected"] == 2
        (config,) = status["configs"]
        assert config["journaled"] == 2

    def test_watch_exits_when_complete(self, store, capsys):
        code = main(["campaign", "watch", "--store", store, "--interval", "0.01"])
        assert code == 0
        out = capsys.readouterr().out
        assert "2/2 trials" in out
        assert "converged 0/1 configs" in out
        assert "complete:" in out

    def test_watch_updates_default_registry_gauges(self, store):
        from repro.obs import default_registry

        assert main(["campaign", "watch", "--store", store, "--once"]) == 0
        registry = default_registry()
        for name, value in (("journaled", 2), ("expected", 2)):
            gauge = registry.gauge(
                f"repro_campaign_status_{name}", "", labelnames=("store",)
            )
            assert gauge.value(store=store) == value


class TestProfileReplicas:
    def test_per_lane_profile_splits_shared_from_suffix_cost(
        self, checkpoint, capsys
    ):
        assert main(["profile", checkpoint, "--batch", "8", "--replicas", "4"]) == 0
        out = capsys.readouterr().out
        assert "shared clean pass" in out
        assert "amortised over 4 lanes" in out
        assert "lane suffixes" in out
        assert "replica-batched" in out
