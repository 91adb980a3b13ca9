"""Plan profiling: per-kernel rows, trace export, side-band invariant."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import nn
from repro.errors import ConfigurationError
from repro.fault import BitFlipFaultModel, FaultCampaign, FaultInjector
from repro.models.registry import MODEL_NAMES, build_model
from repro.obs import KernelProfiler, configure_tracing, reset_tracing
from repro.quant.model import quantize_module
from repro.runtime.plan import compile_model
from tests.conftest import drain_store, journal_lines

ROW_KEYS = {
    "step",
    "kernel",
    "calls",
    "total_ms",
    "gather_ms",
    "gemm_ms",
    "epilogue_ms",
    "other_ms",
}


def _plan(name="lenet", batch=1):
    model = build_model(name, num_classes=10, scale=0.125, image_size=32, seed=0)
    return compile_model(model, (batch, 3, 32, 32))


class TestPlanProfile:
    @pytest.mark.parametrize("name", sorted(MODEL_NAMES))
    def test_every_registry_model_reports_phase_split(self, name):
        profile = _plan(name).profile(repeats=1, warmup=0)
        assert profile.forwards == 1
        assert profile.rows, name
        for row in profile.rows:
            assert set(row) == ROW_KEYS
            assert row["calls"] >= 1
            for key in ("total_ms", "gather_ms", "gemm_ms", "epilogue_ms", "other_ms"):
                assert float(row[key]) >= 0.0
        # The models are conv/linear stacks: some kernel must have hit
        # an instrumented GEMM, and the derived epilogue must be fed by
        # a real total.
        assert any(float(row["gemm_ms"]) > 0.0 for row in profile.rows)
        assert profile.total_ms > 0.0

    def test_epilogue_counts_gemm_kernels_only(self):
        """Pooling, flatten and standalone steps have no gather or GEMM:
        their time is ``other``, never a GEMM epilogue."""
        profile = _plan("vgg16").profile(repeats=1, warmup=0)
        gemm_rows = [r for r in profile.rows if r["kernel"].startswith(("conv", "linear"))]
        other_rows = [r for r in profile.rows if r not in gemm_rows]
        assert gemm_rows and other_rows
        assert any(str(r["kernel"]) == "MaxPoolKernel" for r in other_rows)
        for row in gemm_rows:
            assert row["other_ms"] == 0.0
        for row in other_rows:
            assert row["epilogue_ms"] == 0.0
            assert row["gather_ms"] == row["gemm_ms"] == 0.0
            assert row["other_ms"] == pytest.approx(row["total_ms"])
        assert "other" in profile.table().splitlines()[0]

    def test_residual_children_get_nested_labels(self):
        profile = _plan("resnet18").profile(repeats=1, warmup=0)
        steps = [str(row["step"]) for row in profile.rows]
        nested = [step for step in steps if ".main." in step]
        assert nested, steps
        # Nested child totals are subtracted from the parent's epilogue,
        # so the parent row stays a wrapper cost, not a double count.
        parent = nested[0].split(".", 1)[0]
        parent_row = next(r for r in profile.rows if str(r["step"]) == parent)
        child_total = sum(
            float(r["total_ms"])
            for r in profile.rows
            if str(r["step"]).startswith(f"{parent}.")
        )
        # The add + activation around the children is not a GEMM epilogue.
        assert parent_row["epilogue_ms"] == 0.0
        assert parent_row["other_ms"] <= parent_row["total_ms"]
        assert child_total <= float(parent_row["total_ms"]) + 1.0

    def test_profile_validates_arguments(self):
        plan = _plan()
        with pytest.raises(ConfigurationError):
            plan.profile(repeats=0)
        with pytest.raises(ConfigurationError):
            plan.profile(warmup=-1)

    def test_profile_detaches_and_results_stay_bit_identical(self):
        plan = _plan()
        batch = np.random.default_rng(0).normal(size=(2, 3, 32, 32))
        batch = batch.astype(np.float32)
        before = plan(batch)
        profile = plan.profile(repeats=2, warmup=1)
        after = plan(batch)
        assert plan._profiler is None
        assert profile.forwards == 2
        np.testing.assert_array_equal(before, after)

    def test_compile_model_profile_flag_attaches_persistently(self):
        model = build_model(
            "lenet", num_classes=10, scale=0.125, image_size=32, seed=0
        )
        plan = compile_model(model, (1, 3, 32, 32), profile=True)
        assert plan._profiler is not None
        assert plan._profiler.forwards == 0  # the warm pass is untimed
        plan(np.zeros((1, 3, 32, 32), dtype=np.float32))
        assert plan._profiler.forwards == 1
        assert plan._profiler.result().rows

    def test_reattach_resets_accumulation(self):
        plan = _plan()
        profiler = plan.attach_profiler()
        plan(np.zeros((1, 3, 32, 32), dtype=np.float32))
        assert profiler.forwards == 1
        plan.attach_profiler(profiler)
        assert profiler.forwards == 0
        assert profiler.events == []
        labels = [row["step"] for row in profiler.rows()]
        assert labels == sorted(set(labels), key=labels.index)

    def test_table_lists_every_step(self):
        profile = _plan().profile(repeats=1, warmup=0)
        table = profile.table()
        for row in profile.rows:
            assert str(row["kernel"]) in table
        assert "ms/forward" in table

    def test_chrome_trace_schema_and_write(self, tmp_path):
        profile = _plan().profile(repeats=1, warmup=0)
        trace = profile.chrome_trace()
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert complete
        assert all(e["cat"] == "plan" for e in complete)
        path = tmp_path / "kernels.json"
        count = profile.write_chrome_trace(str(path))
        assert count == len(profile.events)
        loaded = json.loads(path.read_text())
        assert len(loaded["traceEvents"]) >= count

    def test_unknown_kernel_is_silently_ignored(self):
        profiler = KernelProfiler()
        profiler.attach([])
        profiler.step(object(), 0.0, 1.0)
        profiler.phase(object(), "gemm", 0.0, 1.0)
        assert profiler.rows() == []


class _ParamHealth:
    """Picklable accuracy proxy (deterministic in the fault pattern)."""

    def __init__(self, model):
        self.model = model

    def __call__(self) -> float:
        total, bad = 0, 0
        for param in self.model.parameters():
            total += param.size
            bad += int((np.abs(param.data) > 100).sum())
        return 1.0 - bad / total


def _journal_bytes(tmp_path, name):
    model = quantize_module(
        nn.Sequential(nn.Linear(4, 8, rng=0), nn.ReLU(), nn.Linear(8, 2, rng=1))
    )
    campaign = FaultCampaign(
        FaultInjector(model), _ParamHealth(model), trials=4, seed=7
    )
    drain_store(tmp_path / name, campaign, [BitFlipFaultModel.at_rate(5e-3)])
    return journal_lines(tmp_path / name)


class TestSideBand:
    def test_tracing_never_changes_journaled_bytes(self, tmp_path):
        reset_tracing()
        try:
            plain = _journal_bytes(tmp_path, "plain")
            configure_tracing(True)
            traced = _journal_bytes(tmp_path, "traced")
        finally:
            reset_tracing()
        assert plain == traced
