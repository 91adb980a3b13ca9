"""Compiled inference runtime vs the module forward (RT bench).

The runtime's speedup proof: identical eval batches pushed through the
autograd module path and through ``repro.runtime``'s compiled plan, per
model, asserting bit-identical logits and recording the wall-clock
ratio in ``benchmarks/outputs/runtime_speedup.txt`` (human table) and
``benchmarks/outputs/runtime_speedup.json`` (machine-readable; the
CI ``bench-regression`` job compares it against
``benchmarks/baselines/runtime_ratios.json``).

The container frequently has a single usable core, so no parallelism
multiplier is assumed: the runtime's win comes from removing autograd
object churn, python dispatch, per-pass allocation, the fused
epilogues, and the unfused fallback at activation-fault sites (native
fault-site kernels).  Both paths share the conv layouts (a per-image
K-major GEMM writing NCHW, channels-last on small maps), so their
speed no longer separates them.  All of that holds on one core; the bench
asserts the deep-model bound the tiered kernels were built for
(resnet18 at batch 128 >= 1.15x) while recording measured ratios and
the core count in the artifacts.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.autograd.grad_mode import no_grad
from repro.autograd.tensor import Tensor
from repro.core.fitrelu import FitReLU
from repro.core.surgery import find_activation_sites
from repro.eval.reporting import format_table
from repro.fault.activation import ActivationFaultInjector
from repro.models.registry import build_model
from repro.runtime import compile_model
from repro.runtime.plan import available_workers

#: (label, registry name, scale, image size, batch, mode)
#: mode: "plain" | "fitact" (FitReLU surgery) | "sites" (FitReLU surgery
#: plus disarmed activation-fault wrappers at every activation site —
#: the protected-campaign deployment shape).
CASES = (
    ("lenet", "lenet", 1.0, 16, 128, "plain"),
    ("lenet+fitact", "lenet", 1.0, 16, 128, "fitact"),
    ("lenet+fitact+sites", "lenet", 1.0, 16, 128, "sites"),
    ("resnet18-b128", "resnet18", 0.125, 32, 128, "plain"),
    ("resnet50", "resnet50", 0.125, 16, 32, "plain"),
)
ROUNDS = 9

#: Per-case floors asserted outright (beyond the >= 1x honest bound).
#: lenet: python-overhead removal dominates; resnet18-b128: the deep
#: GEMM-bound configuration the tiered conv kernels target (the old
#: monolithic im2col managed only ~1.03x); sites: fault wrappers must
#: not surrender the fused speedup (they fell back to module forwards
#: before the native fault-site kernel).
FLOORS = {"lenet": 1.2, "lenet+fitact+sites": 1.2, "resnet18-b128": 1.15}


def _build(name: str, scale: float, size: int, mode: str):
    model = build_model(name, num_classes=10, scale=scale, image_size=size, seed=0)
    if mode in ("fitact", "sites"):
        for path in find_activation_sites(model):
            model.set_submodule(path, FitReLU(np.float32(1.5)))
    if mode == "sites":
        ActivationFaultInjector(model)  # disarmed wrappers at every site
    model.eval()
    return model


def _paired_medians(model, plan, x):
    """Interleaved timing rounds (median), so drift hits both paths alike."""
    module_times, plan_times = [], []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        with no_grad():
            model(Tensor(x))
        module_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        plan(x)
        plan_times.append(time.perf_counter() - start)
    return float(np.median(module_times)), float(np.median(plan_times))


@pytest.mark.benchmark(group="runtime")
def test_runtime_speedup(benchmark, save_output):
    """RT: the compiled plan beats the module forward on eval batches."""
    rng = np.random.default_rng(0)
    rows = []
    measured: dict[str, dict[str, float]] = {}

    def run_cases():
        for label, name, scale, size, batch, mode in CASES:
            model = _build(name, scale, size, mode)
            x = rng.standard_normal((batch, 3, size, size)).astype(np.float32)
            with no_grad():
                reference = model(Tensor(x)).data
            plan = compile_model(model, x.shape)
            # The speed claim is only meaningful because results are
            # bit-identical — assert that first.
            np.testing.assert_array_equal(plan(x), reference)
            module_s, plan_s = _paired_medians(model, plan, x)
            speedup = module_s / max(plan_s, 1e-12)
            measured[label] = {
                "speedup": round(speedup, 4),
                "module_ms": round(module_s * 1e3, 3),
                "plan_ms": round(plan_s * 1e3, 3),
            }
            rows.append(
                [
                    label,
                    str(batch),
                    f"{module_s * 1e3:.2f}",
                    f"{plan_s * 1e3:.2f}",
                    f"{speedup:.2f}x",
                ]
            )
        return measured

    benchmark.pedantic(run_cases, rounds=1, iterations=1)

    cores = available_workers()
    text = "\n".join(
        [
            f"RT  Compiled inference runtime vs module forward "
            f"({cores} usable core{'s' if cores != 1 else ''}; logits bit-identical)",
            format_table(
                ["model", "batch", "module ms", "runtime ms", "speedup"], rows
            ),
            "speedup source: no autograd Tensor/Function churn, fused "
            "conv/linear+BN+activation epilogues, reused buffers and "
            "padding copies, native activation-fault-site kernels (the "
            "conv layouts, per-image K-major GEMM and channels-last, are "
            "shared with the module forward)",
        ]
    )
    save_output("runtime_speedup", text)
    payload = {
        "cores": cores,
        "cases": measured,
    }
    outputs = Path(__file__).parent / "outputs"
    outputs.mkdir(exist_ok=True)
    (outputs / "runtime_speedup.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    # Honest single-core bound: the compiled path must not lose — plus
    # explicit floors where a tier was built to fix a known bound.
    for label, result in measured.items():
        speedup = result["speedup"]
        assert speedup >= 1.0, f"{label}: compiled plan slower ({speedup:.2f}x)"
        floor = FLOORS.get(label)
        if floor is not None:
            assert speedup >= floor, (
                f"{label}: speedup collapsed to {speedup:.2f}x (floor {floor}x)"
            )
