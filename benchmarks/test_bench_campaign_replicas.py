"""Replica-lane campaign throughput vs the per-trial path (CR bench).

A campaign over ``Evaluator.bind`` evaluates every trial as a replica
lane — one cached clean-prefix forward per batch for the whole
campaign, each lane re-running only the plan suffix downstream of its
faulted layer.  Against a closure without the lane hook, which injects
and runs the full forward per trial, that must lift campaign trial
throughput by >= 3x on resnet18 on a single core, while leaving the
accuracy/SDC stream bit-identical (asserted here before the clock
matters, same discipline as the RT bench).  The bit-identity check
also runs in tier-1 (``tests/fault/test_replicas.py``); this wall-clock
floor runs only in CI's ``bench-regression`` job.

Artifacts: ``benchmarks/outputs/campaign_replicas.txt`` (human table)
and ``benchmarks/outputs/campaign_replicas.json`` (machine-readable;
the CI ``bench-regression`` job compares it against
``benchmarks/baselines/campaign_replicas.json``).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.data.loader import DataLoader
from repro.data.synthetic import SYNTH_MEAN, SYNTH_STD, SyntheticImageDataset
from repro.data.transforms import Normalize
from repro.eval.evaluator import Evaluator
from repro.eval.reporting import format_table
from repro.fault import BitFlipFaultModel, FaultCampaign, FaultInjector
from repro.models.registry import build_model
from repro.quant import quantize_module
from repro.runtime.plan import available_workers

TRIALS = 32
SPEC = BitFlipFaultModel.exact(1)
FLOOR = 3.0  # the acceptance bar: replica lanes >= 3x per-trial
#: The case name the committed baseline
#: (``benchmarks/baselines/campaign_replicas.json``) records.
CASE = "resnet18-replicas8"


def _campaign(lanes):
    model = quantize_module(
        build_model("resnet18", num_classes=10, scale=0.25, image_size=32, seed=0)
    )
    dataset = SyntheticImageDataset(
        num_classes=10, num_samples=256, image_size=32, seed=0, split="test"
    )
    evaluator = Evaluator(
        DataLoader(dataset, batch_size=128, transform=Normalize(SYNTH_MEAN, SYNTH_STD)),
    )
    evaluate = evaluator.bind(model) if lanes else lambda: evaluator.accuracy(model)
    return FaultCampaign(FaultInjector(model), evaluate, trials=TRIALS, seed=0)


def _timed(lanes):
    campaign = _campaign(lanes)
    start = time.perf_counter()
    result = campaign.run(SPEC)
    return time.perf_counter() - start, result


@pytest.mark.benchmark(group="campaign")
def test_campaign_replica_throughput(benchmark, save_output):
    """CR: replica lanes beat per-trial evaluation >= 3x, same bytes."""
    measured: dict[str, dict[str, float]] = {}
    rows = []

    def run_case():
        serial_s, serial = _timed(lanes=False)
        batched_s, batched = _timed(lanes=True)
        # The speed claim is only meaningful because the stream is
        # bit-identical — assert that before the clock matters.
        assert serial.accuracies.tobytes() == batched.accuracies.tobytes()
        assert serial.flip_counts.tobytes() == batched.flip_counts.tobytes()
        speedup = serial_s / max(batched_s, 1e-12)
        measured[CASE] = {
            "speedup": round(speedup, 4),
            "serial_s": round(serial_s, 3),
            "batched_s": round(batched_s, 3),
            "trials": TRIALS,
        }
        rows.append(
            [
                "resnet18",
                str(TRIALS),
                f"{serial_s / TRIALS * 1e3:.1f}",
                f"{batched_s / TRIALS * 1e3:.1f}",
                f"{speedup:.2f}x",
            ]
        )
        return measured

    benchmark.pedantic(run_case, rounds=1, iterations=1)

    cores = available_workers()
    text = "\n".join(
        [
            f"CR  Replica-lane campaign vs per-trial evaluation "
            f"({cores} usable core{'s' if cores != 1 else ''}; "
            "accuracy/SDC stream bit-identical)",
            format_table(
                ["campaign", "trials", "per-trial ms", "lane ms", "speedup"],
                rows,
            ),
            "speedup source: one cached clean-prefix forward per batch "
            "amortised over all trials; each lane re-runs only the plan "
            "suffix downstream of its faulted layer (serial GEMM shapes "
            "throughout — see RPL010)",
        ]
    )
    save_output("campaign_replicas", text)
    outputs = Path(__file__).parent / "outputs"
    outputs.mkdir(exist_ok=True)
    (outputs / "campaign_replicas.json").write_text(
        json.dumps({"cores": cores, "cases": measured}, indent=2, sort_keys=True)
        + "\n",
        encoding="utf-8",
    )

    for label, result in measured.items():
        assert result["speedup"] >= FLOOR, (
            f"{label}: replica lanes deliver only {result['speedup']:.2f}x "
            f"(acceptance floor {FLOOR}x)"
        )
