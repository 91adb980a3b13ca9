"""``campaign-sparse``: ``repro campaign run`` sweeps at 1e-7 and 1e-6.

Each command runs a two-rate sweep into a fresh store.  At ~0.7 and ~9
flips per trial most replica lanes are clean or fault a late layer, so
the shared clean-prefix forward does most of the work.  Trials are
evaluated on one 128-sample batch of the quick preset's test set, which
doubles the trials a run measures over the preset's 256 samples: a
trial's cost depends on where its flips land, so the run needs many of
them to read the same on every seed.

The seed jitters each nominal rate by up to +-10%, which re-derives
every trial's fault sites.  A run executes distinct sweeps (one jitter
each, so the measured work averages over more fault sites) and ends by
repeating its first sweep, whose report must then be byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from harness import Bench, BenchError, median
from tracer import layer_metrics

NOMINAL_RATES = (1e-7, 1e-6)
#: Trials per rate and command: a command sweeps for ~6 s on 2 cores,
#: after ~2 s of set-up.
TRIALS = 50
TEST_SAMPLES = 128
SWEEP_S = 6
#: Distinct sweeps per run: one per SWEEP_S of --seconds, less the
#: repeat of the first, and at least this many.  The count depends on
#: --seconds only, so every run of a seed measures the same trials.
MIN_SWEEPS = 2
COMMAND_TIMEOUT_S = 120.0


def jittered_rates(workload: str, seed: int, sweep: int) -> list[float]:
    rng = np.random.default_rng([seed, sweep, len(workload)])
    return [float(f"{rate * (1.0 + rng.uniform(-0.1, 0.1)):.4g}") for rate in NOMINAL_RATES]


def journal_stats(store: Path) -> tuple[int, int]:
    """(journaled trials, journal bytes) over every journal segment."""
    lines = size = 0
    for path in store.glob("*.jsonl"):
        data = path.read_bytes()
        lines += data.count(b"\n")
        size += len(data)
    return lines, size


class Sweep:
    """One ``repro campaign run`` command and what it measured."""

    def __init__(self, bench: Bench, rates: list[float], trials: int, index: int, spans: Path | None = None):
        self.store = bench.work / f"store-{index}"
        self.rates = rates
        self.expected = trials * len(rates)
        args = [
            "campaign", "run",
            "--checkpoint", str(bench.fixture["checkpoint"]),
            "--store", str(self.store),
            "--rates", *[repr(rate) for rate in rates],
            "--trials", str(trials),
            "--test-samples", str(TEST_SAMPLES),
            *bench.runtime_flag("campaign run"),
        ]
        bench.attempt(self.expected)
        proc = bench.spawn(args, spans)
        try:
            # The sweep starts once the store line is printed (baseline
            # accuracy measured) and ends at the completion line, before
            # interpreter teardown.
            ready, _ = proc.wait_line(
                lambda line: line.startswith("campaign store "), bench.timeout(COMMAND_TIMEOUT_S)
            )
            done, _ = proc.wait_line(
                lambda line: line.startswith("store complete"), bench.timeout(COMMAND_TIMEOUT_S)
            )
        finally:
            code = proc.finish(bench.timeout(COMMAND_TIMEOUT_S))
        self.journaled, self.journal_bytes = journal_stats(self.store)
        if code != 0 or self.journaled != self.expected:
            bench.fail(f"campaign command exited {code} with {self.journaled}/{self.expected} trials", self.expected)
            raise BenchError("campaign run failed:\n" + proc.output(tail=20))
        self.setup_s = ready - proc.t_spawn
        self.sweep_s = done - ready
        self.wall_s = proc.t_end - proc.t_spawn
        self.maxrss_mb = proc.maxrss_kb / 1024.0


def check_outputs(bench: Bench, first: Sweep, repeat: Sweep, trials: int) -> None:
    """Byte-identical reports for one sweep run twice; journaled trials
    re-evaluated through the module forward (see ``check.py``)."""
    request = bench.work / "check-campaign.json"
    request.write_text(json.dumps({
        "checkpoint": str(bench.fixture["checkpoint"]),
        "store": str(first.store),
        "repeat_store": str(repeat.store),
        "rates": first.rates,
        "trials": trials,
        "preset": "quick",
        "test_samples": TEST_SAMPLES,
    }))
    proc = bench.python("check.py", ["campaign", str(request)], 120)
    if proc.returncode != 0:
        raise BenchError("campaign output check failed:\n" + proc.output(tail=20))
    result = json.loads(proc.output().splitlines()[-1])
    bench.attempt(result["checked"])
    for mismatch in result["mismatches"]:
        bench.fail(mismatch)


def run(bench: Bench) -> dict[str, object]:
    trials = TRIALS
    if bench.trace:
        return run_traced(bench, jittered_rates(bench.workload, bench.seed, 0), trials)
    sweeps: list[Sweep] = []
    for index in range(max(MIN_SWEEPS, bench.seconds // SWEEP_S - 1)):
        rates = jittered_rates(bench.workload, bench.seed, index)
        sweeps.append(Sweep(bench, rates, trials, index))
    sweeps.append(Sweep(bench, sweeps[0].rates, trials, len(sweeps)))
    check_outputs(bench, sweeps[0], sweeps[-1], trials)
    walls = [s.wall_s for s in sweeps]
    trials_per_s = sum(s.journaled for s in sweeps) / sum(s.sweep_s for s in sweeps)
    return {
        "metrics": {
            "setup_s": (median([s.setup_s for s in sweeps]), "s"),
            "peak_rss_mb": (max(s.maxrss_mb for s in sweeps), "MB"),
            "throughput_per_s": (trials_per_s, "1/s"),
            "latency_p50_ms": (median(walls) * 1e3, "ms"),
        },
        "named_metrics": {"trials_per_s": (trials_per_s, "trials/s")},
        "details": {
            "rates": [s.rates for s in sweeps],
            "trials_per_rate": trials,
            "setup_s": [round(s.setup_s, 3) for s in sweeps],
            "sweep_s": [round(s.sweep_s, 3) for s in sweeps],
            "inference_path": bench.inference_path("campaign run"),
        },
    }


def run_traced(bench: Bench, rates: list[float], trials: int) -> dict[str, object]:
    """One untraced and one traced command on the same sweep."""
    plain = Sweep(bench, rates, trials, 0)
    spans_path = bench.work / "spans.json"
    traced = Sweep(bench, rates, trials, 1, spans=spans_path)
    check_outputs(bench, plain, traced, trials)
    trace = json.loads(spans_path.read_text())
    metrics = layer_metrics(trace)
    metrics["store.journal_bytes"] = (float(traced.journal_bytes), "bytes")
    metrics["trace.overhead_frac"] = (traced.wall_s / plain.wall_s - 1.0, "fraction")
    return {
        "metrics": metrics,
        "details": {
            "rates": rates,
            "trials_per_rate": trials,
            "unwrapped": trace["missing"],
            "inference_path": bench.inference_path("campaign run"),
        },
    }
