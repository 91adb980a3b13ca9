"""``protect``: ``repro protect --model vgg16 --method fitact --preset quick``.

The paper's post-training stage, against a private copy of the
committed cache (the trained base loads; nothing trains).  It is the
only workload that runs autograd, training-mode forwards, Adam and
``core`` (profiler, surgery, post-training), and it writes bound
parameters between compiled-plan reads of the clean-accuracy probe.

The command is deterministic: the trained base exists for seed 0 only,
so the benchmark seed is recorded and otherwise unused.  Each run's
checkpoint must equal the fixture's array for array, clean accuracy
included.
"""

from __future__ import annotations

import json

import numpy as np

from harness import (
    PROTECT_ARGS,
    Bench,
    BenchError,
    checkpoint_arrays,
    checkpoint_meta,
    median,
)
from tracer import layer_metrics

SETUP_PROBES = 2
#: Training samples the quick preset's post-training visits (1280 x 4 epochs).
POSTTRAIN_SAMPLES = 1280 * 4
LOADED = "loaded cached vgg16/synth10"


def args_for(out) -> list[str]:
    return ["--log-level", "info", *PROTECT_ARGS, "--out", str(out)]


def setup_probe(bench: Bench) -> float:
    """Start a protect command, time it up to the loaded base, stop it."""
    proc = bench.spawn(args_for(bench.work / "probe.npz"))
    try:
        ready, _ = proc.wait_line(lambda line: LOADED in line, bench.timeout(60))
    finally:
        proc.popen.kill()
        proc.finish(10)
    return ready - proc.t_spawn


def protect_once(bench: Bench, index: int, spans=None) -> dict[str, float]:
    cache = bench.fresh_cache()
    before = sorted(p.name for p in cache.iterdir())
    out = bench.work / f"protected-{index}.npz"
    bench.attempt()
    proc = bench.spawn(args_for(out), spans)
    try:
        ready, _ = proc.wait_line(lambda line: LOADED in line, bench.timeout(120))
    finally:
        code = proc.finish(bench.timeout(150))
    if code != 0 or not out.is_file():
        bench.fail(f"repro protect exited {code}")
        raise BenchError("repro protect failed:\n" + proc.output(tail=20))
    if sorted(p.name for p in cache.iterdir()) != before:
        raise BenchError("repro protect wrote a cache entry: it trained instead of loading the base")
    check_checkpoint(bench, out)
    return {
        "setup_s": ready - proc.t_spawn,
        "protect_s": proc.t_end - proc.t_spawn,
        "maxrss_mb": proc.maxrss_kb / 1024.0,
    }


def check_checkpoint(bench: Bench, out) -> None:
    """Clean accuracy and every saved array equal the fixture's."""
    reference = bench.root / str(bench.fixture["checkpoint"])
    bench.attempt(2)
    if checkpoint_meta(out)["clean_accuracy"] != bench.fixture["clean_accuracy"]:
        bench.fail("clean accuracy differs from the fixture checkpoint")
    ours, theirs = checkpoint_arrays(out), checkpoint_arrays(reference)
    if ours.keys() != theirs.keys() or any(
        not np.array_equal(ours[k], theirs[k]) for k in ours
    ):
        bench.fail("saved arrays differ from the fixture checkpoint")


def run(bench: Bench) -> dict[str, object]:
    bench.fresh_cache()
    if bench.trace:
        return run_traced(bench)
    setups = [setup_probe(bench) for _ in range(SETUP_PROBES)]
    result = protect_once(bench, 0)
    setups.append(result["setup_s"])
    protect_s = result["protect_s"]
    return {
        "metrics": {
            "setup_s": (median(setups), "s"),
            "peak_rss_mb": (result["maxrss_mb"], "MB"),
            "throughput_per_s": (POSTTRAIN_SAMPLES / protect_s, "1/s"),
            "latency_p50_ms": (protect_s * 1e3, "ms"),
        },
        "named_metrics": {"protect_s": (protect_s, "s")},
        "details": {"seed_used": False, "inference_path": "module forward + compiled probe"},
    }


def run_traced(bench: Bench) -> dict[str, object]:
    plain = protect_once(bench, 0)
    spans_path = bench.work / "spans.json"
    traced = protect_once(bench, 1, spans=spans_path)
    trace = json.loads(spans_path.read_text())
    metrics = layer_metrics(trace)
    metrics["trace.overhead_frac"] = (traced["protect_s"] / plain["protect_s"] - 1.0, "fraction")
    return {"metrics": metrics, "details": {"unwrapped": trace["missing"]}}
