"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload in turn

Workloads (see ``BENCHMARK.json`` for why each was chosen):
``campaign-sparse`` (``campaign.py``), ``serve-open`` (``serve.py``)
and ``protect`` (``protect.py``).  All run
the FitAct-protected VGG16, built once per checkout and source tree by
``repro protect`` from the committed trained base and kept under
``.bench_build/perfbench``.

With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it runs each command once plain and once under
``traced_cli.py`` and reports the per-layer metrics plus the tracing
overhead.  Human-readable lines come first; the last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  A run
record (environment, details, failures) is written under
``.bench_build/perfbench/records``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import (  # noqa: E402
    Bench,
    BenchError,
    check_layout,
    ensure_fixture,
    environment,
    memcpy_gbps,
)

WORKLOADS = ("campaign-sparse", "serve-open", "protect")


def workload_module(name: str):
    if name == "campaign-sparse":
        import campaign as module
    elif name == "serve-open":
        import serve as module
    else:
        import protect as module
    return module


def declared_metrics(trace: bool) -> list[dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def run_workload(name: str, args, memcpy: dict[str, float]) -> tuple[Bench, dict]:
    bench = Bench(ROOT, name, args.seed, args.seconds, bool(args.trace))
    try:
        bench.work.mkdir(parents=True, exist_ok=True)
        bench.fixture = ensure_fixture(bench)
        result = workload_module(name).run(bench)
    finally:
        bench.close()
    metrics = dict(result["metrics"])
    if bench.trace:
        metrics["runtime.memcpy_gbps"] = (memcpy["gbps"], "GB/s")
    out = {}
    for entry in declared_metrics(bench.trace):
        value = metrics.get(entry["name"])
        if value is None:
            if not bench.trace:
                raise BenchError(f"{name} did not measure {entry['name']}")
            value = (0.0, entry["unit"])  # the layer does not run here
        out[entry["name"]] = {"value": float(value[0]), "unit": entry["unit"]}
    result["out"] = out
    return bench, result


def write_record(bench: Bench, result: dict, env: dict) -> Path:
    records = bench.build_dir / "records"
    records.mkdir(parents=True, exist_ok=True)
    path = records / f"{bench.workload}-seed{bench.seed}-trace{int(bench.trace)}-{time.time_ns()}.json"
    record = {
        "workload": bench.workload,
        "seed": bench.seed,
        "seconds": bench.seconds,
        "trace": bench.trace,
        "environment": env,
        "fixture": bench.fixture,
        "attempted": bench.attempted,
        "failures": bench.failures,
        "metrics": result["out"],
        "named_metrics": {k: {"value": v[0], "unit": v[1]} for k, v in result.get("named_metrics", {}).items()},
        "details": result.get("details", {}),
        "wall_s": time.perf_counter() - bench.started,
    }
    path.write_text(json.dumps(record, indent=2, default=str))
    return path


def report(bench: Bench, result: dict, env: dict, record: Path) -> None:
    failed = len(bench.failures)
    print(f"== {bench.workload} (seed {bench.seed}, {'traced' if bench.trace else 'untraced'})")
    print(
        f"environment: {env['usable_cores']} cores, python {env['python']}, numpy "
        f"{env['numpy']} ({env['blas']}), memcpy {env['runtime.memcpy_gbps']:.2f} GB/s"
    )
    for key, value in result.get("details", {}).items():
        print(f"  {key}: {value}")
    for name, (value, unit) in result.get("named_metrics", {}).items():
        print(f"{name:32s} {value:14.4f} {unit}")
    print(f"{'failed_frac':32s} {failed / max(bench.attempted, 1):14.4f} fraction")
    for name, entry in result["out"].items():
        print(f"{name:32s} {entry['value']:14.4f} {entry['unit']}")
    for failure in bench.failures[:10]:
        print(f"FAILED: {failure}")
    print(f"record: {record.relative_to(ROOT)}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_layout(ROOT)
        memcpy = memcpy_gbps(ROOT)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in names:
            bench, result = run_workload(name, args, memcpy)
            env = environment(bench, memcpy)
            report(bench, result, env, write_record(bench, result, env))
            totals["attempted"] += bench.attempted
            totals["failed"] += len(bench.failures)
            prefix = "" if len(names) == 1 else f"{name}/"
            for metric, entry in result["out"].items():
                totals["metrics"][prefix + metric] = entry
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    totals["correct"] = totals["failed"] == 0
    print(json.dumps(totals))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
