#!/usr/bin/env python
"""Compare measured bench ratios against the committed baselines.

The CI ``bench-regression`` job runs the quick-mode ratio benchmarks —
``benchmarks/test_bench_runtime.py`` (compiled-vs-module forward,
``outputs/runtime_speedup.json``) and
``benchmarks/test_bench_campaign_replicas.py`` (replica-batched vs
per-trial campaign throughput, ``outputs/campaign_replicas.json``) —
and then this script, which fails the build when any case's speedup
ratio dropped more than that suite's ``tolerance`` (default 25%) below
its committed baseline under ``benchmarks/baselines/``.

Ratios, not absolute times, are compared: the slow path runs on the
same machine in the same process, so machine speed divides out and the
check stays meaningful across heterogeneous CI runners.

Baseline refresh workflow (after an intentional perf change)::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_runtime.py \\
        benchmarks/test_bench_campaign_replicas.py
    python benchmarks/check_regression.py --update
    git add benchmarks/baselines/

Suites whose measured output is absent are skipped with a note (so a
dev re-checking one bench needn't run the others); new cases missing
from a baseline are reported but do not fail; run ``--update`` to
adopt them.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).parent

#: (suite label, measured JSON written by the bench, committed baseline)
SUITES = (
    (
        "runtime",
        BENCH_DIR / "outputs" / "runtime_speedup.json",
        BENCH_DIR / "baselines" / "runtime_ratios.json",
    ),
    (
        "campaign-replicas",
        BENCH_DIR / "outputs" / "campaign_replicas.json",
        BENCH_DIR / "baselines" / "campaign_replicas.json",
    ),
)


def _load(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        sys.exit(f"error: {path} not found — run the matching bench first")


def update_baseline(measured: dict, baseline_doc: dict, baseline_path: Path) -> None:
    baseline_doc["ratios"] = {
        label: result["speedup"] for label, result in sorted(measured.items())
    }
    baseline_path.write_text(
        json.dumps(baseline_doc, indent=2) + "\n", encoding="utf-8"
    )
    print(f"baseline {baseline_path.relative_to(BENCH_DIR.parent)} refreshed:")
    for label, ratio in baseline_doc["ratios"].items():
        print(f"  {label}: {ratio:.2f}x")


def check(suite: str, measured: dict, baseline_doc: dict) -> int:
    tolerance = float(baseline_doc.get("tolerance", 0.25))
    ratios = baseline_doc.get("ratios", {})
    failures, new_cases, rows = [], [], []
    for label, result in sorted(measured.items()):
        speedup = float(result["speedup"])
        baseline = ratios.get(label)
        if baseline is None:
            new_cases.append(label)
            rows.append((label, speedup, None, "new"))
            continue
        floor = baseline * (1.0 - tolerance)
        status = "ok" if speedup >= floor else "REGRESSED"
        if status != "ok":
            failures.append(
                f"{label}: {speedup:.2f}x is below {floor:.2f}x "
                f"(baseline {baseline:.2f}x - {tolerance:.0%})"
            )
        rows.append((label, speedup, baseline, status))
    missing = sorted(set(ratios) - set(measured))

    width = max(len(label) for label, *_ in rows) if rows else 4
    print(f"bench-regression [{suite}]: speedup ratios (tolerance {tolerance:.0%})")
    for label, speedup, baseline, status in rows:
        base = f"{baseline:.2f}x" if baseline is not None else "  -  "
        print(f"  {label:<{width}}  measured {speedup:.2f}x  baseline {base}  {status}")
    if new_cases:
        print(
            "note: cases without a baseline (run --update to adopt): "
            + ", ".join(new_cases)
        )
    if missing:
        print("note: baseline cases not measured this run: " + ", ".join(missing))
    if failures:
        print("\nFAIL:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("ok: no ratio regressed beyond tolerance")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the committed baselines from the measured ratios",
    )
    args = parser.parse_args()
    exit_code = 0
    ran_any = False
    for suite, measured_path, baseline_path in SUITES:
        if not measured_path.exists():
            print(
                f"note: [{suite}] skipped — "
                f"{measured_path.relative_to(BENCH_DIR.parent)} not measured"
            )
            continue
        measured = _load(measured_path).get("cases", {})
        if not measured:
            sys.exit(f"error: {measured_path} contains no cases")
        baseline_doc = _load(baseline_path)
        ran_any = True
        if args.update:
            update_baseline(measured, baseline_doc, baseline_path)
        else:
            exit_code |= check(suite, measured, baseline_doc)
    if not ran_any:
        sys.exit("error: no measured bench output found — run the benches first")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
