#!/usr/bin/env python3
"""Regenerate any paper artefact by id (the DESIGN.md §5 index).

Run:  python examples/run_experiment.py fig5
      python examples/run_experiment.py table1 --preset quick
      python examples/run_experiment.py --list
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.eval.experiments import EXPERIMENTS, get_preset
from repro.utils import set_verbosity


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "experiment",
        nargs="?",
        help=f"artefact id: {', '.join(sorted(EXPERIMENTS))}",
    )
    parser.add_argument("--preset", default="quick", choices=["smoke", "quick", "full"])
    parser.add_argument("--list", action="store_true", help="list experiment ids")
    parser.add_argument("--output", help="also write the result text to this file")
    parser.add_argument("--json", help="write the result data as JSON to this file")
    parser.add_argument(
        "--csv", help="write tabular results as CSV to this file (tables only)"
    )
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args()

    if args.list or not args.experiment:
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0
    if args.experiment not in EXPERIMENTS:
        print(f"unknown experiment {args.experiment!r}; use --list", file=sys.stderr)
        return 2

    if args.verbose:
        set_verbosity("INFO")

    runner = EXPERIMENTS[args.experiment]
    preset = get_preset(args.preset)
    start = time.perf_counter()
    if args.experiment == "fig3":
        result = runner()  # fig3 is preset-independent (pure function plot)
    else:
        result = runner(preset=preset)
    elapsed = time.perf_counter() - start

    text = result.to_text()
    print(text)
    print(f"\n[{args.experiment} @ {preset.name}: {elapsed:.1f}s]")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    if args.json:
        from repro.eval.export import save_json

        save_json(args.json, result)
    if args.csv:
        from repro.eval.export import save_csv

        save_csv(args.csv, result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
