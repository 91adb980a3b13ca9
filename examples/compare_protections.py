#!/usr/bin/env python3
"""Compare all protection schemes on a paper model (Fig. 5/6 workload).

Trains (or loads from cache) a scaled AlexNet/VGG16/ResNet50 on
SynthCIFAR, protects it with FitAct / Clip-Act / Ranger, and sweeps the
fault rates, printing the mean-accuracy curves and box statistics.

Run:  python examples/compare_protections.py --model vgg16 --dataset synth10
      python examples/compare_protections.py --preset full --model resnet50
"""

from __future__ import annotations

import argparse

from repro.eval.experiments import get_preset, prepare_context
from repro.eval.experiments.fig5_accuracy_distribution import METHOD_LABELS
from repro.eval.experiments.runner import run_method_sweep
from repro.eval.reporting import format_curves, percent
from repro.models import MODEL_NAMES
from repro.utils import set_verbosity


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="vgg16", choices=sorted(MODEL_NAMES))
    parser.add_argument("--dataset", default="synth10", choices=["synth10", "synth100"])
    parser.add_argument("--preset", default="quick", choices=["smoke", "quick", "full"])
    parser.add_argument(
        "--methods",
        nargs="+",
        default=["fitact", "clipact", "ranger", "none"],
        choices=["fitact", "fitact-naive", "clipact", "ranger", "none"],
    )
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args()

    if args.verbose:
        set_verbosity("INFO")

    preset = get_preset(args.preset)
    print(f"preparing {args.model}/{args.dataset} at preset '{preset.name}' ...")
    context = prepare_context(args.model, args.dataset, preset)
    print(f"reference clean accuracy: {percent(context.reference_accuracy)}")

    sweep = run_method_sweep(
        context, methods=tuple(args.methods), trials=args.trials, tag="compare"
    )

    series = {
        METHOD_LABELS.get(m, m): sweep.mean_accuracy(m) for m in args.methods
    }
    print()
    print(
        format_curves(
            [f"{r:.1e}" for r in sweep.rates],
            series,
            x_label="fault rate",
            title=(
                f"Mean accuracy under faults — {args.model}/{args.dataset} "
                f"({sweep.sweeps[args.methods[0]][sweep.rates[0]].trials} trials)"
            ),
        )
    )
    print("\nmean flips per rate: " + "; ".join(
        f"{METHOD_LABELS.get(m, m)} "
        + ", ".join(f"{f:.1f}" for f in sweep.mean_flips(m))
        for m in args.methods
    ))
    print("\nclean accuracy per scheme: " + ", ".join(
        f"{METHOD_LABELS.get(m, m)} {percent(sweep.clean_accuracy[m])}"
        for m in args.methods
    ))


if __name__ == "__main__":
    main()
