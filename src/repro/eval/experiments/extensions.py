"""Extension experiments beyond the paper's evaluation.

The paper fixes one fault model (uniform transient bit-flips in
parameter memory) and one word format (Q15.16), and compares three
activation schemes.  These experiments vary each of those axes while
holding the rest of the setup identical to Figs. 5/6:

- **EXT-A** — transient *activation* faults (Ranger's original threat
  model): are per-neuron bounds still the right defence when the
  corruption strikes feature maps instead of weights?
- **EXT-E** — SEC-DED ECC memory as the hardware alternative: accuracy
  and memory cost of ECC, of FitAct, and of the two composed.
- **EXT-F** — spatially correlated (burst) and permanent (stuck-at)
  faults at a matched expected flip count: does the iid assumption
  flatter any scheme?
- **EXT-L** — layer vulnerability: an equal flip budget confined to one
  parameter group at a time.
- **EXT-M** — the Fig. 6 protocol on MobileNetV1, the architecture edge
  devices run.
- **ABL-H** — the post-trained bounds deployed as the hard piecewise
  FitReLU-Naive instead of the smooth FitReLU.
- **ABL-W** — word-format ablation: how much of the vulnerability is
  Q15.16's 15 high-order integer bits, and what does narrowing the
  word change?
"""

from __future__ import annotations

from repro.eval.experiments.ablations import AblationResult, panel_label
from repro.eval.experiments.context import ExperimentContext, prepare_context
from repro.eval.experiments.presets import Preset, QUICK
from repro.eval.reporting import percent
from repro.fault.activation import (
    ActivationFaultCampaign,
    ActivationFaultInjector,
    ActivationFaultModel,
)
from repro.fault.burst import BurstFaultModel
from repro.fault.campaign import FaultCampaign
from repro.fault.ecc import ECCProtectedInjector, SECDEDCode, ecc_memory_bytes
from repro.fault.fault_model import BitFlipFaultModel
from repro.fault.injector import FaultInjector
from repro.fault.statistics import parameter_group_vulnerability
from repro.fault.stuck_at import StuckAtFaultModel
from repro.fault.word import WordFaultModel
from repro.quant.formats import parse_format
from repro.quant.model import model_memory_bytes, quantize_module
from repro.utils.rng import derive_seed

__all__ = [
    "run_activation_fault_comparison",
    "run_ecc_comparison",
    "run_fault_model_comparison",
    "run_format_ablation",
    "run_hard_deploy_ablation",
    "run_layer_vulnerability",
    "run_mobilenet_panel",
]

#: The trained base a single-model extension protects when it is handed
#: no context (EXT-M always builds MobileNetV1).
MODEL_NAME = "vgg16"
DATASET_NAME = "synth10"

#: EXT-F, EXT-L and ABL-W compare the unprotected model with FitAct.
METHODS = ("none", "fitact")

#: EXT-A: every activation scheme, under ``n`` upsets per layer per pass.
ACTIVATION_METHODS = ("none", "ranger", "clipact", "fitact")
FLIPS_PER_LAYER = (1, 4, 16, 64)

#: EXT-E: the schemes composed with SEC-DED, and its double-error policy.
ECC_METHODS = ("none", "clipact", "fitact")
DOUBLE_POLICY = "pass"

#: EXT-E and ABL-H run at these ``preset.rates`` indices; EXT-F and
#: ABL-W at ``RATE_INDEX``.
RATE_INDICES = (2, 4)
RATE_INDEX = 3

#: EXT-M: ``(label, method, protection_overrides)`` per scheme.
MOBILENET_SCHEMES: tuple[tuple[str, str, dict[str, object] | None], ...] = (
    ("fitact", "fitact", None),
    ("fitact-ch", "fitact", {"granularity": "channel"}),
    ("clipact", "clipact", None),
    ("ranger", "ranger", None),
    ("none", "none", None),
)

#: EXT-L: flips confined to each of at most ``MAX_GROUPS`` groups.
FLIPS_PER_GROUP = 16
MAX_GROUPS = 8

#: ABL-W: word formats.
FORMATS = ("q3.4", "q7.8", "q15.16")


def run_activation_fault_comparison(
    preset: Preset = QUICK, context: ExperimentContext | None = None
) -> AblationResult:
    """EXT-A: protection schemes under transient activation faults.

    Each wrapped activation suffers exactly ``n`` bit-flips per forward
    pass (an upset count per layer per inference batch).  Corruption
    lands *after* one bounded activation and *before* the next, so the
    next layer's bound is the only defence — the paper's propagation
    argument, tested on Ranger's native fault model.
    """
    context = context or prepare_context(MODEL_NAME, DATASET_NAME, preset)
    result = AblationResult(
        title=(
            f"EXT-A  Transient activation faults — {panel_label(context)}, "
            f"flips per layer per pass {list(FLIPS_PER_LAYER)}"
        ),
        headers=["method", "clean acc", *[f"n={n}" for n in FLIPS_PER_LAYER]],
    )
    for method in ACTIVATION_METHODS:
        model, info = context.protected_model(method)
        injector = ActivationFaultInjector(model)
        campaign = ActivationFaultCampaign(
            injector,
            context.evaluator.bind(model),
            trials=preset.trials,
            seed=derive_seed(preset.seed, "ext-a", context.model_name, method),
        )
        row: dict[str, float] = {"clean": info["clean_accuracy"]}
        cells = [method, percent(info["clean_accuracy"])]
        for n in FLIPS_PER_LAYER:
            mean = campaign.run(ActivationFaultModel.exact(n), tag=method).mean
            row[f"n={n}"] = mean
            cells.append(percent(mean))
        result.rows.append(cells)
        result.data[method] = row
    return result


def run_ecc_comparison(
    preset: Preset = QUICK, context: ExperimentContext | None = None
) -> AblationResult:
    """EXT-E: SEC-DED ECC versus (and composed with) activation bounding.

    ECC corrects isolated flips outright but costs ~22% extra memory
    (Hamming(39,32)); activation bounding costs ≤~6% (FitAct's λ words)
    and degrades gracefully when multi-bit words slip through.  The
    composition shows whether the two defences are complementary.
    """
    context = context or prepare_context(MODEL_NAME, DATASET_NAME, preset)
    rates = [preset.rates[i] for i in RATE_INDICES]
    code = SECDEDCode(32)
    result = AblationResult(
        title=(
            f"EXT-E  SEC-DED ECC composition — {panel_label(context)}, "
            f"double-error policy {DOUBLE_POLICY!r}"
        ),
        headers=[
            "scheme",
            "memory (MB)",
            "clean acc",
            *[f"rate {rate:.1e}" for rate in rates],
        ],
    )
    for method in ECC_METHODS:
        for use_ecc in (False, True):
            model, info = context.protected_model(method)
            plain = FaultInjector(model)
            injector = (
                ECCProtectedInjector(plain, code=code, double_policy=DOUBLE_POLICY)
                if use_ecc
                else plain
            )
            memory_mb = (
                ecc_memory_bytes(model, code) if use_ecc else model_memory_bytes(model)
            ) / 1e6
            label = f"{method}+ecc" if use_ecc else method
            row: dict[str, float] = {
                "clean": info["clean_accuracy"],
                "memory_mb": memory_mb,
            }
            cells = [label, f"{memory_mb:.2f}", percent(info["clean_accuracy"])]
            campaign = FaultCampaign(
                injector,
                context.evaluator.bind(model),
                trials=preset.trials,
                seed=derive_seed(preset.seed, "ext-e", context.model_name, method),
            )
            for rate in rates:
                mean = campaign.run(
                    BitFlipFaultModel.at_rate(rate), tag=label
                ).mean
                row[f"{rate:.1e}"] = mean
                cells.append(percent(mean))
            if use_ecc:
                outcome = injector.lifetime_outcome
                row["corrected_words"] = float(outcome.corrected_words)
                row["escaped_words"] = float(outcome.escaped_words)
            result.rows.append(cells)
            result.data[label] = row
    return result


def run_fault_model_comparison(
    preset: Preset = QUICK, context: ExperimentContext | None = None
) -> AblationResult:
    """EXT-F: iid vs burst vs stuck-at faults at matched damage budgets.

    The expected flip count of the paper's iid model at the chosen rate
    sets the budget ``n``; bursts pack the same ``n`` flips into
    adjacent runs, stuck-at models make ``n`` cells permanent (of which
    the data-dependent fraction is active).
    """
    context = context or prepare_context(MODEL_NAME, DATASET_NAME, preset)
    rate = preset.rates[RATE_INDEX]

    # Budget from the unprotected model's fault space (method-independent).
    probe_model, _ = context.protected_model("none")
    budget = max(1, int(round(rate * FaultInjector(probe_model).total_bits)))

    fault_models = {
        "iid flips": BitFlipFaultModel.exact(budget),
        "burst L=4": BurstFaultModel.exact(4, max(1, budget // 4)),
        "burst L=8": BurstFaultModel.exact(8, max(1, budget // 8)),
        "stuck-at-0": StuckAtFaultModel.exact(0, budget),
        "stuck-at-1": StuckAtFaultModel.exact(1, budget),
        # Whole-word replacement: E[flips] = 16/word for random targets.
        "word random": WordFaultModel.exact("random", max(1, budget // 16)),
        "word zero": WordFaultModel.exact("zero", max(1, budget // 16)),
    }
    result = AblationResult(
        title=(
            f"EXT-F  Fault-model comparison — {panel_label(context)}, "
            f"budget {budget} flips (rate {rate:.1e})"
        ),
        headers=["fault model", *METHODS, "mean flips"],
    )
    per_method: dict[str, dict[str, float]] = {m: {} for m in METHODS}
    mean_flips: dict[str, float] = {}
    for method in METHODS:
        model, _ = context.protected_model(method)
        campaign = FaultCampaign(
            FaultInjector(model),
            context.evaluator.bind(model),
            trials=preset.trials,
            seed=derive_seed(preset.seed, "ext-f", context.model_name, method),
        )
        for label, fault_model in fault_models.items():
            run = campaign.run(fault_model, tag=f"{method}:{label}")
            per_method[method][label] = run.mean
            mean_flips[label] = float(run.flip_counts.mean())
    for label in fault_models:
        result.rows.append(
            [
                label,
                *[percent(per_method[m][label]) for m in METHODS],
                f"{mean_flips[label]:.1f}",
            ]
        )
        result.data[label] = {
            **{m: per_method[m][label] for m in METHODS},
            "mean_flips": mean_flips[label],
        }
    return result


def run_mobilenet_panel(
    preset: Preset = QUICK, context: ExperimentContext | None = None
) -> AblationResult:
    """EXT-M: the Fig. 6 protocol on MobileNetV1.

    The paper motivates FitAct with resource-constrained edge devices
    but evaluates dense architectures; MobileNet is what those devices
    actually run.  Two findings this panel records:

    1. *Neuron-wise* bound initialisation over-fits MobileNet's spiky
       depthwise feature maps — per-element training-set maxima clip
       legitimate test activations and cost clean accuracy that
       post-training only partly recovers.
    2. *Channel-wise* FitAct (``fitact-ch``) is robust: the per-channel
       max is a stable envelope, restoring the paper's ordering on this
       architecture.
    """
    context = context or prepare_context("mobilenet", DATASET_NAME, preset)
    rates = preset.rates

    labels = [label for label, _, _ in MOBILENET_SCHEMES]
    clean: dict[str, float] = {}
    sweeps: dict[str, list[float]] = {}
    flips: dict[str, list[float]] = {}
    for label, method, overrides in MOBILENET_SCHEMES:
        model, info = context.protected_model(
            method, protection_overrides=overrides
        )
        clean[label] = info["clean_accuracy"]
        campaign = FaultCampaign(
            FaultInjector(model),
            context.evaluator.bind(model),
            trials=preset.trials,
            seed=derive_seed(preset.seed, "ext-m", context.dataset_name),
        )
        runs = [
            campaign.run(BitFlipFaultModel.at_rate(rate), tag=f"ext-m:{label}")
            for rate in rates
        ]
        sweeps[label] = [run.mean for run in runs]
        # Each scheme faces its own fault space (FitAct adds its bound
        # words): its own mean realised flips, not the first scheme's.
        flips[label] = [float(run.flip_counts.mean()) for run in runs]
    result = AblationResult(
        title=(
            f"EXT-M  MobileNetV1 method sweep — {context.dataset_name}, clean per "
            "scheme " + ", ".join(f"{k} {percent(v)}" for k, v in clean.items())
        ),
        headers=["fault rate", "mean flips per scheme", *labels],
    )
    for index, rate in enumerate(rates):
        cells = [
            f"{rate:.1e}",
            " / ".join(f"{flips[label][index]:.1f}" for label in labels),
        ]
        row = {label: sweeps[label][index] for label in labels}
        cells.extend(percent(row[label]) for label in labels)
        result.rows.append(cells)
        result.data[f"{rate:.1e}"] = row
    result.data["clean"] = clean
    return result


def run_layer_vulnerability(
    preset: Preset = QUICK, context: ExperimentContext | None = None
) -> AblationResult:
    """EXT-L: which layers need the protection most.

    Confines an equal flip budget to one parameter group (one conv or
    linear module) at a time.  Early convolutions fan a corrupted weight
    out over entire feature maps; the classifier corrupts at most a few
    logits — so vulnerability falls with depth, and per-neuron bounds
    matter most where the fan-out is largest.
    """
    context = context or prepare_context(MODEL_NAME, DATASET_NAME, preset)

    # One group per weight-owning module, evenly subsampled through depth.
    probe_model, _ = context.protected_model("none")
    owners: list[str] = []
    for name, _ in probe_model.named_parameters():
        if name.endswith(".weight"):
            prefix = name[: -len("weight")]
            if prefix not in owners:
                owners.append(prefix)
    if len(owners) > MAX_GROUPS:
        picks = [
            owners[round(i * (len(owners) - 1) / (MAX_GROUPS - 1))]
            for i in range(MAX_GROUPS)
        ]
        owners = list(dict.fromkeys(picks))

    result = AblationResult(
        title=(
            f"EXT-L  Layer vulnerability — {panel_label(context)}, "
            f"{FLIPS_PER_GROUP} flips confined per group"
        ),
        headers=["parameter group", *METHODS],
    )
    per_method: dict[str, dict[str, float]] = {}
    for method in METHODS:
        model, _ = context.protected_model(method)
        campaign = FaultCampaign(
            FaultInjector(model),
            context.evaluator.bind(model),
            trials=preset.trials,
            seed=derive_seed(preset.seed, "ext-l", context.model_name, method),
        )
        vulnerability = parameter_group_vulnerability(
            campaign, owners, flips_per_trial=FLIPS_PER_GROUP
        )
        per_method[method] = {
            prefix: run.mean for prefix, run in vulnerability.items()
        }
    for prefix in owners:
        result.rows.append(
            [prefix.rstrip("."), *[percent(per_method[m][prefix]) for m in METHODS]]
        )
        result.data[prefix.rstrip(".")] = {
            m: per_method[m][prefix] for m in METHODS
        }
    return result


def run_hard_deploy_ablation(
    preset: Preset = QUICK, context: ExperimentContext | None = None
) -> AblationResult:
    """ABL-H: deploy post-trained bounds as the hard piecewise form.

    The paper trains the smooth FitReLU (Eq. 6) because Eq. 5's
    piecewise FitReLU-Naive has no usable λ gradient — but *deployment*
    needs no gradients.  This ablation exports the tuned λᵢ into
    FitReLU-Naive (``FitReLU.hard_equivalent``) and compares the two
    deployment forms on clean accuracy, accuracy under fault, and
    inference runtime: the hard form skips the tanh gate entirely.
    The runtimes stay in ``result.data`` (``seconds``) and out of the
    rendered table, a wall clock that would make every regeneration of
    the committed artefact differ.
    """
    from repro.autograd.tensor import Tensor
    from repro.core.bounded_relu import FitReLUNaive
    from repro.core.fitrelu import FitReLU
    from repro.core.surgery import bound_modules
    from repro.eval.overhead import measure_inference_seconds

    context = context or prepare_context(MODEL_NAME, DATASET_NAME, preset)
    rates = [preset.rates[i] for i in RATE_INDICES]

    import numpy as np

    smooth, _ = context.protected_model("fitact")
    hard, _ = context.protected_model("fitact")  # same memoised tuned bounds
    for path, module in bound_modules(hard).items():
        if isinstance(module, FitReLU):
            hard.set_submodule(path, FitReLUNaive(module.hard_equivalent()))
    quantize_module(hard)
    plain, plain_info = context.protected_model("none")

    batch = Tensor(
        np.random.default_rng(preset.seed)
        .normal(size=(32, 3, preset.image_size, preset.image_size))
        .astype(np.float32)
    )
    result = AblationResult(
        title=(
            f"ABL-H  Deployment form of tuned bounds — {panel_label(context)} "
            "(smooth Eq. 6 vs hard Eq. 5)"
        ),
        headers=[
            "deployment",
            "clean acc",
            *[f"rate {rate:.1e}" for rate in rates],
        ],
    )
    plain_seconds = measure_inference_seconds(plain, batch)
    variants = {"smooth (FitReLU)": smooth, "hard (FitReLU-Naive)": hard}
    for label, model in variants.items():
        clean = context.evaluator.accuracy(model)
        seconds = measure_inference_seconds(model, batch)
        row: dict[str, float] = {
            "clean": clean,
            "seconds": seconds,
            "runtime_overhead": seconds / plain_seconds - 1.0,
        }
        cells = [label, percent(clean)]
        campaign = FaultCampaign(
            FaultInjector(model),
            context.evaluator.bind(model),
            trials=preset.trials,
            seed=derive_seed(preset.seed, "abl-h", context.model_name),
        )
        for rate in rates:
            mean = campaign.run(BitFlipFaultModel.at_rate(rate), tag=label).mean
            row[f"{rate:.1e}"] = mean
            cells.append(percent(mean))
        result.rows.append(cells)
        result.data[label] = row
    result.rows.append(
        [
            "plain ReLU (reference)",
            percent(plain_info["clean_accuracy"]),
            *["-"] * len(rates),
        ]
    )
    result.data["plain"] = {
        "clean": plain_info["clean_accuracy"],
        "seconds": plain_seconds,
    }
    return result


def run_format_ablation(
    preset: Preset = QUICK, context: ExperimentContext | None = None
) -> AblationResult:
    """ABL-W: word-format ablation at a fixed per-bit fault rate.

    Narrow formats are doubly different: quantisation itself costs clean
    accuracy, but each word exposes fewer (and lower-magnitude) bits —
    Q3.4's worst flip adds 4.0, Q15.16's adds 16384.  Expected flips per
    trial scale with the format width and are reported per row.
    """
    context = context or prepare_context(MODEL_NAME, DATASET_NAME, preset)
    rate = preset.rates[RATE_INDEX]
    result = AblationResult(
        title=(
            f"ABL-W  Word-format ablation — {panel_label(context)}, "
            f"per-bit rate {rate:.1e}"
        ),
        headers=["format", "method", "clean acc", "acc under fault", "E[flips]"],
    )
    for fmt_name in FORMATS:
        fmt = parse_format(fmt_name)
        for method in METHODS:
            model, _ = context.protected_model(method, quantize=False)
            quantize_module(model, fmt)
            clean = context.evaluator.accuracy(model)
            injector = FaultInjector(model, fmt=fmt)
            expected = rate * injector.total_bits
            campaign = FaultCampaign(
                injector,
                context.evaluator.bind(model),
                trials=preset.trials,
                seed=derive_seed(
                    preset.seed, "abl-w", context.model_name, method, str(fmt)
                ),
            )
            faulty = campaign.run(
                BitFlipFaultModel.at_rate(rate), tag=f"{fmt}:{method}"
            ).mean
            result.rows.append(
                [str(fmt), method, percent(clean), percent(faulty), f"{expected:.1f}"]
            )
            result.data[f"{fmt_name}:{method}"] = {
                "clean": clean,
                "faulty": faulty,
                "expected_flips": expected,
            }
    return result
