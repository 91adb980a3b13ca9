"""Design-choice ablations: ABL-G / ABL-K / ABL-Z / ABL-B.

The paper fixes several knobs without sweeping them — bound granularity
(neuron-wise), the FitReLU slope k ("empirically computed"), and the
regulariser ζ.  These ablations quantify each choice on the reproduction
substrate, plus the per-bit-position vulnerability profile of Q15.16
words that explains *why* bounding works.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.post_training import PostTrainingConfig
from repro.eval.experiments.context import ExperimentContext, prepare_context
from repro.eval.experiments.presets import Preset, QUICK
from repro.eval.experiments.runner import run_method_sweep
from repro.eval.reporting import format_table, percent
from repro.fault.campaign import FaultCampaign
from repro.fault.injector import FaultInjector
from repro.fault.statistics import bit_position_vulnerability
from repro.utils.rng import derive_seed

__all__ = [
    "AblationResult",
    "run_bit_position_ablation",
    "run_granularity_ablation",
    "run_slope_ablation",
    "run_zeta_ablation",
]


@dataclass
class AblationResult:
    """Generic ablation table: one row per swept configuration."""

    title: str
    headers: list[str]
    rows: list[list[str]] = field(default_factory=list)
    data: dict[str, dict[str, float]] = field(default_factory=dict)

    def to_text(self) -> str:
        return format_table(self.headers, self.rows, title=self.title)


def _resilience(
    context: ExperimentContext,
    method: str,
    rate: float,
    trials: int,
    overrides: dict[str, object] | None = None,
    post_config: PostTrainingConfig | None = None,
) -> tuple[float, float, int]:
    """(clean accuracy, mean accuracy under fault, bound words)."""
    model, info = context.protected_model(
        method, protection_overrides=overrides, post_config=post_config
    )
    from repro.core.surgery import bound_parameter_count
    from repro.fault.fault_model import BitFlipFaultModel

    injector = FaultInjector(model)
    campaign = FaultCampaign(
        injector,
        context.evaluator.bind(model),
        trials=trials,
        seed=derive_seed(context.preset.seed, "ablation", method, repr(overrides)),
    )
    result = campaign.run(BitFlipFaultModel.at_rate(rate))
    return info["clean_accuracy"], result.mean, bound_parameter_count(model)


def run_granularity_ablation(
    preset: Preset = QUICK,
    model_name: str = "vgg16",
    dataset_name: str = "synth10",
    granularities: tuple[str, ...] = ("neuron", "channel", "layer"),
    rate_index: int = 3,
    context: ExperimentContext | None = None,
) -> AblationResult:
    """ABL-G: FitAct bound granularity — the paper's core design choice.

    Expected: neuron-wise bounds dominate channel-wise, which dominate a
    layer-global bound (the Clip-Act regime), at the cost of more bound
    words.
    """
    context = context or prepare_context(model_name, dataset_name, preset)
    rate = preset.rates[rate_index]
    result = AblationResult(
        title=(
            f"ABL-G  Bound granularity — {model_name}/{dataset_name}, "
            f"fault rate {rate:.1e}"
        ),
        headers=["granularity", "bound words", "clean acc", "acc under fault"],
    )
    for granularity in granularities:
        clean, faulty, words = _resilience(
            context,
            "fitact",
            rate,
            preset.trials,
            overrides={"granularity": granularity},
        )
        result.rows.append([granularity, str(words), percent(clean), percent(faulty)])
        result.data[granularity] = {
            "clean": clean,
            "faulty": faulty,
            "words": float(words),
        }
    return result


def run_slope_ablation(
    preset: Preset = QUICK,
    model_name: str = "vgg16",
    dataset_name: str = "synth10",
    slopes: tuple[float, ...] = (5.0, 10.0, 40.0, 100.0),
    slope_modes: tuple[str, ...] = ("relative", "absolute"),
    rate_index: int = 3,
    context: ExperimentContext | None = None,
) -> AblationResult:
    """ABL-K: FitReLU slope coefficient and scaling mode.

    Quantifies the Eq. 6 "empirically computed" k: absolute small k
    distorts clean accuracy; relative k is robust across layers.
    """
    context = context or prepare_context(model_name, dataset_name, preset)
    rate = preset.rates[rate_index]
    result = AblationResult(
        title=(
            f"ABL-K  FitReLU slope — {model_name}/{dataset_name}, "
            f"fault rate {rate:.1e}"
        ),
        headers=["slope mode", "k", "clean acc", "acc under fault"],
    )
    for mode in slope_modes:
        for k in slopes:
            clean, faulty, _ = _resilience(
                context,
                "fitact",
                rate,
                preset.trials,
                overrides={"k": k, "slope_mode": mode},
            )
            result.rows.append([mode, f"{k:g}", percent(clean), percent(faulty)])
            result.data[f"{mode}:{k:g}"] = {"clean": clean, "faulty": faulty}
    return result


def run_zeta_ablation(
    preset: Preset = QUICK,
    model_name: str = "vgg16",
    dataset_name: str = "synth10",
    zetas: tuple[float, ...] = (0.0, 0.1, 1.0, 10.0),
    rate_index: int = 3,
    context: ExperimentContext | None = None,
) -> AblationResult:
    """ABL-Z: the Eq. 10 regulariser strength ζ.

    ζ=0 leaves bounds at the profiled maxima (no shrink); growing ζ
    trades clean accuracy for resilience until the δ constraint rolls the
    run back.
    """
    context = context or prepare_context(model_name, dataset_name, preset)
    rate = preset.rates[rate_index]
    result = AblationResult(
        title=(
            f"ABL-Z  Bound regulariser ζ — {model_name}/{dataset_name}, "
            f"fault rate {rate:.1e}"
        ),
        headers=["zeta", "clean acc", "acc under fault"],
    )
    for zeta in zetas:
        post = PostTrainingConfig(
            epochs=preset.post_epochs,
            lr=preset.post_lr,
            zeta=zeta,
            delta=preset.delta,
        )
        clean, faulty, _ = _resilience(
            context, "fitact", rate, preset.trials, post_config=post
        )
        result.rows.append([f"{zeta:g}", percent(clean), percent(faulty)])
        result.data[f"{zeta:g}"] = {"clean": clean, "faulty": faulty}
    return result


def run_bit_position_ablation(
    preset: Preset = QUICK,
    model_name: str = "vgg16",
    dataset_name: str = "synth10",
    bits: tuple[int, ...] = (0, 8, 15, 16, 20, 24, 28, 30, 31),
    flips_per_trial: int = 16,
    methods: tuple[str, ...] = ("none", "fitact"),
    context: ExperimentContext | None = None,
) -> AblationResult:
    """ABL-B: per-bit-position vulnerability of Q15.16 parameter words.

    Bit 0 is the fraction LSB, bits 16–30 are integer magnitude, bit 31
    is the sign.  Expected: low bits harmless for everyone; high integer
    bits catastrophic for the unprotected model and largely recovered by
    FitAct — the mechanism behind the whole paper.
    """
    context = context or prepare_context(model_name, dataset_name, preset)
    result = AblationResult(
        title=(
            f"ABL-B  Bit-position vulnerability — {model_name}/{dataset_name}, "
            f"{flips_per_trial} flips/trial"
        ),
        headers=["bit", *[f"{m} acc" for m in methods]],
    )
    per_method: dict[str, dict[int, float]] = {}
    for method in methods:
        model, _ = context.protected_model(method)
        campaign = FaultCampaign(
            FaultInjector(model),
            context.evaluator.bind(model),
            trials=preset.trials,
            seed=derive_seed(preset.seed, "bitpos", method),
        )
        vulnerability = bit_position_vulnerability(
            campaign, list(bits), flips_per_trial=flips_per_trial
        )
        per_method[method] = {bit: res.mean for bit, res in vulnerability.items()}
    for bit in bits:
        result.rows.append(
            [str(bit), *[percent(per_method[m][bit]) for m in methods]]
        )
        result.data[str(bit)] = {m: per_method[m][bit] for m in methods}
    return result
