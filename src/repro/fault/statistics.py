"""Statistical analyses over campaign results.

Beyond the mean/box summaries on :class:`CampaignResult`, this module
implements the per-bit-position vulnerability study (which bit of a
Q15.16 word, when flipped, hurts accuracy most) — the mechanism behind
the paper's observation that high-magnitude corruptions dominate, and the
basis of the ABL-B ablation bench.

``scipy.stats`` is imported inside the two interval helpers, not at
module level.  Every ``repro`` command reaches this module through
``repro.fault``, and importing scipy.stats costs about 1.0 s and 60 MB
per process, while only ``campaign report`` and early stopping ever ask
for a Student-t or normal quantile.  The quantiles themselves are
unchanged, so reports keep their bytes.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.fault.campaign import CampaignResult, FaultCampaign
from repro.fault.fault_model import BitFlipFaultModel

__all__ = [
    "OutcomeBreakdown",
    "accuracy_drop",
    "bit_position_vulnerability",
    "classify_outcomes",
    "critical_bit_threshold",
    "is_sdc",
    "mean_confidence_interval",
    "parameter_group_vulnerability",
    "sdc_probability",
    "wilson_interval",
]


def accuracy_drop(baseline: float, result: CampaignResult) -> float:
    """Mean accuracy lost relative to the fault-free baseline."""
    return float(baseline - result.mean)


def is_sdc(
    accuracies: float | Sequence[float] | np.ndarray,
    baseline: float,
    tolerance: float = 0.01,
) -> np.ndarray:
    """Elementwise silent-data-corruption predicate.

    A trial is an SDC when accuracy falls more than ``tolerance`` below
    the fault-free baseline (the usual resilience-literature
    definition).  The single definition shared by campaign summaries and
    the store's vulnerability atlas, so "SDC rate" means the same thing
    in every report.
    """
    return np.asarray(accuracies, dtype=np.float64) < baseline - tolerance


def sdc_probability(result: CampaignResult, baseline: float, tolerance: float = 0.01) -> float:
    """Fraction of trials counting as silent data corruption."""
    return float(np.mean(is_sdc(result.accuracies, baseline, tolerance)))


def bit_position_vulnerability(
    campaign: FaultCampaign,
    bits: list[int],
    flips_per_trial: int = 1,
    param_filter: Callable[[str], bool] | None = None,
) -> dict[int, CampaignResult]:
    """Mean accuracy when flipping only bit ``b``, for each b in ``bits``.

    Exposes the Q15.16 vulnerability profile: fraction-LSB flips are
    harmless, high integer/sign bits are catastrophic — exactly why
    bounded activations recover most of the loss.
    """
    results: dict[int, CampaignResult] = {}
    for bit in bits:
        fault_model = BitFlipFaultModel.exact(
            flips_per_trial, allowed_bits=(bit,), param_filter=param_filter
        )
        results[bit] = campaign.run(fault_model, tag=f"bit{bit}")
    return results


def critical_bit_threshold(
    vulnerability: dict[int, CampaignResult],
    baseline: float,
    tolerance: float = 0.01,
) -> int | None:
    """Lowest bit index whose flips cost more than ``tolerance`` accuracy.

    Returns None when no examined bit is critical.
    """
    for bit in sorted(vulnerability):
        if baseline - vulnerability[bit].mean > tolerance:
            return bit
    return None


# ----------------------------------------------------------------------
# Outcome classification (masked / degraded / critical)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OutcomeBreakdown:
    """Trial outcomes of one campaign, FIT-analysis style.

    - *masked*: accuracy within ``masked_tolerance`` of the fault-free
      baseline — the faults had no observable effect;
    - *critical*: accuracy at or below ``critical_accuracy`` — the model
      is effectively guessing (typically set near chance level);
    - *degraded*: everything in between (observable but partial damage,
      the classic silent-data-corruption band).
    """

    trials: int
    masked: int
    degraded: int
    critical: int
    masked_tolerance: float
    critical_accuracy: float

    @property
    def masked_fraction(self) -> float:
        return self.masked / self.trials

    @property
    def degraded_fraction(self) -> float:
        return self.degraded / self.trials

    @property
    def critical_fraction(self) -> float:
        return self.critical / self.trials

    def summary(self) -> str:
        return (
            f"{self.trials} trials: {self.masked_fraction:.0%} masked, "
            f"{self.degraded_fraction:.0%} degraded, "
            f"{self.critical_fraction:.0%} critical"
        )


def classify_outcomes(
    result: CampaignResult,
    baseline: float,
    masked_tolerance: float = 0.01,
    critical_accuracy: float = 0.2,
) -> OutcomeBreakdown:
    """Bucket each trial of a campaign into masked / degraded / critical.

    ``critical_accuracy`` defaults to 0.2 — twice the 10-class chance
    level; pass ``2/num_classes`` for other class counts.
    """
    if not 0.0 <= baseline <= 1.0:
        raise ConfigurationError(f"baseline must be in [0, 1], got {baseline}")
    accuracies = result.accuracies
    masked = int(np.sum(accuracies >= baseline - masked_tolerance))
    critical = int(
        np.sum(
            (accuracies <= critical_accuracy)
            & (accuracies < baseline - masked_tolerance)
        )
    )
    degraded = int(accuracies.size) - masked - critical
    return OutcomeBreakdown(
        trials=int(accuracies.size),
        masked=masked,
        degraded=degraded,
        critical=critical,
        masked_tolerance=masked_tolerance,
        critical_accuracy=critical_accuracy,
    )


# ----------------------------------------------------------------------
# Confidence intervals
# ----------------------------------------------------------------------
def mean_confidence_interval(
    samples: CampaignResult | Sequence[float] | np.ndarray,
    confidence: float = 0.95,
) -> tuple[float, float]:
    """Student-t confidence interval for a campaign's mean accuracy.

    Campaign trial counts are small (4–20), so the t correction matters.
    A single trial yields a degenerate ``(mean, mean)`` interval.
    """
    if isinstance(samples, CampaignResult):
        samples = samples.accuracies
    values = np.asarray(samples, dtype=np.float64)
    if values.size == 0:
        raise ConfigurationError("cannot build an interval from zero samples")
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError(f"confidence must be in (0, 1), got {confidence}")
    mean = float(values.mean())
    if values.size == 1:
        return (mean, mean)
    sem = float(values.std(ddof=1) / np.sqrt(values.size))
    if sem == 0.0:
        return (mean, mean)
    from scipy import stats

    half = float(stats.t.ppf(0.5 + confidence / 2.0, df=values.size - 1) * sem)
    return (mean - half, mean + half)


def wilson_interval(
    successes: int, trials: int, confidence: float = 0.95
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    The right interval for small-sample fault statistics (SDC rates,
    outcome fractions): unlike the normal approximation it stays inside
    [0, 1] and behaves at 0 and N successes.
    """
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise ConfigurationError(
            f"successes must be in [0, {trials}], got {successes}"
        )
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError(f"confidence must be in (0, 1), got {confidence}")
    from scipy import stats

    z = float(stats.norm.ppf(0.5 + confidence / 2.0))
    p = successes / trials
    denom = 1.0 + z * z / trials
    centre = (p + z * z / (2 * trials)) / denom
    half = (
        z * np.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom
    )
    # At the boundary counts the analytic endpoint is exactly 0 (or 1);
    # keep it exact rather than trusting float cancellation.
    low = 0.0 if successes == 0 else max(0.0, centre - half)
    high = 1.0 if successes == trials else min(1.0, centre + half)
    return (low, high)


# ----------------------------------------------------------------------
# Per-parameter-group vulnerability
# ----------------------------------------------------------------------
def parameter_group_vulnerability(
    campaign: FaultCampaign,
    prefixes: Sequence[str],
    flips_per_trial: int = 8,
    allowed_bits: tuple[int, ...] | None = None,
) -> dict[str, CampaignResult]:
    """Accuracy under faults confined to each parameter-name prefix.

    The layer-wise counterpart of :func:`bit_position_vulnerability`:
    flipping the same number of bits in different layers exposes which
    parts of the network the protection must cover first (early conv
    layers fan corruption out over the whole feature map; the classifier
    corrupts at most a few logits).
    """
    results: dict[str, CampaignResult] = {}
    for prefix in prefixes:
        fault_model = BitFlipFaultModel.exact(
            flips_per_trial,
            allowed_bits=allowed_bits,
            param_filter=_prefix_filter(prefix),
        )
        results[prefix] = campaign.run(fault_model, tag=f"group:{prefix}")
    return results


def _prefix_filter(prefix: str) -> Callable[[str], bool]:
    """Name predicate bound to its own prefix (no late-binding bugs)."""

    def accept(name: str) -> bool:
        return name.startswith(prefix)

    return accept
