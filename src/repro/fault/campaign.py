"""Fault-injection campaigns: repeated trials with accuracy collection.

A campaign fixes a model + evaluation closure, then for each fault
configuration runs K independent trials (fresh fault sites each time),
recording the accuracy under fault.  The resulting distributions are the
raw material of the paper's Fig. 5 (distribution) and Fig. 6 (means).

Trials run in-process, one at a time (:mod:`repro.fault.parallel`);
over an evaluator's lane hook each trial is one replica lane sharing
the model's cached clean forward.  There is one trial loop: the
in-memory :meth:`FaultCampaign.run` (the figure and ablation
experiments) drives every trial of a configuration through it, and a
journaled campaign scales out across processes only as ``repro
campaign run`` workers sharing one durable store (:mod:`repro.coord`),
each evaluating the trial ranges it claims through
:meth:`FaultCampaign.iter_range`.  Per-trial seeds are derived from the
campaign seed, tag, fault spec and trial index alone, so every schedule
produces bit-identical results.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.autograd.ops_conv import NUMERICS as CONV_NUMERICS
from repro.core.fitrelu import NUMERICS as FITRELU_NUMERICS
from repro.errors import ConfigurationError
from repro.fault.fault_model import BitFlipFaultModel, FaultModel
from repro.fault.injector import FaultInjector
from repro.fault.parallel import TrialOutcome, TrialRunner, TrialWork
from repro.fault.sites import FaultSites
from repro.obs.trace import span
from repro.utils.logging import get_logger
from repro.utils.rng import derive_seed

__all__ = [
    "CampaignResult",
    "FaultCampaign",
    "SweepResult",
]

_logger = get_logger("fault.campaign")


@dataclass
class CampaignResult:
    """Accuracy distribution from one fault configuration.

    ``accuracies`` has one entry per trial; ``flip_counts`` records how
    many bits actually flipped in each trial (Binomial draws vary).
    """

    fault_model: FaultModel
    accuracies: np.ndarray
    flip_counts: np.ndarray

    @property
    def trials(self) -> int:
        return int(self.accuracies.size)

    @property
    def mean(self) -> float:
        return float(self.accuracies.mean())

    @property
    def std(self) -> float:
        return float(self.accuracies.std())

    @property
    def median(self) -> float:
        return float(np.median(self.accuracies))

    @property
    def min(self) -> float:
        return float(self.accuracies.min())

    @property
    def max(self) -> float:
        return float(self.accuracies.max())

    def quantile(self, q: float) -> float:
        return float(np.quantile(self.accuracies, q))

    def box_stats(self) -> dict[str, float]:
        """Five-number summary backing a Fig. 5-style box plot."""
        return {
            "min": self.min,
            "q1": self.quantile(0.25),
            "median": self.median,
            "q3": self.quantile(0.75),
            "max": self.max,
        }

    def summary(self) -> str:
        return (
            f"{self.fault_model.describe()}: mean={self.mean:.2%} "
            f"median={self.median:.2%} std={self.std:.2%} "
            f"[{self.min:.2%}, {self.max:.2%}] over {self.trials} trials"
        )


@dataclass
class SweepResult:
    """Campaign results across a fault-rate sweep (one Fig. 5/6 panel)."""

    rates: tuple[float, ...]
    results: dict[float, CampaignResult] = field(default_factory=dict)

    def mean_curve(self) -> list[float]:
        """Average accuracy per rate — one line of Fig. 6."""
        return [self[rate].mean for rate in self.rates]

    def __getitem__(self, rate: float) -> CampaignResult:
        # Raw float equality is too brittle for recomputed rates
        # (3 * 1e-6 != 3e-6); resolve near-misses with isclose.
        result = self.results.get(rate)
        if result is not None:
            return result
        for stored, value in self.results.items():
            if math.isclose(rate, stored, rel_tol=1e-9, abs_tol=0.0):
                return value
        available = ", ".join(f"{r:g}" for r in sorted(self.results))
        raise KeyError(
            f"fault rate {rate:g} not in sweep (available rates: {available})"
        )

    def __contains__(self, rate: float) -> bool:
        try:
            self[rate]
        except KeyError:
            return False
        return True


class FaultCampaign:
    """Run repeated fault-injection trials against a fixed model.

    Parameters
    ----------
    injector:
        A :class:`FaultInjector` wrapping the (quantised) model.
    evaluate:
        Zero-argument closure returning accuracy in [0, 1] of the model in
        its *current* (possibly faulty) state.  A closure that also
        exposes ``lane_accuracies(injector, site_sets)``
        (:meth:`repro.eval.Evaluator.bind`) evaluates each trial as a
        replica lane instead (:class:`~repro.fault.parallel.TrialRunner`),
        bit-identical to injecting and calling it.
    trials:
        Number of independent trials per fault configuration.
    seed:
        Base seed; trial t derives its own stream from (seed, tag, the
        fault model's spec, t), so two campaigns with the same seed, tag
        and spec over the same fault space see identical fault sites.
        Campaigns over different fault spaces (a FitAct model has more
        bound words than its Clip-Act twin) or under different tags
        draw independent sites: they are not paired trial by trial.
    """

    #: The arithmetic the trials' forwards run: the convolutions
    #: (:data:`repro.autograd.ops_conv.NUMERICS`) and FitReLU
    #: (:data:`repro.core.fitrelu.NUMERICS`).  Stores record it.
    numerics = f"{CONV_NUMERICS}+{FITRELU_NUMERICS}"

    def __init__(
        self,
        injector: FaultInjector,
        evaluate: Callable[[], float],
        trials: int = 20,
        seed: int = 0,
    ) -> None:
        if trials < 1:
            raise ConfigurationError(f"trials must be >= 1, got {trials}")
        self.injector = injector
        self.evaluate = evaluate
        self.trials = int(trials)
        self.seed = int(seed)
        self._runner = TrialRunner(injector, evaluate)

    def trial_seeds(self, fault_model: FaultModel, tag: str = "") -> list[int]:
        """Derive every trial's seed up front (the determinism contract).

        Seeds depend only on ``(seed, tag, fault_model.describe(), t)``
        — never on scheduling — so any partition of the trial space
        reproduces the serial fault patterns exactly.
        """
        return [
            derive_seed(self.seed, "trial", tag, fault_model.describe(), trial)
            for trial in range(self.trials)
        ]

    def _site_metadata(self, sites) -> list[tuple[int, int]]:
        """Applied-site ``(layer, bit)`` pairs for the store journal.

        Injectors without the hook (custom fault spaces) journal trials
        without site attribution — resume still works, the atlas just
        has nothing to aggregate for them.
        """
        metadata = getattr(self.injector, "site_metadata", None)
        if metadata is None:
            return []
        return metadata(sites)

    def _trials(
        self, fault_model: FaultModel, indices: Sequence[int], tag: str
    ) -> Iterator[tuple[TrialOutcome, FaultSites]]:
        """The one trial loop: sample each trial's sites just before it
        runs, then evaluate it; yields ``(outcome, sites)`` in ascending
        trial order with duplicates collapsed."""
        plan = sorted({int(trial) for trial in indices})
        if plan and not 0 <= plan[0] <= plan[-1] < self.trials:
            raise ConfigurationError(
                f"trial indices must lie in [0, {self.trials}), "
                f"got {plan[0]}..{plan[-1]}"
            )
        seeds = self.trial_seeds(fault_model, tag)
        for trial in plan:
            sites = self.injector.sample(fault_model, rng=seeds[trial])
            yield self._runner(TrialWork(index=trial, sites=sites)), sites

    def iter_range(
        self,
        fault_model: FaultModel,
        indices: Sequence[int],
        tag: str = "",
    ) -> Iterator[tuple[TrialOutcome, list[tuple[int, int]]]]:
        """Evaluate exactly ``indices`` of one configuration, streaming.

        The coordination layer's entry point (:mod:`repro.coord`): a
        worker that claimed a dynamic trial range evaluates just that
        range.  Yields ``(outcome, sites)`` pairs in ascending trial
        order — ``sites`` being the journal-ready applied-site metadata
        a worker records — with duplicates collapsed.  Trial seeds
        depend only on the trial index, never on scheduling, so any
        partition of the trial space (claimed or stolen ranges, a serial
        run) produces bit-identical per-trial results.  Evaluation is
        lazy: a caller that stops iterating (a lost fence check, a worker
        shutting down) samples and evaluates nothing further.
        """
        for outcome, sites in self._trials(fault_model, indices, tag):
            yield outcome, self._site_metadata(sites)

    def run(self, fault_model: FaultModel, tag: str = "") -> CampaignResult:
        """Run all trials for one fault configuration, in memory.

        The same trial loop as :meth:`iter_range` over every index, so
        its accuracies and flips are those a store's workers journal for
        the same seed, tag and spec.  Journaled, resumable campaigns run
        through :class:`repro.coord.CampaignWorker` instead.
        """
        with span("campaign.config", tag=tag, trials=self.trials):
            outcomes = [
                outcome
                for outcome, _ in self._trials(fault_model, range(self.trials), tag)
            ]
            result = CampaignResult(
                fault_model,
                np.asarray([o.accuracy for o in outcomes], dtype=np.float64),
                np.asarray([o.flips for o in outcomes], dtype=np.int64),
            )
        _logger.info("campaign %s %s", tag, result.summary())
        return result

    def run_sweep(self, rates: Sequence[float], tag: str = "") -> SweepResult:
        """Run a campaign at each fault rate (a full Fig. 5/6 panel)."""
        sweep = SweepResult(rates=tuple(rates))
        for rate in rates:
            sweep.results[rate] = self.run(BitFlipFaultModel.at_rate(rate), tag=tag)
        return sweep
