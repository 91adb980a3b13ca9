"""Trial work units and the runner that evaluates them.

A campaign is an embarrassingly parallel workload: every trial is fully
determined by its seed-derived fault sites, and evaluates the model
under those faults independently of every other trial.  This module
holds the unit :class:`~repro.fault.campaign.FaultCampaign` schedules —
:class:`TrialWork` (one trial's sampled sites) — and the
:class:`TrialRunner` that turns it into a :class:`TrialOutcome` record.

A campaign runs its trials in-process; it scales out across processes
only as N ``repro campaign run`` workers sharing one durable store
(:mod:`repro.coord`).  Determinism holds by construction: fault
sites are sampled from seeds derived per trial index, never from the
schedule, so any partition of the trial space — claimed or stolen
ranges, one serial run — yields bit-identical per-trial results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.fault.sites import FaultSites
from repro.obs.trace import span

if TYPE_CHECKING:
    from repro.fault.injector import FaultInjector

__all__ = [
    "TrialOutcome",
    "TrialRunner",
    "TrialWork",
]


@dataclass(frozen=True)
class TrialWork:
    """One schedulable unit of campaign work.

    ``sites`` are sampled from the trial's derived seed, so the fault
    pattern of trial ``index`` is independent of how trials are
    scheduled over ``campaign run`` workers claiming and stealing ranges.
    """

    index: int
    sites: FaultSites


@dataclass(frozen=True)
class TrialOutcome:
    """Result of one trial: accuracy under fault and the realised flips.

    Carries no timing: an outcome is a pure function of the trial's
    seed, so replayed and re-executed outcomes compare (and journal)
    equal.  Each trial is timed side-band by its ``campaign.trial``
    span; ``repro campaign watch`` derives rate and ETA from its polls.
    """

    index: int
    accuracy: float
    flips: int


class TrialRunner:
    """The per-trial work function: inject, evaluate, restore.

    Bundles the injector and the evaluation callable — the read-only
    campaign state — into one object that serves trials for every fault
    configuration the campaign runs.

    When ``evaluate`` exposes the lane hook
    ``lane_accuracies(injector, site_sets)``
    (:meth:`repro.eval.BoundAccuracy.lane_accuracies`), each trial runs
    as one replica lane: the model's clean forward per batch is cached
    once for the whole campaign and the lane re-runs only the plan
    suffix its faults can reach.  The hook itself degrades to inject,
    evaluate, restore wherever lanes could not be bit-exact, so the
    accuracy stream is that of a plain closure either way.
    """

    __slots__ = ("injector", "evaluate", "lanes")

    def __init__(
        self, injector: "FaultInjector", evaluate: Callable[[], float]
    ) -> None:
        self.injector = injector
        self.evaluate = evaluate
        self.lanes = callable(getattr(evaluate, "lane_accuracies", None))

    def __call__(self, work: TrialWork) -> TrialOutcome:
        with span("campaign.trial", trial=work.index):
            if self.lanes:
                (accuracy,) = self.evaluate.lane_accuracies(
                    self.injector, [work.sites]
                )
                count = len(work.sites)
            else:
                with self.injector.inject(work.sites) as count:
                    accuracy = self.evaluate()
        return TrialOutcome(
            index=work.index, accuracy=float(accuracy), flips=int(count)
        )
