"""Trial work units and the runners that evaluate them.

A campaign is an embarrassingly parallel workload: every trial is fully
determined by its seed-derived fault sites, and evaluates the model
under those faults independently of every other trial.  This module
holds the units :class:`~repro.fault.campaign.FaultCampaign` schedules
— :class:`TrialWork` (one trial's sampled sites) and :class:`TrialGroup`
(consecutive trials evaluated as replica lanes of one pass) — and the
callables that turn them into :class:`TrialOutcome` records.

A campaign runs its trials in-process; it scales out across processes
only as N ``repro campaign serve-store`` workers sharing one durable
store (:mod:`repro.coord`).  Determinism holds by construction: fault
sites are sampled from seeds derived per trial index, never from the
schedule, so any partition of the trial space — claimed or stolen
ranges, replica groups, one serial run — yields bit-identical
per-trial results.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.errors import ConfigurationError
from repro.fault.sites import FaultSites
from repro.obs.trace import span

if TYPE_CHECKING:
    from repro.fault.injector import FaultInjector

__all__ = [
    "GroupTrialRunner",
    "TrialGroup",
    "TrialOutcome",
    "TrialRunner",
    "TrialWork",
    "group_works",
]


@dataclass(frozen=True)
class TrialWork:
    """One schedulable unit of campaign work.

    ``sites`` are sampled from the trial's derived seed, so the fault
    pattern of trial ``index`` is independent of how trials are
    scheduled — over replica groups, or over ``serve-store`` workers
    claiming and stealing ranges.
    """

    index: int
    sites: FaultSites


@dataclass(frozen=True)
class TrialOutcome:
    """Result of one trial: accuracy under fault and the realised flips.

    ``seconds`` is the trial's wall-clock (inject + evaluate + restore),
    excluded from equality — campaign results are identified by their
    accuracy/flip streams, never by timing, so replayed and re-executed
    outcomes compare equal.  Stores journal it for throughput/ETA
    reporting (``repro campaign status``).
    """

    index: int
    accuracy: float
    flips: int
    seconds: float = field(default=0.0, compare=False)


class TrialRunner:
    """The per-trial work function: inject, evaluate, restore.

    Bundles the injector and the evaluation callable — the read-only
    campaign state — into one object that serves trials for every fault
    configuration the campaign runs.  It pickles as one payload, and
    pickle preserves the injector-module/evaluator-model aliasing.
    """

    __slots__ = ("injector", "evaluate")

    def __init__(
        self, injector: "FaultInjector", evaluate: Callable[[], float]
    ) -> None:
        self.injector = injector
        self.evaluate = evaluate

    def __call__(self, work: TrialWork) -> TrialOutcome:
        with span("campaign.trial", trial=work.index):
            started = time.perf_counter()
            with self.injector.inject(work.sites) as count:
                accuracy = float(self.evaluate())
            seconds = time.perf_counter() - started
        return TrialOutcome(
            index=work.index,
            accuracy=accuracy,
            flips=int(count),
            seconds=seconds,
        )


def group_works(works: "Sequence[TrialWork]", width: int) -> list["TrialGroup"]:
    """Pack an ordered work list into replica groups of ``width`` lanes.

    The single grouping policy shared by every dispatch path (full runs,
    resumes, and the coord layer's dynamic ranges): consecutive works
    become lanes of one group, the last group holding the remainder.
    Grouping is scheduling only — outcomes stream back flattened in the
    original order, bit-identical to per-trial execution.
    """
    if width < 2:
        raise ConfigurationError(f"replica group width must be >= 2, got {width}")
    return [
        TrialGroup(works=tuple(works[at : at + width]))
        for at in range(0, len(works), width)
    ]


@dataclass(frozen=True)
class TrialGroup:
    """A replica group: consecutive trials evaluated as lanes of one pass.

    Groups carry ordinary :class:`TrialWork` units — the same sites the
    per-trial path would inject — so grouping is purely a scheduling
    decision; lane outcomes are attributed back to the original trial
    indices and must be bit-identical to the ungrouped evaluation.
    """

    works: tuple[TrialWork, ...]


class GroupTrialRunner:
    """Work function evaluating one replica group per call.

    Requires an evaluation callable exposing
    ``lane_accuracies(injector, site_sets)`` — the replicated-evaluation
    hook (:meth:`repro.eval.BoundAccuracy.lane_accuracies`), which
    shares each batch's clean forward across the group's lanes and
    returns one accuracy per site set, in order, bit-identical to the
    per-trial path.
    """

    __slots__ = ("injector", "evaluate")

    def __init__(self, injector: "FaultInjector", evaluate: object) -> None:
        self.injector = injector
        self.evaluate = evaluate

    def __call__(self, group: TrialGroup) -> tuple[TrialOutcome, ...]:
        works = group.works
        with span("campaign.group", trials=len(works)):
            # Group wall time split evenly over lanes: shared work has no
            # per-trial attribution.  Raw reads like TrialRunner's above:
            # the journaled duration is data, the span only telemetry.
            started = time.perf_counter()  # repro-lint: disable=RPL009
            accuracies = self.evaluate.lane_accuracies(
                self.injector, [work.sites for work in works]
            )
            seconds = time.perf_counter() - started  # repro-lint: disable=RPL009
        if len(accuracies) != len(works):  # pragma: no cover - defensive
            raise ConfigurationError(
                f"lane_accuracies returned {len(accuracies)} accuracies "
                f"for {len(works)} lanes"
            )
        per_lane = seconds / len(works) if works else 0.0
        return tuple(
            TrialOutcome(
                index=work.index,
                accuracy=float(accuracy),
                flips=len(work.sites),
                seconds=per_lane,
            )
            for work, accuracy in zip(works, accuracies)
        )
