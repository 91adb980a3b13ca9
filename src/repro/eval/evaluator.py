"""Fast repeated model evaluation.

Fault campaigns evaluate the same test set dozens-to-hundreds of times
(once per trial).  :class:`Evaluator` materialises the batches once so
each evaluation is pure forward compute, and exposes the zero-argument
closure interface :class:`repro.fault.FaultCampaign` expects.

Every evaluation runs through a compiled
:class:`repro.runtime.InferencePlan`, compiled on first use of a model
instance and reused while that model keeps being evaluated.  Plans are
bit-exact with the eval-mode module forward and track fault injection
automatically, so accuracies are exactly those of the module path.
:func:`forward_logits` remains the module-forward building block for
callers that hold no plan.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

import numpy as np

from repro.autograd.grad_mode import no_grad
from repro.autograd.tensor import Tensor
from repro.data.loader import DataLoader
from repro.errors import ConfigurationError
from repro.nn.module import Module, eval_mode

if TYPE_CHECKING:
    from repro.runtime import InferencePlan, ReplicaPlan

__all__ = ["BoundAccuracy", "Evaluator", "forward_logits"]


def forward_logits(model: Module, inputs: np.ndarray | Tensor) -> np.ndarray:
    """One inference-mode forward pass; returns the logits array.

    Runs under ``no_grad`` with the *thread-local* eval override — the
    model's shared ``training`` flag is never written, so concurrent
    callers (batcher workers, the chaos engine, an in-process campaign)
    can share one model without racing BatchNorm into training mode.
    The module-forward reference compiled plans are checked against;
    :class:`Evaluator` and the serving stack run plans instead.
    """
    with eval_mode(), no_grad():
        return model(Tensor(inputs)).data


class BoundAccuracy:
    """Zero-argument accuracy closure over (evaluator, model).

    Unlike a lambda, it also carries the replica-lane hook
    :meth:`lane_accuracies`, through which campaigns evaluate their
    trials on the same model instance their injector faults.
    """

    __slots__ = ("evaluator", "model")

    def __init__(self, evaluator: "Evaluator", model: Module) -> None:
        self.evaluator = evaluator
        self.model = model

    def __call__(self) -> float:
        return self.evaluator.accuracy(self.model)

    def lane_accuracies(self, injector: object, site_sets: list) -> list[float]:
        """Replica-lane hook campaigns evaluate their trials through.

        One accuracy per site set, bit-identical to injecting and
        calling this closure once per set.  The presence of this method
        is what makes :class:`repro.fault.FaultCampaign` run each trial
        as a replica lane.
        """
        return self.evaluator.lane_accuracies(self.model, injector, site_sets)


class Evaluator:
    """Materialised test set with top-1 accuracy evaluation.

    Parameters
    ----------
    loader:
        Source of evaluation batches (consumed once, at construction).
    max_batches:
        Optional cap for quicker campaigns.
    """

    def __init__(
        self,
        loader: DataLoader,
        max_batches: int | None = None,
    ) -> None:
        # islice stops drawing at the cap: no batch past it is loaded.
        self._batches: list[tuple[Tensor, np.ndarray]] = list(
            itertools.islice(loader, max_batches)
        )
        if not self._batches:
            raise ConfigurationError("evaluation loader produced no batches")
        self.total_samples = sum(len(t) for _, t in self._batches)
        # (model, plan) and (model, replica) for the model evaluated
        # last.  One entry bounds what a long-lived evaluator pins:
        # callers evaluate one model at a time, and a per-model cache
        # would keep every model it ever saw, plans and buffers
        # included, alive for the evaluator's whole life.
        self._plan: "tuple[Module, InferencePlan] | None" = None
        self._replica: "tuple[Module, ReplicaPlan] | None" = None

    def _plan_for(self, model: Module) -> "InferencePlan":
        entry = self._plan
        if entry is None or entry[0] is not model:
            from repro.runtime import compile_model

            # Release the previous model before the new plan's warm-up
            # allocates its buffers.
            self.release()
            # No warm-up pass: the first evaluation allocates the plan's
            # buffers itself, and a warm-up would cost one more full
            # forward per evaluated model.
            plan = compile_model(model, self._batches[0][0].shape, warm=False)
            entry = self._plan = (model, plan)
        return entry[1]

    def release(self) -> None:
        """Drop the cached plan and replica with their buffers; the next
        evaluation compiles afresh."""
        self._plan = self._replica = None

    def _replica_for(self, model: Module) -> "ReplicaPlan":
        entry = self._replica
        if entry is None or entry[0] is not model:
            entry = self._replica = (model, self._plan_for(model).replicate())
        return entry[1]

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def accuracy(self, model: Module) -> float:
        """Top-1 accuracy of ``model`` on the materialised set.

        Plans run eval-mode semantics without touching the model's
        ``training`` flag, so evaluation never mutates shared module
        state.
        """
        plan = self._plan_for(model)
        correct = 0
        for inputs, targets in self._batches:
            logits = plan(inputs)
            correct += int((logits.argmax(axis=1) == targets).sum())
        return correct / self.total_samples

    def lane_accuracies(
        self, model: Module, injector: object, site_sets: list
    ) -> list[float]:
        """Accuracy of ``model`` under each site set, sharing clean work.

        The replica-lane entry point every
        :class:`repro.fault.FaultCampaign` trial over :meth:`bind` runs
        through: semantically equivalent to — and bit-identical with —
        the per-trial loop ::

            [injector.inject(sites) ∘ accuracy(model) for sites in site_sets]

        With a replay-safe plan and an injector whose live state matches its canonical clean values
        (:meth:`repro.fault.FaultInjector.canonical_clean`), lanes share
        one cached clean forward per batch and re-run only the plan
        suffix below each fault's divergence step
        (:class:`repro.runtime.ReplicaPlan`); zero-flip lanes replay the
        shared pass outright.  Every condition that could perturb
        bit-exactness (fallback kernels, armed activation faults, unquantisable parameters, injectors without
        the metadata hooks) degrades to the literal per-trial loop.
        """
        site_sets = list(site_sets)
        if self._lanes_exact(injector):
            replica = self._replica_for(model)
            if replica.replay_safe():
                return self._replica_lanes(replica, injector, site_sets)
        accuracies = []
        for sites in site_sets:
            with injector.inject(sites):
                accuracies.append(self.accuracy(model))
        return accuracies

    @staticmethod
    def _lanes_exact(injector: object) -> bool:
        """Whether shared-clean-forward lanes reproduce per-trial bits."""
        canonical = getattr(injector, "canonical_clean", None)
        return canonical is not None and bool(canonical())

    def _replica_lanes(
        self, replica, injector: object, site_sets: list
    ) -> list[float]:
        from repro.runtime import fault_parameters

        clean_correct = 0
        for key, (inputs, targets) in enumerate(self._batches):
            logits = replica.prepare(key, inputs)
            clean_correct += int((logits.argmax(axis=1) == targets).sum())
        clean_accuracy = clean_correct / self.total_samples
        accuracies = []
        for sites in site_sets:
            if len(sites) == 0:
                # Zero flips drawn: the lane is the clean model; replay
                # the shared pass instead of re-running any forward.
                accuracies.append(clean_accuracy)
                continue
            params = fault_parameters(injector, sites)
            correct = 0
            with injector.inject(sites):
                for key, (inputs, targets) in enumerate(self._batches):
                    logits = replica.lane_forward(key, inputs, params)
                    correct += int((logits.argmax(axis=1) == targets).sum())
            accuracies.append(correct / self.total_samples)
        return accuracies

    def bind(self, model: Module) -> BoundAccuracy:
        """Zero-argument closure for :class:`repro.fault.FaultCampaign`,
        with the replica-lane hook campaigns run their trials through."""
        return BoundAccuracy(self, model)

    def __len__(self) -> int:
        return self.total_samples
