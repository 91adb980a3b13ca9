"""Resilience post-training (FitAct stage 2, paper §V-A/§V-B).

Solves the paper's Eq. 9 —

    min ΘR   subject to   A(ΘA) − A(ΘA, ΘR) < δ

— with the regularised loss of Eq. 10::

    L(D; ΘA, ΘR) = L(D; ΘA) + (ζ/N) · Σᵢ λᵢ²

Only the bound parameters ΘR are updated (Adam, per §V-B); the weights
ΘA stay frozen.  The δ constraint is enforced by tracking the
best-so-far state (smallest mean bound whose clean accuracy stays within
δ of the reference) and rolling back to it at the end — so a run that
over-shrinks never ships the over-shrunk bounds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.bounded_tanh import BoundedTanh
from repro.core.fitrelu import FitReLU
from repro.core.training import evaluate_accuracy
from repro.data.loader import DataLoader
from repro.errors import ConfigurationError
from repro.nn.loss import CrossEntropyLoss
from repro.nn.module import Module, invalidate_runtime_plans
from repro.nn.parameter import Parameter
from repro.optim.adam import Adam
from repro.utils.logging import get_logger

__all__ = [
    "BoundPostTrainer",
    "PostTrainingConfig",
    "PostTrainingReport",
    "install_clean_accuracy_factory",
]

_logger = get_logger("core.post_training")

#: Hook installed by a higher layer (``repro.eval`` on import): a
#: ``factory(model, eval_loader) -> Callable[[], float]`` returning a
#: clean-accuracy closure.  ``core`` sits below the compiled runtime in
#: the layer DAG (RPL006), so the fast probe is injected from above
#: rather than imported; the module-forward fallback is always
#: available and bit-identical (the compiled-plan contract), making the
#: hook a pure wall-clock optimisation.
_CLEAN_ACCURACY_FACTORY = None


def install_clean_accuracy_factory(factory) -> None:
    """Install the compiled clean-accuracy probe (see above); idempotent."""
    global _CLEAN_ACCURACY_FACTORY
    _CLEAN_ACCURACY_FACTORY = factory


@dataclass
class PostTrainingConfig:
    """Hyper-parameters of the bound-learning stage.

    Parameters
    ----------
    epochs:
        Post-training epochs; the paper's stage is "lightweight" (~6% of
        conventional training time), so this is small.
    lr:
        Adam learning rate over the bounds.
    zeta:
        Regularisation strength ζ of Eq. 10 (scaled by 1/N internally).
        The default is deliberately gentle: on width-scaled models the
        resilience benefit of per-neuron bounds comes almost entirely
        from the granularity, and aggressive λ-shrink trades clean-margin
        for nothing (bench ABL-Z quantifies this trade).
    delta:
        Maximum tolerated clean-accuracy drop (Eq. 8's δ).
    bound_floor:
        Bounds are projected to at least this value after every step;
        a bound at 0 would permanently kill its neuron.
    """

    epochs: int = 8
    lr: float = 0.005
    zeta: float = 0.05
    delta: float = 0.01
    bound_floor: float = 1e-3


@dataclass
class PostTrainingReport:
    """Outcome of bound post-training."""

    epochs_run: int
    duration_seconds: float
    reference_accuracy: float
    initial_accuracy: float
    final_accuracy: float
    initial_mean_bound: float
    final_mean_bound: float
    rolled_back: bool
    history: list[dict[str, float]] = field(default_factory=list)

    @property
    def bound_shrink(self) -> float:
        """Relative reduction of the mean bound (1 − final/initial)."""
        if self.initial_mean_bound == 0:
            return 0.0
        return 1.0 - self.final_mean_bound / self.initial_mean_bound

    def summary(self) -> str:
        return (
            f"post-trained {self.epochs_run} epochs in {self.duration_seconds:.1f}s: "
            f"mean bound {self.initial_mean_bound:.4f} → {self.final_mean_bound:.4f} "
            f"({self.bound_shrink:.1%} shrink), clean accuracy "
            f"{self.initial_accuracy:.2%} → {self.final_accuracy:.2%} "
            f"(reference {self.reference_accuracy:.2%})"
        )


class BoundPostTrainer:
    """Learns activation bounds (ΘR) on a frozen-weight model.

    Collects every *trainable* bound parameter — FitReLU's λᵢ (the
    paper's case) and any :class:`~repro.core.bounded_tanh.BoundedTanh`
    built with ``trainable=True`` (an extension: the smooth tanh gate is
    differentiable in λ exactly like FitReLU's sigmoid gate).
    """

    def __init__(self, model: Module, config: PostTrainingConfig | None = None) -> None:
        self.model = model
        self.config = config or PostTrainingConfig()
        self.loss_fn = CrossEntropyLoss()
        self._bounds = self._collect_bounds()

    def _collect_bounds(self) -> list[Parameter]:
        bounds = [
            module.bound
            for module in self.model.modules()
            if isinstance(module, (FitReLU, BoundedTanh))
            and module.bound.requires_grad
        ]
        if not bounds:
            raise ConfigurationError(
                "model has no trainable activation bounds; apply FitAct "
                "surgery (or install trainable BoundedTanh modules) first"
            )
        return bounds

    @property
    def bound_parameters(self) -> list[Parameter]:
        """The ΘR parameter set (read-only view)."""
        return list(self._bounds)

    @property
    def total_bounds(self) -> int:
        """N — the number of individual bound values (Eq. 10's divisor)."""
        return sum(b.size for b in self._bounds)

    def mean_bound(self) -> float:
        total = sum(float(b.data.sum()) for b in self._bounds)
        return total / self.total_bounds

    def _snapshot(self) -> list[np.ndarray]:
        return [b.data.copy() for b in self._bounds]

    def _restore(self, snapshot: list[np.ndarray]) -> None:
        for bound, saved in zip(self._bounds, snapshot):
            # Rebinding .data is safe here only because the compiled-plan
            # cache is flushed right after the loop (RPL001).
            bound.data = saved.copy()  # repro-lint: disable=RPL001
        invalidate_runtime_plans(self.model)

    def _freeze_weights(self) -> list[Parameter]:
        """Turn off gradients for every non-bound parameter; returns them."""
        bound_ids = {id(b) for b in self._bounds}
        frozen = []
        for param in self.model.parameters():
            if id(param) not in bound_ids and param.requires_grad:
                param.requires_grad = False
                frozen.append(param)
        return frozen

    def regulariser(self) -> float:
        """Current value of (ζ/N)·Σλ² (diagnostics)."""
        zeta = self.config.zeta
        total = sum(float((b.data.astype(np.float64) ** 2).sum()) for b in self._bounds)
        return zeta / self.total_bounds * total

    def _clean_accuracy_probe(self, eval_loader: DataLoader):
        """Zero-argument clean-accuracy closure over ``eval_loader``.

        Bound post-training evaluates the full eval set once per epoch
        (the δ-constraint probe); through the module forward that is the
        slowest part of the whole "lightweight" stage.  When the
        compiled probe factory is installed (it is whenever
        ``repro.eval`` has been imported), the probe materialises the
        batches once and runs them through a forward-only compiled plan
        — bit-identical accuracies (plans are bit-exact with the
        eval-mode forward, and kernels read activation bounds live) at
        compiled-forward cost.  The plan is compiled for each call and
        released when it returns, not kept across epochs: compiling
        costs a few milliseconds per epoch, while a kept plan's buffers
        would stay alive under every training step in between.
        """
        if _CLEAN_ACCURACY_FACTORY is not None:
            return _CLEAN_ACCURACY_FACTORY(self.model, eval_loader)
        return lambda: evaluate_accuracy(self.model, eval_loader)

    def run(
        self,
        train_loader: DataLoader,
        eval_loader: DataLoader,
        reference_accuracy: float | None = None,
    ) -> PostTrainingReport:
        """Execute post-training and return the report.

        ``reference_accuracy`` is A(ΘA) in Eq. 8 — the accuracy of the
        original (unmodified) model.  When omitted, the modified model's
        pre-post-training accuracy is used, which matches it closely since
        bounds start at the observed maxima.
        """
        config = self.config
        frozen = self._freeze_weights()
        was_training = self.model.training
        # Weights are frozen and BN statistics must not drift: the model
        # stays in eval mode while bound gradients are still recorded.
        self.model.eval()
        optimizer = Adam(self._bounds, lr=config.lr)
        n = self.total_bounds
        clean_accuracy = self._clean_accuracy_probe(eval_loader)
        start = time.perf_counter()

        initial_accuracy = clean_accuracy()
        reference = (
            initial_accuracy if reference_accuracy is None else reference_accuracy
        )
        initial_mean = self.mean_bound()
        best_snapshot = self._snapshot()
        best_mean = initial_mean
        best_accuracy = initial_accuracy
        constraint_met = reference - initial_accuracy < config.delta
        # Fallback when the δ constraint proves infeasible (surgery cost
        # more clean accuracy than δ and no epoch recovers it): the
        # closest feasible point of Eq. 8 is then the *most accurate*
        # state seen, never the initial one.
        acc_snapshot = self._snapshot()
        acc_best = initial_accuracy
        acc_mean = initial_mean
        history: list[dict[str, float]] = []
        epochs_run = 0
        try:
            for epoch in range(config.epochs):
                epochs_run = epoch + 1
                losses = []
                for inputs, targets in train_loader:
                    optimizer.zero_grad()
                    logits = self.model(inputs)
                    task_loss = self.loss_fn(logits, targets)
                    reg = self._bound_penalty()
                    loss = task_loss + (config.zeta / n) * reg
                    loss.backward()
                    optimizer.step()
                    self._project_bounds()
                    losses.append(task_loss.item())
                accuracy = clean_accuracy()
                mean_bound = self.mean_bound()
                history.append(
                    {
                        "epoch": float(epoch),
                        "loss": float(np.mean(losses)) if losses else float("nan"),
                        "clean_accuracy": accuracy,
                        "mean_bound": mean_bound,
                    }
                )
                _logger.info(
                    "post-epoch %d: loss %.4f acc %.2f%% mean bound %.4f",
                    epoch,
                    history[-1]["loss"],
                    100 * accuracy,
                    mean_bound,
                )
                within_constraint = reference - accuracy < config.delta
                if within_constraint and mean_bound < best_mean:
                    best_snapshot = self._snapshot()
                    best_mean = mean_bound
                    best_accuracy = accuracy
                    constraint_met = True
                if accuracy > acc_best:
                    acc_snapshot = self._snapshot()
                    acc_best = accuracy
                    acc_mean = mean_bound
        finally:
            for param in frozen:
                param.requires_grad = True
            self.model.train(was_training)

        final_mean = self.mean_bound()
        final_accuracy = (
            history[-1]["clean_accuracy"] if history else initial_accuracy
        )
        rolled_back = False
        if not constraint_met:
            # Constraint infeasible for every visited state: ship the
            # most accurate one (Eq. 8's objective is moot when its
            # feasible set is empty; accuracy recovery dominates).
            if final_accuracy < acc_best:
                self._restore(acc_snapshot)
                final_mean = acc_mean
                final_accuracy = acc_best
                rolled_back = True
        else:
            violates = reference - final_accuracy >= config.delta
            if violates or final_mean > best_mean:
                self._restore(best_snapshot)
                final_mean = best_mean
                final_accuracy = best_accuracy
                rolled_back = True
        duration = time.perf_counter() - start
        report = PostTrainingReport(
            epochs_run=epochs_run,
            duration_seconds=duration,
            reference_accuracy=reference,
            initial_accuracy=initial_accuracy,
            final_accuracy=final_accuracy,
            initial_mean_bound=initial_mean,
            final_mean_bound=final_mean,
            rolled_back=rolled_back,
            history=history,
        )
        _logger.info(report.summary())
        return report

    def _bound_penalty(self):
        """Σλ² as an autograd expression (the Eq. 10 regulariser)."""
        total = None
        for bound in self._bounds:
            term = (bound * bound).sum()
            total = term if total is None else total + term
        return total

    def _project_bounds(self) -> None:
        floor = self.config.bound_floor
        for bound in self._bounds:
            np.maximum(bound.data, floor, out=bound.data)
