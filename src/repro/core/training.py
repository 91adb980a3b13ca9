"""Conventional accuracy training (FitAct stage 1, paper Fig. 4).

Plain supervised training of the weight/bias parameters ΘA with SGD — no
resilience consideration, exactly as the paper prescribes: "Its goal is
to learn the weight and bias parameters to improve the model accuracy,
without the consideration of error resilience."
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.autograd.grad_mode import no_grad
from repro.data.loader import DataLoader
from repro.nn.loss import CrossEntropyLoss
from repro.nn.module import Module, eval_mode
from repro.optim.scheduler import CosineAnnealingLR
from repro.optim.sgd import SGD
from repro.utils.logging import get_logger

__all__ = ["Trainer", "TrainingConfig", "TrainingReport", "evaluate_accuracy"]

_logger = get_logger("core.training")


def evaluate_accuracy(model: Module, loader: DataLoader) -> float:
    """Top-1 accuracy of ``model`` over ``loader`` (eval mode, no grads).

    Eval semantics come from the thread-local override, so the shared
    training flag is never written.  This is the paper's metric
    everywhere: "we compute the top-1 classification accuracy"
    (§VI-A1).
    """
    correct = 0
    total = 0
    with eval_mode(), no_grad():
        for inputs, targets in loader:
            logits = model(inputs)
            predictions = logits.data.argmax(axis=1)
            correct += int((predictions == targets).sum())
            total += len(targets)
    if total == 0:
        raise ValueError("evaluation loader produced no samples")
    return correct / total


# Global-norm gradient clip: guards SGD-with-momentum against the loss
# spikes that otherwise blow up small un-normalised networks at
# aggressive learning rates.
_GRAD_CLIP = 10.0


def _clip_grad_norm(parameters, max_norm: float) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``."""
    total = 0.0
    grads = [p.grad for p in parameters if p.grad is not None]
    for grad in grads:
        total += float((grad.astype(np.float64) ** 2).sum())
    norm = total**0.5
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for grad in grads:
            grad *= scale
    return norm


@dataclass
class TrainingConfig:
    """Hyper-parameters for conventional accuracy training.

    The learning rate follows a cosine decay over ``epochs``, and the
    global gradient norm is clipped at 10 after every backward.
    """

    epochs: int = 10
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 5e-4


@dataclass
class TrainingReport:
    """Outcome of a training run."""

    epochs: int
    duration_seconds: float
    final_train_loss: float
    final_accuracy: float | None
    history: list[dict[str, float]] = field(default_factory=list)

    def summary(self) -> str:
        accuracy = (
            f", eval accuracy {self.final_accuracy:.2%}"
            if self.final_accuracy is not None
            else ""
        )
        return (
            f"trained {self.epochs} epochs in {self.duration_seconds:.1f}s, "
            f"final loss {self.final_train_loss:.4f}{accuracy}"
        )


class Trainer:
    """SGD trainer for stage-1 accuracy training."""

    def __init__(self, model: Module, config: TrainingConfig | None = None) -> None:
        self.model = model
        self.config = config or TrainingConfig()
        self.loss_fn = CrossEntropyLoss()

    def fit(
        self, train_loader: DataLoader, eval_loader: DataLoader | None = None
    ) -> TrainingReport:
        """Train for the configured epochs; returns a report with history."""
        config = self.config
        optimizer = SGD(
            self.model.parameters(),
            lr=config.lr,
            momentum=config.momentum,
            weight_decay=config.weight_decay,
        )
        scheduler = CosineAnnealingLR(optimizer, t_max=config.epochs)
        history: list[dict[str, float]] = []
        start = time.perf_counter()
        epoch_loss = float("nan")
        for epoch in range(config.epochs):
            self.model.train()
            losses = []
            for inputs, targets in train_loader:
                optimizer.zero_grad()
                logits = self.model(inputs)
                loss = self.loss_fn(logits, targets)
                loss.backward()
                _clip_grad_norm(optimizer.parameters, _GRAD_CLIP)
                optimizer.step()
                losses.append(loss.item())
            epoch_loss = float(np.mean(losses)) if losses else float("nan")
            entry = {"epoch": float(epoch), "loss": epoch_loss, "lr": optimizer.lr}
            if eval_loader is not None:
                entry["accuracy"] = evaluate_accuracy(self.model, eval_loader)
            history.append(entry)
            _logger.info(
                "epoch %d: loss %.4f%s",
                epoch,
                epoch_loss,
                f" acc {entry['accuracy']:.2%}" if "accuracy" in entry else "",
            )
            scheduler.step()
        duration = time.perf_counter() - start
        final_accuracy = history[-1].get("accuracy") if history else None
        return TrainingReport(
            epochs=config.epochs,
            duration_seconds=duration,
            final_train_loss=epoch_loss,
            final_accuracy=final_accuracy,
            history=history,
        )
