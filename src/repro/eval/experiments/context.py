"""Shared experiment preparation: data, trained weights, protected models.

Every figure/table starts from the same artefacts — a trained model on a
dataset, its activation profile, and protected copies per scheme.  This
module builds them once (with disk caching for the expensive training
stage) so the per-figure modules stay declarative.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.post_training import BoundPostTrainer, PostTrainingConfig
from repro.core.profiler import ActivationProfile, profile_activations
from repro.core.protection import ProtectionConfig, protect_model
from repro.core.training import Trainer, TrainingConfig, evaluate_accuracy
from repro.data.loader import DataLoader
from repro.data.synthetic import SYNTH_MEAN, SYNTH_STD, SyntheticImageDataset
from repro.data.transforms import Normalize
from repro.errors import ConfigurationError
from repro.eval.evaluator import Evaluator
from repro.eval.experiments.cache import StateCache
from repro.eval.experiments.presets import Preset
from repro.models.registry import build_model
from repro.nn.module import Module
from repro.quant.fixed_point import FixedPointFormat, Q15_16
from repro.quant.model import quantize_module
from repro.utils.logging import get_logger
from repro.utils.rng import derive_seed

__all__ = ["DATASETS", "ExperimentContext", "prepare_context"]

_logger = get_logger("eval.context")

DATASETS: dict[str, int] = {"synth10": 10, "synth100": 100}
"""Dataset name → class count (SynthCIFAR-10/100, the CIFAR stand-ins)."""


@dataclass
class ExperimentContext:
    """Everything downstream experiments need about one (model, dataset)."""

    model_name: str
    dataset_name: str
    preset: Preset
    train_set: SyntheticImageDataset
    evaluator: Evaluator
    base_state: dict[str, np.ndarray]
    reference_accuracy: float
    training_seconds: float
    profile: ActivationProfile | None = None
    _post_cache: dict[str, tuple[dict[str, np.ndarray], float]] = field(
        default_factory=dict
    )

    @property
    def num_classes(self) -> int:
        return DATASETS[self.dataset_name]

    def stage_loader(self, stage: str) -> DataLoader:
        """A fresh shuffled loader over the training set for one stage.

        Every stage (profiling, protection, each FitAct post-training)
        draws its shuffle from (preset seed, dataset, stage) alone, so
        its result depends neither on whether the base weights came
        from the cache nor on which stages ran before it.
        """
        return _shuffled_loader(
            self.train_set,
            self.preset,
            derive_seed(self.preset.seed, "loader", self.dataset_name, stage),
        )

    def fresh_model(self) -> Module:
        """A new model instance loaded with the trained base weights."""
        model = build_model(
            self.model_name,
            num_classes=self.num_classes,
            scale=self.preset.scale_for(self.model_name),
            seed=self.preset.seed,
            image_size=self.preset.image_size,
        )
        model.load_state_dict(self.base_state)
        return model

    def activation_profile(self) -> ActivationProfile:
        """The (lazily computed, shared) activation range profile."""
        if self.profile is None:
            model = self.fresh_model()
            self.profile = profile_activations(
                model, self.stage_loader("profile")
            )
        return self.profile

    def protected_model(
        self,
        method: str,
        quantize: bool = True,
        protection_overrides: dict[str, object] | None = None,
        post_config: PostTrainingConfig | None = None,
        fmt: FixedPointFormat = Q15_16,
    ) -> tuple[Module, dict[str, float]]:
        """A fresh trained model protected with ``method``.

        Returns ``(model, info)`` where info carries ``clean_accuracy``
        and, for FitAct, ``post_seconds``.  FitAct post-training results
        are memoised per (method, overrides) within the context.
        """
        preset = self.preset
        model = self.fresh_model()
        info: dict[str, float] = {}
        overrides = protection_overrides or {}
        if method != "none":
            config = ProtectionConfig(method=method, **overrides)
            protect_model(
                model,
                self.stage_loader("protect"),
                config,
                profile=self.activation_profile(),
            )
        if method == "fitact":
            cache_key = repr(sorted(overrides.items())) + repr(post_config)
            cached = self._post_cache.get(cache_key)
            if cached is not None:
                state, post_seconds = cached
                model.load_state_dict(state)
                info["post_seconds"] = post_seconds
            else:
                post = post_config or PostTrainingConfig(
                    epochs=preset.post_epochs,
                    lr=preset.post_lr,
                    zeta=preset.zeta,
                    delta=preset.delta,
                )
                report = BoundPostTrainer(model, post).run(
                    self.stage_loader("post-train"),
                    _loader_view(self.evaluator),
                    reference_accuracy=self.reference_accuracy,
                )
                info["post_seconds"] = report.duration_seconds
                self._post_cache[cache_key] = (
                    model.state_dict(),
                    report.duration_seconds,
                )
        if quantize:
            quantize_module(model, fmt)
        info["clean_accuracy"] = self.evaluator.accuracy(model)
        return model, info


class _EvaluatorLoader:
    """Adapts an :class:`Evaluator`'s materialised batches to the loader
    iteration protocol (used by post-training's accuracy checks)."""

    def __init__(self, evaluator: Evaluator) -> None:
        self._evaluator = evaluator

    def __iter__(self):
        return iter(self._evaluator._batches)

    def __len__(self) -> int:
        return len(self._evaluator._batches)


def _loader_view(evaluator: Evaluator) -> DataLoader:
    return _EvaluatorLoader(evaluator)  # type: ignore[return-value]


def _shuffled_loader(
    train_set: SyntheticImageDataset, preset: Preset, seed: int
) -> DataLoader:
    return DataLoader(
        train_set,
        batch_size=preset.batch_size,
        shuffle=True,
        transform=Normalize(SYNTH_MEAN, SYNTH_STD),
        rng=seed,
    )


def prepare_context(
    model_name: str,
    dataset_name: str,
    preset: Preset,
    cache: StateCache | None = None,
) -> ExperimentContext:
    """Build (or load from cache) the trained base model for an experiment.

    Training metadata — reference accuracy and wall-clock — rides along in
    the cache so §VI-C1 (training-time overhead) stays reproducible across
    bench invocations.
    """
    if dataset_name not in DATASETS:
        raise ConfigurationError(
            f"unknown dataset {dataset_name!r}; available: {sorted(DATASETS)}"
        )
    num_classes = DATASETS[dataset_name]
    data_seed = derive_seed(preset.seed, "data", dataset_name)
    train_set = SyntheticImageDataset(
        num_classes=num_classes,
        num_samples=preset.train_samples,
        image_size=preset.image_size,
        seed=data_seed,
        split="train",
    )
    test_set = SyntheticImageDataset(
        num_classes=num_classes,
        num_samples=preset.test_samples,
        image_size=preset.image_size,
        seed=data_seed,
        split="test",
    )
    evaluator = Evaluator(
        DataLoader(
            test_set,
            batch_size=max(preset.batch_size, 128),
            transform=Normalize(SYNTH_MEAN, SYNTH_STD),
        ),
        max_batches=preset.eval_batches,
    )

    cache = cache or StateCache()
    key = {
        "kind": "trained-base",
        "model": model_name,
        "dataset": dataset_name,
        "classes": num_classes,
        "scale": preset.scale_for(model_name),
        "image_size": preset.image_size,
        "train_samples": preset.train_samples,
        "epochs": preset.train_epochs,
        "batch_size": preset.batch_size,
        "seed": preset.seed,
    }
    cached = cache.load(key)
    if cached is not None:
        state, meta = cached
        _logger.info("loaded cached %s/%s", model_name, dataset_name)
        context = ExperimentContext(
            model_name=model_name,
            dataset_name=dataset_name,
            preset=preset,
            train_set=train_set,
            evaluator=evaluator,
            base_state=state,
            reference_accuracy=float(meta["reference_accuracy"]),
            training_seconds=float(meta["training_seconds"]),
        )
        return context

    model = build_model(
        model_name,
        num_classes=num_classes,
        scale=preset.scale_for(model_name),
        seed=preset.seed,
        image_size=preset.image_size,
    )
    # BN-free architectures (AlexNet, LeNet) diverge at the BN-friendly
    # LR even with gradient clipping; give them a gentler schedule.
    has_batch_norm = model_name.startswith(("vgg", "resnet", "mobilenet"))
    learning_rate = 0.1 if has_batch_norm else 0.05
    momentum = 0.9 if has_batch_norm else 0.95
    # Training keeps the shuffle seed it has always used, so cached base
    # weights stay valid.
    train_loader = _shuffled_loader(
        train_set, preset, derive_seed(preset.seed, "loader", dataset_name)
    )
    report = Trainer(
        model,
        TrainingConfig(
            epochs=preset.train_epochs, lr=learning_rate, momentum=momentum
        ),
    ).fit(train_loader)
    reference_accuracy = evaluator.accuracy(model)
    _logger.info(
        "trained %s/%s: %.2f%% in %.1fs",
        model_name,
        dataset_name,
        100 * reference_accuracy,
        report.duration_seconds,
    )
    state = model.state_dict()
    cache.store(
        key,
        state,
        {
            "reference_accuracy": reference_accuracy,
            "training_seconds": report.duration_seconds,
            "final_train_loss": report.final_train_loss,
        },
    )
    return ExperimentContext(
        model_name=model_name,
        dataset_name=dataset_name,
        preset=preset,
        train_set=train_set,
        evaluator=evaluator,
        base_state=state,
        reference_accuracy=reference_accuracy,
        training_seconds=report.duration_seconds,
    )
