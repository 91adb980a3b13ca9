"""SynthCIFAR: procedural class-conditional image datasets.

The paper evaluates on CIFAR-10/100, which cannot be downloaded in this
offline environment, so we synthesise datasets with the properties the
FitAct evaluation actually relies on:

1. a small CNN reaches high clean accuracy (class structure is learnable);
2. post-ReLU per-neuron activation maxima spread widely (Fig. 2's premise);
3. bit-flipped Q15.16 parameters push activations far outside the trained
   range (so bounding is the operative protection mechanism).

Each class owns a deterministic generative recipe — base palette, an
oriented sinusoidal texture, and a filled shape (disk / square / cross /
ring / stripes) — and samples vary by jitter, flips, phase shifts and
pixel noise.  A 100-class variant packs classes more densely in recipe
space so it is measurably harder, mirroring CIFAR-100 vs CIFAR-10.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.errors import ConfigurationError
from repro.utils.rng import derive_seed, new_rng

__all__ = [
    "SYNTH_MEAN",
    "SYNTH_STD",
    "ClassRecipe",
    "SyntheticImageDataset",
]

_SHAPE_FAMILIES = ("disk", "square", "cross", "ring", "stripes")

SYNTH_MEAN = (0.44, 0.44, 0.44)
"""Per-channel mean of SynthCIFAR images (for Normalize transforms)."""

SYNTH_STD = (0.21, 0.21, 0.21)
"""Per-channel std of SynthCIFAR images (for Normalize transforms)."""


@dataclass(frozen=True)
class ClassRecipe:
    """Deterministic generative parameters for one class."""

    base_color: np.ndarray  # (3,) background palette
    shape_color: np.ndarray  # (3,) foreground palette
    shape_family: str  # one of _SHAPE_FAMILIES
    shape_size: float  # radius as fraction of image size
    center: tuple[float, float]  # mean shape centre in [0, 1]²
    frequency: float  # texture cycles across the image
    orientation: float  # texture angle in radians
    amplitude: float  # texture contrast

    @classmethod
    def for_class(cls, class_index: int, num_classes: int, seed: int) -> "ClassRecipe":
        """Derive the recipe for ``class_index`` from the dataset seed."""
        rng = new_rng(derive_seed(seed, "class-recipe", class_index))
        base = rng.uniform(0.15, 0.6, size=3)
        shape_color = rng.uniform(0.4, 0.95, size=3)
        # Guarantee foreground/background contrast.
        while np.abs(shape_color - base).sum() < 0.6:
            shape_color = rng.uniform(0.05, 0.95, size=3)
        family = _SHAPE_FAMILIES[class_index % len(_SHAPE_FAMILIES)]
        return cls(
            base_color=base.astype(np.float32),
            shape_color=shape_color.astype(np.float32),
            shape_family=family,
            shape_size=float(rng.uniform(0.18, 0.34)),
            center=(float(rng.uniform(0.35, 0.65)), float(rng.uniform(0.35, 0.65))),
            frequency=float(rng.uniform(1.0, 4.5)),
            orientation=float(rng.uniform(0.0, np.pi)),
            amplitude=float(rng.uniform(0.08, 0.22)),
        )


def _shape_mask(
    family: str,
    size: int,
    centers_y: np.ndarray,
    centers_x: np.ndarray,
    radii: np.ndarray,
) -> np.ndarray:
    """Vectorised (B, H, W) boolean masks for a batch of shape instances."""
    ys = np.arange(size, dtype=np.float32)[None, :, None]
    xs = np.arange(size, dtype=np.float32)[None, None, :]
    cy = centers_y[:, None, None]
    cx = centers_x[:, None, None]
    r = radii[:, None, None]
    dy = ys - cy
    dx = xs - cx
    if family == "disk":
        return dy * dy + dx * dx <= r * r
    if family == "square":
        return (np.abs(dy) <= r) & (np.abs(dx) <= r)
    if family == "cross":
        arm = np.maximum(r * 0.4, 1.0)
        return ((np.abs(dy) <= arm) & (np.abs(dx) <= r)) | (
            (np.abs(dx) <= arm) & (np.abs(dy) <= r)
        )
    if family == "ring":
        dist_sq = dy * dy + dx * dx
        inner = np.maximum(r * 0.55, 1.0)
        return (dist_sq <= r * r) & (dist_sq >= inner * inner)
    if family == "stripes":
        period = np.maximum(r, 2.0)
        phase = np.floor((dy + dx) / period).astype(np.int64)
        box = (np.abs(dy) <= r) & (np.abs(dx) <= r)
        return box & (phase % 2 == 0)
    raise ConfigurationError(f"unknown shape family {family!r}")


class SyntheticImageDataset(ArrayDataset):
    """Procedurally generated classification images.

    Parameters
    ----------
    num_classes:
        Number of classes (recipes derived deterministically from ``seed``).
    num_samples:
        Total sample count, distributed as evenly as possible over classes.
    image_size:
        Square image side (default 32, matching CIFAR).
    seed:
        Dataset seed; together with ``split`` it fixes every pixel.
    split:
        ``"train"`` or ``"test"`` — both use the same class recipes but
        disjoint sample randomness.
    noise:
        Per-pixel Gaussian noise std.
    jitter:
        Maximum shape-centre translation in pixels.
    """

    def __init__(
        self,
        num_classes: int = 10,
        num_samples: int = 2000,
        image_size: int = 32,
        seed: int = 0,
        split: str = "train",
        noise: float = 0.04,
        jitter: int = 3,
    ) -> None:
        if split not in ("train", "test"):
            raise ConfigurationError(f"split must be 'train' or 'test', got {split!r}")
        if num_classes < 2:
            raise ConfigurationError(f"need >= 2 classes, got {num_classes}")
        if num_samples < num_classes:
            raise ConfigurationError(
                f"need >= 1 sample per class: {num_samples} samples, "
                f"{num_classes} classes"
            )
        self.num_classes_requested = num_classes
        self.image_size = int(image_size)
        self.seed = int(seed)
        self.split = split
        self.noise = float(noise)
        self.jitter = int(jitter)
        self.recipes = [
            ClassRecipe.for_class(c, num_classes, seed) for c in range(num_classes)
        ]

        counts = np.full(num_classes, num_samples // num_classes, dtype=np.int64)
        counts[: num_samples % num_classes] += 1
        images: list[np.ndarray] = []
        labels: list[np.ndarray] = []
        for class_index, count in enumerate(counts):
            if count == 0:
                continue
            batch = self._render_class(class_index, int(count))
            images.append(batch)
            labels.append(np.full(int(count), class_index, dtype=np.int64))
        data = np.concatenate(images, axis=0)
        targets = np.concatenate(labels, axis=0)
        # Deterministic interleave so batches are class-balanced.
        order = new_rng(derive_seed(seed, "order", split)).permutation(len(data))
        super().__init__(data[order], targets[order])

    def _render_class(self, class_index: int, count: int) -> np.ndarray:
        """Render ``count`` samples of one class as (count, 3, H, W)."""
        recipe = self.recipes[class_index]
        size = self.image_size
        rng = new_rng(derive_seed(self.seed, "render", self.split, class_index))

        ys = np.arange(size, dtype=np.float32)[:, None]
        xs = np.arange(size, dtype=np.float32)[None, :]
        direction = (
            np.cos(recipe.orientation) * xs / size + np.sin(recipe.orientation) * ys / size
        )
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(count, 1, 1)).astype(np.float32)
        grating = recipe.amplitude * np.sin(
            2.0 * np.pi * recipe.frequency * direction[None] + phases
        )

        background = recipe.base_color[None, :, None, None] + grating[:, None]

        centers_y = recipe.center[0] * size + rng.integers(
            -self.jitter, self.jitter + 1, size=count
        )
        centers_x = recipe.center[1] * size + rng.integers(
            -self.jitter, self.jitter + 1, size=count
        )
        radii = recipe.shape_size * size * rng.uniform(0.85, 1.15, size=count)
        mask = _shape_mask(
            recipe.shape_family,
            size,
            centers_y.astype(np.float32),
            centers_x.astype(np.float32),
            radii.astype(np.float32),
        )

        color_jitter = rng.uniform(-0.05, 0.05, size=(count, 3, 1, 1)).astype(np.float32)
        foreground = recipe.shape_color[None, :, None, None] + color_jitter
        images = np.where(mask[:, None], foreground, background)

        flips = rng.random(count) < 0.5
        images[flips] = images[flips, :, :, ::-1]
        images += rng.normal(0.0, self.noise, size=images.shape).astype(np.float32)
        return np.clip(images, 0.0, 1.0).astype(np.float32)
