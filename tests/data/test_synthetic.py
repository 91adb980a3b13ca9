"""SynthCIFAR generation: determinism, structure, learnability proxy."""

import numpy as np
import pytest

from repro.data.synthetic import ClassRecipe, SyntheticImageDataset
from repro.errors import ConfigurationError


class TestGeneration:
    def test_shapes_and_range(self):
        ds = SyntheticImageDataset(num_classes=4, num_samples=40, image_size=16, seed=0)
        assert ds.data.shape == (40, 3, 16, 16)
        assert ds.data.dtype == np.float32
        assert ds.data.min() >= 0.0 and ds.data.max() <= 1.0

    def test_deterministic_by_seed(self):
        a = SyntheticImageDataset(num_classes=3, num_samples=30, image_size=8, seed=5)
        b = SyntheticImageDataset(num_classes=3, num_samples=30, image_size=8, seed=5)
        np.testing.assert_array_equal(a.data, b.data)
        np.testing.assert_array_equal(a.targets, b.targets)

    def test_different_seeds_differ(self):
        a = SyntheticImageDataset(num_classes=3, num_samples=30, image_size=8, seed=1)
        b = SyntheticImageDataset(num_classes=3, num_samples=30, image_size=8, seed=2)
        assert not np.array_equal(a.data, b.data)

    def test_train_test_splits_differ(self):
        train = SyntheticImageDataset(num_classes=3, num_samples=30, image_size=8, seed=1)
        test = SyntheticImageDataset(
            num_classes=3, num_samples=30, image_size=8, seed=1, split="test"
        )
        assert not np.array_equal(train.data, test.data)

    def test_class_balance(self):
        ds = SyntheticImageDataset(num_classes=5, num_samples=52, image_size=8, seed=0)
        counts = np.bincount(ds.targets, minlength=5)
        assert counts.min() >= 10
        assert counts.sum() == 52

    def test_getitem(self):
        ds = SyntheticImageDataset(num_classes=3, num_samples=9, image_size=8, seed=0)
        image, label = ds[0]
        assert image.shape == (3, 8, 8)
        assert isinstance(label, int)

    def test_invalid_split_raises(self):
        with pytest.raises(ConfigurationError):
            SyntheticImageDataset(num_classes=3, num_samples=9, split="val")

    def test_too_few_samples_raises(self):
        with pytest.raises(ConfigurationError):
            SyntheticImageDataset(num_classes=10, num_samples=5)

    def test_too_few_classes_raises(self):
        with pytest.raises(ConfigurationError):
            SyntheticImageDataset(num_classes=1, num_samples=10)


class TestClassStructure:
    def test_recipes_deterministic(self):
        a = ClassRecipe.for_class(3, 10, seed=0)
        b = ClassRecipe.for_class(3, 10, seed=0)
        np.testing.assert_array_equal(a.base_color, b.base_color)
        np.testing.assert_array_equal(a.shape_color, b.shape_color)
        assert a.shape_family == b.shape_family
        assert a.frequency == b.frequency

    def test_recipes_differ_between_classes(self):
        a = ClassRecipe.for_class(0, 10, seed=0)
        b = ClassRecipe.for_class(1, 10, seed=0)
        assert not np.array_equal(a.base_color, b.base_color)

    def test_classes_linearly_separable_by_centroid(self):
        """A nearest-centroid classifier must beat chance by a wide margin —
        the learnability property the substitution relies on."""
        train = SyntheticImageDataset(num_classes=6, num_samples=240, image_size=16, seed=3)
        test = SyntheticImageDataset(
            num_classes=6, num_samples=120, image_size=16, seed=3, split="test"
        )
        centroids = np.stack(
            [train.data[train.targets == c].mean(axis=0).reshape(-1) for c in range(6)]
        )
        flat = test.data.reshape(len(test.data), -1)
        distances = ((flat[:, None] - centroids[None]) ** 2).sum(axis=2)
        predictions = distances.argmin(axis=1)
        accuracy = (predictions == test.targets).mean()
        assert accuracy > 0.6, f"centroid accuracy only {accuracy:.1%}"

    def test_100_class_variant(self):
        ds = SyntheticImageDataset(
            num_classes=100, num_samples=200, seed=0, split="test"
        )
        assert ds.num_classes == 100

    def test_10_class_variant_defaults(self):
        ds = SyntheticImageDataset(num_samples=100, split="test")
        assert ds.num_classes == 10
        assert len(ds) == 100
