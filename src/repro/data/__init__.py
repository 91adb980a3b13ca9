"""Datasets, loaders and transforms.

The SynthCIFAR datasets stand in for CIFAR-10/100, which an offline
build cannot download: deterministic, class-conditional procedural
images that a small CNN learns to high accuracy.
"""

from repro.data.dataset import ArrayDataset, Dataset, Subset
from repro.data.loader import DataLoader
from repro.data.splits import random_split, stratified_split
from repro.data.synthetic import (
    SYNTH_MEAN,
    SYNTH_STD,
    ClassRecipe,
    SyntheticImageDataset,
    synth_cifar10,
    synth_cifar100,
)
from repro.data.transforms import Compose, Normalize, RandomCrop, RandomHorizontalFlip

__all__ = [
    "SYNTH_MEAN",
    "SYNTH_STD",
    "ArrayDataset",
    "ClassRecipe",
    "Compose",
    "DataLoader",
    "Dataset",
    "Normalize",
    "RandomCrop",
    "RandomHorizontalFlip",
    "Subset",
    "SyntheticImageDataset",
    "random_split",
    "stratified_split",
    "synth_cifar10",
    "synth_cifar100",
]
