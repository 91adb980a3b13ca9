"""Shared fixtures: tiny datasets, loaders, and a trained model.

Heavy artefacts (the trained LeNet) are session-scoped so the many tests
that need "a real trained model" pay for training once.

Also provides ``--shard i/n``: a dependency-free test sharder (CI splits
the tier-1 suite across parallel jobs with it).  Tests are assigned to
shards by a stable hash of their file path — whole files stay together,
so session-scoped fixtures are not re-trained by every shard that
touches a module.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.core.training import Trainer, TrainingConfig, evaluate_accuracy
from repro.data.loader import DataLoader
from repro.data.synthetic import SYNTH_MEAN, SYNTH_STD, SyntheticImageDataset
from repro.data.transforms import Normalize
from repro.models.registry import build_model
from repro.store import CampaignStore

IMAGE_SIZE = 16
NUM_CLASSES = 10


# ----------------------------------------------------------------------
# Sharding (CI splits the suite across parallel jobs)
# ----------------------------------------------------------------------
def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--shard",
        default=None,
        metavar="i/n",
        help=(
            "run only the i-th of n stable test shards (1-based), e.g. "
            "--shard 1/2; files hash to shards, so every test runs in "
            "exactly one shard"
        ),
    )


def _parse_shard(spec: str) -> tuple[int, int]:
    try:
        index_text, total_text = spec.split("/", 1)
        index, total = int(index_text), int(total_text)
    except ValueError:
        raise pytest.UsageError(f"--shard expects i/n (e.g. 1/2), got {spec!r}")
    if total < 1 or not 1 <= index <= total:
        raise pytest.UsageError(f"--shard {spec!r} out of range")
    return index, total


def pytest_collection_modifyitems(
    config: pytest.Config, items: list[pytest.Item]
) -> None:
    spec = config.getoption("--shard")
    if spec is None:
        return
    index, total = _parse_shard(spec)
    if total == 1:
        return
    rootpath = config.rootpath
    selected, deselected = [], []
    for item in items:
        # Hash the rootdir-relative file path (posix form), not the
        # nodeid: keeping a file's tests in one shard preserves its
        # fixture reuse, and the bucket is identical across checkouts,
        # platforms, and processes (unlike builtin hash() or absolute
        # paths).
        try:
            key = item.path.relative_to(rootpath).as_posix()
        except ValueError:
            key = str(item.path)
        bucket = zlib.crc32(key.encode("utf-8")) % total
        (selected if bucket == index - 1 else deselected).append(item)
    if deselected:
        config.hook.pytest_deselected(items=deselected)
        items[:] = selected


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def train_dataset() -> SyntheticImageDataset:
    return SyntheticImageDataset(
        num_classes=NUM_CLASSES, num_samples=500, image_size=IMAGE_SIZE, seed=7
    )


@pytest.fixture(scope="session")
def test_dataset() -> SyntheticImageDataset:
    return SyntheticImageDataset(
        num_classes=NUM_CLASSES,
        num_samples=200,
        image_size=IMAGE_SIZE,
        seed=7,
        split="test",
    )


@pytest.fixture(scope="session")
def normalize() -> Normalize:
    return Normalize(SYNTH_MEAN, SYNTH_STD)


@pytest.fixture(scope="session")
def train_loader(train_dataset, normalize) -> DataLoader:
    return DataLoader(
        train_dataset, batch_size=64, shuffle=True, rng=0, transform=normalize
    )


@pytest.fixture(scope="session")
def test_loader(test_dataset, normalize) -> DataLoader:
    return DataLoader(test_dataset, batch_size=128, transform=normalize)


@pytest.fixture(scope="session")
def trained_state(train_loader, test_loader) -> dict:
    """State dict + metadata of a LeNet trained to useful accuracy."""
    model = build_model(
        "lenet", num_classes=NUM_CLASSES, scale=1.0, image_size=IMAGE_SIZE, seed=0
    )
    Trainer(model, TrainingConfig(epochs=10, lr=0.1)).fit(train_loader)
    accuracy = evaluate_accuracy(model, test_loader)
    assert accuracy > 0.7, f"fixture model failed to train (accuracy {accuracy:.1%})"
    return {"state": model.state_dict(), "accuracy": accuracy}


@pytest.fixture
def trained_model(trained_state):
    """A fresh trained LeNet instance (mutable per test)."""
    model = build_model(
        "lenet", num_classes=NUM_CLASSES, scale=1.0, image_size=IMAGE_SIZE, seed=0
    )
    model.load_state_dict(trained_state["state"])
    return model


# ----------------------------------------------------------------------
# Campaign stores (every writer is a leased worker's journal segment)
# ----------------------------------------------------------------------
def create_store(path, campaign, fault_models=(), meta=None):
    """Create ``campaign``'s store with ``fault_models`` registered,
    unless ``path`` already holds one."""
    if not CampaignStore.exists(path):
        identity = CampaignStore.campaign_identity(campaign)
        CampaignStore.create(path, identity, meta=meta, configs=fault_models).close()


def open_writer(path, campaign, fault_models=(), meta=None, segment="w"):
    """Create the store (when absent) and open it as the verified
    journal-segment writer ``segment``."""
    create_store(path, campaign, fault_models, meta=meta)
    return CampaignStore.open(path, segment=segment).attach(campaign)


def drain_store(path, campaign, fault_models, meta=None, **worker_options):
    """Create the store (when absent) with the sweep registered, then
    drain it with one :class:`~repro.coord.CampaignWorker`; returns the
    worker's report."""
    from repro.coord import CampaignWorker

    create_store(path, campaign, fault_models, meta=meta)
    return CampaignWorker(campaign, path, fault_models, **worker_options).run()


def journal_lines(path):
    """The store's journal: sorted, de-duplicated, complete record lines
    of every ``trials*.jsonl`` (segments and an older build's shared
    journal), as bytes — equal for any two drains of one recipe."""
    from pathlib import Path

    lines = set()
    for journal in Path(path).glob("trials*.jsonl"):
        lines.update(journal.read_bytes().split(b"\n")[:-1])
    lines.discard(b"")
    return sorted(lines)


@pytest.fixture
def record_decodes(monkeypatch):
    """Journal record lines the store decodes while the test runs.

    Wraps the store module's JSON decoder and keeps every decoded value
    that is a trial record (manifest, lease and claim reads pass by).
    """
    import repro.store.store as store_module

    decoded = []
    loads = store_module.json.loads

    def counting(text, *args, **kwargs):
        value = loads(text, *args, **kwargs)
        if isinstance(value, dict) and {"c", "t"} <= value.keys():
            decoded.append(value)
        return value

    monkeypatch.setattr(store_module.json, "loads", counting)
    return decoded
