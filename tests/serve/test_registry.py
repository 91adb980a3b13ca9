"""ModelRegistry: LRU residency, single-flight loads, concurrent races.

Checkpoint IO is stubbed out (monkeypatched ``load_protected_auto``
returning a one-layer model that compiles in microseconds) so these
tests exercise the caching/locking machinery; the HTTP tests cover real
checkpoint loads end to end.
"""

import threading
import time

import pytest

from repro import nn
from repro.errors import ConfigurationError
from repro.serve import ModelRegistry
from repro.serve import registry as registry_module


class _FakeLoader:
    """Stand-in for load_protected_auto with call counting and delay."""

    def __init__(self, delay: float = 0.0):
        self.delay = delay
        self.calls: list[str] = []
        self._lock = threading.Lock()

    def __call__(self, path):
        if self.delay:
            time.sleep(self.delay)
        with self._lock:
            self.calls.append(str(path))
        model = nn.Sequential(nn.Flatten(), nn.Linear(3 * 16 * 16, 2, rng=0))
        return model, {"model": "lenet", "image_size": 16}


@pytest.fixture
def fake_loader(monkeypatch):
    loader = _FakeLoader()
    monkeypatch.setattr(registry_module, "load_protected_auto", loader)
    return loader


class TestRegistration:
    def test_register_and_names(self, fake_loader):
        registry = ModelRegistry(capacity=2)
        registry.register("b", "b.npz")
        registry.register("a", "a.npz")
        assert registry.names() == ["a", "b"]
        assert "a" in registry and "missing" not in registry
        assert len(registry) == 2

    def test_duplicate_name_rejected(self, fake_loader):
        registry = ModelRegistry()
        registry.register("a", "a.npz")
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.register("a", "other.npz")

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError, match="non-empty"):
            ModelRegistry().register("", "a.npz")

    def test_bad_capacity_rejected(self):
        with pytest.raises(ConfigurationError, match="capacity"):
            ModelRegistry(capacity=0)

    def test_unknown_model_lists_available(self, fake_loader):
        registry = ModelRegistry()
        registry.register("a", "a.npz")
        with pytest.raises(ConfigurationError, match="unknown model 'z'.*a"):
            registry.get("z")


class TestResidency:
    def test_load_once_then_hit(self, fake_loader):
        registry = ModelRegistry(capacity=2)
        registry.register("a", "a.npz")
        first = registry.get("a")
        assert registry.get("a") is first
        assert fake_loader.calls == ["a.npz"]
        assert registry.loads == 1 and registry.hits == 1

    def test_lru_evicts_least_recently_used(self, fake_loader):
        registry = ModelRegistry(capacity=2)
        for name in ("a", "b", "c"):
            registry.register(name, f"{name}.npz")
        registry.get("a")
        registry.get("b")
        registry.get("a")  # refresh a; b is now LRU
        registry.get("c")  # evicts b
        assert registry.resident_names() == ["a", "c"]
        assert registry.evictions == 1
        registry.get("b")  # reload after eviction
        assert fake_loader.calls.count("b.npz") == 2

    def test_explicit_evict(self, fake_loader):
        registry = ModelRegistry(capacity=2)
        registry.register("a", "a.npz")
        registry.get("a")
        assert registry.evict("a") is True
        assert registry.evict("a") is False
        assert registry.resident_names() == []

    def test_served_model_describes_itself(self, fake_loader):
        registry = ModelRegistry()
        registry.register("a", "a.npz")
        entry = registry.get("a")
        assert entry.input_shape == (3, 16, 16)
        description = entry.describe()
        assert description["name"] == "a"
        assert description["input_shape"] == [3, 16, 16]

    def test_describe_spec_peeks_without_loading(self, fake_loader, monkeypatch):
        peeks: list[str] = []

        def fake_peek(path):
            peeks.append(str(path))
            return {"model": "lenet", "image_size": 32, "method": "fitact"}

        monkeypatch.setattr(registry_module, "read_checkpoint_meta", fake_peek)
        registry = ModelRegistry()
        registry.register("a", "a.npz")
        spec = registry.describe_spec("a")
        assert spec["input_shape"] == [3, 32, 32]
        assert spec["method"] == "fitact"
        assert registry.resident_names() == []  # no load happened
        assert fake_loader.calls == []
        registry.describe_spec("a")
        assert peeks == ["a.npz"]  # manifest peek is cached

    def test_describe_spec_degrades_on_unreadable_manifest(
        self, fake_loader, monkeypatch
    ):
        def broken_peek(path):
            raise OSError("no such file")

        monkeypatch.setattr(registry_module, "read_checkpoint_meta", broken_peek)
        registry = ModelRegistry()
        registry.register("a", "a.npz")
        spec = registry.describe_spec("a")
        assert spec["name"] == "a"
        assert spec["input_shape"] is None


class TestConcurrency:
    def test_concurrent_first_loads_are_single_flighted(self, monkeypatch):
        loader = _FakeLoader(delay=0.05)
        monkeypatch.setattr(registry_module, "load_protected_auto", loader)
        registry = ModelRegistry(capacity=2)
        registry.register("a", "a.npz")
        entries = []
        threads = [
            threading.Thread(target=lambda: entries.append(registry.get("a")))
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(loader.calls) == 1
        assert all(entry is entries[0] for entry in entries)

    def test_load_evict_race_stays_consistent(self, fake_loader):
        """Hammer a capacity-1 registry from many threads on two names.

        Every get() must return an entry for the requested name, the
        resident set must never exceed capacity, and the bookkeeping
        must balance (every miss is a load, every load beyond capacity
        an eviction).
        """
        registry = ModelRegistry(capacity=1)
        registry.register("a", "a.npz")
        registry.register("b", "b.npz")
        errors: list[Exception] = []
        rounds = 60

        def hammer(name: str) -> None:
            for _ in range(rounds):
                try:
                    entry = registry.get(name)
                    assert entry.name == name
                except Exception as error:  # noqa: BLE001 — collect, assert later
                    errors.append(error)

        threads = [
            threading.Thread(target=hammer, args=(name,))
            for name in ("a", "b", "a", "b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(registry.resident_names()) <= 1
        total_gets = rounds * 4
        assert registry.hits + registry.loads == total_gets
        assert registry.loads == len(fake_loader.calls)
        assert registry.evictions >= registry.loads - registry.capacity

    def test_infer_locks_are_per_model(self, fake_loader):
        registry = ModelRegistry(capacity=2)
        registry.register("a", "a.npz")
        registry.register("b", "b.npz")
        lock_a = registry.get("a").infer_lock
        lock_b = registry.get("b").infer_lock
        assert lock_a is not lock_b
        with lock_a:
            acquired = lock_b.acquire(timeout=1)
            assert acquired
            lock_b.release()
