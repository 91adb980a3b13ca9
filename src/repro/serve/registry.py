"""Checkpoint registry: on-demand loading with LRU eviction.

The registry maps serving names to ``save_protected`` checkpoint paths
and materialises models lazily on first request.  At most ``capacity``
models stay resident; the least recently used entry is evicted when a
load would exceed it.  Loading the same name concurrently is
single-flighted through a per-name load lock, so a burst of first
requests costs one checkpoint read, not N.

Every resident model is compiled once, at load, into a
:class:`repro.runtime.InferencePlan`, and every batch forwards through
it (bit-exact with the module forward).  Each resident model also
carries an ``infer_lock`` — the micro-batcher (and chaos engine, which
mutates parameters in place) hold it around forward passes, so eviction
and reload never interleave with inference on the same instance.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.checkpoint import (
    checkpoint_format,
    load_protected_auto,
    model_input_channels,
    read_checkpoint_meta,
)
from repro.errors import ConfigurationError
from repro.nn.module import Module
from repro.quant.fixed_point import FixedPointFormat
from repro.utils.logging import get_logger

if TYPE_CHECKING:
    from repro.runtime import InferencePlan

__all__ = ["ModelRegistry", "ServedModel"]

_logger = get_logger("serve.registry")


@dataclass
class ServedModel:
    """One resident model plus everything serving needs alongside it.

    ``plan`` is the model's compiled inference plan
    (:class:`repro.runtime.InferencePlan`), built at construction for
    :attr:`input_shape`; every batch forwards through it.  Chaos-mode
    bit flips stay visible: the plan reads parameters live and
    refreshes its folded constants whenever the fault injector touches
    the model.
    """

    name: str
    path: str
    model: Module
    meta: dict[str, object]
    fmt: FixedPointFormat
    plan: "InferencePlan" = field(init=False)
    infer_lock: threading.RLock = field(default_factory=threading.RLock)

    def __post_init__(self) -> None:
        from repro.runtime import compile_model

        self.plan = compile_model(self.model, self.input_shape)

    @property
    def input_shape(self) -> tuple[int, int, int]:
        """Expected per-sample (channels, height, width).

        The channel count comes from the checkpoint itself — the
        manifest's ``in_channels`` when recorded, else the loaded
        model's first convolution — so grayscale (or hyperspectral)
        checkpoints serve with their true geometry instead of an
        assumed RGB one.
        """
        size = int(self.meta.get("image_size", 32))
        channels = self.meta.get("in_channels")
        if channels is None and isinstance(self.model, Module):
            channels = model_input_channels(self.model, default=None)
        return (int(channels) if channels else 3, size, size)

    def forward(self, inputs):
        """One inference pass through the compiled plan.

        Callers must hold :attr:`infer_lock` (the chaos engine mutates
        parameters around forwards).
        """
        return self.plan(inputs)

    def describe(self) -> dict[str, object]:
        """JSON-ready summary for ``GET /v1/models``."""
        return {
            "name": self.name,
            "path": self.path,
            "model": self.meta.get("model"),
            "dataset": self.meta.get("dataset"),
            "method": self.meta.get("method"),
            "num_classes": self.meta.get("num_classes"),
            "input_shape": list(self.input_shape),
            "format": str(self.fmt),
            "clean_accuracy": self.meta.get("clean_accuracy"),
        }


class ModelRegistry:
    """Name → checkpoint map with lazy loading and LRU eviction.

    Parameters
    ----------
    capacity:
        Maximum number of models resident at once (>= 1).  Evicted
        entries are simply dropped from the cache; in-flight batches on
        an evicted instance finish normally because they hold their own
        reference.
    """

    def __init__(self, capacity: int = 4) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._specs: dict[str, str] = {}
        self._spec_meta: dict[str, dict[str, object]] = {}
        self._resident: OrderedDict[str, ServedModel] = OrderedDict()
        self._gate = threading.Lock()
        self._load_locks: dict[str, threading.Lock] = {}
        self.hits = 0
        self.loads = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, name: str, path: str) -> None:
        """Map ``name`` to a checkpoint path (does not load it)."""
        if not name:
            raise ConfigurationError("model name must be non-empty")
        with self._gate:
            if name in self._specs:
                raise ConfigurationError(f"model {name!r} is already registered")
            self._specs[name] = path

    def names(self) -> list[str]:
        with self._gate:
            return sorted(self._specs)

    def resident_names(self) -> list[str]:
        with self._gate:
            return list(self._resident)

    def resident_entries(self) -> list[ServedModel]:
        """Resident models without touching LRU order (read-only views)."""
        with self._gate:
            return list(self._resident.values())

    def describe_spec(self, name: str) -> dict[str, object]:
        """Checkpoint metadata for ``name`` without loading the model.

        Peeks at the manifest on first call (cached afterwards), so
        ``GET /v1/models`` can report input geometry for models that are
        registered but not resident — and never perturbs LRU order or
        triggers a full load.
        """
        with self._gate:
            if name not in self._specs:
                raise ConfigurationError(f"unknown model {name!r}")
            path = self._specs[name]
            meta = self._spec_meta.get(name)
        if meta is None:
            try:
                meta = read_checkpoint_meta(path)
            except (OSError, ValueError) as error:
                _logger.warning("cannot read manifest of %s: %s", path, error)
                meta = {}
            with self._gate:
                self._spec_meta[name] = meta
        size = meta.get("image_size")
        # Older checkpoints did not record in_channels; without loading
        # the model the best available answer for them is RGB.
        channels = int(meta.get("in_channels", 3))
        return {
            "name": name,
            "path": path,
            "model": meta.get("model"),
            "dataset": meta.get("dataset"),
            "method": meta.get("method"),
            "num_classes": meta.get("num_classes"),
            "input_shape": [channels, int(size), int(size)] if size else None,
            "clean_accuracy": meta.get("clean_accuracy"),
        }

    def __contains__(self, name: str) -> bool:
        with self._gate:
            return name in self._specs

    def __len__(self) -> int:
        return len(self.names())

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def get(self, name: str) -> ServedModel:
        """Resident entry for ``name``, loading (and evicting) as needed."""
        with self._gate:
            entry = self._resident.get(name)
            if entry is not None:
                self._resident.move_to_end(name)
                self.hits += 1
                return entry
            if name not in self._specs:
                known = ", ".join(sorted(self._specs)) or "none registered"
                raise ConfigurationError(
                    f"unknown model {name!r} (available: {known})"
                )
            path = self._specs[name]
            load_lock = self._load_locks.setdefault(name, threading.Lock())
        # Single-flight the slow checkpoint read outside the gate so
        # other names keep loading/serving concurrently.
        with load_lock:
            with self._gate:
                entry = self._resident.get(name)
                if entry is not None:
                    self._resident.move_to_end(name)
                    self.hits += 1
                    return entry
            entry = self._load(name, path)
            with self._gate:
                self._resident[name] = entry
                self._resident.move_to_end(name)
                self.loads += 1
                while len(self._resident) > self.capacity:
                    self._resident.popitem(last=False)
                    self.evictions += 1
            return entry

    def evict(self, name: str) -> bool:
        """Drop ``name`` from the resident cache (True if it was there)."""
        with self._gate:
            if self._resident.pop(name, None) is None:
                return False
            self.evictions += 1
            return True

    def _load(self, name: str, path: str) -> ServedModel:
        model, meta = load_protected_auto(path)
        fmt = checkpoint_format(
            meta, warn=lambda message: _logger.warning("%s: %s", path, message)
        )
        entry = ServedModel(name=name, path=path, model=model, meta=meta, fmt=fmt)
        _logger.info(
            "compiled runtime plan for %s (%d kernels)", name, len(entry.plan)
        )
        return entry
