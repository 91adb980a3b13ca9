"""Parameter-memory fault injector.

The injector views a model's parameters as one flat array of fixed-point
words (the fault space), flips sampled bits, and restores the exact
pre-fault values afterwards.  It is the offline stand-in for the paper's
PyTorch-based fault-injection tool (§VI-A2).

Typical use::

    injector = FaultInjector(model)           # model already quantised
    model_spec = BitFlipFaultModel.at_rate(1e-5)
    with injector.inject(injector.sample(model_spec, rng)):
        accuracy = evaluate(model, test_loader)
    # parameters are bit-exact restored here
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable
from contextlib import contextmanager
from typing import Iterator

import numpy as np

from repro.errors import ConfigurationError
from repro.fault.fault_model import BitFlipFaultModel
from repro.fault.sites import FaultSites, sample_sites
from repro.nn.module import Module, invalidate_runtime_plans
from repro.nn.parameter import Parameter
from repro.quant.fixed_point import FixedPointFormat, Q15_16, decode, encode, flip_bits
from repro.utils.rng import new_rng

__all__ = ["FaultInjector"]


class FaultInjector:
    """Flip bits in a module's parameter memory and restore them.

    Parameters
    ----------
    module:
        The model whose parameters form the fault space.  Quantise it
        first (:func:`repro.quant.quantize_module`) so the encode/decode
        round trip is exact.
    fmt:
        Fixed-point word format (default the paper's Q15.16).

    Notes
    -----
    The injector snapshots encoded words at construction.  If parameters
    change afterwards (e.g. post-training), call :meth:`refresh`.
    """

    def __init__(self, module: Module, fmt: FixedPointFormat = Q15_16) -> None:
        self.module = module
        self.fmt = fmt
        self._names: list[str] = []
        self._params: list[Parameter] = []
        self._words: list[np.ndarray] = []
        self._clean: list[np.ndarray] = []
        self._offsets: np.ndarray = np.empty(0, dtype=np.int64)
        self._active = False
        self.refresh()

    # ------------------------------------------------------------------
    # Fault-space bookkeeping
    # ------------------------------------------------------------------
    def refresh(self) -> None:
        """Re-snapshot parameter memory (after any parameter update)."""
        if self._active:
            raise ConfigurationError("cannot refresh while faults are injected")
        self._names = []
        self._params = []
        self._words = []
        self._clean = []
        sizes = []
        for name, param in self.module.named_parameters():
            words = encode(param.data, self.fmt)
            self._names.append(name)
            self._params.append(param)
            self._words.append(words)
            self._clean.append(self._clean_array(words, param))
            sizes.append(words.size)
        if not sizes:
            raise ConfigurationError("module has no parameters to inject into")
        self._offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)

    def _clean_array(self, words: np.ndarray, param: Parameter) -> np.ndarray:
        """One canonical, read-only clean array in the parameter's shape.

        :meth:`restore` rebinds ``param.data`` to this *same object*
        every time, which keeps restores copy-free and keeps compiled
        plans' identity signatures stable across inject/restore cycles
        (the :class:`repro.runtime.ReplicaPlan` snapshot cache keys on
        them).  Read-only because every sanctioned mutation path rebinds
        ``param.data`` rather than writing through it — an in-place
        write to the canonical clean state would silently corrupt every
        later restore, so it fails loudly instead.
        """
        clean = decode(words, self.fmt).reshape(param.shape)
        clean.flags.writeable = False
        return clean

    @property
    def total_words(self) -> int:
        """Number of parameter words in the full fault space."""
        return int(self._offsets[-1])

    @property
    def total_bits(self) -> int:
        """Number of bits in the full fault space."""
        return self.total_words * self.fmt.total_bits

    @property
    def parameter_names(self) -> list[str]:
        return list(self._names)

    @property
    def parameters(self) -> list[Parameter]:
        """Live parameter objects, aligned with :attr:`parameter_names`.

        The hook :func:`repro.runtime.fault_parameters` uses to map
        fault sites to the parameters they land in (replica-batched
        evaluation bounds each lane's divergence step with it).
        """
        return list(self._params)

    @property
    def parameter_words(self) -> list[int]:
        """Per-parameter fault-space word counts (:attr:`parameter_names` order).

        Campaign stores persist these so the vulnerability atlas can
        normalise raw per-layer SDC rates by each layer's fault-space
        size into per-bit vulnerability densities.
        """
        sizes = self._offsets[1:] - self._offsets[:-1]
        return [int(size) for size in sizes]

    def fingerprint(self) -> str:
        """Stable digest of the clean fault space (campaign-store identity).

        Hashes the parameter names, word format, and every clean encoded
        word, so two injectors fingerprint equal iff faults would land in
        bit-identical memory — the guard that keeps a resumed campaign
        store from mixing trials of different models or checkpoints.
        """
        digest = hashlib.sha256()
        digest.update(str(self.fmt).encode("utf-8"))
        for name, words in zip(self._names, self._words):
            digest.update(name.encode("utf-8"))
            digest.update(b"\0")
            digest.update(np.ascontiguousarray(words).tobytes())
            digest.update(b"\0")
        return f"sha256:{digest.hexdigest()}"

    def site_metadata(self, sites: FaultSites) -> list[tuple[int, int]]:
        """``(parameter_index, bit_position)`` per site, in site order.

        The per-trial applied-site record campaign stores journal for
        the vulnerability atlas: parameter indices refer to
        :attr:`parameter_names`, bit positions to the word format's bit
        numbering (0 = fraction LSB).
        """
        positions, bits = self._validated_sites(sites)
        if positions.size == 0:
            return []
        owner = np.searchsorted(self._offsets, positions, side="right") - 1
        return [(int(o), int(b)) for o, b in zip(owner, bits)]

    def count_words(self, param_filter: "Callable[[str], bool] | None" = None) -> int:
        """Number of fault-space words, optionally under a name filter."""
        if param_filter is None:
            return self.total_words
        sizes = self._offsets[1:] - self._offsets[:-1]
        return int(
            sum(
                size
                for name, size in zip(self._names, sizes)
                if param_filter(name)
            )
        )

    def _selection(self, fault_model: BitFlipFaultModel) -> np.ndarray:
        """Indices of parameters included by the model's name filter."""
        if fault_model.param_filter is None:
            return np.arange(len(self._names))
        selected = [
            i for i, name in enumerate(self._names) if fault_model.param_filter(name)
        ]
        if not selected:
            raise ConfigurationError(
                "param_filter selected no parameters; fault space is empty"
            )
        return np.asarray(selected, dtype=np.int64)

    # ------------------------------------------------------------------
    # Sampling and injection
    # ------------------------------------------------------------------
    def sample(
        self,
        fault_model: BitFlipFaultModel,
        rng: np.random.Generator | int | None = None,
    ) -> FaultSites:
        """Draw fault sites for one trial under ``fault_model``.

        Positions returned are *global* word indices into the full fault
        space, even when a ``param_filter`` restricts sampling.

        Extension fault models (stuck-at, burst, …) implement a
        ``sample_sites(injector, rng)`` hook and are dispatched to it, so
        campaigns treat every model uniformly.
        """
        rng = new_rng(rng)
        if not isinstance(fault_model, BitFlipFaultModel):
            sampler = getattr(fault_model, "sample_sites", None)
            if sampler is None:
                raise ConfigurationError(
                    f"{type(fault_model).__name__} is not a fault model: it has "
                    "no sample_sites(injector, rng) hook"
                )
            return sampler(self, rng)
        selected = self._selection(fault_model)
        sizes = self._offsets[1:] - self._offsets[:-1]
        sub_sizes = sizes[selected]
        sub_total = int(sub_sizes.sum())
        sites = sample_sites(
            rng,
            total_words=sub_total,
            word_bits=self.fmt.total_bits,
            fault_rate=fault_model.fault_rate,
            n_flips=fault_model.n_flips,
            allowed_bits=fault_model.allowed_bits,
        )
        if len(sites) == 0:
            return sites
        # Map positions in the restricted space back to global indices.
        sub_offsets = np.concatenate([[0], np.cumsum(sub_sizes)]).astype(np.int64)
        owner = np.searchsorted(sub_offsets, sites.word_positions, side="right") - 1
        local = sites.word_positions - sub_offsets[owner]
        global_positions = self._offsets[selected[owner]] + local
        return FaultSites(global_positions, sites.bit_positions)

    def _validated_sites(self, sites: FaultSites) -> tuple[np.ndarray, np.ndarray]:
        """Bounds-checked (word, bit) position arrays for ``sites``."""
        positions = np.asarray(sites.word_positions, dtype=np.int64)
        bits = np.asarray(sites.bit_positions, dtype=np.int64)
        if positions.size == 0:
            return positions, bits
        if positions.min() < 0 or positions.max() >= self.total_words:
            raise ConfigurationError("site word position outside the fault space")
        if bits.min() < 0 or bits.max() >= self.fmt.total_bits:
            raise ConfigurationError(
                f"site bit index out of range for {self.fmt} "
                f"(0..{self.fmt.total_bits - 1})"
            )
        return positions, bits

    def apply(self, sites: FaultSites) -> int:
        """Flip the given sites in-place.  Returns the number of flips.

        Sites are bounds-checked before any parameter is touched, and a
        failure mid-apply restores the clean state — ``apply`` either
        succeeds completely or leaves the model untouched and inactive.

        Prefer the :meth:`inject` context manager, which guarantees
        restoration; ``apply``/``restore`` exist for tests and for
        studying persistent faults.
        """
        if self._active:
            raise ConfigurationError("faults already injected; restore first")
        positions, bits = self._validated_sites(sites)
        self._active = True
        if len(sites) == 0:
            return 0
        try:
            owner = np.searchsorted(self._offsets, positions, side="right") - 1
            for index in np.unique(owner):
                mask = owner == index
                local = positions[mask] - self._offsets[index]
                # Only the touched words are flipped and decoded; decode
                # is elementwise, so patching them into a copy of the
                # clean array equals decoding every word.
                touched, slot = np.unique(local, return_inverse=True)
                faulty = flip_bits(
                    self._words[index].reshape(-1)[touched], slot, bits[mask], self.fmt
                )
                data = self._clean[index].copy()
                data.reshape(-1)[touched] = decode(faulty, self.fmt)
                self._params[index].data = data
        except BaseException:
            self.restore()
            raise
        # Compiled inference plans cache BatchNorm-folded constants;
        # signal them so the flipped bits are visible in the very next
        # runtime forward.
        invalidate_runtime_plans(self.module)
        return len(sites)

    def canonical_clean(self) -> bool:
        """Whether live parameters hold exactly their canonical clean values.

        The replica-batched evaluation fast path
        (:meth:`repro.eval.Evaluator.lane_accuracies`) shares one clean
        forward across lanes; that is only bit-identical to the
        per-trial path when the model's current state equals the state
        :meth:`restore` re-establishes after every trial.  True for
        quantised models from the start (encode∘decode is exact) and
        for any model after its first restore; False while faults are
        active, or before the first restore of a model whose float
        parameters are not representable in the injector's format.
        """
        if self._active:
            return False
        for param, clean in zip(self._params, self._clean):
            data = param.data
            if data is clean:
                continue
            if (
                data.dtype != clean.dtype
                or data.shape != clean.shape
                or not np.array_equal(data, clean)
            ):
                return False
        return True

    def restore(self) -> None:
        """Restore every parameter to its exact pre-fault value.

        Rebinds each ``param.data`` to the injector's canonical
        (read-only) clean array — the same object every time, so
        restores are copy-free and a compiled plan's identity probe
        sees one stable clean state across trials.
        """
        for param, clean in zip(self._params, self._clean):
            param.data = clean
        self._active = False
        invalidate_runtime_plans(self.module)

    @contextmanager
    def inject(self, sites: FaultSites) -> Iterator[int]:
        """Context manager: flip ``sites``, yield the flip count, restore."""
        count = self.apply(sites)
        try:
            yield count
        finally:
            self.restore()

    def read_bits(self, sites: FaultSites) -> np.ndarray:
        """Current stored bit value (0/1) at each site.

        Reads from the clean snapshot (the memory content that faults
        act on), so the answer is independent of any currently injected
        faults.  Used by data-dependent fault models: a stuck-at fault
        only matters where the stored bit differs from the stuck value,
        and ECC word-zeroing must know which bits are set.
        """
        if len(sites) == 0:
            return np.empty(0, dtype=np.int64)
        positions, bits = self._validated_sites(sites)
        owner = np.searchsorted(self._offsets, positions, side="right") - 1
        values = np.empty(positions.size, dtype=np.int64)
        modulus = np.int64(1) << np.int64(self.fmt.total_bits)
        for index in np.unique(owner):
            mask = owner == index
            local = positions[mask] - self._offsets[index]
            words = self._words[index].reshape(-1)[local]
            unsigned = np.where(words < 0, words + modulus, words).astype(np.uint64)
            values[mask] = (unsigned >> bits[mask].astype(np.uint64)) & np.uint64(1)
        return values

    def word_values(self, word_positions: np.ndarray) -> np.ndarray:
        """Raw (clean) word values at global positions, as int64."""
        positions = np.asarray(word_positions, dtype=np.int64)
        if positions.size == 0:
            return np.empty(0, dtype=np.int64)
        if positions.min() < 0 or positions.max() >= self.total_words:
            raise ConfigurationError("word position outside the fault space")
        owner = np.searchsorted(self._offsets, positions, side="right") - 1
        values = np.empty(positions.size, dtype=np.int64)
        for index in np.unique(owner):
            mask = owner == index
            local = positions[mask] - self._offsets[index]
            values[mask] = self._words[index].reshape(-1)[local]
        return values

    def describe_site(self, word_position: int, bit: int) -> str:
        """Human-readable location of a fault site (diagnostics)."""
        owner = int(np.searchsorted(self._offsets, word_position, side="right") - 1)
        local = int(word_position - self._offsets[owner])
        return f"{self._names[owner]}[{local}] bit {bit}"
