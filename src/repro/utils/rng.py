"""Deterministic random number generation helpers.

Every stochastic component in the library (data synthesis, weight init,
fault-site sampling, augmentation) takes an explicit seed or
``numpy.random.Generator``.  These helpers centralise how seeds are derived
so that campaigns are reproducible bit-for-bit: a fault campaign's
trial seeds derive from (seed, tag, fault spec, trial), so rerunning a
campaign, or splitting its trials across workers, reproduces its fault
sites exactly.  Campaigns under other tags or over other fault spaces
(two protection schemes, say) draw independent sites.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["derive_seed", "new_rng", "spawn_rngs"]

_SEED_MODULUS = 2**63 - 1


def new_rng(seed: int | np.random.Generator | None = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator``.

    Accepts an integer seed, an existing generator (returned unchanged so
    callers can thread one generator through a pipeline), or ``None`` for
    OS entropy.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_seed(base_seed: int, *components: int | str) -> int:
    """Derive a stable child seed from a base seed and labels.

    Uses SHA-256 over the textual representation, so the mapping is stable
    across processes and platforms (unlike ``hash()``).

    >>> derive_seed(0, "fault", 3) == derive_seed(0, "fault", 3)
    True
    >>> derive_seed(0, "fault", 3) != derive_seed(0, "fault", 4)
    True
    """
    text = repr((int(base_seed), components)).encode("utf-8")
    digest = hashlib.sha256(text).digest()
    return int.from_bytes(digest[:8], "little") % _SEED_MODULUS


def spawn_rngs(seed: int, count: int, label: str = "") -> list[np.random.Generator]:
    """Create ``count`` independent generators derived from ``seed``."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    return [new_rng(derive_seed(seed, label, i)) for i in range(count)]
