"""Shared model-construction helpers."""

from __future__ import annotations

from repro.errors import ConfigurationError

__all__ = ["scaled_width"]


def scaled_width(width: int, scale: float, minimum: int = 4) -> int:
    """Scale a channel/feature width, keeping at least ``minimum`` units.

    The paper's models are evaluated at full width on a GPU; the numpy
    substrate runs the identical topology at ``scale < 1`` to fit a CPU
    budget.  Widths stay multiples of 1 but never drop below
    ``minimum`` so bottleneck blocks remain well-formed.
    """
    if scale <= 0:
        raise ConfigurationError(f"scale must be positive, got {scale}")
    return max(minimum, int(round(width * scale)))
