"""Library-wide exception types.

A small hierarchy so callers can catch everything from this package with
one ``except ReproError`` while tests can assert on precise subclasses.
"""

from __future__ import annotations

__all__ = [
    "ConfigurationError",
    "GraphError",
    "ReproError",
    "ServerOverloadedError",
    "ShapeError",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ShapeError(ReproError, ValueError):
    """An operation received arrays with incompatible shapes."""


class GraphError(ReproError, RuntimeError):
    """The autograd graph was used incorrectly (e.g. backward twice)."""


class ConfigurationError(ReproError, ValueError):
    """An experiment or module was configured with invalid options."""


class ServerOverloadedError(ReproError):
    """The serving tier shed this request (admission control).

    Maps to HTTP 429 with a ``Retry-After`` header; ``retry_after_s``
    carries the server's backoff hint (seconds).  Lives here (not in
    :mod:`repro.serve`) so clients can catch it without importing the
    server stack and lower layers can raise it without violating the
    layer DAG (RPL006).
    """

    def __init__(self, message: str, retry_after_s: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)
