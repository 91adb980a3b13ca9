"""Latency SLO tracking: p50/p99 estimates and burn rate for ``/healthz``.

A latency SLO here is the standard shape: *99% of requests complete
within the target* — i.e. the p99 latency stays at or under
``target_p99_ms``, with a 1% violation budget.  :class:`SloTracker`
counts every request against that budget and reports:

- ``requests`` and ``p50_ms`` / ``p99_ms`` — read from the endpoint's
  series of the serving latency histogram (``repro_serve_latency_ms``),
  so the healthz numbers and the Prometheus series are one record;
- ``violations`` / ``violation_rate`` — requests over target;
- ``burn_rate`` — violation rate divided by the 1% budget.  1.0 means
  the server is spending its error budget exactly as fast as the SLO
  allows; above 1.0 it is burning budget it does not have (a page),
  below 1.0 it is healthy.

The tracker is cumulative over the server's lifetime — the right shape
for a smoke-testable reference implementation; a windowed variant would
slot in behind the same ``observe``/``report`` interface.
"""

from __future__ import annotations

import threading

from repro.errors import ConfigurationError
from repro.obs.metrics import HistogramFamily

__all__ = ["SloTracker"]

#: The violation budget behind a p99 target: 1% of requests may exceed it.
_P99_BUDGET = 0.01

#: The latency series the SLO covers.
_PREDICT = {"endpoint": "/v1/predict"}


class SloTracker:
    """Cumulative latency-SLO accounting against a p99 target.

    Keeps only the target and the violation count; the request count
    and quantiles come from ``latency``'s ``/v1/predict`` series, which
    the caller feeds with the same requests.
    """

    def __init__(self, target_p99_ms: float, latency: HistogramFamily) -> None:
        if target_p99_ms <= 0:
            raise ConfigurationError(
                f"target_p99_ms must be > 0, got {target_p99_ms}"
            )
        self.target_p99_ms = float(target_p99_ms)
        self._latency = latency
        self._lock = threading.Lock()
        self._violations = 0

    def __getstate__(self) -> dict[str, object]:
        """Trackers hold a lock; refuse to pickle (RPL007)."""
        raise TypeError(
            "SloTracker holds a lock and cannot be pickled; export "
            "report() instead"
        )

    def observe(self, latency_ms: float) -> None:
        """Count one request against the target (its latency is already
        in the histogram)."""
        if latency_ms > self.target_p99_ms:
            with self._lock:
                self._violations += 1

    def report(self) -> dict[str, object]:
        """JSON-ready SLO state for ``GET /v1/healthz``."""
        with self._lock:
            violations = self._violations
        total = int(self._latency.snapshot_series(**_PREDICT)["count"])
        p50 = self._latency.quantile(0.5, **_PREDICT)
        p99 = self._latency.quantile(0.99, **_PREDICT)
        violation_rate = violations / total if total else 0.0
        return {
            "target_p99_ms": self.target_p99_ms,
            "requests": total,
            "p50_ms": round(p50, 3),
            "p99_ms": round(p99, 3),
            "violations": violations,
            "violation_rate": round(violation_rate, 6),
            # Error-budget burn: 1.0 = spending the 1% violation budget
            # exactly at the allowed rate; > 1.0 = out of budget.
            "burn_rate": round(violation_rate / _P99_BUDGET, 4),
            "healthy": violation_rate <= _P99_BUDGET,
        }
