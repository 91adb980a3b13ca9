"""Thread-safe serving metrics, built on the ``repro.obs`` registry.

One :class:`ServerMetrics` instance aggregates everything ``GET
/v1/metrics`` reports: per-endpoint request counts, status codes and
log-scale request-latency histograms, the batch-size distribution the
micro-batcher actually achieved, and — when chaos mode is on — per-model
fault-injection counters (batches injected, bits flipped, SDC events).

The state lives in a private :class:`~repro.obs.MetricsRegistry`
(private so concurrent apps in one process never share counts): every
observer takes the registry lock per observation, snapshots are built
from copies, and the same families render the Prometheus text
exposition behind ``GET /v1/metrics?format=prometheus``.  The JSON
:meth:`ServerMetrics.snapshot` shape is a stable contract — dashboards
and the serve tests consume it — and is reconstructed from the registry
series byte-for-byte as before the registry refactor.  The Prometheus
exposition also carries ``repro_process_peak_rss_bytes``, the serving
process's peak resident set, read at scrape time.
"""

from __future__ import annotations

import math
import resource
import sys
from dataclasses import dataclass

from repro.obs.metrics import Histogram, MetricsRegistry

__all__ = [
    "BATCH_SIZE_BUCKETS",
    "ChaosBatchReport",
    "LATENCY_BUCKETS_MS",
    "Histogram",
    "ServerMetrics",
]

LATENCY_BUCKETS_MS: tuple[float, ...] = (
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0,
    math.inf,
)
"""Upper bounds (ms) of the request-latency histogram buckets."""

BATCH_SIZE_BUCKETS: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, math.inf)
"""Upper bounds of the batch-size distribution buckets."""

#: The per-model chaos counters, in their (stable) snapshot order.
_CHAOS_FIELDS = (
    "batches",
    "injected_batches",
    "flips",
    "samples",
    "sdc_events",
)


def _peak_rss_bytes() -> int:
    """This process's peak resident set size (``ru_maxrss``) in bytes."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes, macOS bytes.
    return int(peak) if sys.platform == "darwin" else int(peak) * 1024


@dataclass(frozen=True)
class ChaosBatchReport:
    """What one chaos-mode batch did to the live model.

    ``sdc_events`` counts predictions that changed relative to the
    fault-free forward pass of the same inputs — the serving analogue of
    the campaign engine's silent-data-corruption trials.
    """

    samples: int
    flips: int
    injected: bool
    sdc_events: int


class ServerMetrics:
    """Aggregated observability state behind ``GET /v1/metrics``."""

    def __init__(self) -> None:
        registry = MetricsRegistry()
        self.registry = registry
        self._requests = registry.counter(
            "repro_http_requests_total",
            "HTTP requests served, by endpoint and status code.",
            labelnames=("endpoint", "status"),
        )
        self.serve_latency = registry.histogram(
            "repro_serve_latency_ms",
            "Per-endpoint request handling latency (milliseconds).",
            buckets=LATENCY_BUCKETS_MS,
            labelnames=("endpoint",),
        )
        self._shed = registry.counter(
            "repro_serve_shed_total",
            "Requests shed by admission control, by model and reason.",
            labelnames=("model", "reason"),
        )
        self._queue_depth = registry.gauge(
            "repro_serve_queue_depth",
            "Requests currently pending per model (admission view).",
            labelnames=("model",),
        )
        self._batch_sizes = registry.histogram(
            "repro_serve_batch_size",
            "Coalesced micro-batch sizes the batcher actually executed.",
            buckets=BATCH_SIZE_BUCKETS,
        )
        self._samples = registry.counter(
            "repro_serve_samples_total",
            "Samples served through executed micro-batches.",
        )
        self._peak_rss = registry.gauge(
            "repro_process_peak_rss_bytes",
            "Peak resident set size of the serving process (bytes), "
            "read at scrape time.",
        )
        self._chaos = {
            field: registry.counter(
                f"repro_serve_chaos_{field}_total",
                f"Chaos-mode {field.replace('_', ' ')}, per model.",
                labelnames=("model",),
            )
            for field in _CHAOS_FIELDS
        }

    def observe_request(self, endpoint: str, status: int, seconds: float) -> None:
        self._requests.inc(endpoint=endpoint, status=int(status))
        self.serve_latency.observe(seconds * 1000.0, endpoint=endpoint)

    def observe_shed(self, model: str, reason: str) -> None:
        self._shed.inc(model=model, reason=reason)

    def observe_queue_depth(self, model: str, depth: int) -> None:
        self._queue_depth.set(int(depth), model=model)

    def observe_batch(self, size: int) -> None:
        self._batch_sizes.observe(size)
        self._samples.inc(int(size))

    def observe_chaos(self, model: str, report: ChaosBatchReport) -> None:
        self._chaos["batches"].inc(1, model=model)
        self._chaos["injected_batches"].inc(int(report.injected), model=model)
        self._chaos["flips"].inc(int(report.flips), model=model)
        self._chaos["samples"].inc(int(report.samples), model=model)
        self._chaos["sdc_events"].inc(int(report.sdc_events), model=model)

    def _chaos_counts(self, model: str) -> dict[str, int]:
        return {
            field: int(self._chaos[field].value(model=model))
            for field in _CHAOS_FIELDS
        }

    @staticmethod
    def _chaos_entry(counts: dict[str, int]) -> dict[str, object]:
        samples = counts["samples"]
        return {
            **counts,
            # Fraction of served predictions silently corrupted by the
            # injected faults — an upper bound on the accuracy drop the
            # traffic experienced (some flipped predictions may have
            # been wrong anyway).
            "sdc_rate": round(counts["sdc_events"] / samples, 6)
            if samples
            else 0.0,
        }

    def chaos_snapshot(self, model: str) -> dict[str, object]:
        """Chaos counters for one model (zeros when never injected)."""
        return self._chaos_entry(self._chaos_counts(model))

    def snapshot(self) -> dict[str, object]:
        by_endpoint: dict[str, dict[int, int]] = {}
        for (endpoint, status), count in self._requests.series().items():
            by_endpoint.setdefault(endpoint, {})[int(status)] = int(count)
        chaos_models = sorted(
            {model for (model,) in self._chaos["batches"].series()}
        )
        return {
            "requests": {
                "total": sum(
                    sum(statuses.values()) for statuses in by_endpoint.values()
                ),
                "errors": sum(
                    count
                    for statuses in by_endpoint.values()
                    for status, count in statuses.items()
                    if status >= 400
                ),
                "by_endpoint": {
                    endpoint: {
                        "count": sum(statuses.values()),
                        "errors": sum(
                            count
                            for status, count in statuses.items()
                            if status >= 400
                        ),
                        "by_status": {
                            str(status): count
                            for status, count in sorted(statuses.items())
                        },
                    }
                    for endpoint, statuses in sorted(by_endpoint.items())
                },
            },
            "latency_ms": self._latency_snapshot(),
            "batches": {
                "samples_served": int(self._samples.value()),
                "sizes": self._batch_sizes.snapshot_series(),
            },
            "chaos": {
                model: self._chaos_entry(self._chaos_counts(model))
                for model in chaos_models
            },
            "admission": {"shed": self._shed_snapshot()},
        }

    def _latency_snapshot(self) -> dict[str, object]:
        """Every endpoint's latency series merged into one histogram."""
        merged = Histogram(LATENCY_BUCKETS_MS)
        for series in self.serve_latency.series().values():
            merged.counts = [a + b for a, b in zip(merged.counts, series.counts)]
            merged.total += series.total
            merged.sum += series.sum
        return merged.snapshot()

    def _shed_snapshot(self) -> dict[str, dict[str, int]]:
        out: dict[str, dict[str, int]] = {}
        for (model, reason), count in sorted(self._shed.series().items()):
            out.setdefault(model, {})[reason] = int(count)
        return out

    def render_prometheus(self) -> str:
        """The Prometheus text exposition of every serving metric."""
        self._peak_rss.set(_peak_rss_bytes())
        return self.registry.render_prometheus()
