"""ServerMetrics: histogram semantics and counter aggregation."""

from repro.serve import Histogram, ServerMetrics
from repro.serve.metrics import LATENCY_BUCKETS_MS, ChaosBatchReport


class TestHistogram:
    def test_buckets_are_cumulative_le_counts(self):
        histogram = Histogram((1.0, 5.0, 10.0, float("inf")))
        for value in (0.5, 0.7, 3.0, 7.0, 100.0):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        # Prometheus le semantics: each bucket includes everything below.
        assert snapshot["buckets"] == {
            "le_1": 2,
            "le_5": 3,
            "le_10": 4,
            "le_+Inf": 5,
        }
        assert snapshot["count"] == 5
        assert snapshot["sum"] == 111.2
        assert snapshot["mean"] == 22.24

    def test_empty_histogram(self):
        snapshot = Histogram((1.0, float("inf"))).snapshot()
        assert snapshot["count"] == 0
        assert snapshot["mean"] == 0.0
        assert snapshot["buckets"] == {"le_1": 0, "le_+Inf": 0}


class TestServerMetrics:
    def test_request_counters_split_by_endpoint_and_status(self):
        metrics = ServerMetrics()
        metrics.observe_request("/predict", 200, 0.002)
        metrics.observe_request("/predict", 400, 0.001)
        metrics.observe_request("/healthz", 200, 0.0005)
        snapshot = metrics.snapshot()
        assert snapshot["requests"]["total"] == 3
        assert snapshot["requests"]["errors"] == 1
        predict = snapshot["requests"]["by_endpoint"]["/predict"]
        assert predict["count"] == 2
        assert predict["by_status"] == {"200": 1, "400": 1}
        assert snapshot["latency_ms"]["count"] == 3

    def test_latency_snapshot_merges_the_per_endpoint_series(self):
        """``latency_ms`` is the per-endpoint family summed over endpoints:
        the same count, sum, mean and buckets as one histogram fed every
        request, and no second unlabelled family is exported."""
        metrics = ServerMetrics()
        reference = Histogram(LATENCY_BUCKETS_MS)
        for endpoint, seconds in (
            ("/predict", 0.002),
            ("/predict", 0.030),
            ("/healthz", 0.0005),
            ("/models", 3.0),
        ):
            metrics.observe_request(endpoint, 200, seconds)
            reference.observe(seconds * 1000.0)
        assert metrics.snapshot()["latency_ms"] == reference.snapshot()
        text = metrics.render_prometheus()
        assert "repro_http_request_latency_ms" not in text
        assert 'repro_serve_latency_ms_count{endpoint="/models"} 1' in text

    def test_batch_and_chaos_sections(self):
        metrics = ServerMetrics()
        metrics.observe_batch(4)
        metrics.observe_batch(16)
        metrics.observe_chaos(
            "m", ChaosBatchReport(samples=4, flips=2, injected=True, sdc_events=1)
        )
        metrics.observe_chaos(
            "m", ChaosBatchReport(samples=4, flips=0, injected=False, sdc_events=0)
        )
        snapshot = metrics.snapshot()
        assert snapshot["batches"]["samples_served"] == 20
        chaos = snapshot["chaos"]["m"]
        assert chaos["batches"] == 2
        assert chaos["injected_batches"] == 1
        assert chaos["flips"] == 2
        assert chaos["sdc_rate"] == 0.125
        assert metrics.chaos_snapshot("never-injected")["batches"] == 0
