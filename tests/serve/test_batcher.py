"""MicroBatcher: coalescing, deadlines, error propagation, lifecycle."""

import threading

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.serve import MicroBatcher


def _double(stacked: np.ndarray) -> np.ndarray:
    return stacked * 2.0


class TestCorrectness:
    def test_single_request_round_trip(self):
        with MicroBatcher(_double, max_batch=8, max_latency=0.0) as batcher:
            out = batcher.predict(np.arange(6.0).reshape(2, 3))
            np.testing.assert_array_equal(out, np.arange(6.0).reshape(2, 3) * 2)

    def test_results_scatter_back_in_order(self):
        """Each caller gets exactly its own rows, whatever the batching."""
        with MicroBatcher(_double, max_batch=16, max_latency=0.02) as batcher:
            payloads = [np.full((1 + i % 3, 4), float(i)) for i in range(12)]
            futures = [batcher.submit(p) for p in payloads]
            for payload, future in zip(payloads, futures):
                np.testing.assert_array_equal(future.result(timeout=10), payload * 2)

    def test_coalesces_concurrent_requests(self):
        """Concurrent submits must land in fewer forward passes."""
        sizes = []
        gate = threading.Event()

        def run(stacked):
            gate.wait(5)  # hold the first batch until the queue is full
            sizes.append(stacked.shape[0])
            return stacked

        batcher = MicroBatcher(run, max_batch=64, max_latency=0.05)
        try:
            futures = [batcher.submit(np.zeros((1, 2))) for _ in range(20)]
            gate.set()
            for future in futures:
                future.result(timeout=10)
            assert sum(sizes) == 20
            assert len(sizes) < 20  # actually batched
            assert max(sizes) > 1
        finally:
            batcher.close()

    def test_zero_latency_serves_immediately(self):
        sizes = []

        def run(stacked):
            sizes.append(stacked.shape[0])
            return stacked

        with MicroBatcher(run, max_batch=64, max_latency=0.0) as batcher:
            batcher.predict(np.zeros((1, 2)))
            assert sizes == [1]


class TestErrors:
    def test_run_batch_failure_propagates_to_every_caller(self):
        def boom(stacked):
            raise RuntimeError("model exploded")

        with MicroBatcher(boom, max_batch=8, max_latency=0.01) as batcher:
            futures = [batcher.submit(np.zeros((1, 2))) for _ in range(3)]
            for future in futures:
                with pytest.raises(RuntimeError, match="model exploded"):
                    future.result(timeout=10)

    def test_wrong_output_rows_rejected(self):
        with MicroBatcher(lambda s: s[:1], max_batch=8, max_latency=0.0) as b:
            future = b.submit(np.zeros((3, 2)))
            with pytest.raises(ConfigurationError, match="returned 1 rows"):
                future.result(timeout=10)

    def test_oversized_request_rejected(self):
        with MicroBatcher(_double, max_batch=2, max_latency=0.0) as batcher:
            with pytest.raises(ConfigurationError, match="split it client-side"):
                batcher.submit(np.zeros((3, 2)))

    def test_empty_request_rejected(self):
        with MicroBatcher(_double) as batcher:
            with pytest.raises(ConfigurationError, match="leading sample axis"):
                batcher.submit(np.zeros((0, 2)))

    @pytest.mark.parametrize(
        "kwargs",
        [{"max_batch": 0}, {"max_latency": -1.0}, {"max_latency": float("nan")}],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            MicroBatcher(_double, **kwargs)


class TestLifecycle:
    def test_close_rejects_new_work_and_is_idempotent(self):
        batcher = MicroBatcher(_double)
        batcher.close()
        batcher.close()
        with pytest.raises(ConfigurationError, match="closed"):
            batcher.submit(np.zeros((1, 2)))

    def test_queued_work_finishes_before_close_returns(self):
        slow = threading.Event()

        def run(stacked):
            slow.wait(0.05)
            return stacked

        batcher = MicroBatcher(run, max_batch=4, max_latency=0.0)
        futures = [batcher.submit(np.full((1, 2), float(i))) for i in range(6)]
        batcher.close()
        assert all(future.done() for future in futures)
        for i, future in enumerate(futures):
            np.testing.assert_array_equal(
                future.result(timeout=1), np.full((1, 2), float(i))
            )
