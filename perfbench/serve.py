"""``serve-open``: ``repro serve`` under an open loop, then a closed loop.

Phase A sends single-sample ``/v1/predict`` requests with seeded
Poisson arrivals at a fixed rate (independent users: an open loop), at
most ``nproc`` in flight.  Each request is timed from
when it was due, so a stall also delays the requests queued behind it;
how late the generator sent is reported separately.  Phase B runs a
closed loop of 8-sample requests on ``nproc`` connections to measure
capacity.  The forward pass is a small share of each request here, so
time goes to the HTTP front, the JSON protocol, admission and the
micro-batcher; phase A stresses per-request overhead, phase B
per-sample payload cost.

Between and after the phases, while nothing else is in flight, a few
requests ask for ``return_logits``: each executes as a batch of its own,
so its logits must equal a local forward of the checkpoint on the same
batch, bit for bit.
"""

from __future__ import annotations

import gc
import http.client
import json
import re
import threading
import time
from pathlib import Path

import numpy as np

from harness import Bench, BenchError, Proc, median, percentile, usable_cores
from tracer import durations, layer_metrics

RATE_PER_S = 60.0
PHASE_A_REQUESTS = 1200
PHASE_B_MIN_S = 3.0
PHASE_B_SAMPLES = 8
SETUP_PROBES = 2
CHECKS_SINGLE = 6
CHECKS_BATCH = 3
URL = re.compile(r"serving .* on (http://[\w.\-]+:\d+)")


class Payloads:
    """Seeded request bodies: single samples and 8-sample batches."""

    def __init__(self, seed: int, shape: tuple[int, ...] = (3, 32, 32)) -> None:
        rng = np.random.default_rng([seed, 2])
        self.single = [self._body(rng, shape) for _ in range(32)]
        self.batch = [self._body(rng, (PHASE_B_SAMPLES, *shape)) for _ in range(8)]

    @staticmethod
    def _body(rng, shape) -> bytes:
        inputs = np.round(rng.standard_normal(shape), 4).tolist()
        return json.dumps({"inputs": inputs}).encode()

    @staticmethod
    def with_logits(body: bytes) -> bytes:
        return body[:-1] + b', "return_logits": true}'


class Client:
    """One request per connection, like the repository's ``ServeClient``.

    Kept-alive connections are not used: the threaded front writes the
    response head and body in two sends without ``TCP_NODELAY``, so a
    keep-alive client waits out a delayed ACK (~40 ms) on every
    response, which would swamp every other cost this workload measures.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port

    def request(self, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        headers = {"Connection": "close"}
        if body is not None:
            headers["Content-Type"] = "application/json"
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            return 0, b""
        finally:
            conn.close()


class Server:
    """A ``repro serve`` child: spawned, ready-checked, stopped."""

    def __init__(self, bench: Bench, spans: Path | None = None, program_trace: Path | None = None):
        args = [
            *(["--trace", str(program_trace)] if program_trace else []),
            "serve",
            "--checkpoint", f"vgg16={bench.fixture['checkpoint']}",
            "--port", "0",
            "--preload",
            *bench.runtime_flag("serve"),
        ]
        self.bench = bench
        self.proc: Proc = bench.spawn(args, spans)
        _, line = self.proc.wait_line(lambda text: URL.search(text) is not None, bench.timeout(120))
        host, port = URL.search(line).group(1)[len("http://"):].rsplit(":", 1)
        self.host, self.port = host, int(port)
        status, _ = Client(self.host, self.port).request("GET", "/v1/healthz")
        if status != 200:
            raise BenchError(f"/v1/healthz answered {status}")
        self.setup_s = time.perf_counter() - self.proc.t_spawn

    def metrics(self) -> dict:
        client = Client(self.host, self.port)
        status, body = client.request("GET", "/v1/metrics")
        if status != 200:
            raise BenchError(f"/v1/metrics answered {status}")
        return json.loads(body)

    def stop(self) -> None:
        code = self.proc.terminate(self.bench.timeout(30))
        if code != 0:
            self.bench.fail(f"repro serve exited {code} on SIGTERM")


def open_loop(server: Server, payloads: Payloads, seed: int, connections: int) -> dict[str, object]:
    """Phase A: Poisson arrivals; latency and lag measured from due times."""
    rng = np.random.default_rng([seed, 1])
    due = np.cumsum(rng.exponential(1.0 / RATE_PER_S, PHASE_A_REQUESTS))
    latency = np.zeros(PHASE_A_REQUESTS)
    lag = np.zeros(PHASE_A_REQUESTS)
    status = np.zeros(PHASE_A_REQUESTS, dtype=np.int64)
    order = iter(range(PHASE_A_REQUESTS))
    lock = threading.Lock()
    start = time.perf_counter() + 0.05

    def worker() -> None:
        client = Client(server.host, server.port)
        while True:
            with lock:
                index = next(order, None)
            if index is None:
                break
            target = start + due[index]
            wait = target - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            status[index], _ = client.request("POST", "/v1/predict", payloads.single[index % 32])
            latency[index] = time.perf_counter() - target
            lag[index] = sent - target

    threads = [threading.Thread(target=worker) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {
        "start": start,
        "end": time.perf_counter(),
        "latency_s": latency,
        "lag_s": lag,
        "ok": int((status == 200).sum()),
        "sent": PHASE_A_REQUESTS,
    }


def closed_loop(server: Server, payloads: Payloads, seconds: float, connections: int) -> dict[str, object]:
    """Phase B: each connection sends its next 8-sample batch on reply."""
    results: list[tuple[int, int]] = []
    lock = threading.Lock()
    start = time.perf_counter()
    deadline = start + seconds

    def worker(offset: int) -> None:
        client = Client(server.host, server.port)
        sent = ok = 0
        while time.perf_counter() < deadline:
            code, _ = client.request("POST", "/v1/predict", payloads.batch[(offset + sent) % 8])
            sent += 1
            ok += code == 200
        with lock:
            results.append((sent, ok))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    end = time.perf_counter()
    ok = sum(r[1] for r in results)
    return {
        "start": start,
        "end": end,
        "sent": sum(r[0] for r in results),
        "ok": ok,
        "samples_per_s": ok * PHASE_B_SAMPLES / (end - start),
    }


def logit_checks(bench: Bench, server: Server, cases: list, bodies: list[bytes]) -> None:
    """Request logits for ``bodies`` one at a time (nothing else in flight)."""
    client = Client(server.host, server.port)
    for body in bodies:
        bench.attempt()
        status, answer = client.request("POST", "/v1/predict", Payloads.with_logits(body))
        if status != 200:
            bench.fail(f"logits request answered {status}")
            continue
        cases.append({"inputs": json.loads(body)["inputs"], "logits": json.loads(answer)["logits"]})


def verify_logits(bench: Bench, cases: list) -> None:
    request = bench.work / "check-logits.json"
    request.write_text(json.dumps({"checkpoint": str(bench.fixture["checkpoint"]), "cases": cases}))
    proc = bench.python("check.py", ["logits", str(request)], 60)
    if proc.returncode != 0:
        raise BenchError("logits check failed:\n" + proc.output(tail=20))
    for mismatch in json.loads(proc.output().splitlines()[-1])["mismatches"]:
        bench.fail(mismatch)


def _histogram(snapshot: dict, *path: str) -> tuple[float, float]:
    node = snapshot
    for key in path:
        node = node[key]
    return float(node["count"]), float(node["sum"])


def _shed(snapshot: dict) -> int:
    return sum(sum(reasons.values()) for reasons in snapshot["admission"]["shed"].values())


def session(bench: Bench, payloads: Payloads, server: Server) -> dict[str, object]:
    """Warm up, run both phases with metric scrapes, and the logits checks."""
    connections = usable_cores()
    warm = Client(server.host, server.port)
    for body in payloads.single[:10]:
        warm.request("POST", "/v1/predict", body)
    closed_loop(server, payloads, 1.0, connections)
    cases: list = []
    # The load generator's own collector pauses would read as server
    # latency: collect once now and keep it off while timing.
    gc.collect()
    gc.disable()
    try:
        before = server.metrics()
        phase_a = open_loop(server, payloads, bench.seed, connections)
        after_a = server.metrics()
        logit_checks(bench, server, cases, payloads.single[:CHECKS_SINGLE])
        middle = server.metrics()
        phase_b_s = max(PHASE_B_MIN_S, bench.seconds - PHASE_A_REQUESTS / RATE_PER_S)
        phase_b = closed_loop(server, payloads, phase_b_s, connections)
        after_b = server.metrics()
    finally:
        gc.enable()
    logit_checks(bench, server, cases, payloads.batch[:CHECKS_BATCH])
    for phase in (phase_a, phase_b):
        bench.attempt(phase["sent"])
        if phase["ok"] != phase["sent"]:
            bench.fail("predict request not answered 200", phase["sent"] - phase["ok"])
    return {
        "a": phase_a,
        "b": phase_b,
        "cases": cases,
        "scrapes": (before, after_a, middle, after_b),
    }


def _delta_mean(first: dict, second: dict, *path: str) -> float:
    c0, s0 = _histogram(first, *path)
    c1, s1 = _histogram(second, *path)
    return (s1 - s0) / (c1 - c0) if c1 > c0 else 0.0


def run(bench: Bench) -> dict[str, object]:
    payloads = Payloads(bench.seed)
    if bench.trace:
        return run_traced(bench, payloads)
    setups = []
    for _ in range(SETUP_PROBES):
        probe = Server(bench)
        setups.append(probe.setup_s)
        probe.stop()
    server = Server(bench)
    setups.append(server.setup_s)
    try:
        result = session(bench, payloads, server)
    finally:
        server.stop()
    verify_logits(bench, result["cases"])
    latency_ms = result["a"]["latency_s"] * 1e3
    named = {
        "latency_p50_ms": (median(latency_ms), "ms"),
        "latency_p95_ms": (percentile(latency_ms, 95), "ms"),
        "latency_p99_ms": (percentile(latency_ms, 99), "ms"),
        "samples_per_s": (result["b"]["samples_per_s"], "samples/s"),
    }
    return {
        "metrics": {
            "setup_s": (median(setups), "s"),
            "peak_rss_mb": (server.proc.maxrss_kb / 1024.0, "MB"),
            "throughput_per_s": (result["b"]["samples_per_s"], "1/s"),
            "latency_p50_ms": named["latency_p50_ms"],
        },
        "named_metrics": named,
        "details": details(bench, result),
    }


def details(bench: Bench, result: dict) -> dict[str, object]:
    a, b = result["a"], result["b"]
    return {
        "rate_per_s": RATE_PER_S,
        "connections": usable_cores(),
        "phase_a": {"sent": a["sent"], "ok": a["ok"], "seconds": a["end"] - a["start"]},
        "phase_b": {"sent": b["sent"], "ok": b["ok"], "seconds": b["end"] - b["start"]},
        "logit_checks": len(result["cases"]),
        "inference_path": bench.inference_path("serve"),
    }


def run_traced(bench: Bench, payloads: Payloads) -> dict[str, object]:
    """An untraced session, then the same session against a traced server."""
    plain_server = Server(bench)
    try:
        plain = session(bench, payloads, plain_server)
    finally:
        plain_server.stop()
    spans_path = bench.work / "spans.json"
    traced_server = Server(bench, spans=spans_path, program_trace=bench.work / "serve-trace.json")
    try:
        traced = session(bench, payloads, traced_server)
    finally:
        traced_server.stop()
    verify_logits(bench, plain["cases"] + traced["cases"])
    trace = json.loads(spans_path.read_text())
    metrics = layer_metrics(trace)
    spans = trace["spans"]
    a = traced["a"]
    in_a = [r for r in spans if a["start"] <= r["start"] <= a["end"]]
    requests = durations(in_a, "serve.request")
    batches = durations(in_a, "serve.batch")
    before, after_a, middle, after_b = plain["scrapes"]
    client_mean_ms = float(np.mean(plain["a"]["latency_s"])) * 1e3
    server_mean_ms = _delta_mean(before, after_a, "latency_ms")
    metrics.update({
        "serve.request_ms": (median(requests) * 1e3 if requests else 0.0, "ms"),
        "serve.batch_ms": (median(batches) * 1e3 if batches else 0.0, "ms"),
        "serve.batch_size_mean": (_delta_mean(before, after_a, "batches", "sizes"), "samples"),
        "serve.b.batch_size_mean": (_delta_mean(middle, after_b, "batches", "sizes"), "samples"),
        "serve.shed_count": (float(_shed(after_b) - _shed(before)), "count"),
        "serve.server_share": (server_mean_ms / client_mean_ms, "fraction"),
        "loadgen.lag_p99_ms": (percentile(plain["a"]["lag_s"] * 1e3, 99), "ms"),
        "trace.overhead_frac": (
            plain["b"]["samples_per_s"] / traced["b"]["samples_per_s"] - 1.0, "fraction",
        ),
    })
    return {"metrics": metrics, "details": {**details(bench, traced), "unwrapped": trace["missing"]}}
