#!/usr/bin/env python3
"""Drive a running ``repro serve`` instance: predict, load-test, metrics.

Point it at a server started with, e.g.::

    repro protect --model lenet --method fitact --out lenet-fitact.npz --preset smoke
    repro serve --checkpoint lenet-fitact.npz --port 8123 --chaos-ber 1e-5

then::

    python examples/serve_client.py --url http://127.0.0.1:8123

It discovers the hosted models over the typed ``/v1`` protocol, sends a
batch of SynthCIFAR samples to ``POST /v1/predict``, fires a short
concurrent load burst so the micro-batcher has something to coalesce,
and finishes by printing the ``/v1/metrics`` snapshot — including the
chaos SDC counters when the server runs with ``--chaos-ber`` and the
admission shed counters when the burst overruns ``--max-pending``.
"""

from __future__ import annotations

import argparse
import json

import numpy as np

from repro.data import DataLoader, Normalize, SYNTH_MEAN, SYNTH_STD
from repro.data.synthetic import SyntheticImageDataset
from repro.serve import ServeClient, run_load


def model_ready_inputs(image_size: int, count: int) -> np.ndarray:
    """Normalised SynthCIFAR samples shaped like the server expects."""
    dataset = SyntheticImageDataset(
        num_classes=10,
        num_samples=count,
        image_size=image_size,
        seed=5,
        split="test",
    )
    loader = DataLoader(
        dataset, batch_size=count, transform=Normalize(SYNTH_MEAN, SYNTH_STD)
    )
    inputs, _ = next(iter(loader))
    return inputs.data.astype(np.float32)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--url", default="http://127.0.0.1:8123", help="server base URL"
    )
    parser.add_argument("--model", default=None, help="model name (optional)")
    parser.add_argument(
        "--requests", type=int, default=32, help="load-burst request count"
    )
    parser.add_argument(
        "--concurrency", type=int, default=6, help="load-burst client threads"
    )
    args = parser.parse_args()

    client = ServeClient(args.url, timeout=60.0)
    health = client.wait_ready()
    print(
        f"server ready: {list(health.models)} "
        f"(chaos ber: {health.chaos_ber}, admission: {health.admission})"
    )

    listing = client.models()
    target = args.model or listing.models[0].name
    info = next(m for m in listing.models if m.name == target)
    # /v1/models reports the expected input geometry whether or not the
    # model is resident yet (the server peeks at the manifest).
    if info.input_shape is None:
        raise SystemExit(
            f"server reports no input geometry for {target!r}; is the "
            "checkpoint a repro-protect one?"
        )
    image_size = info.input_shape[1]

    # The synthesiser needs >= 1 sample per class; slice the batch down.
    inputs = model_ready_inputs(image_size, count=20)[:4]
    response = client.predict(inputs, model=target)
    print(f"predict[{target}]: predictions {list(response.predictions)}")

    report = run_load(
        client,
        inputs,
        requests=args.requests,
        concurrency=args.concurrency,
        model=target,
    )
    print(f"load burst: {report.summary()}")
    if report.sheds:
        print(
            f"admission shed {report.sheds} request(s) with 429 + "
            "Retry-After — the bounded queue working as designed"
        )
    if report.errors:
        print("load burst saw errors; inspect the server log")
        return 1

    metrics = client.metrics()
    print("metrics:")
    print(json.dumps(metrics, indent=2))
    batch_mean = metrics["batches"]["sizes"]["mean"]
    print(f"achieved mean batch size: {batch_mean:.1f}")
    for name, chaos in metrics.get("chaos", {}).items():
        print(
            f"chaos[{name}]: {chaos['injected_batches']}/{chaos['batches']} "
            f"batches injected, {chaos['flips']} flips, "
            f"{chaos['sdc_events']} SDC events "
            f"(rate {chaos['sdc_rate']:.2%})"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
