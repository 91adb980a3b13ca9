"""Subprocess body for the SIGKILL-takeover test (not a test module).

Joins the store given on argv as a deliberately slow coordinated worker
so the parent test can SIGKILL it mid-range.  The evaluator computes
the exact same parameter-health number as the parent's — it just naps
first — so every record this worker *does* land is identical to what
the rescuer (or a serial run) would journal for the same trial index.

Usage: python takeover_child.py <store> <worker_id> <seconds_per_trial>
"""

import sys
import time

import numpy as np

from repro import nn
from repro.coord import CampaignWorker
from repro.fault import BitFlipFaultModel, FaultCampaign, FaultInjector
from repro.quant import quantize_module

RATES = (1e-3, 5e-3)


class SlowParamHealth:
    def __init__(self, model, nap_s):
        self.model = model
        self.nap_s = nap_s

    def __call__(self) -> float:
        time.sleep(self.nap_s)
        total, bad = 0, 0
        for param in self.model.parameters():
            total += param.size
            bad += int((np.abs(param.data) > 100).sum())
        return 1.0 - bad / total


def main() -> int:
    store, worker_id, nap_s = sys.argv[1], sys.argv[2], float(sys.argv[3])
    model = quantize_module(
        nn.Sequential(nn.Linear(4, 8, rng=0), nn.ReLU(), nn.Linear(8, 2, rng=1))
    )
    campaign = FaultCampaign(
        FaultInjector(model),
        SlowParamHealth(model, nap_s),
        trials=8,
        seed=11,
    )
    worker = CampaignWorker(
        campaign,
        store,
        [BitFlipFaultModel.at_rate(rate) for rate in RATES],
        worker_id=worker_id,
        chunk=3,
        expiry_s=5.0,
    )
    worker.run()
    return 0


if __name__ == "__main__":
    sys.exit(main())
