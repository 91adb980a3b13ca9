"""Output checks that need the program itself (run with ``PYTHONPATH=src``).

    python perfbench/check.py campaign REQUEST.json
    python perfbench/check.py logits REQUEST.json

Each prints one JSON line ``{"checked": n, "mismatches": [...]}``.

``campaign`` renders ``repro campaign report`` for two stores of the
same sweep, whose ``report.md`` and ``atlas.json`` must be
byte-identical, then re-evaluates journaled trials through the module
forward (:func:`repro.eval.forward_logits`): each trial's fault sites
are re-derived from the campaign seed, must match the journaled sites,
and the faulted accuracy must equal the journaled float bit for bit.

``logits`` compares logits the server returned with a local forward of
the same checkpoint on the same batch (batch shape changes BLAS
accumulation order, so each request is checked as the batch it was).
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np


def _test_batches(meta: dict, test_samples: int, preset_name: str):
    """The evaluation set ``repro campaign run`` builds for a checkpoint."""
    from repro.data.loader import DataLoader
    from repro.data.synthetic import SYNTH_MEAN, SYNTH_STD, SyntheticImageDataset
    from repro.data.transforms import Normalize
    from repro.eval.experiments import DATASETS, get_preset
    from repro.utils.rng import derive_seed

    preset = get_preset(preset_name)
    dataset = str(meta["dataset"])
    test_set = SyntheticImageDataset(
        num_classes=DATASETS[dataset],
        num_samples=test_samples,
        image_size=int(meta["image_size"]),
        seed=derive_seed(preset.seed, "data", dataset),
        split="test",
    )
    loader = DataLoader(
        test_set,
        batch_size=max(preset.batch_size, 128),
        transform=Normalize(SYNTH_MEAN, SYNTH_STD),
    )
    batches = []
    for index, (inputs, targets) in enumerate(loader):
        if preset.eval_batches is not None and index >= preset.eval_batches:
            break
        batches.append((inputs, targets))
    return batches


def report_bytes(store: str) -> bytes:
    from repro.cli.main import main

    with contextlib.redirect_stdout(io.StringIO()):
        if main(["campaign", "report", "--store", store]) != 0:
            raise RuntimeError(f"repro campaign report failed on {store}")
    path = Path(store)
    return (path / "report.md").read_bytes() + b"\0" + (path / "atlas.json").read_bytes()


def check_campaign(request: dict) -> dict:
    mismatches = []
    if report_bytes(request["store"]) != report_bytes(request["repeat_store"]):
        mismatches.append("report.md/atlas.json differ between two runs of one sweep")
    trials = check_trials(request)
    return {"checked": 1 + trials["checked"], "mismatches": mismatches + trials["mismatches"]}


def check_trials(request: dict) -> dict:
    from repro.core.checkpoint import checkpoint_format, load_protected_auto
    from repro.eval.evaluator import forward_logits
    from repro.eval.experiments import get_preset
    from repro.fault.campaign import FaultCampaign
    from repro.fault.fault_model import BitFlipFaultModel
    from repro.fault.injector import FaultInjector
    from repro.store import CampaignStore

    model, meta = load_protected_auto(request["checkpoint"])
    injector = FaultInjector(model, fmt=checkpoint_format(meta))
    preset = get_preset(request["preset"])
    batches = _test_batches(meta, request["test_samples"], request["preset"])
    total = sum(len(targets) for _, targets in batches)
    campaign = FaultCampaign(injector, lambda: 0.0, trials=request["trials"], seed=preset.seed)
    mismatches = []
    checked = 0
    with CampaignStore.open(request["store"]) as store:
        specs = {store.config_entry(key)["spec"]: key for key in store.config_keys()}
        for rate in request["rates"]:
            fault_model = BitFlipFaultModel.at_rate(rate)
            key = specs.get(fault_model.describe())
            if key is None:
                mismatches.append(f"rate {rate}: no journaled config")
                continue
            records = store.records(key)
            if not records:
                mismatches.append(f"rate {rate}: empty journal")
                continue
            # The trial with the most flips stresses the fault path most.
            trial = max(records, key=lambda t: (records[t].flips, -t))
            record = records[trial]
            sites = injector.sample(fault_model, rng=campaign.trial_seeds(fault_model)[trial])
            checked += 1
            if [tuple(s) for s in injector.site_metadata(sites)] != [
                tuple(s) for s in record.sites
            ] or len(sites) != record.flips:
                mismatches.append(f"rate {rate} trial {trial}: sites differ from journal")
                continue
            correct = 0
            with injector.inject(sites):
                for inputs, targets in batches:
                    logits = forward_logits(model, inputs)
                    correct += int((logits.argmax(axis=1) == targets).sum())
            accuracy = correct / total
            if accuracy != record.accuracy:
                mismatches.append(
                    f"rate {rate} trial {trial}: module forward {accuracy!r} "
                    f"!= journaled {record.accuracy!r}"
                )
    return {"checked": checked, "mismatches": mismatches}


def check_logits(request: dict) -> dict:
    from repro.core.checkpoint import load_protected_auto
    from repro.eval.evaluator import forward_logits

    model, _meta = load_protected_auto(request["checkpoint"])
    mismatches = []
    for index, case in enumerate(request["cases"]):
        inputs = np.asarray(case["inputs"], dtype=np.float32)
        if inputs.ndim == 3:
            inputs = inputs[None]
        served = np.asarray(case["logits"], dtype=np.float32)
        local = forward_logits(model, inputs).astype(np.float32)
        if served.shape != local.shape or not np.array_equal(
            served.view(np.uint32), local.view(np.uint32)
        ):
            mismatches.append(f"case {index} (batch {len(inputs)}): logits differ")
    return {"checked": len(request["cases"]), "mismatches": mismatches}


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in ("campaign", "logits"):
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1], encoding="utf-8") as handle:
        request = json.load(handle)
    result = check_campaign(request) if argv[0] == "campaign" else check_logits(request)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
