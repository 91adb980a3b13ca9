"""Argument parsing and command dispatch for the ``repro`` CLI.

Every command is a plain function taking the parsed namespace and
returning a process exit code, so tests drive :func:`main` directly
with argv lists and assert on captured stdout.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

import numpy as np

from repro.errors import ReproError

__all__ = ["build_parser", "main"]


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _preset_from_args(args: argparse.Namespace):
    """Resolve the preset name plus any size overrides from the CLI."""
    from repro.eval.experiments import get_preset

    preset = get_preset(args.preset)
    overrides = {}
    if getattr(args, "train_samples", None) is not None:
        overrides["train_samples"] = args.train_samples
    if getattr(args, "test_samples", None) is not None:
        overrides["test_samples"] = args.test_samples
    if getattr(args, "epochs", None) is not None:
        overrides["train_epochs"] = args.epochs
    if getattr(args, "post_epochs", None) is not None:
        overrides["post_epochs"] = args.post_epochs
    if getattr(args, "trials", None) is not None:
        overrides["trials"] = args.trials
    if getattr(args, "image_size", None) is not None:
        overrides["image_size"] = args.image_size
    if overrides:
        preset = preset.with_overrides(**overrides)
    return preset


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_preset_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--preset",
        default="quick",
        help="experiment size preset: smoke | quick | full (default: quick)",
    )
    parser.add_argument("--train-samples", type=int, help="override training set size")
    parser.add_argument("--test-samples", type=int, help="override test set size")
    parser.add_argument("--epochs", type=int, help="override training epochs")
    parser.add_argument("--post-epochs", type=int, help="override post-training epochs")
    parser.add_argument("--trials", type=int, help="override fault-campaign trials")
    parser.add_argument("--image-size", type=int, help="override input resolution")


def _evaluator_for(dataset_name: str, preset):
    """Build the test-set evaluator the experiment contexts use."""
    from repro.data.loader import DataLoader
    from repro.data.synthetic import SYNTH_MEAN, SYNTH_STD, SyntheticImageDataset
    from repro.data.transforms import Normalize
    from repro.eval.evaluator import Evaluator
    from repro.eval.experiments.context import DATASETS
    from repro.utils.rng import derive_seed

    num_classes = DATASETS[dataset_name]
    test_set = SyntheticImageDataset(
        num_classes=num_classes,
        num_samples=preset.test_samples,
        image_size=preset.image_size,
        seed=derive_seed(preset.seed, "data", dataset_name),
        split="test",
    )
    loader = DataLoader(
        test_set,
        batch_size=max(preset.batch_size, 128),
        transform=Normalize(SYNTH_MEAN, SYNTH_STD),
    )
    return Evaluator(loader, max_batches=preset.eval_batches)


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def _cmd_list_models(args: argparse.Namespace) -> int:
    from repro.eval.reporting import format_table
    from repro.models.registry import MODEL_NAMES, PAPER_MODELS, build_model

    rows = []
    for name in sorted(MODEL_NAMES):
        model = build_model(
            name,
            num_classes=args.classes,
            scale=args.scale,
            image_size=args.image_size,
            seed=0,
        )
        tag = "paper" if name in PAPER_MODELS else "extra"
        rows.append([name, tag, f"{model.num_parameters():,}"])
    print(
        format_table(
            ["model", "origin", f"parameters (scale {args.scale:g})"],
            rows,
            title="Model zoo",
        )
    )
    return 0


def _cmd_list_experiments(args: argparse.Namespace) -> int:
    from repro.eval.experiments import EXPERIMENTS
    from repro.eval.reporting import format_table

    rows = []
    for exp_id, runner in EXPERIMENTS.items():
        doc = (runner.__doc__ or "").strip().splitlines()
        rows.append([exp_id, doc[0] if doc else ""])
    print(format_table(["id", "description"], rows, title="Experiments"))
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.core.surgery import find_activation_sites
    from repro.models.registry import build_model
    from repro.quant.model import model_memory_bytes

    model = build_model(
        args.model,
        num_classes=args.classes,
        scale=args.scale,
        image_size=args.image_size,
        seed=0,
    )
    sites = find_activation_sites(model)
    print(f"model       : {args.model} (scale {args.scale:g})")
    print(f"parameters  : {model.num_parameters():,}")
    print(f"memory      : {model_memory_bytes(model) / 1e6:.2f} MB (Q15.16)")
    print(f"ReLU sites  : {len(sites)}")
    if args.verbose:
        print(model)
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.eval.experiments import prepare_context

    preset = _preset_from_args(args)
    context = prepare_context(args.model, args.dataset, preset)
    print(
        f"trained {args.model}/{args.dataset} ({preset.name} preset): "
        f"accuracy {context.reference_accuracy:.2%} "
        f"in {context.training_seconds:.1f}s (cached runs report the "
        f"original training time)"
    )
    return 0


def _cmd_protect(args: argparse.Namespace) -> int:
    from repro.core.checkpoint import save_protected
    from repro.eval.experiments import prepare_context
    from repro.quant.formats import parse_format

    from repro.core.checkpoint import model_input_channels

    preset = _preset_from_args(args)
    fmt = parse_format(args.format)
    context = prepare_context(args.model, args.dataset, preset)
    model, info = context.protected_model(args.method, fmt=fmt)
    in_channels = model_input_channels(model)
    meta = {
        "model": args.model,
        "dataset": args.dataset,
        "method": args.method,
        "num_classes": context.num_classes,
        "scale": preset.scale_for(args.model),
        "image_size": preset.image_size,
        "in_channels": in_channels,
        "seed": preset.seed,
        "clean_accuracy": info["clean_accuracy"],
        "format": str(fmt),
    }
    written = save_protected(args.out, model, meta=meta)
    print(
        f"protected {args.model}/{args.dataset} with {args.method}: "
        f"clean accuracy {info['clean_accuracy']:.2%} -> {written}"
    )
    return 0


def _checkpoint_format(meta: dict[str, object]):
    """Manifest quantisation format, warning on stderr when absent."""
    from repro.core.checkpoint import checkpoint_format

    return checkpoint_format(
        meta, warn=lambda message: print(f"warning: {message}", file=sys.stderr)
    )


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.core.checkpoint import load_protected_auto

    preset = _preset_from_args(args)
    model, meta = load_protected_auto(args.checkpoint)
    preset = preset.with_overrides(image_size=int(meta["image_size"]))
    evaluator = _evaluator_for(str(meta["dataset"]), preset)
    clean = evaluator.accuracy(model)
    print(
        f"checkpoint {args.checkpoint}: {meta['model']}/{meta['dataset']} "
        f"({meta['method']})"
    )
    print(f"clean accuracy: {clean:.2%}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.serve import (
        AsyncReproServer,
        ChaosConfig,
        ModelRegistry,
        ServeApp,
        ServeConfig,
    )

    registry = ModelRegistry(capacity=args.registry_capacity)
    for spec in args.checkpoint:
        if "=" in spec:
            name, path = spec.split("=", 1)
        else:
            import os

            name = os.path.splitext(os.path.basename(spec))[0]
            path = spec
        registry.register(name, path)

    chaos = None
    if args.chaos_ber is not None:
        chaos = ChaosConfig(ber=args.chaos_ber, seed=args.chaos_seed)
    app = ServeApp(
        registry,
        ServeConfig(
            max_batch=args.max_batch,
            max_latency_ms=args.max_latency_ms,
            chaos=chaos,
            max_pending=args.max_pending,
            model_pending=args.model_pending,
            slo_p99_ms=args.slo_p99_ms,
            drain_timeout_s=args.drain_timeout_s,
        ),
    )
    preload_note = ""
    if args.preload:
        warmed = app.preload()
        rotated = len(app.health()["preload_rotated"])
        preload_note = f", preloaded {len(warmed)} model{'s' if len(warmed) != 1 else ''}"
        if rotated:
            preload_note += f" ({rotated} rotated beyond capacity)"
    server = AsyncReproServer(app, host=args.host, port=args.port)
    server.start()
    chaos_note = f", chaos ber {chaos.ber:g}" if chaos else ""
    slo_note = (
        f", SLO p99 {args.slo_p99_ms:g}ms" if args.slo_p99_ms is not None else ""
    )
    print(
        f"serving {', '.join(registry.names())} on {server.url} "
        f"(max batch {args.max_batch}, max latency {args.max_latency_ms:g}ms"
        f"{chaos_note}{slo_note}"
        f"{preload_note})",
        flush=True,
    )

    stop = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: stop.set())
    stop.wait()
    # SIGTERM drain: stop accepting, finish in-flight batches across
    # every lane, then exit.
    print("shutting down...", flush=True)
    server.stop()
    print("shutdown complete", flush=True)
    return 0


# ----------------------------------------------------------------------
# Campaign commands (durable stores: run / report / watch)
# ----------------------------------------------------------------------
#: The run recipe a store's meta records.  A rerun or a joining worker
#: is checked against it: evaluator sizes shape the accuracy stream too.
_RECIPE_FIELDS = ("checkpoint", "rates", "preset", "trials", "seed", "test_samples")


def _worker_options(args: argparse.Namespace) -> dict[str, object]:
    """The :class:`~repro.coord.CampaignWorker` knobs the flags set,
    checked before any side effect."""
    from repro.coord import DEFAULT_CHUNK, DEFAULT_EXPIRY_S
    from repro.coord.worker import check_worker_options
    from repro.errors import ConfigurationError

    if args.limit is not None and args.limit < 1:
        raise ConfigurationError(f"--limit must be >= 1, got {args.limit}")
    chunk = args.chunk if args.chunk is not None else DEFAULT_CHUNK
    expiry_s = args.expiry if args.expiry is not None else DEFAULT_EXPIRY_S
    check_worker_options(chunk, expiry_s, args.poll)
    return {
        "worker_id": args.worker_id,
        "chunk": chunk,
        "expiry_s": expiry_s,
        "poll_s": args.poll,
        "max_trials": args.limit,
    }


def _campaign_for_meta(run_meta: dict[str, object]):
    """Rebuild the (campaign, evaluator) pair a store's meta describes.

    The deterministic reconstruction every ``campaign run`` on a store
    repeats: checkpoint → model (``load_protected_auto``),
    preset sizes → evaluator test set, manifest format → injector.
    Stores from older builds may also record ``replicas`` (a retired
    lane-group width), ``workers`` (a retired process-pool knob) or
    ``runtime``; all three are ignored.
    """
    from repro.core.checkpoint import load_protected_auto
    from repro.eval.experiments import get_preset
    from repro.fault.campaign import FaultCampaign
    from repro.fault.injector import FaultInjector

    model, meta = load_protected_auto(str(run_meta["checkpoint"]))
    preset = get_preset(str(run_meta["preset"])).with_overrides(
        trials=int(run_meta["trials"]),
        test_samples=int(run_meta["test_samples"]),
        image_size=int(meta["image_size"]),
    )
    evaluator = _evaluator_for(str(meta["dataset"]), preset)
    injector = FaultInjector(model, fmt=_checkpoint_format(meta))
    campaign = FaultCampaign(
        injector,
        evaluator.bind(model),
        trials=preset.trials,
        seed=int(run_meta["seed"]),
    )
    return campaign, evaluator, model, meta


def _drain(campaign, store_path: str, fault_models, options: dict[str, object]):
    """Drain the store as one lease-holding worker; returns its report."""
    import signal

    from repro.coord import CampaignWorker

    worker = CampaignWorker(campaign, store_path, fault_models, **options)
    print(
        f"worker {worker.worker_id} joining {store_path} "
        f"(chunk {worker.chunk}, lease expiry {worker.expiry_s:g}s)",
        flush=True,
    )
    # SIGTERM drains gracefully: finish the in-flight trial, hand the
    # rest of the range back, release the lease.  (SIGKILL is the crash
    # path the lease protocol itself covers.)
    previous = signal.signal(
        signal.SIGTERM, lambda signum, frame: worker.request_stop()
    )
    try:
        return worker.run()
    finally:
        signal.signal(signal.SIGTERM, previous)


def _require_run_recipe(store_path: str, run_meta: dict[str, object]) -> None:
    """Fail with a pointer when a store lacks the CLI's run recipe."""
    from repro.errors import ConfigurationError

    missing = [field for field in _RECIPE_FIELDS if field not in run_meta]
    if missing:
        raise ConfigurationError(
            f"store {store_path!r} records no run recipe (meta is missing "
            f"{', '.join(missing)}); it was not created by 'repro campaign "
            "run' — drive it through the library instead"
        )


def _flagged_run_meta(args: argparse.Namespace) -> dict[str, object]:
    """The run-recipe fields the command line sets.

    A ``--preset`` stands for its whole recipe (seed and sizes, with any
    ``--trials``/``--test-samples`` override).  Without one — a rerun on
    an existing store — just the flags given are included, and the rest
    are read back from the store.
    """
    flagged: dict[str, object] = {}
    if args.checkpoint is not None:
        flagged["checkpoint"] = args.checkpoint
    if args.rates is not None:
        flagged["rates"] = [float(rate) for rate in args.rates]
    if args.preset is not None:
        preset = _preset_from_args(args)
        flagged.update(
            preset=args.preset,
            trials=preset.trials,
            seed=preset.seed,
            test_samples=preset.test_samples,
        )
    else:
        if args.trials is not None:
            flagged["trials"] = args.trials
        if args.test_samples is not None:
            flagged["test_samples"] = args.test_samples
    return flagged


def _open_store(store_path: str, requested: dict[str, object]):
    """Open an existing store whose recorded recipe matches a request.

    Re-running against an existing store is a resume (and joining one as
    a coordinated worker is an admission): every recipe field the
    request names must equal the store's, or the journal would silently
    mix trials from two different campaigns.  Returns ``(store,
    run_meta)``: the open store and its meta, which keeps the recorded
    clean_accuracy baseline.
    """
    from repro.errors import ConfigurationError
    from repro.store import CampaignStore

    store = CampaignStore.open(store_path)
    stored = store.meta
    try:
        _require_run_recipe(store.path, stored)
        mismatched = [
            field
            for field in _RECIPE_FIELDS
            if field in requested and requested[field] != stored.get(field)
        ]
        if mismatched:
            raise ConfigurationError(
                f"store {store.path!r} was created with different settings "
                f"(mismatched: {', '.join(mismatched)}); resume it with "
                f"'repro campaign run --store {store.path}' alone, pass "
                "matching arguments, or pick a fresh --store"
            )
    except ConfigurationError:
        store.close()
        raise
    return store, dict(stored)


def _create_or_join_store(store_path: str, requested: dict[str, object]):
    """Open the store a request names, creating it if none exists yet.

    A new store records the clean accuracy every report measures SDC
    against and is created with the whole sweep registered, in one
    exclusive write (:meth:`CampaignStore.create`).  An existing store,
    or one a racing peer created first, is joined: its recorded recipe
    must match the request (:func:`_open_store`), and its baseline is
    read back instead of re-measured.  Returns ``(campaign, store,
    created)``, the store open and verified against the campaign.
    """
    from repro.fault.fault_model import BitFlipFaultModel
    from repro.store import CampaignStore, StoreError

    campaign = None
    if not CampaignStore.exists(store_path):
        campaign, evaluator, model, checkpoint_meta = _campaign_for_meta(requested)
        run_meta = dict(requested)
        for field in ("model", "dataset", "method"):
            if field in checkpoint_meta:
                run_meta[field] = checkpoint_meta[field]
        run_meta["clean_accuracy"] = evaluator.accuracy(model)
        try:
            store = CampaignStore.create(
                store_path,
                CampaignStore.campaign_identity(campaign),
                meta=run_meta,
                configs=[
                    BitFlipFaultModel.at_rate(float(rate))
                    for rate in run_meta["rates"]
                ],
            )
        except StoreError:
            pass  # a peer created it first: join below
        else:
            return campaign, store, True
    store, run_meta = _open_store(store_path, requested)
    try:
        if campaign is None:
            campaign = _campaign_for_meta(run_meta)[0]
        store.attach(campaign)  # identity check, no second journal parse
    except BaseException:
        store.close()
        raise
    return campaign, store, False


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    """Create-or-join a store, then drain it as one coordinated worker.

    The first run on a store creates it with the full sweep registered
    (the manifest is written exactly once); a rerun resumes, and runs
    started together split the remaining trial ranges between them.
    """
    from repro.errors import ConfigurationError
    from repro.fault.fault_model import BitFlipFaultModel
    from repro.store import CampaignStore, config_key

    options = _worker_options(args)
    if not CampaignStore.exists(args.store):
        if args.checkpoint is None or args.rates is None:
            raise ConfigurationError(
                f"{args.store!r} holds no campaign store yet; creating one "
                "needs --checkpoint and --rates"
            )
        if args.preset is None:
            args.preset = "quick"
    campaign, store, created = _create_or_join_store(
        args.store, _flagged_run_meta(args)
    )
    with store:
        status = store.status()
        meta = store.meta
    if created:
        print(
            f"created campaign store {store.path} "
            f"({len(meta['rates'])} configs x {store.trials} trials)"
        )
    else:
        print(
            f"resuming {store.path}: {status['journaled']}/"
            f"{status['expected']} trials journaled"
        )
    print(
        f"campaign store {store.path}: "
        f"{meta.get('checkpoint')} ({store.trials} trials/config, "
        f"seed {store.seed}, clean {float(meta['clean_accuracy']):.2%})",
        flush=True,
    )
    rates = [float(rate) for rate in meta["rates"]]
    fault_models = [BitFlipFaultModel.at_rate(rate) for rate in rates]
    report = _drain(campaign, args.store, fault_models, options)
    summary = (
        f"worker {report['worker']}: {report['trials']} trials across "
        f"{report['claims']} claims, {report['steals']} steals"
    )
    with CampaignStore.open(args.store) as store:
        if not report["complete"]:
            status = store.status()
            print(
                f"interrupted after {report['trials']} new trials "
                f"({status['journaled']}/{status['expected']} journaled); "
                f"{summary}"
            )
            print(f"resume with: repro campaign run --store {store.path}")
            return 0
        for rate, fault_model in zip(rates, fault_models):
            result = store.result(config_key("", fault_model.describe()))
            print(
                f"rate {rate:.1e}: mean {result.mean:.2%}  median "
                f"{result.median:.2%}  min {result.min:.2%}  "
                f"({result.trials} trials, mean "
                f"{result.flip_counts.mean():.1f} flips)"
            )
    print(summary)
    print(f"store complete: {store.path} ({report['trials']} new trials journaled)")
    return 0


def _cmd_campaign_report(args: argparse.Namespace) -> int:
    import os

    from repro.errors import ConfigurationError
    from repro.eval.reporting import format_atlas, format_markdown_table
    from repro.fault.statistics import sdc_probability
    from repro.store import CampaignStore, build_atlas
    from repro.store.encoding import exact_json_dump

    with CampaignStore.open(args.store) as store:
        meta = store.meta
        baseline = args.baseline
        if baseline is None:
            baseline = meta.get("clean_accuracy")
        if baseline is None:
            raise ConfigurationError(
                "store meta records no clean_accuracy; pass --baseline"
            )
        baseline = float(baseline)
        title_bits = [
            str(meta.get(field))
            for field in ("model", "method")
            if meta.get(field) is not None
        ]
        lines = [
            "# Campaign report"
            + (f": {' / '.join(title_bits)}" if title_bits else ""),
            "",
            f"- checkpoint: `{meta.get('checkpoint', 'n/a')}`",
            f"- trials per config: {store.trials} (seed {store.seed})",
            f"- baseline accuracy: {baseline:.2%}"
            f" (SDC tolerance {float(args.tolerance):.2%})",
        ]
        lines.extend(["", "## Results", ""])
        rows = []
        incomplete = []
        for key in store.config_keys():
            entry = store.config_entry(key)
            label = (
                f"{entry['tag']}: {entry['spec']}"
                if entry["tag"]
                else str(entry["spec"])
            )
            if not store.complete(key):
                incomplete.append(
                    f"{label} ({len(store.missing_indices(key))} trials missing)"
                )
                continue
            result = store.result(key)
            rows.append(
                [
                    label,
                    result.trials,
                    f"{result.mean:.2%}",
                    f"{result.median:.2%}",
                    f"{result.min:.2%}",
                    f"{sdc_probability(result, baseline, args.tolerance):.1%}",
                ]
            )
        if rows:
            lines.append(
                format_markdown_table(
                    ["config", "trials", "mean", "median", "min", "SDC rate"],
                    rows,
                )
            )
        else:
            lines.append("(no complete configurations yet)")
        if incomplete:
            lines.append("")
            lines.append("Incomplete: " + "; ".join(incomplete))
        atlas = build_atlas(store, baseline=baseline, tolerance=args.tolerance)
        text = "\n".join(lines) + "\n\n" + format_atlas(atlas) + "\n"
        out_dir = args.out or store.path

    os.makedirs(out_dir, exist_ok=True)
    report_path = os.path.join(out_dir, "report.md")
    atlas_path = os.path.join(out_dir, "atlas.json")
    with open(report_path, "w", encoding="utf-8") as handle:
        handle.write(text)
    with open(atlas_path, "w", encoding="utf-8") as handle:
        exact_json_dump(atlas, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(text)
    print(f"wrote {report_path} and {atlas_path}")
    return 0


def _cmd_campaign_watch(args: argparse.Namespace) -> int:
    """Live control-plane view: convergence, worker liveness, claims.

    One store stays open for the whole watch; each poll (the terminal
    loop's and the ``--http`` endpoint's alike) refreshes it.
    """
    import math
    import time

    from repro.coord import WatchApp, render_watch
    from repro.coord.watch import RateMeter
    from repro.errors import ConfigurationError
    from repro.store.encoding import exact_json_dumps

    if not (math.isfinite(args.interval) and args.interval > 0):
        raise ConfigurationError(
            f"--interval must be finite and > 0, got {args.interval}"
        )
    app = WatchApp(args.store)
    server = None
    meter = RateMeter()
    try:
        if args.http is not None:
            from repro.serve.aio import AsyncReproServer

            server = AsyncReproServer(app, host=args.host, port=args.http)
            server.start()
            print(f"watch endpoint: {server.url}/v1/campaign", flush=True)
        while True:
            status = app.campaign_status()
            rate = meter.update(int(status["journaled"]))
            if args.format == "json":
                print(exact_json_dumps(status, sort_keys=True), flush=True)
            else:
                print(render_watch(status, rate), flush=True)
            if args.once:
                return 0
            if status["complete"]:
                print(f"complete: {status['path']}", flush=True)
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 130  # the shell's status for SIGINT, without a traceback
    finally:
        if server is not None:
            server.stop()
        app.close()


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.core.checkpoint import load_protected_auto
    from repro.runtime.plan import compile_model

    model, meta = load_protected_auto(args.checkpoint)
    image_size = int(meta["image_size"])
    in_channels = int(meta.get("in_channels", 3))
    shape = (args.batch, in_channels, image_size, image_size)
    plan = compile_model(model, shape)
    if args.replicas:
        return _profile_replicas(args, plan, model, meta, shape)
    profile = plan.profile(repeats=args.repeats, warmup=args.warmup)
    print(
        f"profile {args.checkpoint}: {meta['model']}/{meta['dataset']} "
        f"({meta['method']}), input {shape}, "
        f"{args.repeats} forwards after {args.warmup} warmup"
    )
    print(profile.table())
    print(_plan_memory_line(plan))
    if args.trace_out:
        count = profile.write_chrome_trace(args.trace_out)
        print(
            f"wrote {count} trace events to {args.trace_out} "
            "(open at https://ui.perfetto.dev)"
        )
    return 0


def _plan_memory_line(plan) -> str:
    """One line of the plan's buffer footprint, after the kernel table."""
    memory = plan.memory()
    scratch, kernels = memory["scratch"], memory["kernels"]

    def size(nbytes: int) -> str:
        if nbytes < 2**20:
            return f"{nbytes / 2**10:.1f} KB"
        return f"{nbytes / 2**20:.1f} MB"

    names = ", ".join(f"{name} {size(nbytes)}" for name, nbytes in sorted(scratch.items()))
    return (
        f"memory: scratch arena {size(sum(scratch.values()))} ({names}); "
        f"per-kernel out {size(kernels.get('out', 0))}, "
        f"padded {size(kernels.get('padded', 0))}"
    )


def _profile_replicas(args, plan, model, meta: dict, shape) -> int:
    """Split a replica group's shared clean pass from its per-lane suffixes.

    Samples one single-flip fault per lane (the replica-batched
    campaign's dominant regime), runs one prepared clean forward plus a
    lane suffix per fault, and prints both per-kernel tables — the
    shared GEMM work every lane amortises versus the per-lane fault-step
    cost that scales with the group width.
    """
    from repro.fault.fault_model import BitFlipFaultModel
    from repro.fault.injector import FaultInjector

    injector = FaultInjector(model, fmt=_checkpoint_format(meta))
    fault_model = BitFlipFaultModel(n_flips=1)
    site_sets = [
        injector.sample(fault_model, rng=lane) for lane in range(args.replicas)
    ]
    replica = plan.replicate()
    shared, lanes = replica.profile_lanes(injector, site_sets)
    # Profile rows are per-forward means: the shared table is the one
    # clean pass, the lanes table the mean suffix re-run per lane.
    amortised_ms = shared.total_ms / args.replicas + lanes.total_ms
    print(
        f"replica profile {args.checkpoint}: {meta['model']}/{meta['dataset']} "
        f"({meta['method']}), input {shape}, {args.replicas} lanes "
        "(1 flip/lane)"
    )
    print()
    print(
        f"shared clean pass ({shared.total_ms:.3f} ms, amortised over "
        f"{args.replicas} lanes):"
    )
    print(shared.table())
    print()
    print(f"lane suffixes (mean {lanes.total_ms:.3f} ms/lane):")
    print(lanes.table())
    print()
    full = plan.profile(repeats=1, warmup=1)
    if full.total_ms > 0 and amortised_ms > 0:
        print(
            f"per-trial forward {full.total_ms:.3f} ms vs "
            f"{amortised_ms:.3f} ms/lane replica-batched "
            f"({full.total_ms / amortised_ms:.2f}x)"
        )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import all_rules, lint_paths, render_json, render_text
    from repro.analysis.baseline import Baseline

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id}  {rule.summary}")
        return 0

    baseline_path = None if args.no_baseline else args.baseline
    result = lint_paths(args.paths, baseline=baseline_path)

    if args.update_baseline:
        if result.errors:
            for error in result.errors:
                print(f"{error.location}: error: {error.message}", file=sys.stderr)
            print("refusing to update the baseline with unparsable files", file=sys.stderr)
            return 2
        # Carry existing justification notes forward by (rule, path).
        previous = Baseline.load(args.baseline)
        notes = {
            (entry.rule, entry.path): entry.note
            for entry in previous.entries
            if entry.note
        }
        count = Baseline.write(args.baseline, result.unfiltered, notes=notes)
        print(f"wrote {count} baseline entries to {args.baseline}")
        return 0

    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result))
    return result.exit_code()


def _cmd_experiment(args: argparse.Namespace) -> int:
    import inspect

    from repro.eval.experiments import EXPERIMENTS

    if args.id not in EXPERIMENTS:
        print(
            f"unknown experiment {args.id!r}; run 'repro list-experiments'",
            file=sys.stderr,
        )
        return 2
    runner = EXPERIMENTS[args.id]
    preset = _preset_from_args(args)  # validates the preset name either way
    kwargs = {}
    if "preset" in inspect.signature(runner).parameters:
        kwargs["preset"] = preset
    result = runner(**kwargs)
    print(result.to_text())
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "FitAct reproduction: error-resilient DNNs via fine-grained "
            "post-trainable activation functions (DATE 2022)."
        ),
    )
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning"),
        default=None,
        help=(
            "library-wide log verbosity (debug also prints every closed "
            "tracing span); place before the subcommand"
        ),
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help=(
            "enable span tracing for this invocation and write the "
            "Chrome-trace/Perfetto JSON to PATH on exit; place before "
            "the subcommand"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list-models", help="model zoo with parameter counts")
    p.add_argument("--scale", type=float, default=0.125, help="width multiplier")
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--image-size", type=int, default=32)
    p.set_defaults(func=_cmd_list_models)

    p = sub.add_parser("list-experiments", help="experiment registry by id")
    p.set_defaults(func=_cmd_list_experiments)

    p = sub.add_parser("info", help="one model's structure and memory")
    p.add_argument("--model", required=True)
    p.add_argument("--scale", type=float, default=0.125)
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--image-size", type=int, default=32)
    p.add_argument("--verbose", action="store_true", help="print the module tree")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("train", help="train (or load cached) base weights")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", default="synth10", help="synth10 | synth100")
    _add_preset_arguments(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("protect", help="protect a trained model, save checkpoint")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", default="synth10")
    p.add_argument(
        "--method",
        default="fitact",
        help="fitact | fitact-naive | clipact | ranger | tanh | none",
    )
    p.add_argument("--out", required=True, help="checkpoint path (.npz)")
    p.add_argument(
        "--format",
        default="Q15.16",
        help=(
            "fixed-point quantisation format, e.g. Q15.16 or Q7.8; "
            "recorded in the checkpoint manifest so campaigns inject "
            "faults into the matching bit-space (default: Q15.16)"
        ),
    )
    _add_preset_arguments(p)
    p.set_defaults(func=_cmd_protect)

    p = sub.add_parser("evaluate", help="clean accuracy of a protected checkpoint")
    p.add_argument("--checkpoint", required=True)
    # Only the test set is drawn here: the image size comes from the
    # checkpoint, and nothing trains or injects faults.
    p.add_argument(
        "--preset",
        default="quick",
        help="experiment size preset: smoke | quick | full (default: quick)",
    )
    p.add_argument("--test-samples", type=int, help="override test set size")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser(
        "serve", help="serve protected checkpoints over HTTP (batched)"
    )
    p.add_argument(
        "--checkpoint",
        required=True,
        action="append",
        metavar="[NAME=]PATH",
        help=(
            "protected checkpoint to serve; repeat for multiple models "
            "(name defaults to the file stem)"
        ),
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port",
        type=_nonnegative_int,
        default=8080,
        help="listening port (0 = ephemeral; the resolved port is printed)",
    )
    p.add_argument(
        "--max-batch",
        type=int,
        default=32,
        help="samples per coalesced forward pass (default: 32)",
    )
    p.add_argument(
        "--max-latency-ms",
        type=float,
        default=5.0,
        help="how long an open batch waits for more requests (default: 5)",
    )
    p.add_argument(
        "--registry-capacity",
        type=int,
        default=4,
        help="models resident at once before LRU eviction (default: 4)",
    )
    p.add_argument(
        "--chaos-ber",
        type=float,
        default=None,
        help=(
            "enable chaos mode: per-bit fault rate injected into the live "
            "model around every batch (e.g. 1e-5); SDC counters appear "
            "in /v1/metrics"
        ),
    )
    p.add_argument(
        "--chaos-seed",
        type=int,
        default=0,
        help="base seed for the deterministic chaos fault stream",
    )
    p.add_argument(
        "--preload",
        action="store_true",
        help=(
            "load checkpoints, compile runtime plans, and build serving "
            "lanes at startup (up to the registry capacity) instead of "
            "inside the first request; reported in /v1/healthz"
        ),
    )
    p.add_argument(
        "--max-pending",
        type=int,
        default=256,
        help=(
            "requests allowed pending server-wide before admission sheds "
            "with HTTP 429 + Retry-After (default: 256)"
        ),
    )
    p.add_argument(
        "--model-pending",
        type=int,
        default=None,
        metavar="N",
        help=(
            "per-model pending bound (<= --max-pending) so one hot model "
            "cannot starve the rest of the queue (default: global only)"
        ),
    )
    p.add_argument(
        "--slo-p99-ms",
        type=float,
        default=None,
        metavar="MS",
        help=(
            "arm the latency SLO tracker with this p99 target; /v1/healthz "
            "reports p50/p99 and the 1%%-error-budget burn rate"
        ),
    )
    p.add_argument(
        "--drain-timeout-s",
        type=float,
        default=10.0,
        help=(
            "seconds SIGTERM shutdown waits for in-flight requests and "
            "batches to drain (default: 10)"
        ),
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "campaign",
        help="durable fault-injection campaigns backed by an on-disk store",
    )
    campaign_sub = p.add_subparsers(dest="campaign_command", required=True)

    c = campaign_sub.add_parser(
        "run",
        help=(
            "run a fault-rate sweep, journaling every trial to a store "
            "(pointing at an existing store resumes it; concurrent runs "
            "share the work)"
        ),
        description=(
            "Drain a fault-rate sweep's store as one lease-holding "
            "worker (lease + work-stealing trial ranges; the first run "
            "creates the store and registers the sweep).  On an existing "
            "store this resumes: the recipe is read from the store, so "
            "--checkpoint and --rates may be omitted; recipe flags that "
            "are passed must match it, and --limit only changes how much "
            "of it this invocation runs.  Runs started together on one "
            "store split the remaining trials between them."
        ),
    )
    c.add_argument(
        "--checkpoint",
        default=None,
        help="protected checkpoint (.npz); required to create a store",
    )
    c.add_argument(
        "--store",
        required=True,
        help="campaign store directory (created if absent, else resumed or joined)",
    )
    c.add_argument(
        "--rates",
        type=float,
        nargs="+",
        default=None,
        help=(
            "fault rates of the sweep (e.g. 1e-6 3e-6 1e-5); required to "
            "create a store"
        ),
    )
    c.add_argument(
        "--worker-id",
        default=None,
        help=(
            "unique worker id — names the lease and this worker's journal "
            "segment (default: per-process unique; multi-host fleets "
            "should pass hostname-derived ids)"
        ),
    )
    c.add_argument(
        "--chunk",
        type=int,
        default=None,
        metavar="N",
        help=(
            "trials per claimed range (default: 8) — smaller chunks "
            "rebalance stragglers faster, larger ones amortise claim I/O"
        ),
    )
    c.add_argument(
        "--expiry",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "lease expiry (default: 30) — peers may steal this worker's "
            "ranges after this long without a heartbeat"
        ),
    )
    c.add_argument(
        "--poll",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help=(
            "idle wait between store refreshes while peers hold all "
            "remaining work"
        ),
    )
    c.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help=(
            "journal at most N new trials this invocation, then stop "
            "cleanly (time-boxed incremental runs; rerun to continue)"
        ),
    )
    _add_preset_arguments(c)
    # No preset default: a fresh store gets "quick", an existing one
    # keeps the preset it recorded.
    c.set_defaults(func=_cmd_campaign_run, preset=None)

    c = campaign_sub.add_parser(
        "report",
        help=(
            "render results + the layer/bit vulnerability atlas "
            "(report.md + atlas.json)"
        ),
    )
    c.add_argument("--store", required=True)
    c.add_argument(
        "--tolerance",
        type=float,
        default=0.01,
        help="SDC accuracy-drop tolerance (default: 0.01)",
    )
    c.add_argument(
        "--baseline",
        type=float,
        default=None,
        help="fault-free baseline accuracy (default: the store's recorded one)",
    )
    c.add_argument(
        "--out",
        default=None,
        help="artifact directory (default: the store itself)",
    )
    c.set_defaults(func=_cmd_campaign_report)

    c = campaign_sub.add_parser(
        "watch",
        help=(
            "progress of a store: trials, convergence, per-worker "
            "liveness, in-flight claims, steal counts (--once: one "
            "snapshot)"
        ),
    )
    c.add_argument("--store", required=True)
    c.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="table (human) or json (one exact-float payload per poll)",
    )
    c.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="polling interval (default: 2)",
    )
    c.add_argument(
        "--once",
        action="store_true",
        help="print one snapshot and exit (1 if the store does not exist)",
    )
    c.add_argument(
        "--http",
        type=int,
        default=None,
        metavar="PORT",
        help=(
            "also serve the status over HTTP (GET /v1/campaign, plus "
            "/v1/metrics and /v1/healthz) on this port; 0 = ephemeral"
        ),
    )
    c.add_argument("--host", default="127.0.0.1", help="HTTP bind address")
    c.set_defaults(func=_cmd_campaign_watch)

    p = sub.add_parser(
        "profile",
        help="per-kernel gather/GEMM/epilogue timing of a compiled plan",
        description=(
            "Compile the checkpoint into the inference runtime, run a few "
            "profiled forwards (under warmup mode — side-band by "
            "construction), and print the per-layer timing table.  "
            "--trace writes the raw step/phase intervals as Chrome-trace "
            "JSON for https://ui.perfetto.dev."
        ),
    )
    p.add_argument("checkpoint", help="protected checkpoint (.npz)")
    p.add_argument(
        "--batch", type=int, default=1, help="input batch size (default: 1)"
    )
    p.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="profiled forwards to average over (default: 3)",
    )
    p.add_argument(
        "--warmup",
        type=_nonnegative_int,
        default=1,
        help="untimed warmup forwards (default: 1)",
    )
    p.add_argument(
        "--trace",
        dest="trace_out",
        metavar="PATH",
        default=None,
        help="write the per-kernel Chrome-trace JSON to PATH",
    )
    p.add_argument(
        "--replicas",
        type=int,
        default=None,
        metavar="N",
        help=(
            "profile an N-lane replica group instead: per-kernel tables "
            "for the shared clean pass and the per-lane fault suffixes"
        ),
    )
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("experiment", help="regenerate a paper artefact by id")
    p.add_argument("--id", required=True, help="see 'repro list-experiments'")
    _add_preset_arguments(p)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser(
        "lint",
        help="check the repo's correctness invariants (rules RPL001-RPL010, "
        "RPL007 retired)",
        description=(
            "AST-based invariant linter: plan-invalidation, thread-safe "
            "eval mode, bit-exact GEMM routing, journal determinism, "
            "exact-float JSON, import layering, fault "
            "restoration, funneled timing, replica-lane GEMM shapes.  "
            "Exit codes: 0 clean, 1 "
            "findings, 2 unparsable files or bad usage.  See "
            "docs/INVARIANTS.md."
        ),
    )
    p.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    p.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (text: clickable path:line:col; json: CI artifact)",
    )
    p.add_argument(
        "--baseline",
        default="lint-baseline.json",
        help="grandfathered-findings file (default: lint-baseline.json)",
    )
    p.add_argument(
        "--no-baseline",
        action="store_true",
        help="report baselined findings too",
    )
    p.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline to cover every current finding",
    )
    p.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule ids and summaries, then exit",
    )
    p.set_defaults(func=_cmd_lint)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    np.seterr(over="ignore")  # faulty Q15.16 extremes overflow exp() benignly
    if args.log_level is not None:
        from repro.utils.logging import set_verbosity

        set_verbosity(args.log_level.upper())
    if args.trace is not None:
        from repro.obs.trace import configure_tracing

        configure_tracing(True)
    try:
        return int(args.func(args))
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        if args.trace is not None:
            from repro.obs.trace import export_chrome_trace, reset_tracing

            count = export_chrome_trace(args.trace)
            reset_tracing()  # embedded callers (tests) get a clean tracer
            print(
                f"wrote {count} trace events to {args.trace}", file=sys.stderr
            )
