"""Run one ``repro`` CLI command with the benchmark's spans around each layer.

Usage (from the checkout root, with ``PYTHONPATH=src``)::

    python perfbench/traced_cli.py SPANS.json -- <repro arguments...>

Public functions of each layer are wrapped before the command starts;
nothing under ``src/`` is edited.  When the command returns, the spans,
counters and kernel-profiler totals are written to ``SPANS.json``.  When
the command itself enabled the program's tracer (``repro --trace``),
its ``serve.*`` spans are merged in as well.
"""

from __future__ import annotations

import importlib
import json
import sys

from tracer import ROOT, Tracer


def _rebind(module_name: str, attr: str, wrapped) -> None:
    """Point every loaded ``repro`` module's reference at ``wrapped``."""
    original = getattr(importlib.import_module(module_name), attr)
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "") or ""
        if name.startswith("repro") and getattr(module, attr, None) is original:
            setattr(module, attr, wrapped)


def _wrap_method(tracer, cls, attr, name, missing, **hooks) -> None:
    function = getattr(cls, attr, None)
    if function is None:
        missing.append(f"{cls.__name__}.{attr}")
        return
    setattr(cls, attr, tracer.wrap(function, name, **hooks))


def _wrap_function(tracer, module_name, attr, name, missing, **hooks) -> None:
    function = getattr(importlib.import_module(module_name), attr, None)
    if function is None:
        missing.append(f"{module_name}.{attr}")
        return
    _rebind(module_name, attr, tracer.wrap(function, name, **hooks))


def install(tracer: Tracer) -> dict[str, object]:
    """Wrap every traced entry point; returns the state :func:`main` writes out."""
    from repro.autograd.tensor import Tensor
    from repro.core.post_training import BoundPostTrainer
    from repro.eval.evaluator import Evaluator
    from repro.fault.injector import FaultInjector
    from repro.obs.profile import KernelProfiler
    from repro.optim.adam import Adam
    from repro.runtime.kernels import ConvKernel
    from repro.runtime.plan import InferencePlan
    from repro.runtime.replica import ReplicaPlan
    from repro.store.store import CampaignStore

    import repro.obs.trace as program_trace
    import repro.cli.main  # noqa: F401  (load every module that re-exports)
    import repro.core.checkpoint  # noqa: F401
    import repro.core.protection  # noqa: F401
    import repro.eval.experiments  # noqa: F401
    import repro.runtime  # noqa: F401

    missing: list[str] = []
    counters = tracer.counters
    samples = tracer.samples
    profilers: list[KernelProfiler] = []

    def count_flips(result, _args, _kwargs) -> None:
        counters["fault.trials"] += 1
        counters["fault.flips"] += len(result)

    _wrap_method(tracer, FaultInjector, "sample", "fault.sample", missing, after=count_flips)
    _wrap_method(tracer, FaultInjector, "apply", "fault.apply", missing)
    _wrap_method(tracer, FaultInjector, "restore", "fault.restore", missing)

    def attach_profiler(plan, _args, _kwargs) -> None:
        inner = getattr(plan, "plan", plan)  # a ReplicaPlan wraps its plan
        profilers.append(inner.attach_profiler(KernelProfiler()))

    _wrap_function(
        tracer, "repro.runtime.plan", "compile_model", "runtime.compile", missing,
        after=attach_profiler,
    )
    _wrap_method(tracer, InferencePlan, "refresh", "runtime.refresh", missing)
    _wrap_method(tracer, InferencePlan, "forward_from", "runtime.forward", missing)

    def lane_start(args, kwargs) -> None:
        replica, params = args[0], (args[3] if len(args) > 3 else kwargs.get("params"))
        steps = len(replica.plan.steps)
        if steps:
            samples["replica.lane_start_frac"].append(replica.lane_start(params) / steps)

    def count_fallback(result, _args, _kwargs) -> None:
        counters["replica.fallback_groups"] += 0 if result else 1

    _wrap_method(tracer, ReplicaPlan, "prepare", "replica.prepare", missing)
    _wrap_method(
        tracer, ReplicaPlan, "lane_forward", "replica.lane_forward", missing,
        before=lane_start,
    )
    _wrap_method(
        tracer, ReplicaPlan, "replay_safe", "replica.replay_safe", missing,
        after=count_fallback,
    )

    def count_lanes(args, kwargs) -> None:
        site_sets = list(args[3] if len(args) > 3 else kwargs.get("site_sets", ()))
        counters["eval.groups"] += 1
        counters["eval.lanes"] += len(site_sets)
        counters["eval.zero_flip_lanes"] += sum(1 for s in site_sets if len(s) == 0)

    _wrap_method(tracer, Evaluator, "lane_accuracies", "eval.lanes", missing, before=count_lanes)
    _wrap_method(tracer, Evaluator, "accuracy", "eval.accuracy", missing)
    _wrap_function(
        tracer, "repro.eval.experiments.context", "prepare_context",
        "eval.context_load", missing,
    )
    _wrap_method(tracer, CampaignStore, "record", "store.record", missing)

    _wrap_function(tracer, "repro.core.profiler", "profile_activations", "core.profile", missing)
    _wrap_function(tracer, "repro.core.surgery", "replace_activations", "core.surgery", missing)
    _wrap_function(tracer, "repro.core.checkpoint", "save_protected", "core.checkpoint_save", missing)
    _wrap_method(tracer, Tensor, "backward", "autograd.backward", missing)
    _wrap_method(tracer, Adam, "step", "optim.step", missing)

    run = getattr(BoundPostTrainer, "run", None)
    if run is None:
        missing.append("BoundPostTrainer.run")
    else:
        def posttrain(self, *args, **kwargs):
            # Training forwards are the model calls made directly by the
            # post-trainer; probe forwards sit under core.probe instead.
            model = self.model
            forward = model.forward

            def train_forward(*a, **k):
                if tracer.parent_name() != "core.posttrain":
                    return forward(*a, **k)
                opened = tracer.open("nn.train_forward")
                try:
                    return forward(*a, **k)
                finally:
                    tracer.close("nn.train_forward", opened)

            object.__setattr__(model, "forward", train_forward)
            try:
                return tracer.wrap(run, "core.posttrain")(self, *args, **kwargs)
            finally:
                object.__delattr__(model, "forward")

        BoundPostTrainer.run = posttrain
    probe = getattr(BoundPostTrainer, "_clean_accuracy_probe", None)
    if probe is None:
        missing.append("BoundPostTrainer._clean_accuracy_probe")
    else:
        BoundPostTrainer._clean_accuracy_probe = lambda self, loader: tracer.wrap(
            probe(self, loader), "core.probe"
        )

    conv_run = ConvKernel.run

    def conv_bytes(self, x):
        # Computed, not measured: the input is read once and the column
        # matrix (or the channels-last copy of a 1x1 conv) written once,
        # plus the zero-padded copy when the conv pads.
        if self.prof is not None:
            n, c, h, w = x.shape
            conv = self.conv
            kh, kw = conv.kernel_size
            (sh, sw), (ph, pw) = conv.stride, conv.padding
            oh = (h + 2 * ph - kh) // sh + 1
            ow = (w + 2 * pw - kw) // sw + 1
            moved = n * c * h * w + n * oh * ow * c * kh * kw
            if self.tier != "direct1x1" and (ph or pw):
                moved += n * c * h * w + n * c * (h + 2 * ph) * (w + 2 * pw)
            counters["runtime.gather_bytes"] += 4 * moved
        return conv_run(self, x)

    ConvKernel.run = conv_bytes

    # Keep every span the program records while it runs, and take a copy
    # of them just before the CLI exports and resets its buffer.
    program_spans: list[dict[str, object]] = []
    program_trace.configure_tracing(False, capacity=1 << 20)
    export = program_trace.export_chrome_trace

    def export_and_keep(path):
        for record in program_trace.trace_events():
            if record.name.startswith("serve."):
                program_spans.append(
                    {
                        "id": None,
                        "parent": None,
                        "name": record.name,
                        "start": record.start,
                        "end": record.end,
                        "thread": record.thread_id,
                    }
                )
        return export(path)

    program_trace.export_chrome_trace = export_and_keep
    return {"missing": missing, "profilers": profilers, "program_spans": program_spans}


def kernel_totals(profilers) -> dict[str, float]:
    """Per full-plan forward gather/GEMM/epilogue (ms) of the busiest plan,
    plus gather seconds summed over every plan."""
    best: dict[str, float] = {}
    gather_s = 0.0
    for profiler in profilers:
        forwards = profiler.forwards
        rows = [r for r in profiler.rows() if r["calls"]]
        if not forwards or not rows:
            continue
        # rows average over forwards; per step call = total / calls.
        scale = [forwards / r["calls"] for r in rows]
        per_forward = {
            phase: sum(float(r[f"{phase}_ms"]) * s for r, s in zip(rows, scale))
            for phase in ("gather", "gemm", "epilogue")
        }
        gather_s += sum(float(r["gather_ms"]) * forwards for r in rows) / 1e3
        calls = sum(int(r["calls"]) for r in rows)
        if calls > best.get("calls", -1):
            best = {"calls": calls, "forwards": forwards, **per_forward}
    best["gather_s"] = gather_s
    return best


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: traced_cli.py SPANS.json -- <repro arguments...>", file=sys.stderr)
        return 2
    out, command = argv[0], argv[2:]
    tracer = Tracer()
    root = tracer.open(ROOT)
    state = install(tracer)
    from repro.cli.main import main as repro_main

    try:
        code = repro_main(command)
    finally:
        tracer.close(ROOT, root)
        payload = {
            "spans": tracer.spans + state["program_spans"],
            "counters": dict(tracer.counters),
            "samples": {k: list(v) for k, v in tracer.samples.items()},
            "kernels": kernel_totals(state["profilers"]),
            "missing": state["missing"],
        }
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
