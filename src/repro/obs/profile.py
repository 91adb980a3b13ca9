"""Per-kernel plan profiling: wall time split into gather/GEMM/epilogue.

The compiled runtime picks a convolution layout (tier) per layer from
the output map's size; without a profile the only way to judge those
decisions would be whole-model wall clock.  A :class:`KernelProfiler`
attached to an :class:`~repro.runtime.plan.InferencePlan` records, for
every kernel step (including the kernels nested inside residual
blocks):

- ``total``   — the step's full ``run()`` wall time;
- ``gather``  — column-matrix assembly: the padding copy and the
  plane (K-major) or slab (channels-last) copies of the im2col fill;
  a pointwise K-major conv has none;
- ``gemm``    — the BLAS call itself (the stacked per-image GEMM of
  the K-major layout, one position-major GEMM of the channels-last);
- ``epilogue``— the rest of a GEMM kernel's time (one that records a
  gather or GEMM phase), *derived* as ``total - gather - gemm -
  children``: bias add, BatchNorm vectors, the channels-last→NCHW
  transpose, and the fused activation;
- ``other``   — the whole time of a kernel without gather/GEMM phases,
  less its children: pooling, flatten, standalone BatchNorm and
  activations, and a residual step's add + activation around its
  child kernels.

The profiler is opt-in (``plan.profile()`` for a one-shot report,
``compile_model(profile=True)`` for a persistent attachment); detached
plans pay only a ``prof is None`` test per instrumented section.
Profiled forwards run under ``warmup_mode`` so transient
activation-fault layers never advance their random streams — profiling
a campaign's plan is side-band by construction.

Timing flows through :meth:`KernelProfiler.now` (the repo's RPL009
rule keeps raw clock calls out of instrumented modules), and phase
intervals double as :class:`~repro.obs.trace.SpanRecord` events, so
:meth:`PlanProfile.chrome_trace` renders the same Chrome-trace JSON the
span tracer exports — one file format for Perfetto either way.
"""

from __future__ import annotations

import threading
import time

from repro.obs.trace import SpanRecord, chrome_trace

__all__ = ["KernelProfiler", "PlanProfile"]

#: Cap on buffered phase/step events: deep plans at many repeats stay
#: far below this; a runaway persistent attachment must not grow RAM.
MAX_EVENTS = 100_000


class KernelProfiler:
    """Accumulates per-kernel wall time for one plan.

    Pure data plus a clock — no locks (the owning plan serialises its
    forwards), no influence on results.  ``attach`` registers the
    kernel tree in execution order; ``step``/``phase`` accumulate; and
    ``rows`` averages over the recorded forwards.
    """

    def __init__(self) -> None:
        self._labels: dict[int, str] = {}
        self._names: dict[str, str] = {}
        self._order: list[str] = []
        self._children: dict[str, list[str]] = {}
        self._top_level: list[str] = []
        self._totals: dict[str, float] = {}
        self._phases: dict[str, dict[str, float]] = {}
        self._calls: dict[str, int] = {}
        self.forwards = 0
        self.events: list[SpanRecord] = []

    @staticmethod
    def now() -> float:
        """The profiling clock (monotonic seconds)."""
        return time.perf_counter()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def attach(self, steps: list[object]) -> None:
        """Register a plan's kernel tree (recursing into residual blocks).

        Re-attaching (a plan ``refresh()`` rebuilds its kernels) resets
        all accumulation — mixing rows across kernel generations would
        double-count steps and report retired kernels.
        """
        self._labels.clear()
        self._names.clear()
        self._order.clear()
        self._children.clear()
        self._totals.clear()
        self._phases.clear()
        self._calls.clear()
        self.forwards = 0
        self.events.clear()
        self._top_level = self._register(steps, prefix="")

    def _register(self, steps: list[object], prefix: str) -> list[str]:
        labels: list[str] = []
        for index, step in enumerate(steps):
            label = f"{prefix}{index}"
            self._labels[id(step)] = label
            describe = getattr(step, "describe", None)
            self._names[label] = (
                describe() if callable(describe) else type(step).__name__
            )
            self._order.append(label)
            self._totals[label] = 0.0
            self._phases[label] = {}
            self._calls[label] = 0
            children: list[str] = []
            child_kernels = getattr(step, "child_kernels", None)
            if callable(child_kernels):
                for branch, sub_steps in child_kernels():
                    children.extend(
                        self._register(sub_steps, prefix=f"{label}.{branch}.")
                    )
            self._children[label] = children
            labels.append(label)
        return labels

    # ------------------------------------------------------------------
    # Accumulation (called from instrumented kernels and the plan)
    # ------------------------------------------------------------------
    def begin_forward(self) -> None:
        self.forwards += 1

    def step(self, kernel: object, start: float, end: float) -> None:
        """Record one kernel step's full ``run()`` interval."""
        label = self._labels.get(id(kernel))
        if label is None:
            return
        self._totals[label] += end - start
        self._calls[label] += 1
        self._record_event(f"plan.step.{label}", self._names[label], start, end)

    def phase(
        self, kernel: object, phase: str, start: float, end: float
    ) -> None:
        """Record one gather/GEMM sub-interval inside a kernel step."""
        label = self._labels.get(id(kernel))
        if label is None:
            return
        phases = self._phases[label]
        phases[phase] = phases.get(phase, 0.0) + (end - start)
        self._record_event(f"plan.{phase}.{label}", phase, start, end)

    def _record_event(
        self, name: str, detail: str, start: float, end: float
    ) -> None:
        if len(self.events) >= MAX_EVENTS:
            return
        thread = threading.current_thread()
        self.events.append(
            SpanRecord(
                name=name,
                start=start,
                end=end,
                thread_id=thread.ident or 0,
                thread_name=thread.name,
                attrs=(("detail", detail),),
            )
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def rows(self) -> list[dict[str, object]]:
        """Per-kernel averages (ms per forward), in execution order.

        The step total less its own gather/GEMM phases and nested child
        totals, floored at zero (clock noise can make the difference
        marginally negative), is ``epilogue_ms`` for a kernel that
        recorded a gather or GEMM phase and ``other_ms`` for any other.
        """
        forwards = max(self.forwards, 1)
        rows: list[dict[str, object]] = []
        for label in self._order:
            total = self._totals[label]
            phases = self._phases[label]
            gather = phases.get("gather", 0.0)
            gemm = phases.get("gemm", 0.0)
            children = sum(
                self._totals[child] for child in self._children[label]
            )
            rest = max(0.0, total - gather - gemm - children)
            gemm_kernel = "gather" in phases or "gemm" in phases
            rows.append(
                {
                    "step": label,
                    "kernel": self._names[label],
                    "calls": self._calls[label],
                    "total_ms": total / forwards * 1e3,
                    "gather_ms": gather / forwards * 1e3,
                    "gemm_ms": gemm / forwards * 1e3,
                    "epilogue_ms": (rest if gemm_kernel else 0.0) / forwards * 1e3,
                    "other_ms": (0.0 if gemm_kernel else rest) / forwards * 1e3,
                }
            )
        return rows

    def result(self) -> "PlanProfile":
        return PlanProfile(
            rows=self.rows(),
            forwards=self.forwards,
            events=list(self.events),
            top_level=list(self._top_level),
        )


class PlanProfile:
    """One profiling run's report: per-kernel rows plus raw events."""

    def __init__(
        self,
        rows: list[dict[str, object]],
        forwards: int,
        events: list[SpanRecord],
        top_level: list[str],
    ) -> None:
        self.rows = rows
        self.forwards = forwards
        self.events = events
        self._top_level = set(top_level)

    @property
    def total_ms(self) -> float:
        """Mean per-forward wall time summed over top-level steps."""
        return sum(
            float(row["total_ms"])
            for row in self.rows
            if str(row["step"]) in self._top_level
        )

    def table(self) -> str:
        """The per-layer text table ``repro profile`` prints."""
        headers = ("step", "kernel", "total ms", "gather", "gemm", "epilogue", "other")
        body: list[tuple[str, ...]] = []
        for row in self.rows:
            body.append(
                (
                    str(row["step"]),
                    str(row["kernel"]),
                    f"{float(row['total_ms']):.3f}",
                    f"{float(row['gather_ms']):.3f}",
                    f"{float(row['gemm_ms']):.3f}",
                    f"{float(row['epilogue_ms']):.3f}",
                    f"{float(row['other_ms']):.3f}",
                )
            )
        widths = [
            max(len(headers[col]), *(len(line[col]) for line in body))
            if body
            else len(headers[col])
            for col in range(len(headers))
        ]
        lines = [
            "  ".join(header.ljust(width) for header, width in zip(headers, widths)),
            "  ".join("-" * width for width in widths),
        ]
        for line in body:
            lines.append(
                "  ".join(cell.ljust(width) for cell, width in zip(line, widths))
            )
        lines.append(
            f"total {self.total_ms:.3f} ms/forward "
            f"(mean over {self.forwards} forwards)"
        )
        return "\n".join(lines)

    def chrome_trace(self) -> dict[str, object]:
        """Chrome-trace JSON of the recorded step/phase intervals."""
        return chrome_trace(self.events)

    def write_chrome_trace(self, path: str) -> int:
        """Write :meth:`chrome_trace` to ``path``; returns the event count."""
        import json

        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)
            handle.write("\n")
        return len(self.events)
