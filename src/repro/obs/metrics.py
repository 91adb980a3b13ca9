"""Process-wide metrics registry: counters, gauges, fixed-bucket histograms.

One :class:`MetricsRegistry` owns a flat namespace of metric *families*
(a name plus a label schema); each combination of label values is a
*series* inside its family.  The design is deliberately zero-dependency
and small — the Prometheus client library's data model, reduced to what
this repo's serving and campaign paths actually emit:

- every mutation takes the registry's one lock (observers are cheap:
  an integer add or a bucket increment), so families are safe to share
  across serve-lane threads;
- :meth:`MetricsRegistry.snapshot` returns a JSON-ready dict, deep
  copied under the lock, so handlers serialise without racing the hot
  path;
- :meth:`MetricsRegistry.render_prometheus` emits the text exposition
  format (``# HELP``/``# TYPE``, cumulative ``le`` buckets,
  ``_sum``/``_count``) that ``GET /metrics?format=prometheus`` serves.

Registration is idempotent: asking for an already-registered name with
the same kind/labels/buckets returns the existing family (so module
import order never matters), while a conflicting re-registration fails
loudly.

Telemetry is strictly side-band (see docs/OBSERVABILITY.md): nothing in
this module may influence journaled bytes, RNG streams, or float
results — it only ever *observes*.
"""

from __future__ import annotations

import math
import re
import threading
from collections.abc import Iterable, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramFamily",
    "MetricsRegistry",
    "bucket_label",
    "default_registry",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
#: Label names the exposition format claims for itself.
_RESERVED_LABELS = frozenset({"le", "quantile"})


def bucket_label(bound: float) -> str:
    """Prometheus ``le`` label for a bucket upper bound (``+Inf`` for inf)."""
    if math.isinf(bound):
        return "+Inf"
    return f"{bound:g}"


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    """Escape a HELP line per the Prometheus text exposition format."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    """Exposition-format number: integral counts render without a dot."""
    if isinstance(value, int):
        return str(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class Histogram:
    """Fixed-bucket histogram with Prometheus ``le`` semantics.

    Observations are binned internally, and :meth:`snapshot` emits
    *cumulative* bucket counts — ``le_X`` counts every observation
    ``<= X``, as ``histogram_quantile``-style consumers expect.  Not
    thread-safe on its own; the owning family (or, historically,
    ``ServerMetrics``) serialises access.  A final ``+Inf`` bound is
    appended when the caller's bounds do not end in one, so the last
    cumulative bucket always equals the total count.
    """

    __slots__ = ("bounds", "counts", "total", "sum")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        resolved = tuple(float(bound) for bound in bounds)
        if any(b >= a for b, a in zip(resolved, resolved[1:])):
            raise ValueError(
                f"histogram bounds must be strictly increasing, got {bounds!r}"
            )
        if not resolved or not math.isinf(resolved[-1]):
            resolved = resolved + (math.inf,)
        self.bounds = resolved
        self.counts = [0] * len(resolved)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.total += 1
        self.sum += value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[index] += 1
                break

    def cumulative_counts(self) -> list[int]:
        """Per-bound cumulative counts (the ``le`` series)."""
        out: list[int] = []
        running = 0
        for count in self.counts:
            running += count
            out.append(running)
        return out

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile from the bucket counts.

        Standard ``histogram_quantile`` semantics: find the bucket the
        target rank falls in and interpolate linearly inside it (from
        the previous bound, or 0 for the first bucket).  Values landing
        in the ``+Inf`` bucket are clamped to the last finite bound —
        the estimate is then a lower bound, which is the conservative
        direction for latency SLO burn accounting.  Returns 0.0 with no
        observations.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.total == 0:
            return 0.0
        rank = q * self.total
        running = 0
        for index, bound in enumerate(self.bounds):
            previous = running
            running += self.counts[index]
            if running >= rank and self.counts[index] > 0:
                if math.isinf(bound):
                    finite = [b for b in self.bounds if not math.isinf(b)]
                    return finite[-1] if finite else 0.0
                lower = 0.0 if index == 0 else self.bounds[index - 1]
                fraction = (rank - previous) / self.counts[index]
                return lower + (bound - lower) * min(1.0, max(0.0, fraction))
        finite = [b for b in self.bounds if not math.isinf(b)]
        return finite[-1] if finite else 0.0

    def snapshot(self) -> dict[str, object]:
        buckets: dict[str, int] = {}
        for bound, cumulative in zip(self.bounds, self.cumulative_counts()):
            buckets[f"le_{bucket_label(bound)}"] = cumulative
        return {
            "count": self.total,
            "sum": round(self.sum, 6),
            "mean": round(self.sum / self.total, 6) if self.total else 0.0,
            "buckets": buckets,
        }


def _label_key(
    family: "_Family", labels: dict[str, object]
) -> tuple[str, ...]:
    if set(labels) != set(family.labelnames):
        raise ValueError(
            f"metric {family.name!r} takes labels "
            f"{list(family.labelnames)}, got {sorted(labels)}"
        )
    return tuple(str(labels[name]) for name in family.labelnames)


class _Family:
    """Shared family state: name, help text, label schema, series map."""

    kind = ""

    def __init__(
        self,
        lock: threading.Lock,
        name: str,
        help: str,
        labelnames: Sequence[str],
    ) -> None:
        self._lock = lock
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)

    def signature(self) -> tuple[object, ...]:
        """Identity under idempotent re-registration."""
        return (self.kind, self.labelnames)


class Counter(_Family):
    """Monotonically increasing count, optionally split by labels."""

    kind = "counter"

    def __init__(
        self,
        lock: threading.Lock,
        name: str,
        help: str,
        labelnames: Sequence[str],
    ) -> None:
        super().__init__(lock, name, help, labelnames)
        self._series: dict[tuple[str, ...], float] = {}

    def inc(self, amount: float = 1, **labels: object) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease ({amount})")
        key = _label_key(self, labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0) + amount

    def value(self, **labels: object) -> float:
        key = _label_key(self, labels)
        with self._lock:
            return self._series.get(key, 0)

    def series(self) -> dict[tuple[str, ...], float]:
        with self._lock:
            return dict(self._series)


class Gauge(_Family):
    """A value that goes up and down (progress, rates, ETAs)."""

    kind = "gauge"

    def __init__(
        self,
        lock: threading.Lock,
        name: str,
        help: str,
        labelnames: Sequence[str],
    ) -> None:
        super().__init__(lock, name, help, labelnames)
        self._series: dict[tuple[str, ...], float] = {}

    def set(self, value: float, **labels: object) -> None:
        key = _label_key(self, labels)
        with self._lock:
            self._series[key] = value

    def inc(self, amount: float = 1, **labels: object) -> None:
        key = _label_key(self, labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0) + amount

    def value(self, **labels: object) -> float:
        key = _label_key(self, labels)
        with self._lock:
            return self._series.get(key, 0)

    def series(self) -> dict[tuple[str, ...], float]:
        with self._lock:
            return dict(self._series)


class HistogramFamily(_Family):
    """Fixed-bucket distribution, optionally split by labels."""

    kind = "histogram"

    def __init__(
        self,
        lock: threading.Lock,
        name: str,
        help: str,
        labelnames: Sequence[str],
        buckets: tuple[float, ...],
    ) -> None:
        super().__init__(lock, name, help, labelnames)
        self.buckets = Histogram(buckets).bounds  # validated + +Inf-capped
        self._series: dict[tuple[str, ...], Histogram] = {}

    def signature(self) -> tuple[object, ...]:
        return (self.kind, self.labelnames, self.buckets)

    def observe(self, value: float, **labels: object) -> None:
        key = _label_key(self, labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = Histogram(self.buckets)
            series.observe(value)

    def snapshot_series(self, **labels: object) -> dict[str, object]:
        """One series' JSON snapshot (zeros when never observed)."""
        key = _label_key(self, labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                return Histogram(self.buckets).snapshot()
            return series.snapshot()

    def quantile(self, q: float, **labels: object) -> float:
        """Bucket-interpolated quantile of one series (0.0 if empty)."""
        key = _label_key(self, labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                return 0.0
            return series.quantile(q)

    def series(self) -> dict[tuple[str, ...], Histogram]:
        with self._lock:
            # Snapshot copies: callers must not race live bucket arrays.
            out: dict[tuple[str, ...], Histogram] = {}
            for key, hist in self._series.items():
                copy = Histogram(self.buckets)
                copy.counts = list(hist.counts)
                copy.total = hist.total
                copy.sum = hist.sum
                out[key] = copy
            return out


class MetricsRegistry:
    """A namespace of metric families sharing one lock.

    The module-level :func:`default_registry` serves process-wide
    consumers (campaign progress, CLI views); components with their own
    lifecycle (one ``ServerMetrics`` per :class:`~repro.serve.ServeApp`)
    own private registries so concurrent instances never share counts.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}

    def _register(self, family: _Family) -> _Family:
        if not _NAME_RE.match(family.name):
            raise ValueError(f"invalid metric name {family.name!r}")
        for label in family.labelnames:
            if (
                not _LABEL_RE.match(label)
                or label in _RESERVED_LABELS
                or label.startswith("__")
            ):
                raise ValueError(
                    f"invalid label name {label!r} on metric {family.name!r}"
                )
        with self._lock:
            existing = self._families.get(family.name)
            if existing is not None:
                if existing.signature() != family.signature():
                    raise ValueError(
                        f"metric {family.name!r} is already registered as a "
                        f"{existing.kind} with labels "
                        f"{list(existing.labelnames)}"
                    )
                return existing
            self._families[family.name] = family
            return family

    def counter(
        self, name: str, help: str, labelnames: Sequence[str] = ()
    ) -> Counter:
        family = self._register(Counter(self._lock, name, help, labelnames))
        assert isinstance(family, Counter)
        return family

    def gauge(
        self, name: str, help: str, labelnames: Sequence[str] = ()
    ) -> Gauge:
        family = self._register(Gauge(self._lock, name, help, labelnames))
        assert isinstance(family, Gauge)
        return family

    def histogram(
        self,
        name: str,
        help: str,
        buckets: Iterable[float],
        labelnames: Sequence[str] = (),
    ) -> HistogramFamily:
        family = self._register(
            HistogramFamily(self._lock, name, help, labelnames, tuple(buckets))
        )
        assert isinstance(family, HistogramFamily)
        return family

    def families(self) -> list[_Family]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def reset(self) -> None:
        """Zero every series, keeping registrations (test isolation).

        Families stay registered so module-level handles (e.g. the
        store's journaled-trials counter) keep feeding the same family
        after a reset; only the accumulated series are dropped.
        """
        with self._lock:
            for family in self._families.values():
                family._series.clear()  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, object]:
        """JSON-ready view: ``{name: {kind, help, series: [...]}}``."""
        out: dict[str, object] = {}
        for family in self.families():
            series: list[dict[str, object]] = []
            if isinstance(family, HistogramFamily):
                for key, hist in sorted(family.series().items()):
                    series.append(
                        {
                            "labels": dict(zip(family.labelnames, key)),
                            **hist.snapshot(),
                        }
                    )
            elif isinstance(family, (Counter, Gauge)):
                for key, value in sorted(family.series().items()):
                    series.append(
                        {
                            "labels": dict(zip(family.labelnames, key)),
                            "value": value,
                        }
                    )
            out[family.name] = {
                "kind": family.kind,
                "help": family.help,
                "series": series,
            }
        return out

    def render_prometheus(self) -> str:
        """Text exposition format (``text/plain; version=0.0.4``)."""
        lines: list[str] = []
        for family in self.families():
            lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            if isinstance(family, HistogramFamily):
                for key, hist in sorted(family.series().items()):
                    base = list(zip(family.labelnames, key))
                    for bound, cumulative in zip(
                        hist.bounds, hist.cumulative_counts()
                    ):
                        le = [*base, ("le", bucket_label(bound))]
                        lines.append(
                            f"{family.name}_bucket{_render_labels(le)} "
                            f"{cumulative}"
                        )
                    lines.append(
                        f"{family.name}_sum{_render_labels(base)} "
                        f"{_format_value(hist.sum)}"
                    )
                    lines.append(
                        f"{family.name}_count{_render_labels(base)} "
                        f"{hist.total}"
                    )
            elif isinstance(family, (Counter, Gauge)):
                for key, value in sorted(family.series().items()):
                    labels = list(zip(family.labelnames, key))
                    lines.append(
                        f"{family.name}{_render_labels(labels)} "
                        f"{_format_value(value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")


def _render_labels(pairs: Sequence[tuple[str, str]]) -> str:
    if not pairs:
        return ""
    body = ",".join(
        f'{name}="{_escape_label_value(value)}"' for name, value in pairs
    )
    return "{" + body + "}"


_DEFAULT = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide registry (campaign progress, CLI live views)."""
    return _DEFAULT
