"""Span tracer: context-manager spans into a bounded ring buffer.

The tracer instruments the seams that already exist — serve
request→batch→lane forward, campaign config→trial, compile→plan
forward — without ever touching results: spans observe wall time
(``time.perf_counter``, the monotonic duration clock) and record
nothing that any journaled or served byte depends on.

Disabled is the default and must stay near-free: ``span()`` returns a
shared no-op singleton, so an instrumented call site costs one function
call, one truth test, and a ``with`` enter/exit — measured at well
under 2% of any plan forward by ``benchmarks/test_bench_obs.py``.

Enabled, each span records name, attributes, thread, and a
``perf_counter`` interval into a ``collections.deque`` ring (bounded:
a serving process tracing every request must not grow without bound).
:func:`export_chrome_trace` writes the buffer in the Chrome trace /
Perfetto JSON format (``traceEvents`` with ``ph: "X"`` complete
events); load the file at https://ui.perfetto.dev or
``chrome://tracing``.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from types import TracebackType
from typing import NamedTuple

from repro.utils.logging import get_logger

__all__ = [
    "SpanRecord",
    "chrome_trace",
    "configure_tracing",
    "export_chrome_trace",
    "reset_tracing",
    "span",
    "trace_events",
    "tracing_enabled",
]

_logger = get_logger("obs.trace")

DEFAULT_CAPACITY = 4096


class SpanRecord(NamedTuple):
    """One closed span (times are ``perf_counter`` seconds)."""

    name: str
    start: float
    end: float
    thread_id: int
    thread_name: str
    attrs: tuple[tuple[str, object], ...]

    @property
    def duration(self) -> float:
        return self.end - self.start


class _TraceState:
    """Process-local tracer state: a lock and a live ring buffer."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.enabled = False
        self.events: deque[SpanRecord] = deque(maxlen=DEFAULT_CAPACITY)


_STATE = _TraceState()


class _NullSpan:
    """The shared disabled span: enter/exit are no-ops."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    """A live span; closing it appends one :class:`SpanRecord`."""

    __slots__ = ("name", "attrs", "start")

    def __init__(self, name: str, attrs: tuple[tuple[str, object], ...]) -> None:
        self.name = name
        self.attrs = attrs
        self.start = 0.0

    def __enter__(self) -> "_Span":
        self.start = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        end = time.perf_counter()
        thread = threading.current_thread()
        record = SpanRecord(
            name=self.name,
            start=self.start,
            end=end,
            thread_id=thread.ident or 0,
            thread_name=thread.name,
            attrs=self.attrs,
        )
        # deque.append with maxlen is atomic — no lock on the hot path.
        _STATE.events.append(record)
        if _logger.isEnabledFor(10):  # logging.DEBUG
            _logger.debug(
                "span %s %.3fms %s",
                record.name,
                record.duration * 1e3,
                dict(record.attrs),
            )


def span(name: str, **attrs: object) -> "_Span | _NullSpan":
    """Open a span; a no-op singleton when tracing is disabled.

    >>> with span("runtime.forward", steps=12):
    ...     pass
    """
    if not _STATE.enabled:
        return _NULL_SPAN
    return _Span(name, tuple(sorted(attrs.items())))


def tracing_enabled() -> bool:
    return _STATE.enabled


def configure_tracing(
    enabled: bool = True, capacity: int | None = None
) -> None:
    """Turn span recording on/off; optionally resize the ring buffer.

    Resizing drops buffered events (the deque is rebuilt); pass
    ``capacity=None`` to keep the current buffer.
    """
    with _STATE.lock:
        if capacity is not None:
            if capacity < 1:
                raise ValueError(f"capacity must be >= 1, got {capacity}")
            _STATE.events = deque(maxlen=capacity)
        _STATE.enabled = bool(enabled)


def reset_tracing() -> None:
    """Disable tracing and drop every buffered span (test isolation)."""
    with _STATE.lock:
        _STATE.enabled = False
        _STATE.events = deque(maxlen=DEFAULT_CAPACITY)


def trace_events() -> list[SpanRecord]:
    """The buffered spans, oldest first (a copy)."""
    return list(_STATE.events)


def chrome_trace(events: list[SpanRecord] | None = None) -> dict[str, object]:
    """The Chrome-trace JSON object for ``events`` (default: the buffer).

    Timestamps are microseconds relative to the earliest buffered span;
    ``cat`` is the span name's first dotted component (``serve``,
    ``campaign``, ``runtime``), which Perfetto uses for filtering.
    """
    records = trace_events() if events is None else events
    origin = min((r.start for r in records), default=0.0)
    trace_records: list[dict[str, object]] = []
    thread_names: dict[int, str] = {}
    for record in records:
        thread_names.setdefault(record.thread_id, record.thread_name)
        trace_records.append(
            {
                "name": record.name,
                "cat": record.name.split(".", 1)[0],
                "ph": "X",
                "ts": round((record.start - origin) * 1e6, 3),
                "dur": round(record.duration * 1e6, 3),
                "pid": 0,
                "tid": record.thread_id,
                "args": {key: _json_safe(value) for key, value in record.attrs},
            }
        )
    meta: list[dict[str, object]] = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": tid,
            "args": {"name": name},
        }
        for tid, name in sorted(thread_names.items())
    ]
    return {"traceEvents": meta + trace_records, "displayTimeUnit": "ms"}


def _json_safe(value: object) -> object:
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


def export_chrome_trace(path: str) -> int:
    """Write the buffered spans as a Chrome-trace file; returns the count.

    Plain ``json.dump`` on purpose: trace files are diagnostics, not
    journaled artifacts, so the store's exact-float encoder contract
    (RPL005) does not apply outside ``repro/store/``.
    """
    records = trace_events()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(records), handle)
        handle.write("\n")
    return len(records)
