"""Live campaign views: who's draining the store, and how fast.

:func:`coord_status` folds three side-band sources into one JSON-ready
payload — the store's own progress summary (config table, convergence),
the lease directory (per-worker liveness, beats, steal tallies), and
the claim directory (which ranges are in flight where) — plus
per-segment journal counts attributing trials to the worker that
evaluated them.  Each front holds one open store and refreshes it per
poll, so a poll folds only the journal lines appended since the last.

The payload feeds three fronts, all read-only and artifact-neutral:

- ``repro campaign watch`` — terminal table or ``--format json``;
- ``GET /v1/campaign`` — :class:`WatchApp` mounts the PR 9
  :class:`~repro.serve.routes.Router`, so the watch view rides the same
  transport (and ``/v1/metrics``, ``/v1/healthz``) as the serving tier;
- the ``repro_campaign_status_*`` and ``repro_campaign_worker_*``
  gauges in the process-wide metrics registry (:func:`update_gauges`),
  for Prometheus scrapes.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Any

from repro.coord.lease import list_leases
from repro.coord.scheduler import list_claims
from repro.obs.metrics import default_registry
from repro.store import CampaignStore

__all__ = [
    "RateMeter",
    "WatchApp",
    "coord_status",
    "render_watch",
    "update_gauges",
]

#: Store-level progress gauges, labelled (store).
_STATUS_JOURNALED = default_registry().gauge(
    "repro_campaign_status_journaled",
    "Journaled trials of the store at the last watch poll.",
    labelnames=("store",),
)
_STATUS_EXPECTED = default_registry().gauge(
    "repro_campaign_status_expected",
    "Expected trials of the store at the last watch poll.",
    labelnames=("store",),
)
#: Per-worker progress gauges, labelled (store, worker).  `live` is
#: 0/1; `trials` counts the records of the worker's journal segment
#: (leases carry no trial count); `steals` counts ranges the worker
#: reclaimed from stale peers.
_WORKER_LIVE = default_registry().gauge(
    "repro_campaign_worker_live",
    "Worker lease liveness (1 = heartbeat fresh, 0 = stale or released).",
    labelnames=("store", "worker"),
)
_WORKER_TRIALS = default_registry().gauge(
    "repro_campaign_worker_trials",
    "Trials journaled into the worker's store segment.",
    labelnames=("store", "worker"),
)
_WORKER_STEALS = default_registry().gauge(
    "repro_campaign_worker_steals",
    "Trial ranges this worker stole from stale peers.",
    labelnames=("store", "worker"),
)


def coord_status(store: CampaignStore) -> dict[str, Any]:
    """One poll of a coordinated store: progress + workers + claims.

    Refreshes ``store`` (which also audits the newly appended journal
    lines — a conflicting duplicate record surfaces here, not
    silently), then overlays lease and claim state.  Works on stores no
    worker has joined yet (or an older build's single writer filled):
    the coord sections are just empty.
    """
    store.refresh()
    status: dict[str, Any] = store.status()
    counts = store.writer_counts()
    leases = list_leases(store.path)
    workers: list[dict[str, Any]] = []
    for name in sorted(leases):
        info = leases[name]
        workers.append(
            {
                "worker": name,
                "live": info.live,
                "released": info.released,
                "beat": info.beat,
                "age_s": info.age_s,
                "expiry_s": info.expiry_s,
                "steals": info.steals,
                "trials": counts.get(name, 0),
            }
        )
    claims = [
        {
            "config": handle.claim.config,
            "start": handle.claim.start,
            "stop": handle.claim.stop,
            "worker": handle.claim.worker,
            "fence": handle.claim.fence,
        }
        for handle in list_claims(store.path)
    ]
    status["workers"] = workers
    status["claims"] = claims
    status["workers_live"] = sum(1 for row in workers if row["live"])
    status["steals"] = sum(row["steals"] for row in workers)
    return status


def update_gauges(status: dict[str, Any]) -> None:
    """Feed one status payload into the store and worker gauges."""
    store = str(status.get("path", ""))
    _STATUS_JOURNALED.set(float(status["journaled"]), store=store)
    _STATUS_EXPECTED.set(float(status["expected"]), store=store)
    for row in status.get("workers", []):
        worker = str(row["worker"])
        _WORKER_LIVE.set(1.0 if row["live"] else 0.0, store=store, worker=worker)
        _WORKER_TRIALS.set(float(row["trials"]), store=store, worker=worker)
        _WORKER_STEALS.set(float(row["steals"]), store=store, worker=worker)


class RateMeter:
    """Trials/second between successive polls (display only)."""

    def __init__(self) -> None:
        self._last: tuple[float, int] | None = None

    def update(self, journaled: int) -> float | None:
        now = time.monotonic()  # repro-lint: disable=RPL009 — side-band trial-rate display between watch polls
        last, self._last = self._last, (now, journaled)
        if last is None:
            return None
        elapsed = now - last[0]
        if elapsed <= 0.0:
            return None
        return max(0, journaled - last[1]) / elapsed


def render_watch(status: dict[str, Any], rate: float | None = None) -> str:
    """Terminal rendering of one status payload."""
    lines: list[str] = []
    done = int(status["journaled"])
    expected = int(status["expected"])
    state = "complete" if status["complete"] else "running"
    configs = status["configs"]
    converged = sum(1 for entry in configs if entry["converged_at"] is not None)
    head = (
        f"{status['path']}: {done}/{expected} trials ({state}), "
        f"converged {converged}/{len(configs)} configs"
    )
    if rate is not None:
        head += f", {rate:.1f} trials/s"
        if rate > 0 and not status["complete"]:
            head += f", ~{(expected - done) / rate:.0f}s remaining"
    lines.append(head)
    for entry in configs:
        mean = entry.get("mean_accuracy")
        shown = f"mean={mean:.4f}" if mean is not None else "mean=-"
        if entry["converged_at"] is not None:
            shown += f", converged at {entry['converged_at']}"
        lines.append(
            f"  config {entry['key']}: {entry['journaled']}/"
            f"{entry['expected']} {shown}"
        )
    workers = status.get("workers", [])
    if not workers:
        lines.append("  workers: none yet")
    for row in workers:
        if row["released"]:
            liveness = "released"
        elif row["live"]:
            liveness = "live"
        else:
            liveness = f"stale {row['age_s']:.0f}s"
        lines.append(
            f"  worker {row['worker']}: {liveness}, beat {row['beat']}, "
            f"{row['trials']} trials, {row['steals']} steals"
        )
    for claim in status.get("claims", []):
        lines.append(
            f"  claim {claim['config']} [{claim['start']}, "
            f"{claim['stop']}) -> {claim['worker']} (fence {claim['fence']})"
        )
    return "\n".join(lines)


@dataclass
class _WatchConfig:
    request_timeout: float = 10.0
    drain_timeout_s: float = 10.0


class WatchApp:
    """A minimal Router host for the HTTP watch view.

    Exposes the surface :class:`~repro.serve.routes.Router` and
    :class:`~repro.serve.aio.AsyncReproServer` need — ``router``,
    ``config``, ``metrics``, ``health()``, ``observe_request()``,
    ``close()`` — plus the ``campaign_status()`` hook behind
    ``GET /v1/campaign``.  Predict/models routes 404 here: this app
    serves *status*, not inference.

    The app opens the store once and every poll refreshes it; a lock
    serialises polls, which the server runs on executor threads.
    """

    def __init__(self, store_path: str | os.PathLike[str]) -> None:
        from repro.serve.routes import Router

        self.store = CampaignStore.open(store_path)
        self._lock = threading.Lock()
        self.config = _WatchConfig()
        self.metrics = default_registry()
        self.router = Router(self)

    def campaign_status(self) -> dict[str, Any]:
        with self._lock:
            status = coord_status(self.store)
        update_gauges(status)
        return status

    def health(self) -> dict[str, Any]:
        """Cheap liveness view (journaled records, leases; no claims)."""
        with self._lock:
            self.store.refresh()
            journaled = sum(self.store.writer_counts().values())
        leases = list_leases(self.store.path)
        return {
            "status": "ok",
            "store": self.store.path,
            "journaled": journaled,
            "workers_live": sum(1 for info in leases.values() if info.live),
            "workers": len(leases),
        }

    def observe_request(self, endpoint: str, status: int, seconds: float) -> None:
        """No SLO tracker on the watch front; latency is uninteresting."""

    def close(self) -> None:
        self.store.close()
