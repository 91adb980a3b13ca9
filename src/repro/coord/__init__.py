"""Lease-based campaign control plane: many workers, one store.

``repro.coord`` turns the durable campaign store (:mod:`repro.store`)
into a *service* a fleet can drain together:

- :mod:`~repro.coord.lease` — advisory heartbeat leases with
  filesystem-clock staleness, so peers can tell a live worker's claims
  from a corpse's (SIGKILL included);
- :mod:`~repro.coord.scheduler` — work-stealing dynamic trial ranges
  with fencing tokens;
- :mod:`~repro.coord.worker` — the join/claim/evaluate/journal loop
  behind ``repro campaign run``;
- :mod:`~repro.coord.watch` — live status views (terminal, JSON,
  ``GET /v1/campaign``) and the ``repro_campaign_worker_*`` gauges.

The identity contract is absolute: a multi-worker, steal-heavy,
crash-interrupted drain produces artifacts byte-identical to a serial
run, because trial seeds are schedule-independent and every journal
record is attributable to its trial index alone.
"""

from repro.coord.lease import (
    DEFAULT_EXPIRY_S,
    CoordError,
    LeaseInfo,
    WorkerLease,
    fs_now,
    list_leases,
)
from repro.coord.scheduler import Claim, ClaimHandle, RangeScheduler, list_claims
from repro.coord.watch import WatchApp, coord_status, render_watch, update_gauges
from repro.coord.worker import DEFAULT_CHUNK, CampaignWorker

__all__ = [
    "DEFAULT_CHUNK",
    "DEFAULT_EXPIRY_S",
    "CampaignWorker",
    "Claim",
    "ClaimHandle",
    "CoordError",
    "LeaseInfo",
    "RangeScheduler",
    "WatchApp",
    "WorkerLease",
    "coord_status",
    "fs_now",
    "list_claims",
    "list_leases",
    "render_watch",
    "update_gauges",
]
