"""The coordinated campaign worker: join, claim, evaluate, journal.

A :class:`CampaignWorker` wires the pieces together over one shared
:class:`~repro.store.CampaignStore` directory:

1. **Join** — open the store with a private journal segment
   (``trials.<worker>.jsonl``) and pass the admission check: the
   store's manifest identity (seed, trial count, fault-space SHA-256
   fingerprint, layer table — hashed into ``config_hash``) must match
   the local campaign exactly, and every configuration this worker
   intends to run must already be registered by the store's creator.
   A worker built against the wrong checkpoint or settings is rejected
   before it can journal a single byte.
2. **Lease** — acquire a heartbeat lease
   (:class:`~repro.coord.lease.WorkerLease`) so peers can tell this
   worker's claims from a corpse's.
3. **Claim & evaluate** — loop: refresh the open store (folding only
   the journal lines peers appended since the last refresh), list
   leases, ask the :class:`~repro.coord.scheduler.RangeScheduler` for
   the next range (claiming free ones, stealing from the stale),
   evaluate it through :meth:`FaultCampaign.iter_range
   <repro.fault.campaign.FaultCampaign.iter_range>`, and journal each
   outcome — re-verifying the claim's fencing token before every
   append, so a range lost mid-flight is abandoned without a write.
4. **Exit** — when every configuration's trial space is fully
   journaled (or the worker's ``max_trials`` budget is spent), release
   the lease and close the segment.

``repro campaign run`` is this loop behind a command line: one
invocation on a store is one worker, a rerun resumes, and N concurrent
invocations split the remaining trial ranges between them.

Determinism: trial seeds depend only on (campaign seed, config spec,
trial index), so whichever worker evaluates a trial journals the
same record — steals, crashes, and re-runs cost duplicate *work* at
worst, never divergent *data*, and the drained store's artifacts are
byte-identical to a single-worker run's.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from typing import TYPE_CHECKING

from repro.coord.lease import (
    DEFAULT_EXPIRY_S,
    CoordError,
    WorkerLease,
    list_leases,
    validated_worker_id,
)
from repro.coord.scheduler import ClaimHandle, RangeScheduler
from repro.obs.trace import span
from repro.store import CampaignStore, config_key
from repro.utils.logging import get_logger

if TYPE_CHECKING:
    from repro.fault.campaign import FaultCampaign
    from repro.store.store import Describable

__all__ = ["CampaignWorker", "DEFAULT_CHUNK", "check_worker_options"]

_logger = get_logger("coord.worker")

#: Default trials per claim.  Small enough that work-stealing has
#: granularity to rebalance, large enough to amortise the claim-file
#: I/O over several trials.
DEFAULT_CHUNK = 8

_WORKER_SEQ = itertools.count()


def check_worker_options(chunk: int, expiry_s: float, poll_s: float) -> None:
    """Refuse knobs a worker would misbehave under.

    A NaN expiry is never live, so peers would steal the worker's ranges
    at once while its heartbeat spins without waiting; a NaN or negative
    poll interval busy-spins the idle loop.
    """
    if chunk < 1:
        raise CoordError(f"chunk must be >= 1, got {chunk}")
    if not (math.isfinite(expiry_s) and expiry_s > 0.0):
        raise CoordError(f"expiry must be finite and > 0, got {expiry_s}")
    if not (math.isfinite(poll_s) and poll_s >= 0.0):
        raise CoordError(f"poll must be finite and >= 0, got {poll_s}")


def default_worker_id() -> str:
    """A per-process-unique worker id (``w<pid>x<seq>``)."""
    return f"w{os.getpid()}x{next(_WORKER_SEQ)}"


class CampaignWorker:
    """One worker draining a shared campaign store; see module docstring.

    Parameters
    ----------
    campaign:
        The locally-built :class:`~repro.fault.campaign.FaultCampaign`
        (model, injector, evaluator); the scheduler decides which
        trials it evaluates.
    store_path:
        The shared store directory (already created, all configurations
        registered — see :meth:`CampaignStore.create`).
    fault_models:
        The configurations this worker evaluates, in sweep order.
    worker_id:
        Unique id (lease + journal-segment name); default is
        per-process unique, so multi-host fleets should pass their own
        (hostname-derived) ids.
    chunk:
        Trials per claimed range (>= 1).
    expiry_s:
        Lease expiry, finite and > 0; peers may steal this worker's
        ranges after this long without a heartbeat.
    poll_s:
        Idle re-poll interval while peers hold all remaining work,
        finite and >= 0.
    max_trials:
        Stop after journaling this many fresh trials (None = run to
        completion) — the time-boxed-increment knob behind
        ``campaign run --limit``.

    A configuration that an older build's in-store ``EarlyStop``
    marked converged (``converged_at`` in the manifest) counts as done:
    its journaled trials are the whole result, and none is added.
    """

    def __init__(
        self,
        campaign: "FaultCampaign",
        store_path: str | os.PathLike[str],
        fault_models: "list[Describable]",
        worker_id: str | None = None,
        chunk: int = DEFAULT_CHUNK,
        expiry_s: float = DEFAULT_EXPIRY_S,
        poll_s: float = 0.5,
        max_trials: int | None = None,
    ) -> None:
        self.campaign = campaign
        self.store_path = os.fspath(store_path)
        self.fault_models = list(fault_models)
        self.worker_id = validated_worker_id(worker_id or default_worker_id())
        check_worker_options(chunk, expiry_s, poll_s)
        self.chunk = int(chunk)
        self.expiry_s = float(expiry_s)
        self.poll_s = float(poll_s)
        self.max_trials = max_trials
        self._stop = threading.Event()
        #: Fresh trials journaled by this worker (across run() calls).
        self.journaled = 0
        self.claims_run = 0

    def request_stop(self) -> None:
        """Ask the run loop to wind down at the next safe point.

        Signal-handler safe: sets an event the loop checks between
        trials; the in-flight trial finishes, the unfinished remainder
        of the current range is handed back (claim released), and the
        lease is released so peers continue immediately.
        """
        self._stop.set()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _admit(self) -> tuple[CampaignStore, dict[str, "Describable"]]:
        """Open a segment writer and verify store/campaign compatibility."""
        store = CampaignStore.open(self.store_path, segment=self.worker_id)
        try:
            store.attach(self.campaign)
            keys: dict[str, "Describable"] = {}
            registered = store.config_keys()
            for fault_model in self.fault_models:
                key = config_key("", fault_model.describe())
                if key not in registered:
                    raise CoordError(
                        f"config {key!r} is not registered in "
                        f"{self.store_path!r}; the store creator must "
                        "register the full sweep up front "
                        "(CampaignStore.create) — joining "
                        "workers never write the manifest"
                    )
                if store.converged_at(key) is not None:
                    continue  # closed by an older build's EarlyStop: done
                keys[key] = fault_model
        except BaseException:
            store.close()
            raise
        return store, keys

    # ------------------------------------------------------------------
    # The drain loop
    # ------------------------------------------------------------------
    def run(self) -> dict[str, object]:
        """Drain the store; returns a summary of this worker's part."""
        store, by_key = self._admit()
        ordered_keys = [
            key for key in store.config_keys() if key in by_key
        ]
        scheduler = RangeScheduler(
            self.store_path,
            self.worker_id,
            trials=self.campaign.trials,
            chunk=self.chunk,
            configs=ordered_keys,
        )
        lease = WorkerLease(
            self.store_path, self.worker_id, expiry_s=self.expiry_s
        )
        stopped = False
        try:
            with store, lease:  # lease.__enter__ acquires + starts heartbeat
                while not self._stop.is_set():
                    if self._budget_left() == 0:
                        stopped = True
                        break
                    store.refresh()
                    if all(map(store.complete, ordered_keys)):
                        break
                    handle = scheduler.next_claim(
                        {key: store.journaled(key) for key in ordered_keys},
                        list_leases(self.store_path),
                        on_steal=lease.note_steal,
                    )
                    if handle is None:
                        # Peers hold every remaining range; idle-wait a
                        # beat and refresh (their journals keep moving).
                        self._stop.wait(self.poll_s)
                        continue
                    self._run_claim(store, handle, by_key)
                stopped = stopped or self._stop.is_set()
        finally:
            lease.release()
        store.refresh()
        complete = all(map(store.complete, ordered_keys))
        _logger.info(
            "worker %s done: %d trials, %d claims, %d steals (%s)",
            self.worker_id,
            self.journaled,
            self.claims_run,
            lease.steals,
            "store complete" if complete else "stopped with work left",
        )
        return {
            "worker": self.worker_id,
            "trials": self.journaled,
            "claims": self.claims_run,
            "steals": lease.steals,
            "stopped": stopped,
            "complete": complete,
        }

    def _budget_left(self) -> int | None:
        if self.max_trials is None:
            return None
        return max(0, int(self.max_trials) - self.journaled)

    def _run_claim(
        self,
        store: CampaignStore,
        handle: ClaimHandle,
        by_key: dict[str, "Describable"],
    ) -> None:
        """Evaluate one claimed range, fencing-checked per append."""
        claim = handle.claim
        fault_model = by_key[claim.config]
        # Refresh now that the claim is ours: records may have landed
        # (the previous owner's last flush, say) since the loop's
        # refresh.  Never mid-claim, so record() meets no folded trial.
        store.refresh()
        done = store.journaled(claim.config)
        missing = [t for t in claim.indices() if t not in done]
        budget = self._budget_left()
        if budget is not None:
            missing = missing[:budget]
        if not missing:
            handle.release()
            return
        self.claims_run += 1
        lost = False
        outcomes = self.campaign.iter_range(fault_model, missing)
        try:
            with span(
                "campaign.config",
                config=claim.config,
                start=claim.start,
                trials=len(missing),
            ):
                for outcome, sites in outcomes:
                    if self._stop.is_set():
                        break
                    if not handle.verify():
                        # Fenced out: a thief owns this range now.  Its
                        # records will be equal to ours by determinism,
                        # but the protocol is strict — never append
                        # under a lost claim.
                        _logger.warning(
                            "worker %s lost claim [%d, %d) of %r mid-range; "
                            "abandoning without journaling",
                            self.worker_id,
                            claim.start,
                            claim.stop,
                            claim.config,
                        )
                        lost = True
                        break
                    store.record(claim.config, outcome, sites)
                    self.journaled += 1
        finally:
            outcomes.close()
        # Drained ranges drop their claim file; an interrupted range
        # (stop request) hands its remainder back the same way, so a
        # peer — or our own resume — picks it up immediately.  A range
        # lost to a thief is the thief's to release.
        if not lost:
            handle.release()
