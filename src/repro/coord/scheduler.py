"""Work-stealing range claims: dynamic trial partitioning with fencing.

A split fixed up front strands a straggler's or a crashed host's slice
until a human intervenes.  This module partitions the trial space with
**dynamic range claims** over one shared store instead:

- the trial space of every configuration is cut into chunk-aligned
  ranges ``[k*chunk, (k+1)*chunk)``;
- a worker *claims* a range by creating
  ``<store>/coord/claims/<cfg>-<start>-<stop>.json`` with
  ``O_CREAT``-exclusive semantics (content-complete via the hard-link
  trick: write a private temp file, ``os.link`` it into place — link
  either fully succeeds or raises ``FileExistsError``);
- a range whose owner's lease (:mod:`repro.coord.lease`) is stale or
  released is **stolen**: the thief writes a replacement claim carrying
  its own worker id and the old **fencing token + 1**, installed by
  atomic rename (``os.replace``).  The previous owner — maybe paused
  mid-trial, maybe about to resume — re-reads the claim before every
  journal append (:meth:`ClaimHandle.verify`); the moment the worker id
  or fence no longer matches, it abandons the range without writing.

Fencing makes takeover *safe*, not merely likely: a resumed-from-pause
worker can never append under a claim it lost.  And because trial seeds
are schedule-independent, even the benign races that remain (two
workers briefly evaluating the same range around a steal) produce
*equal* records that the store deduplicates on load — duplicated work
costs wall-clock, never correctness, and artifacts stay byte-identical
to a serial run.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Callable
from dataclasses import dataclass, replace

from repro.coord.lease import (
    CoordError,
    LeaseInfo,
    claim_dir,
    ensure_coord_dirs,
)
from repro.utils.logging import get_logger

__all__ = [
    "Claim",
    "ClaimHandle",
    "RangeScheduler",
    "list_claims",
    "read_claim",
]

_logger = get_logger("coord.scheduler")

_SUFFIX = ".json"


@dataclass(frozen=True)
class Claim:
    """One claimed trial range of one configuration.

    ``fence`` is the range's monotonic fencing token: it starts at 1 on
    first claim and every steal increments it, so any two owners of the
    same range in history hold distinct tokens.
    """

    config: str
    start: int
    stop: int
    worker: str
    fence: int

    def indices(self) -> range:
        return range(self.start, self.stop)


def _claim_name(config: str, start: int, stop: int) -> str:
    """Deterministic claim file name (config keys aren't path-safe)."""
    digest = hashlib.sha256(config.encode("utf-8")).hexdigest()[:12]
    return f"{digest}-{start:08d}-{stop:08d}{_SUFFIX}"


def _claim_payload(claim: Claim) -> bytes:
    return json.dumps(
        {
            "config": claim.config,
            "start": claim.start,
            "stop": claim.stop,
            "worker": claim.worker,
            "fence": claim.fence,
        },
        sort_keys=True,
    ).encode("utf-8")


def read_claim(path: str) -> Claim | None:
    """Parse one claim file (None if missing or unreadable)."""
    try:
        with open(path, "rb") as handle:
            raw = json.loads(handle.read())
        return Claim(
            config=str(raw["config"]),
            start=int(raw["start"]),
            stop=int(raw["stop"]),
            worker=str(raw["worker"]),
            fence=int(raw["fence"]),
        )
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError):
        return None


def list_claims(store_path: str | os.PathLike[str]) -> list["ClaimHandle"]:
    """All readable claims in the store's coord dir, by file name."""
    directory = claim_dir(store_path)
    try:
        names = sorted(os.listdir(directory))
    except FileNotFoundError:
        return []
    handles = []
    for name in names:
        if not name.endswith(_SUFFIX):
            continue
        path = os.path.join(directory, name)
        claim = read_claim(path)
        if claim is not None:
            handles.append(ClaimHandle(path=path, claim=claim))
    return handles


@dataclass(frozen=True)
class ClaimHandle:
    """A claim as held (or observed) by one worker."""

    path: str
    claim: Claim

    def current(self) -> Claim | None:
        return read_claim(self.path)

    def verify(self) -> bool:
        """Is this exact (worker, fence) claim still installed?

        The fencing check: called before every journal append by the
        owning worker.  False the instant a thief's replacement (or a
        GC unlink) lands, no matter how long the owner was paused.
        """
        current = self.current()
        return (
            current is not None
            and current.worker == self.claim.worker
            and current.fence == self.claim.fence
        )

    def release(self) -> None:
        """Drop the claim if still ours (unfinished-range hand-back).

        A stolen claim is left alone — unlinking it would erase the
        thief's claim, not ours.  The unavoidable verify-then-unlink
        race window is benign for the same reason steals are: worst
        case, a freshly-installed claim is GC'd and its range gets
        re-claimed and re-evaluated to equal records.
        """
        if self.verify():
            try:
                os.unlink(self.path)
            except FileNotFoundError:
                pass


class RangeScheduler:
    """Hands one worker dynamic trial ranges over a shared store.

    Stateless between calls by design: every :meth:`next_claim` decision
    is made against a fresh journal scan and lease listing passed in by
    the worker loop, so schedulers on different hosts need no channel
    beyond the store directory itself.
    """

    def __init__(
        self,
        store_path: str | os.PathLike[str],
        worker: str,
        trials: int,
        chunk: int,
        configs: list[str],
    ) -> None:
        if chunk < 1:
            raise CoordError(f"chunk must be >= 1, got {chunk}")
        if trials < 1:
            raise CoordError(f"trials must be >= 1, got {trials}")
        self.store_path = os.fspath(store_path)
        self.worker = worker
        self.trials = int(trials)
        self.chunk = int(chunk)
        #: Config keys in manifest order — all workers walk the sweep in
        #: the same order, so they converge on the same configs instead
        #: of spreading one worker per rate.
        self.configs = list(configs)
        ensure_coord_dirs(self.store_path)

    # ------------------------------------------------------------------
    # Claim-file primitives
    # ------------------------------------------------------------------
    def _claim_path(self, config: str, start: int, stop: int) -> str:
        return os.path.join(
            claim_dir(self.store_path), _claim_name(config, start, stop)
        )

    def _try_claim(self, config: str, start: int, stop: int) -> ClaimHandle | None:
        """First-claimer-wins acquisition (atomic create, full content)."""
        claim = Claim(
            config=config, start=start, stop=stop, worker=self.worker, fence=1
        )
        path = self._claim_path(config, start, stop)
        tmp = f"{path}.new-{self.worker}"
        with open(tmp, "wb") as handle:
            handle.write(_claim_payload(claim))
            handle.flush()
            os.fsync(handle.fileno())
        try:
            os.link(tmp, path)
        except FileExistsError:
            return None
        finally:
            os.unlink(tmp)
        return ClaimHandle(path=path, claim=claim)

    def _steal(self, handle: ClaimHandle) -> ClaimHandle:
        """Replace a stale owner's claim: fence + 1, atomic rename."""
        stolen = replace(handle.claim, worker=self.worker, fence=handle.claim.fence + 1)
        tmp = f"{handle.path}.steal-{self.worker}"
        with open(tmp, "wb") as out:
            out.write(_claim_payload(stolen))
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp, handle.path)
        _logger.info(
            "worker %s stole trials [%d, %d) of %r from %s (fence %d)",
            self.worker,
            stolen.start,
            stolen.stop,
            stolen.config,
            handle.claim.worker,
            stolen.fence,
        )
        return ClaimHandle(path=handle.path, claim=stolen)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def ranges(self) -> list[tuple[int, int]]:
        """The chunk-aligned ranges every config's trial space cuts into."""
        return [
            (start, min(start + self.chunk, self.trials))
            for start in range(0, self.trials, self.chunk)
        ]

    def next_claim(
        self,
        journaled: dict[str, set[int]],
        leases: dict[str, LeaseInfo],
        on_steal: Callable[[], None] | None = None,
    ) -> ClaimHandle | None:
        """Claim the next range with work left, stealing from the dead.

        Walks configs in manifest order and ranges in trial order.  For
        each incomplete range: unclaimed → claim it; claimed by a live
        worker → skip; claimed by a stale/released worker → steal it
        (``on_steal`` fires once per steal, feeding the lease tally).
        Fully-journaled ranges get their leftover claim files collected.
        Returns None when nothing is claimable right now — the caller
        distinguishes "campaign complete" from "peers hold everything"
        via the journal scan it already has.
        """
        for config in self.configs:
            done = journaled.get(config, set())
            # No early-out on complete configs: the range walk below is
            # also the garbage collector for their leftover claim files
            # (a crashed owner's claim would otherwise linger forever).
            for start, stop in self.ranges():
                missing = [t for t in range(start, stop) if t not in done]
                existing_path = self._claim_path(config, start, stop)
                existing = read_claim(existing_path)
                if not missing:
                    # Range complete: the claim file (ours or a corpse's)
                    # is garbage now; anyone may collect it.
                    if existing is not None:
                        try:
                            os.unlink(existing_path)
                        except FileNotFoundError:
                            pass
                    continue
                if existing is None:
                    handle = self._try_claim(config, start, stop)
                    if handle is not None:
                        return handle
                    continue  # raced another claimer; move on
                if existing.worker == self.worker:
                    # Our own claim from an earlier loop iteration (a
                    # budget-interrupted range, say): just resume it.
                    return ClaimHandle(path=existing_path, claim=existing)
                owner = leases.get(existing.worker)
                if owner is not None and owner.live:
                    continue
                handle = self._steal(
                    ClaimHandle(path=existing_path, claim=existing)
                )
                if on_steal is not None:
                    on_steal()
                return handle
        return None
