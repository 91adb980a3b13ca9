"""Advisory lease files: crash-safe worker liveness over a shared store.

Every coordinated worker (:class:`repro.coord.worker.CampaignWorker`)
holds one lease file under ``<store>/coord/leases/<worker>.json`` for as
long as it participates in a campaign:

- the file carries the worker's id, a **monotonic beat counter**, its
  expiry window, and a tally of the ranges it stole (trial counts come
  from the journal segments themselves);
- a daemon heartbeat thread atomically rewrites it (temp file +
  ``os.replace``) every quarter-expiry, so the file's mtime advances
  while the worker lives and freezes the moment it dies — SIGKILL
  included, which is the whole point: liveness needs no cooperation
  from the corpse;
- a clean shutdown writes ``released: true``, letting peers reclaim the
  worker's ranges immediately instead of waiting out the expiry.

**Staleness is judged against the filesystem's clock, not the local
wall clock**: :func:`fs_now` creates a probe file next to the leases,
reads back its mtime and removes it.  Lease age is then
``fs_now - lease mtime`` — two timestamps issued by the same
filesystem — so workers on hosts with skewed clocks still agree on who
is stale, and the coordination layer stays free of wall-clock reads on
journaled paths (RPL004; lease files are side-band and never feed
artifact bytes).

Leases are *advisory*: they gate nothing by themselves.  Mutual
exclusion over trial ranges comes from the claim files
(:mod:`repro.coord.scheduler`), whose fencing tokens make even a
wrongly-presumed-dead worker harmless.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import threading

from dataclasses import dataclass

from repro.errors import ReproError
from repro.utils.logging import get_logger

__all__ = [
    "DEFAULT_EXPIRY_S",
    "CoordError",
    "LeaseInfo",
    "WorkerLease",
    "claim_dir",
    "coord_root",
    "ensure_coord_dirs",
    "fs_now",
    "lease_dir",
    "list_leases",
    "read_lease",
]

_logger = get_logger("coord.lease")

_COORD_DIR = "coord"
_LEASE_DIR = "leases"
_CLAIM_DIR = "claims"
_SUFFIX = ".json"

#: Default lease expiry.  Heartbeats land every quarter of this, so a
#: worker survives three missed beats before peers may steal its ranges.
DEFAULT_EXPIRY_S = 30.0

#: Worker ids become lease/segment file names; keep them flat.
_WORKER_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_"
)


class CoordError(ReproError):
    """A coordination-protocol violation (bad join, lost lease, …)."""


def validated_worker_id(worker: str) -> str:
    """Check a worker id is usable as a lease/segment file name."""
    if not worker or not set(worker) <= _WORKER_CHARS:
        raise CoordError(
            f"invalid worker id {worker!r}: use letters, digits, "
            "'-' and '_' only"
        )
    return worker


def coord_root(store_path: str | os.PathLike[str]) -> str:
    """The coordination directory inside a campaign store."""
    return os.path.join(os.fspath(store_path), _COORD_DIR)


def lease_dir(store_path: str | os.PathLike[str]) -> str:
    return os.path.join(coord_root(store_path), _LEASE_DIR)


def claim_dir(store_path: str | os.PathLike[str]) -> str:
    return os.path.join(coord_root(store_path), _CLAIM_DIR)


def ensure_coord_dirs(store_path: str | os.PathLike[str]) -> str:
    """Create ``coord/{leases,claims}/`` (idempotent); returns the root."""
    root = coord_root(store_path)
    os.makedirs(os.path.join(root, _LEASE_DIR), exist_ok=True)
    os.makedirs(os.path.join(root, _CLAIM_DIR), exist_ok=True)
    return root


def fs_now(store_path: str | os.PathLike[str]) -> float:
    """The *filesystem's* idea of now, in seconds since the epoch.

    Creates a uniquely named probe file under the coord root, reads its
    mtime back and removes it, so no probe outlives the call (and
    concurrent callers in one process never share one).  Every
    freshness comparison in this module is between two timestamps the
    same filesystem issued, so multi-host workers on a shared mount
    agree on staleness regardless of local clock skew — and no wall
    clock is ever read.
    """
    root = ensure_coord_dirs(store_path)
    handle, probe = tempfile.mkstemp(prefix=".clock-", dir=root)
    try:
        return float(os.fstat(handle).st_mtime)
    finally:
        os.close(handle)
        os.unlink(probe)


@dataclass(frozen=True)
class LeaseInfo:
    """One lease file's contents plus its age at read time."""

    worker: str
    beat: int
    expiry_s: float
    steals: int
    released: bool
    age_s: float

    @property
    def live(self) -> bool:
        """Fresh and not released — this worker's claims are untouchable."""
        return not self.released and self.age_s <= self.expiry_s


def read_lease(path: str, now: float) -> LeaseInfo | None:
    """Parse one lease file (None if missing or unreadable).

    Lease files are written via atomic replace, so an unreadable one is
    a deleted or foreign file, not a torn write.  Keys this build does
    not read (older builds' ``trials`` tally) are ignored.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
        stamp = os.stat(path).st_mtime
    except (OSError, json.JSONDecodeError):
        return None
    try:
        return LeaseInfo(
            worker=str(raw["worker"]),
            beat=int(raw["beat"]),
            expiry_s=float(raw["expiry_s"]),
            steals=int(raw["steals"]),
            released=bool(raw["released"]),
            age_s=max(0.0, now - stamp),
        )
    except (KeyError, TypeError, ValueError):
        return None


def list_leases(store_path: str | os.PathLike[str]) -> dict[str, LeaseInfo]:
    """All readable leases in the store's coord dir, by worker id."""
    directory = lease_dir(store_path)
    try:
        names = sorted(os.listdir(directory))
    except FileNotFoundError:
        return {}
    now = fs_now(store_path)
    leases: dict[str, LeaseInfo] = {}
    for name in names:
        if not name.endswith(_SUFFIX):
            continue
        info = read_lease(os.path.join(directory, name), now)
        if info is not None:
            leases[info.worker] = info
    return leases


class WorkerLease:
    """One worker's heartbeat lease; a daemon thread keeps it fresh.

    Use as a context manager (or :meth:`acquire`/:meth:`release`):
    acquisition refuses a worker id whose lease is still live, writes
    the initial lease file, and starts the heartbeat; release stops the
    heartbeat and marks the lease ``released`` so peers reclaim this
    worker's ranges without waiting out the expiry.
    """

    def __init__(
        self,
        store_path: str | os.PathLike[str],
        worker: str,
        expiry_s: float = DEFAULT_EXPIRY_S,
    ) -> None:
        if not (math.isfinite(expiry_s) and expiry_s > 0.0):
            # A NaN expiry would make the lease never live (peers steal
            # at once) and the heartbeat spin without waiting.
            raise CoordError(f"lease expiry must be finite and > 0, got {expiry_s}")
        self.store_path = os.fspath(store_path)
        self.worker = validated_worker_id(worker)
        self.expiry_s = float(expiry_s)
        self.path = os.path.join(lease_dir(store_path), worker + _SUFFIX)
        self._beat = 0
        self._steals = 0
        self._released = False
        self._held = False
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    @property
    def steals(self) -> int:
        return self._steals

    def acquire(self) -> "WorkerLease":
        ensure_coord_dirs(self.store_path)
        existing = read_lease(self.path, fs_now(self.store_path))
        if existing is not None and existing.live:
            raise CoordError(
                f"worker id {self.worker!r} already holds a live lease on "
                f"{self.store_path!r} (beat {existing.beat}, age "
                f"{existing.age_s:.1f}s); pick a unique id per process"
            )
        with self._lock:
            self._released = False
            self._write()
        self._held = True
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._heartbeat, name=f"lease-{self.worker}", daemon=True
        )
        self._thread.start()
        _logger.info(
            "worker %s leased %s (expiry %.1fs)",
            self.worker,
            self.store_path,
            self.expiry_s,
        )
        return self

    def _payload(self) -> dict[str, object]:
        return {
            "worker": self.worker,
            "beat": self._beat,
            "expiry_s": self.expiry_s,
            "steals": self._steals,
            "released": self._released,
        }

    def _write(self) -> None:
        """Atomic rewrite — readers never see a torn lease."""
        tmp = f"{self.path}.tmp-{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self._payload(), handle, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)

    def _heartbeat(self) -> None:
        interval = max(self.expiry_s / 4.0, 0.02)
        while not self._stop.wait(interval):
            with self._lock:
                if self._released:
                    break
                self._beat += 1
                self._write()

    def beat(self) -> None:
        """Refresh the lease now (the heartbeat thread normally does)."""
        with self._lock:
            self._beat += 1
            self._write()

    def note_steal(self) -> None:
        """Tally a stolen range (surfaces in ``campaign watch``)."""
        with self._lock:
            self._steals += 1
            self._write()

    def release(self) -> None:
        """Clean shutdown: stop the heartbeat, mark the lease released."""
        if not self._held:
            return
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join()
        with self._lock:
            self._released = True
            self._write()
        self._held = False
        _logger.info("worker %s released its lease", self.worker)

    def __enter__(self) -> "WorkerLease":
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()
