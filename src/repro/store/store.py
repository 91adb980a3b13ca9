"""Durable, resumable, multi-writer campaign storage.

A :class:`CampaignStore` is a directory holding one campaign's entire
fault-injection record:

- ``manifest.json`` — the campaign's *identity* (seed, trial count, a
  fingerprint of the injector's fault space, the parameter-name table,
  the convolution and FitReLU numerics)
  plus one entry per fault configuration and
  free-form run metadata.  Written once, atomically, when the store is
  created with its whole sweep registered.
- ``trials.<segment>.jsonl`` — append-only trial journals, one per
  writer: one JSON line per completed trial with its exact accuracy,
  realised flip count, and the applied fault sites as ``(layer, bit)``
  pairs.  Each line is flushed as it is written, so a crash at trial
  4,900/5,000 loses at most the in-flight trial; a torn trailing line
  (the crash landed mid-write) is detected, left unfolded, and
  truncated before the writer's next append.

Because campaign trial seeds are schedule-independent (see
:mod:`repro.fault.parallel`), a store makes campaigns:

- **durable** — every completed trial survives the process;
- **resumable** — a worker (:class:`repro.coord.CampaignWorker`)
  evaluates only the trials no journal holds yet, so an
  interrupted-then-resumed campaign is bit-identical to an
  uninterrupted run;
- **multi-writer** — coordinated workers each journal to their own
  segment of one store, and loading folds the segments back into the
  straight run's records.

Floats round-trip exactly through JSON (``repr`` shortest-round-trip),
so folded accuracies are the bit-identical float64s the evaluator
produced.

Each journal *file* has one writer: a worker opens the store with a
``segment`` name and appends to its own ``trials.<segment>.jsonl``, so
N workers share one store directory without ever sharing a file
descriptor.  A store opened without a segment is read-only.  Loading
folds every segment together, plus the shared ``trials.jsonl`` that
older builds' single writer appended to, so their stores still resume:
a (config, trial) pair journaled twice must hold *equal* records (trial
seeds are schedule-independent, so honest re-execution is byte-equal)
and is deduplicated; unequal copies are a corruption error.  Worker
names live only in file names, never in record bytes — artifacts
derived from a multi-writer store are byte-identical to a one-worker
run's.

The store is the only reader of journals.  It remembers, per journal
file, the byte offset just past the last complete line it folded, and
:meth:`CampaignStore.refresh` folds only the bytes appended since —
with every check :meth:`CampaignStore.open` applies — so workers and
watch views keep one store open and refresh it instead of re-reading
every journal on each poll.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections.abc import Iterable, Mapping, Set
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, BinaryIO, Protocol

import numpy as np

from repro.errors import ConfigurationError, ReproError
from repro.fault.parallel import TrialOutcome
from repro.obs.metrics import default_registry
from repro.store.encoding import exact_json_dump, exact_json_dumps
from repro.utils.logging import get_logger

if TYPE_CHECKING:
    from repro.fault.campaign import CampaignResult, FaultCampaign

__all__ = [
    "CampaignStore",
    "StoreError",
    "StoredFaultModel",
    "TrialRecord",
    "config_key",
]

_logger = get_logger("store")

#: Trials journaled by this process, across all stores — a side-band
#: progress counter for scrapes of the process registry.
_TRIALS_JOURNALED = default_registry().counter(
    "repro_campaign_trials_journaled_total",
    "Trial outcomes appended to campaign journals by this process.",
)

_MANIFEST = "manifest.json"
#: The shared journal older builds' single writer appended to; read
#: (folded with the segments) but never written.
_JOURNAL = "trials.jsonl"
_SEGMENT_PREFIX = "trials."
_SEGMENT_SUFFIX = ".jsonl"
#: Segment names become file names; keep them flat and unambiguous
#: (no dots, so ``trials.<segment>.jsonl`` parses back uniquely).
_SEGMENT_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_"
)
_VERSION = 1


class StoreError(ReproError):
    """A campaign store is missing, corrupt, or incompatible."""


class Describable(Protocol):
    """Anything with a deterministic ``describe()`` spec string.

    The store journals fault models by this string alone (callables
    don't serialise); every fault model in :mod:`repro.fault` satisfies
    it, as does :class:`StoredFaultModel` itself.
    """

    def describe(self) -> str: ...


@dataclass(frozen=True)
class StoredFaultModel:
    """Stand-in fault model rebuilt from a journal (``describe`` only).

    Stores persist a fault model's deterministic ``describe()`` string,
    not the object (``param_filter`` callables don't serialise); results
    rebuilt from a store carry this shim in the ``fault_model`` slot.
    """

    spec: str

    def describe(self) -> str:
        return self.spec


@dataclass(frozen=True)
class TrialRecord:
    """One journaled trial: the outcome plus its applied fault sites.

    ``sites`` holds ``(layer_index, bit_position)`` pairs — layer
    indices point into the manifest's parameter-name table — recorded
    from the concrete sites each trial actually flipped; they are the
    raw material of the vulnerability atlas (:mod:`repro.store.atlas`).

    A record is a pure function of the trial's seed: two hosts that
    re-ran the same trial journal byte-identical lines, so the segment
    fold deduplicates them instead of reporting a conflict.
    """

    index: int
    accuracy: float
    flips: int
    sites: tuple[tuple[int, int], ...]


def config_key(tag: str, spec: str) -> str:
    """The journal key of one (tag, fault-spec) configuration.

    Public so read-only consumers (:mod:`repro.coord` admission checks,
    the watch view) can name configs without registering them.
    """
    return f"{tag}::{spec}"


@dataclass
class _Journal:
    """How far one journal file has been folded."""

    #: Byte offset just past the last complete line folded.
    offset: int = 0
    #: Lines folded, blank ones included (for error messages).
    lines: int = 0
    #: The (config, trial) pairs this file holds.
    pairs: set[tuple[str, int]] = field(default_factory=set)


def _identity_hash(identity: Mapping[str, object]) -> str:
    """Order-independent digest of a campaign identity (the config hash)."""
    text = exact_json_dumps(identity, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _mismatched_fields(
    ours: Mapping[str, object], theirs: Mapping[str, object]
) -> list[str]:
    """Identity fields whose values differ (for diagnostics)."""
    return [
        key
        for key in sorted(set(ours) | set(theirs))
        if ours.get(key) != theirs.get(key)
    ]


class CampaignStore:
    """One campaign's on-disk journal; see the module docstring.

    Construct through :meth:`create` (a fresh store, whole sweep
    registered) or :meth:`open`; :meth:`attach` verifies an open store
    belongs to a given campaign.
    """

    def __init__(
        self, path: str, manifest: dict[str, Any], segment: str | None = None
    ) -> None:
        self.path = path
        self._manifest = manifest
        self._records: dict[str, dict[int, TrialRecord]] = {}
        #: Fold state per journal file name, in fold order.
        self._journals: dict[str, _Journal] = {}
        self._segment = segment
        self._writer: BinaryIO | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @staticmethod
    def campaign_identity(campaign: "FaultCampaign") -> dict[str, object]:
        """The identity block a campaign's store must match to resume.

        ``layer_words``/``word_bits`` record each layer's fault-space
        size (words per layer, bits per word) when the injector exposes
        them — the denominators :func:`repro.store.atlas.build_atlas`
        normalises raw SDC rates by to get per-bit vulnerability
        densities.  They are derived from the same planned fault space
        the fingerprint hashes, so including them adds no new ways for
        resume to mismatch.

        ``shard`` is always ``None``.  The key stays so existing
        manifests keep their config hash and older workers can still
        join new stores; :meth:`open` refuses a non-null one.

        ``numerics`` names the arithmetic the trials ran under, the
        convolutions' and FitReLU's (``FaultCampaign.numerics``);
        :meth:`attach` refuses a store that records another value or
        none.
        """
        injector = campaign.injector
        fingerprint = getattr(injector, "fingerprint", None)
        words = getattr(injector, "parameter_words", None)
        fmt = getattr(injector, "fmt", None)
        bits = getattr(fmt, "total_bits", None)
        return {
            "seed": int(campaign.seed),
            "trials": int(campaign.trials),
            "shard": None,
            "fingerprint": fingerprint() if callable(fingerprint) else "unknown",
            "layers": list(getattr(injector, "parameter_names", [])),
            "layer_words": [int(w) for w in words] if words is not None else None,
            "word_bits": int(bits) if bits is not None else None,
            "numerics": str(campaign.numerics),
        }

    @classmethod
    def exists(cls, path: str | os.PathLike[str]) -> bool:
        """Whether ``path`` already holds a campaign store.

        The single place that knows the on-disk layout — callers decide
        create-vs-resume through this instead of probing file names.
        """
        return os.path.exists(os.path.join(os.fspath(path), _MANIFEST))

    @classmethod
    def create(
        cls,
        path: str | os.PathLike[str],
        identity: Mapping[str, object],
        meta: Mapping[str, object] | None = None,
        configs: Iterable[Describable] = (),
        segment: str | None = None,
    ) -> "CampaignStore":
        """Initialise a fresh store directory with ``configs`` registered.

        Creation is exclusive: the manifest appears complete, sweep
        included, in one atomic step, and only if no manifest exists.
        Of two processes creating one store at once (``campaign run``
        workers starting together) exactly one succeeds; the other gets
        :class:`StoreError` and can join the winner's store.  The
        manifest is never rewritten afterwards.  The returned store is
        read-only unless ``segment`` names its journal segment, as in
        :meth:`open`.
        """
        path = os.fspath(path)
        segment = cls._validated_segment(segment)
        if cls.exists(path):
            raise StoreError(f"{path!r} already holds a campaign store")
        os.makedirs(path, exist_ok=True)
        identity = dict(identity)
        manifest: dict[str, Any] = {
            "version": _VERSION,
            "identity": identity,
            "config_hash": _identity_hash(identity),
            "configs": [],
            "meta": dict(meta or {}),
        }
        store = cls(path, manifest, segment=segment)
        store._add_configs(configs)
        store._write_manifest()
        return store

    @staticmethod
    def _validated_segment(segment: str | None) -> str | None:
        if segment is None:
            return None
        if not segment or not set(segment) <= _SEGMENT_CHARS:
            raise StoreError(
                f"invalid segment name {segment!r}: use letters, digits, "
                "'-' and '_' only"
            )
        return segment

    @classmethod
    def open(
        cls, path: str | os.PathLike[str], segment: str | None = None
    ) -> "CampaignStore":
        """Read the manifest, then fold every journal (:meth:`refresh`).

        With ``segment``, this instance may append to the private
        journal file ``trials.<segment>.jsonl`` — the mode
        :mod:`repro.coord` workers use; without one it is read-only.
        Reading always folds every journal file together regardless of
        ``segment``.
        """
        path = os.fspath(path)
        segment = cls._validated_segment(segment)
        manifest_path = os.path.join(path, _MANIFEST)
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except FileNotFoundError:
            raise StoreError(f"{path!r} is not a campaign store (no {_MANIFEST})")
        except json.JSONDecodeError as error:
            raise StoreError(f"{manifest_path!r} is corrupt: {error}")
        version = manifest.get("version")
        if version != _VERSION:
            raise StoreError(
                f"{path!r}: unsupported store version {version!r} "
                f"(this build reads version {_VERSION})"
            )
        expected = _identity_hash(manifest.get("identity", {}))
        if manifest.get("config_hash") != expected:
            raise StoreError(
                f"{path!r}: manifest config hash does not match its "
                "identity block (the manifest was edited or corrupted)"
            )
        if manifest.get("identity", {}).get("shard") is not None:
            raise StoreError(
                f"{path!r} holds one shard of a statically sharded campaign, "
                "which this build no longer reads; re-run the campaign into "
                "a fresh store with 'repro campaign run'"
            )
        store = cls(path, manifest, segment=segment)
        store.refresh()
        return store

    def attach(self, campaign: "FaultCampaign") -> "CampaignStore":
        """Verify this (already-open) store belongs to ``campaign``.

        Returns ``self``, so callers that peeked at the store's meta can
        keep using the same instance instead of re-parsing the journal
        through a second :meth:`open`.
        """
        identity = self.campaign_identity(campaign)
        theirs = self.identity
        if theirs.get("numerics") != identity["numerics"]:
            recorded = (
                "no 'numerics' identity field"
                if "numerics" not in theirs
                else f"'numerics' = {theirs['numerics']!r}"
            )
            raise StoreError(
                f"store {self.path!r} has {recorded}, but this build's "
                f"convolutions and FitReLU compute {identity['numerics']!r}: "
                "its trials came from other arithmetic and must not mix "
                "with new ones. "
                "Start a fresh store (a new --store directory)"
            )
        if theirs != identity:
            raise StoreError(
                f"store {self.path!r} belongs to a different campaign "
                f"(mismatched: {', '.join(_mismatched_fields(identity, theirs))})"
            )
        return self

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def _manifest_path(self) -> str:
        return os.path.join(self.path, _MANIFEST)

    @property
    def _journal_name(self) -> str | None:
        """This writer's journal file name (None = read-only)."""
        if self._segment is None:
            return None
        return _SEGMENT_PREFIX + self._segment + _SEGMENT_SUFFIX

    @property
    def segment(self) -> str | None:
        """This writer's segment name (None = read-only)."""
        return self._segment

    @property
    def identity(self) -> dict[str, Any]:
        identity: dict[str, Any] = dict(self._manifest["identity"])
        return identity

    @property
    def meta(self) -> dict[str, Any]:
        meta: dict[str, Any] = dict(self._manifest["meta"])
        return meta

    @property
    def config_hash(self) -> str:
        return str(self._manifest["config_hash"])

    @property
    def seed(self) -> int:
        return int(self._manifest["identity"]["seed"])

    @property
    def trials(self) -> int:
        return int(self._manifest["identity"]["trials"])

    @property
    def layers(self) -> list[str]:
        return list(self._manifest["identity"].get("layers", []))

    @property
    def _configs(self) -> list[dict[str, Any]]:
        configs: list[dict[str, Any]] = self._manifest["configs"]
        return configs

    def config_keys(self) -> list[str]:
        """Config keys in first-run order (the sweep's rate order)."""
        return [str(entry["key"]) for entry in self._configs]

    def config_entry(self, key: str) -> dict[str, Any]:
        for entry in self._configs:
            if entry["key"] == key:
                return entry
        raise StoreError(f"store has no config {key!r}")

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def _write_manifest(self) -> None:
        """Exclusive, atomic write: temp file in the same directory,
        hard-linked into place.

        The link fails if a manifest already exists, so a racing
        creator can never replace the winner's manifest.  The temp name
        is per process and thread: writers that create one store at the
        same moment must not move each other's file away.
        """
        tmp = f"{self._manifest_path}.{os.getpid()}.{threading.get_ident()}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            exact_json_dump(self._manifest, handle, indent=2)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        try:
            os.link(tmp, self._manifest_path)
        except FileExistsError:
            raise StoreError(
                f"{self.path!r} already holds a campaign store"
            ) from None
        finally:
            os.unlink(tmp)

    @staticmethod
    def _journal_file_names(path: str) -> list[str]:
        """All journal files in fold order: an older build's shared
        journal first, then segments.

        Sorted segment names make the fold order deterministic, so two
        hosts opening the same directory agree on which copy of a
        duplicated record is "first" (they are equal anyway — the order
        only matters for error attribution).
        """
        names = sorted(os.listdir(path))
        segments = [
            name
            for name in names
            if name != _JOURNAL
            and name.startswith(_SEGMENT_PREFIX)
            and name.endswith(_SEGMENT_SUFFIX)
        ]
        return ([_JOURNAL] if _JOURNAL in names else []) + segments

    def refresh(self) -> None:
        """Fold the journal lines appended since the last fold.

        Reads each journal file only past the offset it was folded to,
        so a poll of an unchanged store decodes nothing.  A file's
        unterminated last line (a peer's append in flight, or a crashed
        writer's torn tail) waits for a later refresh.  Raises
        :class:`StoreError` on a corrupt line, an unknown config, a
        trial one file journals twice, or a trial two files journal
        unequally; equal copies across files are deduplicated.
        """
        known = set(self.config_keys())
        for name in self._journal_file_names(self.path):
            journal = self._journals.setdefault(name, _Journal())
            file_path = os.path.join(self.path, name)
            with open(file_path, "rb") as handle:
                handle.seek(journal.offset)
                data = handle.read()
            for line in data.split(b"\n")[:-1]:
                if line:
                    self._fold(file_path, journal, line, known)
                journal.lines += 1
                journal.offset += len(line) + 1

    def _fold(
        self, file_path: str, journal: _Journal, line: bytes, known: set[str]
    ) -> None:
        number = journal.lines + 1
        try:
            # Other keys are read past: older builds also journaled
            # each trial's wall clock (`sec`).
            raw = json.loads(line)
            record = TrialRecord(
                index=int(raw["t"]),
                accuracy=float(raw["a"]),
                flips=int(raw["f"]),
                sites=tuple((int(layer), int(bit)) for layer, bit in raw["s"]),
            )
            key = str(raw["c"])
        except (ValueError, KeyError, TypeError) as error:
            raise StoreError(
                f"{file_path!r}: corrupt record on line {number}: {error}"
            )
        if key not in known:
            raise StoreError(
                f"{file_path!r}: line {number} references config {key!r} "
                "absent from the manifest"
            )
        pair = (key, record.index)
        if pair in journal.pairs:
            # One writer journaling a trial twice is corruption; only
            # *cross-file* duplicates can be honest re-runs.
            raise StoreError(
                f"{file_path!r}: duplicate record for config {key!r} "
                f"trial {record.index}"
            )
        per_config = self._records.setdefault(key, {})
        prior = per_config.get(record.index)
        if prior is not None and prior != record:
            origin = next(
                other
                for other, folded in self._journals.items()
                if pair in folded.pairs
            )
            raise StoreError(
                f"{file_path!r}: config {key!r} trial {record.index} "
                f"conflicts with the copy in {origin!r} "
                f"({prior.accuracy!r} vs {record.accuracy!r})"
            )
        per_config[record.index] = record
        journal.pairs.add(pair)

    def _append(self, key: str, record: TrialRecord) -> None:
        own = self._journal_name
        if own is None:
            raise StoreError(
                f"store {self.path!r} was opened read-only; journal "
                "through a segment writer (CampaignStore.open(path, "
                "segment=...))"
            )
        journal = self._journals.setdefault(own, _Journal())
        writer = self._writer
        if writer is None:
            path = os.path.join(self.path, own)
            # A fresh segment writer's file doesn't exist yet.
            with open(path, "ab"):
                pass
            # Reclaim any torn tail before the first append of this
            # session, so the journal stays a clean sequence of lines.
            writer = open(path, "r+b")
            torn = os.fstat(writer.fileno()).st_size - journal.offset
            if torn:
                _logger.warning(
                    "%s: truncating a torn trailing record (%d bytes) — "
                    "the previous run crashed mid-write",
                    path,
                    torn,
                )
            writer.seek(journal.offset)
            writer.truncate()
            self._writer = writer
        line = exact_json_dumps(
            {
                "c": key,
                "t": record.index,
                "a": record.accuracy,
                "f": record.flips,
                "s": [[layer, bit] for layer, bit in record.sites],
            }
        )
        payload = line.encode("utf-8") + b"\n"
        writer.write(payload)
        writer.flush()
        journal.lines += 1
        journal.offset += len(payload)
        journal.pairs.add((key, record.index))

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # The journal surface
    # ------------------------------------------------------------------
    def _add_configs(self, fault_models: Iterable[Describable]) -> None:
        """Append unknown configurations to the in-memory manifest.

        Stores register untagged configs; older builds' stores may
        carry tagged ones, which read and report the same way.
        """
        registered = {str(entry["key"]) for entry in self._configs}
        for fault_model in fault_models:
            spec = fault_model.describe()
            key = config_key("", spec)
            if key in registered:
                continue
            self._configs.append(
                {"key": key, "tag": "", "spec": spec, "converged_at": None}
            )
            registered.add(key)

    def writer_counts(self) -> dict[str, int]:
        """Records folded per writer (journal file), peers included.

        Keys are segment names, with ``""`` standing for an older
        build's shared ``trials.jsonl``; a trial two writers journaled
        counts for each.
        """
        counts: dict[str, int] = {}
        for name, journal in self._journals.items():
            writer = name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)]
            counts["" if name == _JOURNAL else writer] = len(journal.pairs)
        return counts

    def journaled(self, key: str) -> Set[int]:
        """Trial indices of one config folded so far (a live view)."""
        return self._records.get(key, {}).keys()

    def records(self, key: str) -> dict[int, TrialRecord]:
        """Full journal records (with sites) of one config.

        Always in trial-index order, regardless of journal append order
        — a folded multi-writer store and a straight run therefore feed
        downstream aggregation (the atlas's order-sensitive float
        reductions included) identical streams.
        """
        return dict(sorted(self._records.get(key, {}).items()))

    def converged_at(self, key: str) -> int | None:
        """The trial count after which an older build's in-store
        early stop closed this config (None = runs every trial)."""
        value = self.config_entry(key).get("converged_at")
        return None if value is None else int(value)

    def record(
        self,
        key: str,
        outcome: TrialOutcome,
        sites: Iterable[tuple[int, int]],
    ) -> None:
        """Journal one fresh trial outcome to this writer's segment (flushed)."""
        self.config_entry(key)  # raises on unknown config
        per_config = self._records.setdefault(key, {})
        if outcome.index in per_config:
            raise ConfigurationError(
                f"trial {outcome.index} of config {key!r} is already journaled"
            )
        record = TrialRecord(
            index=int(outcome.index),
            accuracy=float(outcome.accuracy),
            flips=int(outcome.flips),
            sites=tuple((int(layer), int(bit)) for layer, bit in sites),
        )
        self._append(key, record)
        per_config[record.index] = record
        # Side-band progress signal for the process registry; never
        # touches the journal bytes.
        _TRIALS_JOURNALED.inc(1)

    # ------------------------------------------------------------------
    # Completeness and results
    # ------------------------------------------------------------------
    def expected_indices(self, key: str) -> list[int]:
        """The trial indices this store is responsible for journaling."""
        converged = self.converged_at(key)
        if converged is not None:
            return list(range(converged))
        return list(range(self.trials))

    def missing_indices(self, key: str) -> list[int]:
        have = self._records.get(key, {})
        return [t for t in self.expected_indices(key) if t not in have]

    def complete(self, key: str) -> bool:
        return not self.missing_indices(key)

    def result(self, key: str) -> "CampaignResult":
        """Rebuild one config's :class:`CampaignResult` from the journal.

        Exact by construction: accuracies/flips are the journaled
        float64/int64 values in trial-index order.
        """
        from repro.fault.campaign import CampaignResult

        missing = self.missing_indices(key)
        if missing:
            raise StoreError(
                f"config {key!r} is incomplete: {len(missing)} of "
                f"{len(self.expected_indices(key))} trials missing "
                "(resume the campaign first)"
            )
        records = self._records.get(key, {})
        order = self.expected_indices(key)
        return CampaignResult(
            StoredFaultModel(str(self.config_entry(key)["spec"])),
            np.asarray([records[t].accuracy for t in order], dtype=np.float64),
            np.asarray([records[t].flips for t in order], dtype=np.int64),
        )

    def status(self) -> dict[str, object]:
        """JSON-ready progress summary (the head of ``repro campaign watch``)."""
        configs: list[dict[str, object]] = []
        total_done = 0
        total_expected = 0
        for entry in self._configs:
            key = str(entry["key"])
            records = self._records.get(key, {})
            expected = self.expected_indices(key)
            done = sum(1 for t in expected if t in records)
            total_done += done
            total_expected += len(expected)
            configs.append(
                {
                    "key": key,
                    "tag": str(entry["tag"]),
                    "spec": str(entry["spec"]),
                    "journaled": done,
                    "expected": len(expected),
                    "converged_at": entry.get("converged_at"),
                    "mean_accuracy": (
                        float(
                            np.mean(
                                [records[t].accuracy for t in expected if t in records]
                            )
                        )
                        if done
                        else None
                    ),
                }
            )
        return {
            "path": self.path,
            "seed": self.seed,
            "trials": self.trials,
            "configs": configs,
            "journaled": total_done,
            "expected": total_expected,
            "complete": total_done >= total_expected,
        }
