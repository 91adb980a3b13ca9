"""Durable, resumable, multi-writer campaign storage (+ vulnerability atlas).

``CampaignStore`` journals every fault-injection trial to disk as it
completes, so campaigns survive crashes, resume bit-identically, and
can be drained by many coordinated workers whose per-worker journal
segments fold back into one result.
``build_atlas`` aggregates the journaled fault sites into per-layer and
per-bit sensitivity maps.  See :mod:`repro.store.store` for the format.
"""

from repro.store.atlas import build_atlas
from repro.store.store import (
    CampaignStore,
    JournalProgress,
    StoredFaultModel,
    StoreError,
    TrialRecord,
    config_key,
)

__all__ = [
    "CampaignStore",
    "JournalProgress",
    "StoreError",
    "StoredFaultModel",
    "TrialRecord",
    "build_atlas",
    "config_key",
]
