"""Exact-float JSON encoding for store artefacts.

Every byte the store writes must round-trip: a resumed campaign replays
journaled accuracies and must reproduce the original float64s bit for
bit, and the resume / steal CI checks compare store artefacts with
``cmp``.  Python's :mod:`json` already serialises floats via ``repr``
(shortest string that round-trips), so the *encoding* is exact — what
these wrappers add is the contract around it:

- ``allow_nan=False``: ``NaN``/``Infinity`` are not JSON and do not
  round-trip through other readers; a fault campaign that produces one
  should fail loudly at write time, not corrupt the journal.
- One compact separator convention (``(",", ":")`` when unindented) so
  journal lines and identity hashes are byte-stable across call sites.

All JSON writes inside :mod:`repro.store` must go through this module;
RPL005 (``repro lint``) enforces it.
"""

from __future__ import annotations

import json
from typing import IO, Any

__all__ = ["exact_json_dump", "exact_json_dumps"]


def exact_json_dumps(
    payload: Any,
    *,
    indent: int | None = None,
    sort_keys: bool = False,
) -> str:
    """Serialise ``payload`` with exact-float guarantees.

    Unindented output is compact (``(",", ":")`` separators); indented
    output keeps :mod:`json`'s default separators, matching what the
    manifest and atlas files have always contained.
    """
    return json.dumps(
        payload,
        indent=indent,
        sort_keys=sort_keys,
        separators=(",", ":") if indent is None else None,
        allow_nan=False,
    )


def exact_json_dump(
    payload: Any,
    handle: IO[str],
    *,
    indent: int | None = None,
    sort_keys: bool = False,
) -> None:
    """File-writing counterpart of :func:`exact_json_dumps`."""
    handle.write(exact_json_dumps(payload, indent=indent, sort_keys=sort_keys))
