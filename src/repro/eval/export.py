"""Machine-readable export of experiment results.

Every experiment result in this library renders itself as text
(`to_text()`) for the terminal and `benchmarks/outputs/<id>.txt`;
downstream users who want to *plot* the reproduction need the numbers.
`result_to_dict` converts any experiment result into plain
JSON-serialisable data (floats, strings, lists — numpy scalars and
arrays are unwrapped), and `save_json` / `save_csv` write it out.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import fields, is_dataclass
from typing import Any

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["result_to_dict", "save_csv", "save_json"]

_MAX_DEPTH = 12


def _plain(value: Any, depth: int = 0) -> Any:
    """Recursively convert a result object into JSON-serialisable data."""
    if depth > _MAX_DEPTH:
        return repr(value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (np.bool_, np.integer)):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {str(key): _plain(item, depth + 1) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item, depth + 1) for item in value]
    if is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _plain(getattr(value, field.name), depth + 1)
            for field in fields(value)
        }
    # Opaque objects (profiles, fault models, …): a readable stand-in.
    describe = getattr(value, "describe", None)
    if callable(describe):
        return describe()
    return repr(value)


def result_to_dict(result: Any) -> dict[str, Any]:
    """Convert an experiment result (any of the ``*Result`` dataclasses
    or :class:`~repro.eval.experiments.ablations.AblationResult`) into a
    JSON-serialisable dictionary."""
    data = _plain(result)
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"cannot export {type(result).__name__}: not a result dataclass"
        )
    data["result_type"] = type(result).__name__
    return data


def save_json(path: str | os.PathLike, result: Any) -> None:
    """Write an experiment result as pretty-printed JSON."""
    payload = result_to_dict(result)
    with open(os.fspath(path), "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def save_csv(path: str | os.PathLike, result: Any) -> None:
    """Write a tabular experiment result as CSV.

    Works for any result exposing ``headers`` and ``rows`` (the
    ablation/extension tables).  Curve-style results should use
    :func:`save_json`, which preserves their full structure.
    """
    headers = getattr(result, "headers", None)
    rows = getattr(result, "rows", None)
    if headers is None or rows is None:
        raise ConfigurationError(
            f"{type(result).__name__} has no headers/rows table; "
            "use save_json for curve-style results"
        )
    with open(os.fspath(path), "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([str(h) for h in headers])
        for row in rows:
            writer.writerow([str(cell) for cell in row])
