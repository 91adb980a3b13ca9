"""Benchmark-suite fixtures.

Every paper artefact (figure/table) has one bench that regenerates it at
the QUICK preset and saves the text rendering as
``benchmarks/outputs/<id>.txt``.  Trained models are cached on disk
(``.cache/repro-experiments``), so the first invocation trains the
scaled zoo and later runs are much faster.
"""

from __future__ import annotations

from pathlib import Path

import pytest

OUTPUTS = Path(__file__).parent / "outputs"


@pytest.fixture(scope="session")
def save_output():
    """Persist an experiment's text rendering as ``outputs/<id>.txt``."""

    def _save(artefact_id: str, text: str) -> None:
        OUTPUTS.mkdir(exist_ok=True)
        path = OUTPUTS / f"{artefact_id}.txt"
        path.write_text(text + "\n", encoding="utf-8")

    return _save
