"""The walkthroughs under examples/ run as users run them.

Each script is started as its own process with ``PYTHONPATH=src``, as
its docstring says, and must exit 0 and print its result header.
``serve_client.py`` needs a running server, so CI's serve smoke job
drives it instead.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

HEADERS = {
    "quickstart.py": "fault rate  unprotected (flips)   FitAct (flips)",
    "custom_model.py": "accuracy under 50 bit-flips:",
    "resilience_report.py": "=== Resilience report: LeNet/SynthCIFAR-10, clean ",
}


@pytest.mark.parametrize("script", sorted(HEADERS))
def test_example_runs_and_prints_its_result(script, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert HEADERS[script] in result.stdout, result.stdout
