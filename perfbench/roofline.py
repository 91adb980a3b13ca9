"""Memory-copy roofline: ``python perfbench/roofline.py`` prints one JSON line.

Copies a float32 array four times the size of the largest CPU cache
(so neither side stays cache-resident) and reports bytes read plus
bytes written per second, the same accounting the gather bandwidth of
the traced runs uses.  The array size and the cache size are reported
with it.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import numpy as np


def llc_bytes() -> int:
    """Largest CPU cache reported by sysfs (0 when unreadable)."""
    largest = 0
    for entry in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            text = (entry / "size").read_text().strip()
        except OSError:
            continue
        units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
        value = int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)
        largest = max(largest, value)
    return largest


def memcpy_gbps() -> dict[str, float]:
    """Copy bandwidth (bytes read + written per second) on arrays >= 4x LLC."""
    llc = llc_bytes() or (32 << 20)
    size = 4 * llc
    src = np.ones(size // 4, dtype=np.float32)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # fault the destination pages in
    times = []
    for _ in range(3):
        started = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - started)
    del src, dst
    return {"gbps": 2 * size / statistics.median(times) / 1e9, "array_bytes": size, "llc_bytes": llc}


if __name__ == "__main__":
    print(json.dumps(memcpy_gbps()))
