"""The machine record attached to every result."""

from __future__ import annotations

import multiprocessing
import os
import platform
from pathlib import Path


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def loadavg() -> list[float]:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return []


def cache_sizes() -> dict[str, str]:
    """Unified/data cache sizes of CPU 0 by level, as the kernel reports them."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def record() -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "caches": cache_sizes(),
        "mp_start_method": multiprocessing.get_start_method(),
    }


def load_warning(load: list[float]) -> str | None:
    if load and load[0] > nproc():
        return f"1-minute load {load[0]:g} exceeds nproc {nproc()}: timings are unreliable"
    return None
