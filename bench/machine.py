"""Facts about the machine a result was measured on, and its copy bandwidth."""

from __future__ import annotations

import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np

from spec import THREAD_VARS

_CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")
_FALLBACK_L3 = 32 * 2**20  # used when the cache sizes cannot be read


def _parse_size(text: str) -> int:
    text = text.strip()
    units = {"K": 2**10, "M": 2**20, "G": 2**30}
    if text and text[-1] in units:
        return int(text[:-1]) * units[text[-1]]
    return int(text)


def cache_sizes() -> dict[str, int]:
    """Unified and data cache sizes in bytes by level, e.g. {"L2": ..., "L3": ...}."""
    sizes = {}
    for index in sorted(_CACHE_DIR.glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            level = (index / "level").read_text().strip()
            size = _parse_size((index / "size").read_text())
        except (OSError, ValueError):
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        return "unknown"


def facts() -> dict:
    caches = cache_sizes()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "l2_bytes": caches.get("L2"),
        "l3_bytes": caches.get("L3"),
    }


def copy_bandwidth(repeats: int = 5) -> dict:
    """Median numpy copy rate over arrays at least four times the last-level cache.

    Bytes moved per copy count one read and one write of the array.
    """
    last_level = max(cache_sizes().values(), default=_FALLBACK_L3)
    count = -(-4 * last_level // 8)
    src = np.ones(count)
    dst = np.empty(count)
    dst.fill(0.0)  # touch every page, so page faults stay out of the timing
    rates = []
    for _ in range(repeats):
        start = time.perf_counter()
        np.copyto(dst, src)
        rates.append(2 * src.nbytes / (time.perf_counter() - start) / 1e9)
    return {
        "copy_gb_s": statistics.median(rates),
        "array_bytes": int(src.nbytes),
        "last_level_cache_bytes": int(last_level),
    }
