"""Host probe: core count, CPU model, L3 size and a triad bandwidth."""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Dict, Optional

import numpy as np

#: Each triad array; at least 4x a 32 MiB L3, so the stream leaves cache.
TRIAD_ARRAY_BYTES = 128 * 2 ** 20
#: Elements per chunk: the ``s * c`` temporary stays in L2, so each
#: element moves 24 bytes (read b, read c, write a) as in STREAM.
TRIAD_CHUNK = 2 ** 15


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _l3_bytes() -> Optional[int]:
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(caches.glob("index*")):
        try:
            if (index / "level").read_text().strip() != "3":
                continue
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        units = {"K": 2 ** 10, "M": 2 ** 20, "G": 2 ** 30}
        if size[-1:] in units:
            return int(size[:-1]) * units[size[-1]]
        return int(size)
    return None


def triad_gbps(array_bytes: int = TRIAD_ARRAY_BYTES, repeats: int = 5) -> float:
    """Best-of-``repeats`` single-threaded ``a = b + s*c`` in GB/s."""
    n = array_bytes // 8
    b = np.full(n, 1.0)
    c = np.full(n, 2.0)
    a = np.empty(n)
    tmp = np.empty(TRIAD_CHUNK)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for lo in range(0, n, TRIAD_CHUNK):
            hi = min(lo + TRIAD_CHUNK, n)
            t = tmp[:hi - lo]
            np.multiply(c[lo:hi], 3.0, out=t)
            np.add(b[lo:hi], t, out=a[lo:hi])
        best = min(best, time.perf_counter() - start)
    if a[0] != 7.0 or a[-1] != 7.0:
        raise RuntimeError("triad probe computed a wrong result")
    return 3 * 8 * n / best / 1e9


def probe() -> Dict[str, object]:
    """The host facts every result records."""
    l3 = _l3_bytes()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l3_mib": None if l3 is None else l3 / 2 ** 20,
        "triad_array_mib": TRIAD_ARRAY_BYTES / 2 ** 20,
        "triad_gbps": triad_gbps(),
    }
