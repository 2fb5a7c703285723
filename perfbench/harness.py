"""Shared plumbing of the repository benchmark: host header, span log,
statistics, memory and bandwidth probes.

Modules here import ``repro`` only inside functions, after ``run.py``
has put the checkout's ``src`` directory on ``sys.path``.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import time
from pathlib import Path

import numpy as np


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default rule)."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cache_sizes() -> dict:
    """Unified/data cache sizes by level, from the kernel's cpu0 view."""
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        unit = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
        number = size[:-1] if size[-1:] in "KMG" else size
        sizes[f"L{level}"] = int(number) * unit
    return sizes


def host_header() -> dict:
    """Machine facts a reader needs to compare two runs."""
    try:
        import numba  # noqa: F401

        numba_present = True
    except ImportError:
        numba_present = False
    from repro.exec.backends import _resolve

    caches = _cache_sizes()
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": numba_present,
        "default_backend": _resolve(None),
        "blas_threads": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "l2_bytes": caches.get("L2"),
        "llc_bytes": caches.get("L3", caches.get("L2")),
    }


def host_copy_gbs(size_bytes: int, repeats: int = 3) -> float:
    """Warm copy bandwidth of one ``size_bytes`` array into another.

    Bytes moved per copy count the read and the write.  One untimed copy
    first touches the destination pages, which otherwise dominate
    (first-touch page faults run an order of magnitude slower).
    """
    n = size_bytes // 8
    src = np.ones(n)
    dst = np.empty(n)
    np.copyto(dst, src)
    samples = []
    for _ in range(repeats):
        tick = time.perf_counter()
        np.copyto(dst, src)
        samples.append(time.perf_counter() - tick)
    del src, dst
    return 2 * n * 8 / median(samples) / 1e9


def array_bytes(obj) -> int:
    """Bytes of the numpy arrays an object holds directly."""
    return sum(
        v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray)
    )


class SpanLog:
    """In-memory spans of one traced run: name, start, end, parent and
    (for served queries) the query id.  Times are seconds since the log
    was created."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: list[dict] = []

    def add(self, name, start, end, parent=None, **attrs) -> int:
        """Record a finished span from absolute ``perf_counter`` times."""
        span_id = len(self.spans)
        self.spans.append({
            "id": span_id,
            "name": name,
            "start": start - self.origin,
            "end": end - self.origin,
            "parent": parent,
            **attrs,
        })
        return span_id

    def open(self, name, parent=None, **attrs) -> int:
        """Start a span now; close it with :meth:`close`."""
        span_id = self.add(name, time.perf_counter(), 0.0, parent, **attrs)
        self.spans[span_id]["end"] = None
        return span_id

    def close(self, span_id: int) -> float:
        """End a span now; returns its duration in seconds."""
        span = self.spans[span_id]
        span["end"] = time.perf_counter() - self.origin
        return span["end"] - span["start"]

    def write(self, path: Path, **payload) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**payload, "spans": self.spans}, fh)


def timed(fn, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    tick = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - tick
