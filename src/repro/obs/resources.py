"""Process resource sampling: RSS, CPU time, and tracemalloc deltas.

The paper's pipeline only works at 5.2M-block scale if memory stays
bounded and CPU is actually spent in kernels rather than in dispatch
overhead.  This module is the single place the repo reads those numbers
from the OS, so every consumer (per-stage accounting in
``core.stages``, per-run summaries in ``runtime.engine``, the progress
heartbeat) agrees on units and sources:

* current RSS from ``/proc/self/statm`` (falls back to the high-water
  mark on platforms without procfs);
* RSS high-water from ``resource.getrusage`` — note ``ru_maxrss`` is
  kilobytes on Linux and bytes on macOS, normalised here once.  The two
  probes count pages differently and can disagree, so a reported peak
  is ``max(high-water, current)``: it never reads below the current RSS;
* CPU seconds from ``time.process_time`` (whole process) and
  ``time.thread_time`` (calling thread, used for per-stage splits);
* optional Python-heap deltas from :mod:`tracemalloc`, sampled only
  when tracing is already active (CPython's own ``PYTHONTRACEMALLOC=1``
  or ``-X tracemalloc`` turns it on — it costs 2-4x on allocation
  heavy code, so it is never enabled implicitly).

Everything returned here is plain ints/floats so snapshots pickle
cheaply through the worker metric-shipping machinery.
"""

from __future__ import annotations

import os
import resource
import sys
import time
import tracemalloc
from dataclasses import dataclass
from typing import Any

__all__ = [
    "ResourceSnapshot",
    "ResourceTracker",
    "cpu_seconds",
    "format_bytes",
    "peak_rss_bytes",
    "rss_bytes",
    "thread_cpu_seconds",
]

#: ``ru_maxrss`` unit: kilobytes everywhere except macOS (bytes).
_RU_MAXRSS_UNIT = 1 if sys.platform == "darwin" else 1024

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def peak_rss_bytes() -> int:
    """Process RSS high-water mark in bytes (monotonic within a process)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * _RU_MAXRSS_UNIT


def rss_bytes() -> int:
    """Current resident set size in bytes; peak RSS where procfs is absent."""
    try:
        with open("/proc/self/statm", "rb") as fh:
            fields = fh.read().split()
        return int(fields[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        return peak_rss_bytes()


def cpu_seconds() -> float:
    """CPU seconds (user+system) consumed by the whole process."""
    return time.process_time()


def thread_cpu_seconds() -> float:
    """CPU seconds consumed by the calling thread (per-stage attribution)."""
    return time.thread_time()


@dataclass(frozen=True)
class ResourceSnapshot:
    """Point-in-time resource reading; all byte fields are bytes."""

    wall_s: float
    cpu_s: float
    rss_bytes: int
    rss_peak_bytes: int
    tracemalloc_current: int = 0
    tracemalloc_peak: int = 0

    @classmethod
    def now(cls) -> "ResourceSnapshot":
        current, peak = (
            tracemalloc.get_traced_memory() if tracemalloc.is_tracing() else (0, 0)
        )
        rss = rss_bytes()
        return cls(
            wall_s=time.perf_counter(),
            cpu_s=cpu_seconds(),
            rss_bytes=rss,
            rss_peak_bytes=max(peak_rss_bytes(), rss),
            tracemalloc_current=current,
            tracemalloc_peak=peak,
        )


class ResourceTracker:
    """Bracket a region of work and summarise what it cost.

    Usable as a context manager or via explicit :meth:`stop`; the
    summary is a JSON-friendly dict shaped for ``RunMetrics.resources``.
    """

    def __init__(self) -> None:
        self.start = ResourceSnapshot.now()
        self.end: ResourceSnapshot | None = None

    def __enter__(self) -> "ResourceTracker":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    def stop(self) -> ResourceSnapshot:
        if self.end is None:
            self.end = ResourceSnapshot.now()
        return self.end

    def summary(self) -> dict[str, Any]:
        end = self.stop()
        wall_s = max(end.wall_s - self.start.wall_s, 0.0)
        cpu_s = max(end.cpu_s - self.start.cpu_s, 0.0)
        out: dict[str, Any] = {
            "wall_s": wall_s,
            "cpu_s": cpu_s,
            "cpu_utilization": (cpu_s / wall_s) if wall_s > 0 else 0.0,
            "rss_bytes": end.rss_bytes,
            "rss_peak_bytes": end.rss_peak_bytes,
            "rss_peak_delta_bytes": max(
                end.rss_peak_bytes - self.start.rss_peak_bytes, 0
            ),
        }
        if tracemalloc.is_tracing():
            out["tracemalloc"] = {
                "current_bytes": end.tracemalloc_current,
                "peak_bytes": end.tracemalloc_peak,
                "delta_bytes": end.tracemalloc_current - self.start.tracemalloc_current,
            }
        return out


def format_bytes(n: float) -> str:
    """Human-readable byte count (binary units, one decimal)."""
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(value) < 1024.0 or unit == "TiB":
            return f"{value:.0f} {unit}" if unit == "B" else f"{value:.1f} {unit}"
        value /= 1024.0
    return f"{value:.1f} TiB"
