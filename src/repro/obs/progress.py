"""Live campaign heartbeat: periodic ``progress.jsonl`` records.

Long campaigns (the paper's is 5.2M blocks) are opaque while running:
``--metrics`` reports only after the fact.  The progress plane appends
one JSON object per heartbeat to ``DIR/progress.jsonl`` so an operator
(or a supervisor process) can tail throughput, ETA, and memory without
attaching to the process:

``{"t_unix": ..., "event": "start|tick|finish", "label": "fig3",
  "done": 120, "total": 512, "blocks_per_sec": 41.2, "eta_s": 9.5,
  "rss_bytes": ..., "rss_peak_bytes": ..., "cache_hit_rate": 0.25}``

Design constraints, in order:

* **Never break the campaign.**  Any ``OSError`` on the sink disables
  the emitter after a single warning; records are best-effort.
* **Never touch result bytes.**  The emitter observes completion counts
  only; serial/parallel/batched byte-identity is unaffected.
* **Cheap when off.**  The ambient default is :class:`NoopProgress`
  whose methods are empty; the per-result hook is one attribute call.

The ambient emitter mirrors the tracer pattern (:func:`get_progress` /
:func:`set_progress` / :func:`use_progress`); the CLI installs one from
``--progress DIR`` or ``REPRO_PROGRESS`` via :func:`default_progress`.
Mid-run ticks are at least :data:`PROGRESS_INTERVAL_S` apart; start and
finish records always emit, so every engine run leaves at least two
heartbeats.

A sharded campaign (``--shards N``) is still one bracket: the engine
calls :meth:`~ProgressEmitter.begin` once with ``shards=N`` and
:meth:`~ProgressEmitter.next_shard` at each later shard boundary, so
``done``/``total`` are campaign-wide and every record also carries the
active ``shard`` and the ``shards`` count.  Each shard boundary forces
one record, so every shard leaves a heartbeat.  Unsharded records carry
neither field.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from .resources import peak_rss_bytes, rss_bytes

__all__ = [
    "PROGRESS_INTERVAL_S",
    "NoopProgress",
    "ProgressEmitter",
    "default_progress",
    "get_progress",
    "set_progress",
    "use_progress",
]

#: Minimum seconds between a run's mid-run heartbeats.
PROGRESS_INTERVAL_S = 2.0


class NoopProgress:
    """Inert emitter: the ambient default writes nothing, ever."""

    def begin(
        self,
        label: str,
        total: int,
        *,
        done: int = 0,
        cache_hits: int = 0,
        cache_misses: int = 0,
        shards: int | None = None,
    ) -> None:
        pass

    def next_shard(self, *, cache_hits: int = 0, cache_misses: int = 0) -> None:
        pass

    def tick(self, weight: int = 1) -> None:
        pass

    def finish(self) -> None:
        pass


class ProgressEmitter(NoopProgress):
    """Append heartbeat records to ``directory/progress.jsonl``.

    One emitter instance serves consecutive engine runs (a fig3 campaign
    runs two); each run brackets itself with :meth:`begin`/:meth:`finish`
    and reports per-result completion through :meth:`tick`.  Emission
    uses open-append-close per record so a crash never loses more than
    the in-flight line and external rotation of the file is safe.
    """

    def __init__(
        self, directory: "str | os.PathLike[str]", *, interval_s: float = PROGRESS_INTERVAL_S
    ) -> None:
        self.directory = Path(directory)
        self.interval_s = max(float(interval_s), 0.0)
        self._disabled = False
        self._label = ""
        self._total = 0
        self._done = 0
        self._started_at = 0.0
        self._started_done = 0
        self._last_emit = 0.0
        self._cache_hits = 0
        self._cache_misses = 0
        self._shards: int | None = None
        self._shard = 0

    @property
    def path(self) -> Path:
        return self.directory / "progress.jsonl"

    # -- engine-facing hooks ---------------------------------------------
    def begin(
        self,
        label: str,
        total: int,
        *,
        done: int = 0,
        cache_hits: int = 0,
        cache_misses: int = 0,
        shards: int | None = None,
    ) -> None:
        """Open the run's bracket; ``done`` counts blocks already answered
        (cache hits), which the throughput and ETA leave out."""
        self._label = label
        self._total = int(total)
        self._done = int(done)
        self._started_at = time.perf_counter()
        self._started_done = self._done
        self._cache_hits = int(cache_hits)
        self._cache_misses = int(cache_misses)
        self._shards = shards
        self._shard = 0
        self._emit("start", force=True)

    def next_shard(self, *, cache_hits: int = 0, cache_misses: int = 0) -> None:
        """Move a sharded run to its next shard; that shard's cache hits
        count as done, as :meth:`begin`'s ``done`` does for the first."""
        self._shard += 1
        self._done += int(cache_hits)
        self._started_done += int(cache_hits)
        self._cache_hits += int(cache_hits)
        self._cache_misses += int(cache_misses)
        self._emit("tick", force=True)

    def tick(self, weight: int = 1) -> None:
        if weight:
            self._done += int(weight)
        self._emit("tick")

    def finish(self) -> None:
        self._emit("finish", force=True)

    # -- internals -------------------------------------------------------
    def _record(self, event: str) -> dict[str, Any]:
        elapsed = time.perf_counter() - self._started_at
        completed = self._done - self._started_done
        rate = (completed / elapsed) if elapsed > 0 else 0.0
        remaining = max(self._total - self._done, 0)
        consulted = self._cache_hits + self._cache_misses
        rss = rss_bytes()
        record = {
            "t_unix": time.time(),
            "event": event,
            "label": self._label,
            "done": self._done,
            "total": self._total,
            "blocks_per_sec": round(rate, 3),
            "eta_s": round(remaining / rate, 3) if rate > 0 else None,
            "rss_bytes": rss,
            "rss_peak_bytes": max(peak_rss_bytes(), rss),
            "cache_hit_rate": round(self._cache_hits / consulted, 4) if consulted else None,
        }
        if self._shards is not None:
            record["shard"] = self._shard
            record["shards"] = self._shards
        return record

    def _emit(self, event: str, *, force: bool = False) -> None:
        if self._disabled:
            return
        now = time.perf_counter()
        if not force and (now - self._last_emit) < self.interval_s:
            return
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(self._record(event)) + "\n")
                fh.flush()
        except OSError as exc:
            self._disabled = True
            warnings.warn(
                f"progress sink {self.path} unwritable ({exc}); "
                "heartbeats disabled for the rest of this run",
                RuntimeWarning,
                stacklevel=3,
            )
            return
        self._last_emit = now


#: Ambient emitter the engine reports through; a no-op unless installed.
_PROGRESS: NoopProgress = NoopProgress()


def get_progress() -> NoopProgress:
    return _PROGRESS


def set_progress(emitter: NoopProgress) -> NoopProgress:
    """Install ``emitter`` process-wide; returns the previous one."""
    global _PROGRESS
    previous = _PROGRESS
    _PROGRESS = emitter
    return previous


@contextmanager
def use_progress(emitter: NoopProgress) -> Iterator[NoopProgress]:
    previous = set_progress(emitter)
    try:
        yield emitter
    finally:
        set_progress(previous)


def default_progress() -> NoopProgress:
    """Emitter selected by the environment: ``REPRO_PROGRESS`` names the
    sink directory; ticks are :data:`PROGRESS_INTERVAL_S` apart."""
    # lazy: obs is imported by core, so a module-level runtime import
    # would re-enter repro.runtime mid-initialisation
    from ..runtime import envconfig

    raw = envconfig.raw("REPRO_PROGRESS")
    if not raw:
        return NoopProgress()
    return ProgressEmitter(raw)
