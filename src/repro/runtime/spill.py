"""Memory-mappable per-shard result spill for out-of-core campaigns.

A sharded engine run (:mod:`repro.runtime.sharding`) must not hold every
shard's results in RAM at once — that is the whole point.  After each
shard completes, the coordinator writes its ordered result list into a
columnar on-disk layout under a per-run spill directory and drops the
in-memory objects; :class:`SpilledResults` then presents all shards as
one lazy sequence that rehydrates a single result at a time.

Layout — two ``.npy`` files per shard, both loadable with
``np.load(..., mmap_mode="r")``:

* ``shard-NN.blobs.npy`` — ``uint8`` concatenation of one plain
  ``pickle.dumps(result, HIGHEST_PROTOCOL)`` blob per result.  Results
  are pickled **individually** (not as one list) so random access never
  deserialises a whole shard.
* ``shard-NN.items.npy`` — structured ``(offset, length)`` row per
  result: where its blob lives.

Rehydration is a plain ``pickle.loads`` of one blob copied out of the
map — the same round trip every pool result makes — so rehydrated
results pickle byte-identically to the originals and never hold a view
into the map.

Ownership follows one rule — **the coordinator writes, the coordinator
deletes** (docs/dev.md): the engine creates the spill directory, cleans
it up itself if the sharded run fails mid-shard, and otherwise hands
ownership to the returned :class:`SpilledResults`, whose finalizer
removes the directory when the results are garbage-collected (or at
interpreter exit).  Workers and readers never delete spill files.
"""

from __future__ import annotations

import io
import os
import pickle
import shutil
import weakref
from pathlib import Path
from tempfile import mkdtemp
from typing import Any, Iterator, Sequence

import numpy as np

from . import envconfig

__all__ = [
    "SpillDir",
    "SpilledResults",
    "resolve_spill_parent",
]

_ITEM_DTYPE = np.dtype([("offset", "<u8"), ("length", "<u8")])


def resolve_spill_parent() -> str | None:
    """Parent directory for per-run spill dirs (``REPRO_SPILL_DIR``).

    Unset or empty defers to the system temp directory.  The variable
    points at a *parent*: every sharded run still gets its own
    ``repro-spill-*`` subdirectory so concurrent runs never collide.
    """
    return envconfig.raw("REPRO_SPILL_DIR") or None


class _ShardReader:
    """Lazy random access into one spilled shard.

    The two ``.npy`` files are opened with ``mmap_mode="r"`` on first
    use and can be released (dropping the maps) at any time — the next
    access simply reopens them.  ``load(i)`` copies exactly one result's
    blob out of the map, so resident memory tracks the working set, not
    the shard size.
    """

    def __init__(self, directory: Path, shard_id: int, n_items: int) -> None:
        self.directory = directory
        self.shard_id = shard_id
        self.n_items = n_items
        self._blobs: np.ndarray | None = None
        self._items: np.ndarray | None = None

    def _path(self, part: str) -> Path:
        return self.directory / f"shard-{self.shard_id:02d}.{part}.npy"

    @staticmethod
    def _mmap_load(path: Path) -> np.ndarray:
        arr: np.ndarray
        try:
            arr = np.load(path, mmap_mode="r")
        except (ValueError, OSError):
            # zero-length arrays cannot be memory-mapped; tiny by
            # definition, so an eager load costs nothing
            arr = np.load(path)
        return arr

    def _ensure_open(self) -> None:
        if self._items is None:
            self._blobs = self._mmap_load(self._path("blobs"))
            self._items = self._mmap_load(self._path("items"))

    def release(self) -> None:
        """Drop the open memory maps (reopened on next access)."""
        self._blobs = self._items = None

    def load(self, index: int) -> Any:
        if not 0 <= index < self.n_items:
            raise IndexError(f"item {index} outside shard of {self.n_items}")
        self._ensure_open()
        assert self._items is not None and self._blobs is not None
        row = self._items[index]
        lo = int(row["offset"])
        hi = lo + int(row["length"])
        return pickle.loads(self._blobs[lo:hi].tobytes())


def _remove_tree(path: str) -> None:
    """Finalizer target: must not hold a reference back to the owner."""
    shutil.rmtree(path, ignore_errors=True)


class SpillDir:
    """One sharded run's spill directory and its write path.

    Created under ``REPRO_SPILL_DIR`` (or the system temp dir) with a
    unique ``repro-spill-`` prefix.  Only the coordinating engine writes
    here, and only the coordinator (directly on failure, or through the
    :class:`SpilledResults` finalizer on success) deletes it.
    """

    def __init__(self, directory: "str | os.PathLike[str]") -> None:
        self.directory = Path(directory)
        self.bytes_written = 0
        self.n_items = 0
        self._finalizer = weakref.finalize(self, _remove_tree, str(self.directory))

    @classmethod
    def create(cls) -> "SpillDir":
        parent = resolve_spill_parent()
        if parent is not None:
            Path(parent).mkdir(parents=True, exist_ok=True)
        return cls(mkdtemp(prefix="repro-spill-", dir=parent))

    def write_shard(self, shard_id: int, results: Sequence[Any]) -> _ShardReader:
        """Spill one shard's ordered results; returns its lazy reader."""
        blobs = io.BytesIO()
        items = np.zeros(len(results), dtype=_ITEM_DTYPE)
        for i, result in enumerate(results):
            offset = blobs.tell()
            blobs.write(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))
            items[i] = (offset, blobs.tell() - offset)
        written = 0
        for part, payload in (
            ("blobs", np.frombuffer(blobs.getbuffer(), dtype=np.uint8)),
            ("items", items),
        ):
            path = self.directory / f"shard-{shard_id:02d}.{part}.npy"
            np.save(path, payload)
            written += path.stat().st_size
        self.bytes_written += written
        self.n_items += len(results)
        return _ShardReader(self.directory, shard_id, len(results))

    def cleanup(self) -> None:
        """Remove the directory now (idempotent; detaches the finalizer)."""
        if self._finalizer.detach() is not None:
            _remove_tree(str(self.directory))

    @property
    def alive(self) -> bool:
        return self._finalizer.alive


#: How many shards keep their memory maps open at once.  Sequential
#: scans (the mapping iteration pattern) touch shards in order, so two
#: is enough to make the boundary between shards free.
_OPEN_SHARD_CAP = 2


class SpilledResults(Sequence[Any]):
    """All shards of one run as a lazy, ordered result sequence.

    ``results[i]`` rehydrates exactly one result from the owning shard's
    memory maps; nothing else is resident.  Owns the spill directory:
    when this object is garbage-collected (or the process exits) the
    directory is removed — callers that need results past the engine
    run's lifetime simply keep the sequence alive.
    """

    def __init__(self, spill: SpillDir, shards: Sequence[_ShardReader]) -> None:
        self._spill = spill
        self._shards = list(shards)
        self._starts: list[int] = []
        total = 0
        for reader in self._shards:
            self._starts.append(total)
            total += reader.n_items
        self._total = total
        self._open_order: list[int] = []

    @property
    def spill_dir(self) -> Path:
        return self._spill.directory

    def __len__(self) -> int:
        return self._total

    def _locate(self, index: int) -> tuple[int, int]:
        shard = int(np.searchsorted(np.asarray(self._starts), index, side="right")) - 1
        return shard, index - self._starts[shard]

    def _touch(self, shard_index: int) -> None:
        if shard_index in self._open_order:
            self._open_order.remove(shard_index)
        self._open_order.append(shard_index)
        while len(self._open_order) > _OPEN_SHARD_CAP:
            self._shards[self._open_order.pop(0)].release()

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._total))]
        i = int(index)
        if i < 0:
            i += self._total
        if not 0 <= i < self._total:
            raise IndexError(f"result index {index} outside [0, {self._total})")
        shard_index, local = self._locate(i)
        self._touch(shard_index)
        return self._shards[shard_index].load(local)

    def __iter__(self) -> Iterator[Any]:
        for shard_index, reader in enumerate(self._shards):
            self._touch(shard_index)
            for local in range(reader.n_items):
                yield reader.load(local)
