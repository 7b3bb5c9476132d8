"""Zero-copy shared-memory transport for the engine's process pool.

PR 7's payload accounting made the cost of the pickle dispatch plane
visible: every ``BlockMatrix`` batch and reconstruction array is pickled
into the process pool and pickled back, so at paper scale (5.2M /24
blocks) the engine is bounded by inter-process data movement, not by
kernel time.  This module is the transport half of the fix:

* :class:`ArrayDescriptor` — the small picklable handle that crosses the
  pool instead of array bytes: segment name, shape, dtype string, byte
  offset.  Descriptors are plain frozen dataclasses, so jobs may carry
  them freely (lint REP003 forbids carrying live ``SharedMemory``
  handles or memoryviews — only descriptors).
* :class:`SharedArrayPool` — a parent-side bump allocator over named
  ``multiprocessing.shared_memory`` segments.  Arrays are *published*
  once (one copy into shm), and every publication is recorded so
  :meth:`release` can unlink everything on any exit path.
* :func:`shm_dumps` / :func:`shm_loads` — shm-aware pickling.  The
  parent pickles a task normally except that every large ndarray is
  swapped for a persistent-id descriptor; the worker's unpickler
  resolves descriptors to read-only zero-copy views onto the attached
  segment.  Values, dtypes, and shapes round-trip exactly, so results
  computed from attached views are byte-identical to a plain pickle's.

Worker-side attachments are cached per segment (attach once, serve every
task that references it).  Pool workers share the parent's resource
tracker, whose name cache is a set — a worker's attach re-registers a
name the parent already registered (a no-op), and the parent's unlink
performs the one unregister, so no process ever double-unlinks or warns
about segments it never owned (see :class:`_AttachmentCache`).

Lifecycle rules (enforced by tests in ``tests/test_shm.py``):

1. the parent publishes, the parent unlinks — workers only attach;
2. segments for one ``map()`` are released in a ``finally`` as soon as
   the map completes, falls back, or raises;
3. :meth:`SharedArrayPool.release` is idempotent and also registered as
   a GC finalizer, so dropping the pool can never leak a segment.
"""

from __future__ import annotations

import os
import pickle
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from io import BytesIO
from multiprocessing import shared_memory
from typing import Any, IO

import numpy as np

__all__ = [
    "ArrayDescriptor",
    "DEFAULT_MIN_SHM_BYTES",
    "SharedArrayPool",
    "attach_bytes",
    "attach_view",
    "detach_all",
    "shm_dumps",
    "shm_loads",
]

#: Arrays smaller than this are pickled inline: a descriptor plus a
#: worker-side attach costs more than copying a few hundred bytes.
DEFAULT_MIN_SHM_BYTES = 4096

#: Segment granularity of the bump allocator; one engine map usually
#: fits in a handful of segments.
DEFAULT_SEGMENT_BYTES = 8 * 1024 * 1024

#: Byte alignment of published arrays inside a segment.
_ALIGN = 64

#: Persistent-id tag so foreign persistent ids fail loudly.
_PID_TAG = "repro-shm-array"


@dataclass(frozen=True)
class ArrayDescriptor:
    """Where one published array lives: the only thing workers receive.

    ``dtype`` is the array-protocol string (``'<f8'``), which numpy
    resolves back to the interned dtype singleton on attach — attached
    views therefore never reintroduce the dtype-identity pickle hazard
    ``BlockAnalysisJob.map_chunk`` canonicalises away before the tail.
    """

    segment: str
    shape: tuple[int, ...]
    dtype: str
    offset: int
    nbytes: int


class SharedArrayPool:
    """Parent-side arena of named shm segments with leak-proof unlinking.

    ``publish`` copies an array (or raw bytes) into the current segment
    at an aligned offset, opening a new segment when the current one is
    full.  ``release`` closes **and unlinks** every segment ever opened;
    it is idempotent, runs from a GC finalizer as a safety net, and is
    the only place segments are unlinked — workers never unlink.
    """

    _seq = 0

    def __init__(self, segment_bytes: int = DEFAULT_SEGMENT_BYTES) -> None:
        self.segment_bytes = int(segment_bytes)
        self._segments: list[shared_memory.SharedMemory] = []
        self._cursor = 0
        #: Every segment name this pool ever created (survives release,
        #: so tests can assert the names are gone from the OS).
        self.created: list[str] = []
        self.published_bytes = 0
        self.published_arrays = 0
        # publish-once memo: many tasks in one map may reference the
        # same array object (a shared grid, a matrix fanned into
        # chunks); keyed by id() with a keep-alive so ids cannot be
        # recycled while the pool is live
        self._memo: dict[int, ArrayDescriptor] = {}
        self._keepalive: list[np.ndarray] = []
        self._finalizer = weakref.finalize(
            self, SharedArrayPool._release_segments, self._segments
        )

    # -- allocation --------------------------------------------------------
    def _new_segment(self, min_bytes: int) -> shared_memory.SharedMemory:
        size = max(self.segment_bytes, min_bytes)
        while True:
            SharedArrayPool._seq += 1
            name = f"repro_shm_{os.getpid()}_{SharedArrayPool._seq}"
            try:
                seg = shared_memory.SharedMemory(name=name, create=True, size=size)
            except FileExistsError:  # stale name from a dead process: skip it
                continue
            self._segments.append(seg)
            self.created.append(seg.name)
            self._cursor = 0
            return seg

    def _reserve(self, nbytes: int) -> tuple[shared_memory.SharedMemory, int]:
        """Aligned (segment, offset) able to hold ``nbytes``."""
        offset = -(-self._cursor // _ALIGN) * _ALIGN
        if not self._segments or offset + nbytes > self._segments[-1].size:
            seg = self._new_segment(nbytes)
            offset = 0
        else:
            seg = self._segments[-1]
        self._cursor = offset + nbytes
        return seg, offset

    # -- publication -------------------------------------------------------
    def publish(self, arr: np.ndarray) -> ArrayDescriptor:
        """Copy one array into shared memory; returns its descriptor.

        Publishing the same array *object* again returns the original
        descriptor without a second copy.
        """
        memoized = self._memo.get(id(arr))
        if memoized is not None:
            return memoized
        data = np.ascontiguousarray(arr)
        seg, offset = self._reserve(data.nbytes)
        dest: np.ndarray = np.ndarray(
            data.shape, dtype=data.dtype, buffer=seg.buf, offset=offset
        )
        dest[...] = data
        self.published_bytes += data.nbytes
        self.published_arrays += 1
        desc = ArrayDescriptor(
            segment=seg.name,
            shape=tuple(data.shape),
            dtype=data.dtype.str,
            offset=offset,
            nbytes=data.nbytes,
        )
        self._memo[id(arr)] = desc
        self._keepalive.append(arr)
        return desc

    def publish_bytes(self, payload: bytes) -> ArrayDescriptor:
        """Publish an opaque byte blob (e.g. a pre-pickled callable)."""
        blob = np.frombuffer(payload, dtype=np.uint8)
        return self.publish(blob)

    # -- lifecycle ---------------------------------------------------------
    @staticmethod
    def _release_segments(segments: list[shared_memory.SharedMemory]) -> None:
        while segments:
            seg = segments.pop()
            try:
                seg.close()
            except (BufferError, OSError):  # views alive: unlink still works
                pass
            try:
                seg.unlink()
            except (FileNotFoundError, OSError):
                pass

    def release(self) -> int:
        """Close and unlink every live segment; returns how many."""
        n = len(self._segments)
        SharedArrayPool._release_segments(self._segments)
        self._cursor = 0
        self._memo.clear()
        self._keepalive.clear()
        return n

    close = release

    def __enter__(self) -> "SharedArrayPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.release()

    def __repr__(self) -> str:
        return (
            f"SharedArrayPool(segments={len(self._segments)}, "
            f"published_bytes={self.published_bytes})"
        )


# ---------------------------------------------------------------------------
# worker-side attachment cache
# ---------------------------------------------------------------------------
class _AttachmentCache:
    """Per-process cache of attached segments (attach once per segment).

    The parent unlinks segments as soon as a map completes; an attached
    mapping stays valid regardless (POSIX keeps the memory until the
    last close), so eviction is purely about bounding worker RSS.  An
    eviction that would invalidate a live view raises ``BufferError``
    from ``close`` — such segments are simply kept until their views
    die.

    Resource-tracker note: pool workers inherit the parent's resource
    tracker (both fork and spawn pass the tracker fd down), and the
    tracker's cache is a *set* of names.  The attach here re-registers a
    name the parent already registered — an idempotent no-op — and the
    parent's ``unlink`` performs the single unregister.  Workers must
    **not** unregister: with a shared tracker that would erase the
    parent's registration and make the parent's own unlink warn.
    """

    def __init__(self, capacity: int = 8) -> None:
        self.capacity = capacity
        self._cache: "OrderedDict[str, shared_memory.SharedMemory]" = OrderedDict()

    def get(self, name: str) -> shared_memory.SharedMemory:
        seg = self._cache.get(name)
        if seg is not None:
            self._cache.move_to_end(name)
            return seg
        seg = shared_memory.SharedMemory(name=name)
        self._cache[name] = seg
        while len(self._cache) > self.capacity:
            _, old = self._cache.popitem(last=False)
            try:
                old.close()
            except BufferError:  # a view is still alive: keep it mapped
                self._cache[old.name] = old
                self._cache.move_to_end(old.name, last=False)
                break
        return seg

    def close(self) -> None:
        """Detach every cached segment (idempotent; REP006 lifecycle).

        Segments whose views are still alive raise ``BufferError`` from
        ``close`` and are kept mapped — same policy as eviction.
        """
        for name in list(self._cache):
            seg = self._cache.pop(name)
            try:
                seg.close()
            except BufferError:  # a view is still alive: keep it mapped
                self._cache[name] = seg


_ATTACHMENTS = _AttachmentCache()


def detach_all() -> None:
    """Close the worker's cached attachments (test teardown hook)."""
    _ATTACHMENTS.close()


def attach_view(desc: ArrayDescriptor) -> np.ndarray:
    """Zero-copy **read-only** ndarray over a published segment region.

    Read-only is deliberate: attached memory is shared with the parent
    and possibly other workers, so an accidental in-place mutation must
    fail loudly instead of corrupting a neighbour's input.
    """
    seg = _ATTACHMENTS.get(desc.segment)
    view: np.ndarray = np.ndarray(
        desc.shape, dtype=np.dtype(desc.dtype), buffer=seg.buf, offset=desc.offset
    )
    view.flags.writeable = False
    return view


def attach_bytes(desc: ArrayDescriptor) -> memoryview:
    """Read-only memoryview over a published byte blob (pickle payloads)."""
    data = attach_view(desc)
    return memoryview(data).cast("B")


# ---------------------------------------------------------------------------
# shm-aware pickling
# ---------------------------------------------------------------------------
class _ShmPickler(pickle.Pickler):
    """Pickler that swaps large ndarrays for published descriptors.

    Only simple (non-object, builtin-dtype) arrays at or above the
    threshold are published; everything else pickles inline.  Repeated
    references to one array publish once — within a dump and across
    dumps sharing one pool — via :meth:`SharedArrayPool.publish`'s
    identity memo.
    """

    def __init__(
        self, file: IO[bytes], pool: SharedArrayPool, min_bytes: int
    ) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._pool = pool
        self._min_bytes = min_bytes

    def persistent_id(self, obj: Any) -> Any:
        if (
            isinstance(obj, np.ndarray)
            and obj.nbytes >= self._min_bytes
            and not obj.dtype.hasobject
            and obj.dtype.isbuiltin == 1
        ):
            d = self._pool.publish(obj)
            return (_PID_TAG, d.segment, d.shape, d.dtype, d.offset, d.nbytes)
        return None


class _ShmUnpickler(pickle.Unpickler):
    """Unpickler that resolves descriptors to attached read-only views."""

    def persistent_load(self, pid: Any) -> Any:
        if isinstance(pid, tuple) and len(pid) == 6 and pid[0] == _PID_TAG:
            _, segment, shape, dtype, offset, nbytes = pid
            return attach_view(
                ArrayDescriptor(
                    segment=segment,
                    shape=tuple(shape),
                    dtype=dtype,
                    offset=offset,
                    nbytes=nbytes,
                )
            )
        raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")


def shm_dumps(obj: Any, pool: SharedArrayPool, min_bytes: int) -> bytes:
    """Pickle ``obj`` with large arrays published into ``pool``.

    The returned bytes are small — descriptors in place of array data —
    and are what actually crosses the process boundary.
    """
    buf = BytesIO()
    _ShmPickler(buf, pool, min_bytes).dump(obj)
    return buf.getvalue()


def shm_loads(payload: "bytes | memoryview") -> Any:
    """Inverse of :func:`shm_dumps`, resolving descriptors to shm views."""
    return _ShmUnpickler(BytesIO(payload)).load()
