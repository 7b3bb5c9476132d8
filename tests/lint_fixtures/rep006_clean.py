"""Clean fixture for REP006: every acquisition is protected."""

import shutil
import tempfile
import weakref
from concurrent.futures import ProcessPoolExecutor

import numpy as np


def with_context(blocks):
    with ProcessPoolExecutor(max_workers=2) as pool:
        return list(pool.map(len, blocks))


def try_finally():
    scratch = tempfile.TemporaryDirectory(prefix="fixture-")
    try:
        return len(scratch.name)
    finally:
        scratch.cleanup()


def mmap_view(path):
    with np.load(path, mmap_mode="r") as data:
        return data["values"].sum()


def handoff():
    pool = ProcessPoolExecutor(max_workers=2)
    _adopt(pool)  # ownership transferred to the callee


def _adopt(pool) -> None:
    pool.shutdown()


class FinalizedOwner:
    """No lifecycle method, but a GC safety net releases the dir."""

    def __init__(self) -> None:
        self.scratch = tempfile.mkdtemp(prefix="fixture-")
        self._finalizer = weakref.finalize(self, shutil.rmtree, self.scratch)


class PoolOwner:
    """Stores the pool on self and owns its shutdown."""

    def __init__(self) -> None:
        self._pool = ProcessPoolExecutor(max_workers=2)

    def close(self) -> None:
        self._pool.shutdown()
