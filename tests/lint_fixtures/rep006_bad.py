"""Violating fixture for REP006: acquisitions leaked on some path."""

import tempfile
from concurrent.futures import ProcessPoolExecutor


def leak_dropped() -> None:
    # acquired with no handle at all: nothing can ever release it
    tempfile.TemporaryDirectory(prefix="fixture-")


def leak_exception_edge(blocks):
    pool = ProcessPoolExecutor(max_workers=2)
    results = list(pool.map(len, blocks))  # can raise before shutdown
    pool.shutdown()
    return results


def leak_never_released():
    scratch = tempfile.mkdtemp(prefix="fixture-")
    return "done"


class Holder:
    """Stores a pool on self but can never let go of it again."""

    def __init__(self) -> None:
        self.pool = ProcessPoolExecutor(max_workers=2)
