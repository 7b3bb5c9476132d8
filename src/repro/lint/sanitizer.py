"""The runtime ResourceSanitizer: no pool or spill dir outlives its owner.

When installed it wraps the runtime's two acquisitions where they are
made, with a tracking registry:

* process pools — the ``ProcessPoolExecutor`` that
  :mod:`repro.runtime.executors` constructs registers once it is built
  and unregisters on its ``shutdown`` (idempotently: ``close()`` shuts
  a pool down twice);
* spill directories — the ``mkdtemp`` in :mod:`repro.runtime.spill`
  registers the new directory, the module's ``_remove_tree`` (shared by
  ``cleanup()`` and the finalizer) unregisters it.

So a resource is live from the moment it exists, not from the moment
its owner stores it: an exception between the two is a leak it sees.

Enforcement happens at process exit: an ``atexit`` hook (and the
pytest ``sessionfinish`` hook in ``tests/conftest.py``) collects
garbage, then fails the process if *anything* is still live.

``tests/conftest.py`` installs it for every tier-1 run; the CLI
installs it when ``REPRO_SANITIZE=1``.  The patches are reversible
(:func:`ResourceSanitizer.uninstall`) and stack: a second sanitizer
installed on top tracks the same acquisitions and unwinds LIFO.  All
runtime imports are lazy: ``lint`` must stay loadable — and
layer-clean (REP007) — without importing ``runtime`` at module level.
"""

from __future__ import annotations

import atexit
import gc
import os
import sys
import threading
import traceback
from dataclasses import dataclass
from typing import Any, Callable

__all__ = [
    "ResourceLeakError",
    "ResourceSanitizer",
    "TrackedResource",
    "enabled",
    "get_sanitizer",
    "install_if_enabled",
]

#: Exit code used by the atexit hook when leaks survive to process
#: exit (mirrors LeakSanitizer's hard-fail behaviour).
EXIT_LEAKED = 70


class ResourceLeakError(AssertionError):
    """A tracked resource outlived the boundary that owed its release."""


@dataclass(frozen=True)
class TrackedResource:
    """One live acquisition: what it is and where it was acquired."""

    kind: str
    name: str
    created_at: str

    def __str__(self) -> str:
        return f"{self.kind} {self.name!r} (acquired at {self.created_at})"


def _acquisition_site() -> str:
    """``file:line`` of the acquiring frame outside this module."""
    for frame in reversed(traceback.extract_stack(limit=12)[:-2]):
        if frame.filename != __file__:
            return f"{frame.filename}:{frame.lineno}"
    return "<unknown>"


class ResourceSanitizer:
    """Tracking registry + reversible patches over the runtime tier."""

    def __init__(self) -> None:
        self._live: dict[tuple[str, str], TrackedResource] = {}
        self._lock = threading.Lock()
        self._saved: list[tuple[Any, str, Any]] = []
        self._installed = False
        self._atexit_registered = False

    # -- registry -----------------------------------------------------
    @property
    def installed(self) -> bool:
        return self._installed

    def register(self, kind: str, name: str) -> None:
        resource = TrackedResource(kind=kind, name=name, created_at=_acquisition_site())
        with self._lock:
            self._live[(kind, name)] = resource

    def unregister(self, kind: str, name: str) -> None:
        with self._lock:
            self._live.pop((kind, name), None)

    def live(self, kind: str | None = None) -> list[TrackedResource]:
        with self._lock:
            resources = list(self._live.values())
        if kind is not None:
            resources = [r for r in resources if r.kind == kind]
        return sorted(resources, key=lambda r: (r.kind, r.name))

    def report(self) -> str:
        resources = self.live()
        if not resources:
            return "ResourceSanitizer: no live resources"
        lines = [f"ResourceSanitizer: {len(resources)} leaked resource(s):"]
        lines.extend(f"  - {resource}" for resource in resources)
        return "\n".join(lines)

    def assert_clean(self, boundary: str = "process exit") -> None:
        """Raise :class:`ResourceLeakError` if anything is still live."""
        resources = self.live()
        if resources:
            raise ResourceLeakError(
                f"{len(resources)} resource(s) leaked past {boundary}:\n"
                + "\n".join(f"  - {resource}" for resource in resources)
            )

    # -- patches ------------------------------------------------------
    def _patch(self, owner: Any, attr: str, wrapper: Callable[..., Any]) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap the runtime's acquisitions and releases (idempotent)."""
        if self._installed:
            return
        # lazy: lint stays import-light and layer-clean (REP007)
        from ..runtime import executors as executors_mod
        from ..runtime import spill as spill_mod

        sanitizer = self

        # process pools: from construction to shutdown ------------------
        pool_cls = executors_mod.ProcessPoolExecutor

        def pool_init(pool: Any, *args: Any, **kwargs: Any) -> None:
            pool_cls.__init__(pool, *args, **kwargs)
            sanitizer.register("process-pool", _pool_name(pool))

        def pool_shutdown(pool: Any, *args: Any, **kwargs: Any) -> None:
            pool_cls.shutdown(pool, *args, **kwargs)
            sanitizer.unregister("process-pool", _pool_name(pool))

        tracked_pool = type(
            pool_cls.__name__,
            (pool_cls,),
            {"__init__": pool_init, "shutdown": pool_shutdown},
        )
        self._patch(executors_mod, "ProcessPoolExecutor", tracked_pool)

        # spill directories: from mkdtemp to removal --------------------
        orig_mkdtemp = spill_mod.mkdtemp
        orig_remove_tree = spill_mod._remove_tree

        def mkdtemp(*args: Any, **kwargs: Any) -> str:
            path: str = orig_mkdtemp(*args, **kwargs)
            sanitizer.register("spill-dir", path)
            return path

        def remove_tree(path: str) -> None:
            orig_remove_tree(path)
            sanitizer.unregister("spill-dir", path)

        self._patch(spill_mod, "mkdtemp", mkdtemp)
        self._patch(spill_mod, "_remove_tree", remove_tree)

        self._installed = True
        if not self._atexit_registered:
            self._atexit_registered = True
            atexit.register(_atexit_check, self)

    def uninstall(self) -> None:
        """Undo every patch and forget the live set (idempotent)."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        with self._lock:
            self._live.clear()
        self._installed = False


def _pool_name(pool: Any) -> str:
    return f"pool-0x{id(pool):x}"


def _atexit_check(sanitizer: ResourceSanitizer) -> None:
    """Process-exit boundary: anything still live is a hard failure."""
    if not sanitizer.installed:
        return
    gc.collect()  # run pending finalizers before judging
    resources = sanitizer.live()
    if not resources:
        return
    print(sanitizer.report(), file=sys.stderr, flush=True)
    os._exit(EXIT_LEAKED)


_SANITIZER: ResourceSanitizer | None = None


def get_sanitizer() -> ResourceSanitizer:
    """The process-wide sanitizer instance (created on first use)."""
    global _SANITIZER
    if _SANITIZER is None:
        _SANITIZER = ResourceSanitizer()
    return _SANITIZER


def enabled() -> bool:
    """Is ``REPRO_SANITIZE`` set truthy?"""
    # lazy for the same REP007 reason as install()
    from ..runtime import envconfig

    return envconfig.get_bool("REPRO_SANITIZE", False)


def install_if_enabled() -> bool:
    """Install when ``REPRO_SANITIZE=1``; returns whether installed."""
    if enabled():
        get_sanitizer().install()
        return True
    return False
