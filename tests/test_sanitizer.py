"""ResourceSanitizer: every runtime pool and spill dir is tracked where
it is acquired.

Leak-injection suite: acquire real pools / spill dirs,
deliberately withhold the release, and assert the sanitizer sees them;
then release and assert the registry drains.  Every resource acquired
here is released (or, for a pool that is dropped on purpose,
unregistered) before the test returns, so the suite stays clean under
the session-wide sanitizer ``tests/conftest.py`` arms — the local one
stacks on top of it and unwinds LIFO.
"""

from __future__ import annotations

import gc

import pytest

from repro.lint import sanitizer as sanitizer_mod
from repro.lint.sanitizer import (
    ResourceLeakError,
    ResourceSanitizer,
    _pool_name,
    get_sanitizer,
    install_if_enabled,
)
from repro.runtime import engine as engine_mod
from repro.runtime import executors as executors_mod
from repro.runtime import spill as spill_mod
from repro.runtime.executors import PoolExecutor
from repro.runtime.spill import SpillDir

#: Every attribute the sanitizer patches, as (owner, name).
PATCH_POINTS = (
    (executors_mod, "ProcessPoolExecutor"),
    (spill_mod, "mkdtemp"),
    (spill_mod, "_remove_tree"),
)


def _patched():
    return [owner.__dict__[name] for owner, name in PATCH_POINTS]


def test_finalizer_safety_net_also_unregisters(sanitizer):
    spill = SpillDir.create()
    directory = spill.directory
    assert sanitizer.live("spill-dir")
    del spill  # no explicit cleanup: the GC finalizer must drain it
    gc.collect()
    assert sanitizer.live("spill-dir") == []
    assert not directory.exists()


def test_spill_dir_tracked_and_drained_by_cleanup(sanitizer):
    spill = SpillDir.create()
    live = sanitizer.live("spill-dir")
    assert [r.name for r in live] == [str(spill.directory)]
    assert "spill.py:" in live[0].created_at  # the acquiring frame

    with pytest.raises(ResourceLeakError, match="spill-dir"):
        sanitizer.assert_clean("the test boundary")

    spill.cleanup()
    assert sanitizer.live("spill-dir") == []
    sanitizer.assert_clean()


def test_persistent_pool_tracked_across_ensure_and_teardown(sanitizer):
    executor = PoolExecutor(workers=2)
    pool = executor._ensure_pool()
    assert pool is not None
    assert [r.name for r in sanitizer.live("process-pool")] == [_pool_name(pool)]
    # re-ensuring the same pool must not double-register
    assert executor._ensure_pool() is pool
    assert len(sanitizer.live("process-pool")) == 1
    executor.close()
    assert sanitizer.live("process-pool") == []


def test_analyze_closes_the_default_pool_it_creates(sanitizer, monkeypatch, small_world):
    """``REPRO_WORKERS=2`` with no engine passed: ``analyze`` builds a
    pooled default engine and closes it before returning."""
    from repro.datasets.builder import DatasetBuilder

    monkeypatch.setenv("REPRO_WORKERS", "2")
    monkeypatch.delenv("REPRO_SHARDS", raising=False)
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    engines = []
    default_engine = engine_mod.default_engine

    def recording_default_engine():
        engines.append(default_engine())
        return engines[-1]

    monkeypatch.setattr(engine_mod, "default_engine", recording_default_engine)
    result = DatasetBuilder(small_world).analyze(
        "2020it89-match-ejnw", blocks=list(small_world.blocks)[:20]
    )
    assert result.metrics.executor == "pool[2]"
    assert result.metrics.fallback is None
    (engine,) = engines
    assert engine.executor.workers == 2
    assert engine.executor.payload["pool_spawns"] == 1  # a pool really ran
    assert sanitizer.live("process-pool") == []


def test_pool_dropped_without_shutdown_is_live(sanitizer):
    """A pool is tracked from its constructor, not from the moment its
    owner stores it: one lost before anyone could shut it down stays
    live (nothing was submitted, so it has no worker processes)."""

    def build_and_drop() -> str:
        pool = executors_mod.ProcessPoolExecutor(max_workers=1)
        return _pool_name(pool)

    name = build_and_drop()
    gc.collect()
    live = sanitizer.live("process-pool")
    assert [r.name for r in live] == [name]
    assert "test_sanitizer.py:" in live[0].created_at
    with pytest.raises(ResourceLeakError, match="process-pool"):
        sanitizer.assert_clean("the test boundary")
    # the pool object is gone: drain both registries by hand
    for san in (sanitizer, get_sanitizer()):
        san.unregister("process-pool", name)


def test_spill_dir_tracked_from_mkdtemp(sanitizer, tmp_path):
    """A directory ``SpillDir.create`` made but never wrapped is live."""
    path = spill_mod.mkdtemp(prefix="repro-spill-", dir=tmp_path)
    assert [r.name for r in sanitizer.live("spill-dir")] == [path]
    spill_mod._remove_tree(path)
    assert sanitizer.live("spill-dir") == []
    assert get_sanitizer().live("spill-dir") == []


def test_pool_shutdown_twice_unregisters_once(sanitizer):
    pool = executors_mod.ProcessPoolExecutor(max_workers=1)
    assert len(sanitizer.live("process-pool")) == 1
    pool.shutdown(wait=True)
    pool.shutdown(wait=True)  # close() does this; must not raise
    assert sanitizer.live("process-pool") == []


def test_uninstall_restores_the_original_methods():
    before = _patched()
    san = ResourceSanitizer()
    san.install()
    assert len(san._saved) == len(PATCH_POINTS)  # nothing patched beyond them
    assert all(a is not b for a, b in zip(_patched(), before))
    assert isinstance(executors_mod.ProcessPoolExecutor, type)
    assert issubclass(executors_mod.ProcessPoolExecutor, before[0])
    san.uninstall()
    assert all(a is b for a, b in zip(_patched(), before))


def test_install_is_idempotent():
    san = ResourceSanitizer()
    san.install()
    patched = _patched()
    san.install()  # second install must not stack another wrapper
    assert all(a is b for a, b in zip(_patched(), patched))
    san.uninstall()


def test_install_if_enabled_respects_the_knob(monkeypatch):
    """The CLI's switch, checked on a fresh process-wide instance so the
    session's armed sanitizer is left alone."""
    from repro.runtime import envconfig

    session_wide = get_sanitizer()
    assert session_wide.installed  # tier-1 always runs armed
    fresh = ResourceSanitizer()
    monkeypatch.setattr(sanitizer_mod, "_SANITIZER", fresh)
    try:
        with envconfig.overriding("REPRO_SANITIZE", "0"):
            assert install_if_enabled() is False
        assert not fresh.installed
        with envconfig.overriding("REPRO_SANITIZE", "1"):
            assert install_if_enabled() is True
        assert fresh.installed
    finally:
        fresh.uninstall()
    assert session_wide.installed
