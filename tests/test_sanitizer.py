"""ResourceSanitizer: the dynamic oracle behind REP006.

Leak-injection suite: acquire real segments / pools / spill dirs,
deliberately withhold the release, and assert the sanitizer sees them;
then release and assert the registry drains.  Every resource acquired
here IS released before the test returns, so the suite stays clean
under its own instrumentation (``REPRO_SANITIZE=1`` runs these tests
with the session-wide sanitizer installed as well — the local one
stacks on top and unwinds LIFO).
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.lint.sanitizer import (
    ResourceLeakError,
    ResourceSanitizer,
    _pool_name,
    get_sanitizer,
    install_if_enabled,
)
from repro.runtime import shm as shm_mod
from repro.runtime.executors import SharedMemoryExecutor
from repro.runtime.shm import SharedArrayPool
from repro.runtime.spill import SpillDir


@pytest.fixture()
def sanitizer():
    san = ResourceSanitizer()
    san.install()
    yield san
    san.uninstall()


def test_segment_leak_is_tracked_until_released(sanitizer):
    pool = SharedArrayPool()
    pool.publish(np.arange(8, dtype=np.float64))
    live = sanitizer.live("shm-segment")
    assert [r.name for r in live] == list(pool.created)
    assert "shm.py:" in live[0].created_at  # the acquiring frame

    with pytest.raises(ResourceLeakError, match="shm-segment"):
        sanitizer.assert_clean("the test boundary")

    pool.release()
    assert sanitizer.live("shm-segment") == []
    sanitizer.assert_clean()


def test_finalizer_safety_net_also_unregisters(sanitizer):
    pool = SharedArrayPool()
    pool.publish(np.arange(4, dtype=np.float64))
    assert sanitizer.live("shm-segment")
    del pool  # no explicit release: the GC finalizer must drain it
    gc.collect()
    assert sanitizer.live("shm-segment") == []


def test_spill_dir_tracked_and_drained_by_cleanup(sanitizer):
    spill = SpillDir.create()
    assert [r.name for r in sanitizer.live("spill-dir")] == [str(spill.directory)]
    spill.cleanup()
    assert sanitizer.live("spill-dir") == []


def test_persistent_pool_tracked_across_ensure_and_teardown(sanitizer):
    executor = SharedMemoryExecutor(workers=2)
    pool = executor._ensure_pool()
    assert pool is not None
    assert [r.name for r in sanitizer.live("process-pool")] == [_pool_name(pool)]
    # re-ensuring the same pool must not double-register
    assert executor._ensure_pool() is pool
    assert len(sanitizer.live("process-pool")) == 1
    executor.close()
    assert sanitizer.live("process-pool") == []


def test_engine_close_boundary_flags_a_live_pool(sanitizer):
    class _Executor:
        def __init__(self) -> None:
            self._pool = object()
            self.last_segments: list[str] = []

    executor = _Executor()
    sanitizer.register("process-pool", _pool_name(executor._pool))
    with pytest.raises(ResourceLeakError, match="engine close"):
        sanitizer.check_engine_close(executor)
    sanitizer.unregister("process-pool", _pool_name(executor._pool))
    sanitizer.check_engine_close(executor)  # clean now


def test_engine_close_boundary_flags_leaked_last_segments(sanitizer):
    class _Executor:
        _pool = None
        last_segments = ["repro_shm_fixture_0"]

    sanitizer.register("shm-segment", "repro_shm_fixture_0")
    with pytest.raises(ResourceLeakError, match="repro_shm_fixture_0"):
        sanitizer.check_engine_close(_Executor())
    sanitizer.unregister("shm-segment", "repro_shm_fixture_0")
    sanitizer.check_engine_close(_Executor())


def test_analyze_closes_the_default_pool_it_creates(sanitizer, monkeypatch, small_world):
    """``REPRO_WORKERS=2`` with no engine passed: ``analyze`` builds a
    pooled default engine and closes it before returning."""
    from repro.datasets.builder import DatasetBuilder
    from repro.obs.metrics import scoped_registry

    monkeypatch.setenv("REPRO_WORKERS", "2")
    monkeypatch.delenv("REPRO_SHARDS", raising=False)
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    with scoped_registry() as registry:
        result = DatasetBuilder(small_world).analyze(
            "2020it89-match-ejnw", blocks=list(small_world.blocks)[:20]
        )
    assert result.metrics.executor == "shm[2]"
    assert result.metrics.fallback is None
    assert registry.counter("executor.pool_spawns").value == 1  # a pool really ran
    assert sanitizer.live("process-pool") == []


def test_uninstall_restores_the_original_methods():
    before = SharedArrayPool.__dict__["_new_segment"]
    san = ResourceSanitizer()
    san.install()
    assert SharedArrayPool.__dict__["_new_segment"] is not before
    san.uninstall()
    assert SharedArrayPool.__dict__["_new_segment"] is before
    assert shm_mod.SharedArrayPool._new_segment is before


def test_install_is_idempotent():
    san = ResourceSanitizer()
    san.install()
    patched = SharedArrayPool.__dict__["_new_segment"]
    san.install()  # second install must not stack another wrapper
    assert SharedArrayPool.__dict__["_new_segment"] is patched
    san.uninstall()


def test_install_if_enabled_respects_the_knob(monkeypatch):
    from repro.runtime import envconfig

    session_wide = get_sanitizer()
    if session_wide.installed:
        pytest.skip("session-wide sanitizer active (REPRO_SANITIZE=1 run)")
    with envconfig.overriding("REPRO_SANITIZE", "0"):
        assert install_if_enabled() is False
    assert not session_wide.installed
