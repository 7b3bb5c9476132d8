"""The shared-memory dispatch tier: transport, lifecycle, byte-identity.

Covers the lifecycle rules the shared-memory pool promises (see
``src/repro/runtime/shm.py``): segments are unlinked after normal map
completion, after a pool fallback, and after a worker exception; the
persistent pool spawns exactly once per engine run; and fig3 results are
byte-identical across serial and pool execution.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest

from repro.obs.metrics import scoped_registry
from repro.runtime import (
    CampaignEngine,
    SerialExecutor,
    SharedArrayPool,
    SharedMemoryExecutor,
    default_engine,
)
from repro.runtime import executors as executors_mod
from repro.runtime.shm import (
    DEFAULT_MIN_SHM_BYTES,
    attach_bytes,
    attach_view,
    shm_dumps,
    shm_loads,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def _segment_exists(name: str) -> bool:
    try:
        seg = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    seg.close()
    return True


def _sum_task(task: dict) -> float:
    """Module-level so the pool executors can pickle it."""
    return float(task["a"].sum()) + task["i"]


def _explode_on_three(task: dict) -> float:
    if task["i"] == 3:
        raise ValueError("bad task")
    return float(task["i"])


def _big_tasks(n: int = 6) -> list[dict]:
    arr = np.arange(40_000, dtype=np.float64).reshape(200, 200)
    return [{"a": arr, "i": i} for i in range(n)]


# ---------------------------------------------------------------------------
# SharedArrayPool + shm pickling
# ---------------------------------------------------------------------------
class TestSharedArrayPool:
    def test_publish_attach_roundtrip(self):
        arr = np.linspace(0.0, 1.0, 5000).reshape(50, 100)
        with SharedArrayPool() as pool:
            desc = pool.publish(arr)
            view = attach_view(desc)
            assert np.array_equal(view, arr)
            assert view.shape == arr.shape
            # descriptor dtype strings resolve to the interned singleton
            assert view.dtype is np.dtype("float64")
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[0, 0] = 1.0

    def test_publish_memoizes_by_object_identity(self):
        arr = np.ones(4096)
        with SharedArrayPool() as pool:
            d1 = pool.publish(arr)
            d2 = pool.publish(arr)
            assert d1 == d2
            assert pool.published_arrays == 1
            # an equal-valued but distinct object publishes separately
            d3 = pool.publish(np.ones(4096))
            assert d3 != d1
            assert pool.published_arrays == 2

    def test_publish_bytes_roundtrip(self):
        payload = os.urandom(10_000)
        with SharedArrayPool() as pool:
            desc = pool.publish_bytes(payload)
            assert bytes(attach_bytes(desc)) == payload

    def test_oversized_array_gets_its_own_segment(self):
        with SharedArrayPool(segment_bytes=1024) as pool:
            big = np.zeros(1_000_000)  # 8 MB > the 1 KiB segment size
            desc = pool.publish(big)
            assert desc.nbytes == big.nbytes
            assert np.array_equal(attach_view(desc), big)

    def test_release_unlinks_everything_and_is_idempotent(self):
        pool = SharedArrayPool()
        pool.publish(np.arange(5000.0))
        pool.publish_bytes(b"x" * 9000)
        names = list(pool.created)
        assert names and all(_segment_exists(n) for n in names)
        assert pool.release() >= 1
        assert all(not _segment_exists(n) for n in names)
        assert pool.release() == 0  # second release: nothing left
        assert pool.created == names  # history survives for exactly this test

    def test_shm_dumps_inlines_small_arrays(self):
        small = np.arange(4.0)  # 32 bytes, far below the threshold
        with SharedArrayPool() as pool:
            payload = shm_dumps({"s": small}, pool, DEFAULT_MIN_SHM_BYTES)
            assert pool.published_arrays == 0
            assert pool.created == []
            out = shm_loads(payload)
        assert np.array_equal(out["s"], small)
        assert out["s"].flags.writeable  # inline arrays unpickle as usual

    def test_shm_dumps_swaps_large_arrays_for_descriptors(self):
        big = np.arange(5000.0)
        with SharedArrayPool() as pool:
            payload = shm_dumps({"b": big, "tag": 7}, pool, DEFAULT_MIN_SHM_BYTES)
            assert pool.published_bytes == big.nbytes
            assert len(payload) < 1000  # descriptors, not 40 KB of data
            out = shm_loads(payload)
            assert np.array_equal(out["b"], big)
            assert out["tag"] == 7
            assert not out["b"].flags.writeable

    def test_object_dtype_arrays_pickle_inline(self):
        weird = np.array([{"k": 1}, None, "text"] * 2000, dtype=object)
        with SharedArrayPool() as pool:
            payload = shm_dumps(weird, pool, 0)
            assert pool.published_arrays == 0  # never published, inlined
            out = shm_loads(payload)
        assert out[0] == {"k": 1} and out[2] == "text"

    def test_unknown_persistent_id_fails_loudly(self):
        import io

        class ForeignPickler(pickle.Pickler):
            def persistent_id(self, obj):
                return ("not-a-repro-shm-pid",) if obj is marker else None

        marker = object()
        buf = io.BytesIO()
        ForeignPickler(buf).dump([marker])
        with pytest.raises(pickle.UnpicklingError):
            shm_loads(buf.getvalue())


# ---------------------------------------------------------------------------
# SharedMemoryExecutor: dispatch + lifecycle
# ---------------------------------------------------------------------------
class TestSharedMemoryExecutor:
    def test_matches_serial_and_ships_descriptors(self):
        tasks = _big_tasks()
        with SharedMemoryExecutor(workers=2) as executor:
            results = executor.map(_sum_task, tasks)
            assert executor.fallback_reason is None
            assert results == [_sum_task(t) for t in tasks]
            # the array crossed once via shm; pickled tasks stayed tiny
            assert executor.payload["shm_bytes"] >= tasks[0]["a"].nbytes
            assert 0 < executor.payload["task_bytes"] < tasks[0]["a"].nbytes

    def test_segments_unlinked_after_normal_completion(self):
        with SharedMemoryExecutor(workers=2) as executor:
            executor.map(_sum_task, _big_tasks())
            assert executor.last_segments  # something was published...
            assert all(not _segment_exists(n) for n in executor.last_segments)

    def test_segments_unlinked_after_worker_exception(self):
        with SharedMemoryExecutor(workers=2) as executor:
            tasks = _big_tasks()
            with pytest.raises(ValueError, match="bad task"):
                executor.map(_explode_on_three, tasks)
            assert executor.last_segments
            assert all(not _segment_exists(n) for n in executor.last_segments)
            # the pool survives a task exception: no respawn needed
            assert executor.map(_sum_task, tasks) == [_sum_task(t) for t in tasks]
            assert executor.payload["pool_spawns"] == 1

    def test_segments_unlinked_after_pool_fallback(self, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        class BrokenMapPool:
            def __init__(self, *args, **kwargs):
                pass

            def map(self, *args, **kwargs):
                raise BrokenProcessPool("worker died")

            def shutdown(self, *args, **kwargs):
                pass

        monkeypatch.setattr(executors_mod, "ProcessPoolExecutor", BrokenMapPool)
        executor = SharedMemoryExecutor(workers=2)
        tasks = _big_tasks()
        results = executor.map(_sum_task, tasks)
        assert results == [_sum_task(t) for t in tasks]  # no task lost
        assert "pool failed" in executor.fallback_reason
        assert executor.last_segments
        assert all(not _segment_exists(n) for n in executor.last_segments)

    def test_spawn_failure_falls_back_to_serial(self, monkeypatch):
        class ExplodingPool:
            def __init__(self, *args, **kwargs):
                raise OSError("no processes for you")

        monkeypatch.setattr(executors_mod, "ProcessPoolExecutor", ExplodingPool)
        executor = SharedMemoryExecutor(workers=2)
        results = executor.map(_sum_task, _big_tasks())
        assert results == [_sum_task(t) for t in _big_tasks()]
        assert "pool spawn failed" in executor.fallback_reason

    def test_serial_degeneration_without_pool(self):
        executor = SharedMemoryExecutor(workers=1)
        assert executor.map(_sum_task, _big_tasks()) == [
            _sum_task(t) for t in _big_tasks()
        ]
        assert executor.payload["pool_spawns"] == 0  # never spawned

    def test_persistent_pool_spawns_once_across_maps(self):
        with scoped_registry() as registry:
            with SharedMemoryExecutor(workers=2) as executor:
                tasks = _big_tasks()
                for _ in range(3):
                    executor.map(_sum_task, tasks)
                assert executor.payload["maps"] == 3
                assert executor.payload["pool_spawns"] == 1
            assert registry.counter("executor.pool_spawns").value == 1
            assert registry.gauge("executor.pool_workers").value == 2

    def test_close_is_idempotent_and_map_respawns_after(self):
        executor = SharedMemoryExecutor(workers=2)
        tasks = _big_tasks()
        executor.map(_sum_task, tasks)
        executor.close()
        executor.close()
        assert executor.map(_sum_task, tasks) == [_sum_task(t) for t in tasks]
        assert executor.payload["pool_spawns"] == 2
        executor.close()

    def test_no_leak_warnings_under_dash_w_error(self):
        """All three exit paths in one `python -W error` subprocess."""
        script = """
import numpy as np
from repro.runtime import SharedMemoryExecutor
from tests.test_shm import _big_tasks, _explode_on_three, _sum_task

tasks = _big_tasks()
with SharedMemoryExecutor(workers=2) as executor:
    executor.map(_sum_task, tasks)                 # normal completion
    try:
        executor.map(_explode_on_three, tasks)     # worker exception
    except ValueError:
        pass
    executor.map(_sum_task, tasks)                 # pool reuse after error
print("SHM-CLEAN")
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC), str(SRC.parent)] + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "SHM-CLEAN" in proc.stdout
        assert "leaked" not in proc.stderr
        assert "resource_tracker" not in proc.stderr


# ---------------------------------------------------------------------------
# engine integration
# ---------------------------------------------------------------------------
class TestEngineIntegration:
    def test_engine_context_manager_closes_persistent_pool(self):
        with CampaignEngine(SharedMemoryExecutor(workers=2)) as engine:
            engine.run(_sum_task, _big_tasks(), label="a")
            engine.run(_sum_task, _big_tasks(), label="b")
            assert engine.executor.payload["pool_spawns"] == 1
            assert engine.executor._pool is not None
        assert engine.executor._pool is None
        engine.close()  # idempotent

    def test_engine_close_is_noop_for_serial_and_parallel(self):
        with CampaignEngine(SerialExecutor()) as engine:
            engine.run(_sum_task, _big_tasks(), label="x")
        engine.close()  # idempotent

    def test_shm_pool_delta_reaches_run_resources(self):
        with CampaignEngine(SharedMemoryExecutor(workers=2)) as engine:
            run = engine.run(_sum_task, _big_tasks(), label="shm")
        pool = run.metrics.resources["pool"]
        assert pool["shm_bytes"] >= _big_tasks()[0]["a"].nbytes
        assert pool["maps"] == 1
        assert "via shm" in run.metrics.report()


class TestDefaultEngineShm:
    def test_shm_env_selects_shared_memory_executor(self, monkeypatch):
        # REPRO_WORKERS > 1 is all it takes: the shm pool is the only pool
        monkeypatch.setenv("REPRO_WORKERS", "2")
        with default_engine() as engine:
            assert isinstance(engine.executor, SharedMemoryExecutor)
            assert engine.executor.workers == 2
            engine.run(_sum_task, _big_tasks(), label="default")
            assert engine.executor._pool is not None
        assert engine.executor._pool is None


# ---------------------------------------------------------------------------
# the acceptance bar: fig3 byte-identity across every dispatch tier
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def fig3_serial_bytes():
    from repro.experiments import fig3

    return pickle.dumps(fig3.run(n_blocks=64, engine=CampaignEngine(SerialExecutor())))


class TestFig3ByteIdentity:
    def test_shm_batched_matches_serial(self, fig3_serial_bytes):
        from repro.experiments import fig3

        with CampaignEngine(SharedMemoryExecutor(workers=2)) as engine:
            result = fig3.run(n_blocks=64, engine=engine)
            assert engine.executor.fallback_reason is None
            assert engine.executor.payload["pool_spawns"] == 1
            assert engine.executor.payload["shm_bytes"] > 0
        assert pickle.dumps(result) == fig3_serial_bytes

    def test_parallel_matches_serial(self, fig3_serial_bytes, monkeypatch):
        # no engine passed: fig3 builds its own REPRO_WORKERS pool and
        # closes it before returning
        from repro.experiments import fig3

        monkeypatch.setenv("REPRO_WORKERS", "2")
        result = fig3.run(n_blocks=64)
        assert pickle.dumps(result) == fig3_serial_bytes
