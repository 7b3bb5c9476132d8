"""The process pool: dispatch, fallback, lifecycle, byte-identity.

Covers what :class:`~repro.runtime.executors.PoolExecutor` promises:
results match the serial executor; a task's own exception propagates
and leaves the pool up; a pool that cannot spawn, cannot accept the
map, or breaks falls back to serial without losing a task; the
persistent pool spawns once across maps and engine runs; and fig3
results are byte-identical across serial and pool execution.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.runtime import (
    CampaignEngine,
    PoolExecutor,
    SerialExecutor,
    default_engine,
)
from repro.runtime import executors as executors_mod

SRC = Path(__file__).resolve().parent.parent / "src"
PROTO = pickle.HIGHEST_PROTOCOL  # the protocol the pool pickles with


def _sum_task(task: dict) -> float:
    """Module-level so the pool can pickle it."""
    return float(task["a"].sum()) + task["i"]


def _explode_on_three(task: dict) -> float:
    if task["i"] == 3:
        raise ValueError("bad task")
    return float(task["i"])


def _missing_file_on_three(task: dict) -> float:
    if task["i"] == 3:
        raise FileNotFoundError(f"no input for task-{task['i']}")
    return float(task["i"])


def _tasks(n: int = 6) -> list[dict]:
    arr = np.arange(4_000, dtype=np.float64).reshape(40, 100)
    return [{"a": arr, "i": i} for i in range(n)]


def _failing_pool(exc: BaseException) -> type:
    """A ``ProcessPoolExecutor`` stand-in whose ``submit`` raises ``exc``."""

    class FailingPool:
        def __init__(self, *args, **kwargs):
            pass

        def submit(self, *args, **kwargs):
            raise exc

        def shutdown(self, *args, **kwargs):
            pass

    return FailingPool


# ---------------------------------------------------------------------------
# PoolExecutor: dispatch + lifecycle
# ---------------------------------------------------------------------------
class TestPoolExecutor:
    def test_matches_serial(self):
        tasks = _tasks()
        with PoolExecutor(workers=2) as executor:
            results = executor.map(_sum_task, tasks)
            assert executor.fallback_reason is None
            assert results == [_sum_task(t) for t in tasks]
            assert executor.payload["maps"] == 1
            assert executor.payload["task_bytes"] == sum(
                len(pickle.dumps(t, PROTO)) for t in tasks
            )

    def test_worker_exception_propagates_and_pool_survives(self):
        with PoolExecutor(workers=2) as executor:
            tasks = _tasks()
            with pytest.raises(ValueError, match="bad task"):
                executor.map(_explode_on_three, tasks)
            assert executor.fallback_reason is None
            # the pool survives a task exception: no respawn needed
            assert executor.map(_sum_task, tasks) == [_sum_task(t) for t in tasks]
            assert executor.payload["pool_spawns"] == 1

    def test_task_oserror_propagates_without_fallback(self):
        """An ``OSError`` raised by a task is the task's, not the pool's:
        no fallback, no serial rerun, no teardown."""
        tasks = _tasks(8)
        with PoolExecutor(workers=2) as executor:
            with pytest.raises(FileNotFoundError, match="task-3"):
                executor.map(_missing_file_on_three, tasks)
            assert executor.fallback_reason is None
            assert executor.map(_sum_task, tasks) == [_sum_task(t) for t in tasks]
            assert executor.payload["pool_spawns"] == 1

    def test_broken_pool_falls_back_to_serial(self, monkeypatch):
        """A broken pool, or an ``OSError`` while submitting, is the
        pool's failure: tear it down and rerun the map in-process."""
        from concurrent.futures.process import BrokenProcessPool

        tasks = _tasks()
        for exc in (BrokenProcessPool("worker died"), OSError("pipe closed")):
            monkeypatch.setattr(executors_mod, "ProcessPoolExecutor", _failing_pool(exc))
            executor = PoolExecutor(workers=2)
            results = executor.map(_sum_task, tasks)
            assert results == [_sum_task(t) for t in tasks]  # no task lost
            assert executor.fallback_reason == f"pool failed: {type(exc).__name__}: {exc}"
            assert executor._pool is None  # torn down; a later map respawns

    def test_spawn_failure_falls_back_to_serial(self, monkeypatch):
        class ExplodingPool:
            def __init__(self, *args, **kwargs):
                raise OSError("no processes for you")

        monkeypatch.setattr(executors_mod, "ProcessPoolExecutor", ExplodingPool)
        executor = PoolExecutor(workers=2)
        results = executor.map(_sum_task, _tasks())
        assert results == [_sum_task(t) for t in _tasks()]
        assert "pool spawn failed" in executor.fallback_reason

    def test_serial_degeneration_without_pool(self):
        executor = PoolExecutor(workers=1)
        assert executor.map(_sum_task, _tasks()) == [_sum_task(t) for t in _tasks()]
        assert executor.payload["pool_spawns"] == 0  # never spawned

    def test_persistent_pool_spawns_once_across_maps(self):
        with PoolExecutor(workers=2) as executor:
            tasks = _tasks()
            for _ in range(3):
                executor.map(_sum_task, tasks)
            assert executor.payload["maps"] == 3
            assert executor.payload["pool_spawns"] == 1
            assert executor.workers == 2
            assert executor._pool._max_workers == 2

    def test_close_is_idempotent_and_map_respawns_after(self):
        executor = PoolExecutor(workers=2)
        tasks = _tasks()
        executor.map(_sum_task, tasks)
        executor.close()
        executor.close()
        assert executor.map(_sum_task, tasks) == [_sum_task(t) for t in tasks]
        assert executor.payload["pool_spawns"] == 2
        executor.close()

    def test_no_leak_warnings_under_dash_w_error(self):
        """Normal completion, a task exception and reuse in one
        ``python -W error`` subprocess."""
        script = """
from repro.runtime import PoolExecutor
from tests.test_pool import _explode_on_three, _sum_task, _tasks

tasks = _tasks()
with PoolExecutor(workers=2) as executor:
    executor.map(_sum_task, tasks)                 # normal completion
    try:
        executor.map(_explode_on_three, tasks)     # worker exception
    except ValueError:
        pass
    executor.map(_sum_task, tasks)                 # pool reuse after error
print("POOL-CLEAN")
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
        assert "POOL-CLEAN" in proc.stdout
        assert "leaked" not in proc.stderr
        assert "resource_tracker" not in proc.stderr


# ---------------------------------------------------------------------------
# engine integration
# ---------------------------------------------------------------------------
class TestEngineIntegration:
    def test_engine_context_manager_closes_persistent_pool(self):
        with CampaignEngine(PoolExecutor(workers=2)) as engine:
            engine.run(_sum_task, _tasks(), label="a")
            engine.run(_sum_task, _tasks(), label="b")
            assert engine.executor.payload["pool_spawns"] == 1
            assert engine.executor._pool is not None
        assert engine.executor._pool is None
        engine.close()  # idempotent

    def test_engine_close_is_noop_for_serial_and_parallel(self):
        with CampaignEngine(SerialExecutor()) as engine:
            engine.run(_sum_task, _tasks(), label="x")
        engine.close()  # idempotent

    def test_pool_delta_reaches_run_resources(self):
        with CampaignEngine(PoolExecutor(workers=2)) as engine:
            run = engine.run(_sum_task, _tasks(), label="pool")
        pool = run.metrics.resources["pool"]
        assert set(pool) == {"fn_bytes", "task_bytes", "maps"}
        assert pool["task_bytes"] == sum(len(pickle.dumps(t, PROTO)) for t in _tasks())
        assert pool["maps"] == 1
        report = run.metrics.report()
        assert "payload out over 1 dispatches (job " in report
        assert "via shm" not in report


class TestDefaultEnginePool:
    def test_env_selects_pool_executor(self, monkeypatch):
        # REPRO_WORKERS > 1 is all it takes: there is one pool
        monkeypatch.setenv("REPRO_WORKERS", "2")
        with default_engine() as engine:
            assert isinstance(engine.executor, PoolExecutor)
            assert engine.executor.workers == 2
            assert engine.executor.name == "pool[2]"
            engine.run(_sum_task, _tasks(), label="default")
            assert engine.executor._pool is not None
        assert engine.executor._pool is None


# ---------------------------------------------------------------------------
# the acceptance bar: fig3 byte-identity across serial and the pool
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def fig3_serial_bytes():
    from repro.experiments import fig3

    return pickle.dumps(fig3.run(n_blocks=64, engine=CampaignEngine(SerialExecutor())))


class TestFig3ByteIdentity:
    def test_pool_matches_serial(self, fig3_serial_bytes):
        from repro.experiments import fig3

        with CampaignEngine(PoolExecutor(workers=2)) as engine:
            result = fig3.run(n_blocks=64, engine=engine)
            assert engine.executor.fallback_reason is None
            assert engine.executor.payload["pool_spawns"] == 1
            assert engine.executor.payload["fn_bytes"] > 0
        assert pickle.dumps(result) == fig3_serial_bytes

    def test_parallel_matches_serial(self, fig3_serial_bytes, monkeypatch):
        # no engine passed: fig3 builds its own REPRO_WORKERS pool and
        # closes it before returning
        from repro.experiments import fig3

        monkeypatch.setenv("REPRO_WORKERS", "2")
        result = fig3.run(n_blocks=64)
        assert pickle.dumps(result) == fig3_serial_bytes
