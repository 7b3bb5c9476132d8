"""Tests for sharded out-of-core campaigns: planning, spill, identity.

The contract under test is the one docs/algorithms.md §16 states: a
sharded run (``--shards N``) is an execution detail.  Plans partition
tasks contiguously, spilled results rehydrate byte-identically, caches
stay warm across re-sharding, and every experiment output matches the
unsharded run under ``pickle.dumps`` — for serial and pool dispatch
alike.  The shard pipeline (shard i queued before shard i-1 finishes)
keeps the sequential loop's progress order, a cached sharded run leaves
no result behind in the cache object, and a failure with a shard in
flight (a task exception, a full disk, an interrupt) leaves no queued
work, spill dir or worker behind.
"""

from __future__ import annotations

import errno
import gc
import json
import multiprocessing
import os
import pickle
import time
import tracemalloc
import weakref
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np
import pytest

from repro.core.pipeline import BlockPipeline
from repro.datasets.builder import DatasetBuilder, SpilledAnalyses
from repro.datasets.catalog import dataset
from repro.net.world import WorldModel, scenario_covid2020
from repro.obs.progress import ProgressEmitter, use_progress
from repro.obs.trace import Tracer, use_tracer
from repro.runtime import (
    AnalysisCache,
    BlockAnalysisJob,
    CampaignEngine,
    SerialExecutor,
    ShardPlan,
    PoolExecutor,
    SpillDir,
    SpilledResults,
    resolve_shards,
)
from repro.runtime import executors as executors_mod

DATASET = "2020it89-match-ejnw"  # two weeks, four observers: cheap but real


def _square(x):
    return x * x


def _boom_on_seven(x):
    if x == 7:
        raise RuntimeError("task 7 exploded")
    return x


def _slow_square(x):
    # slow enough that the next shard is still queued on the pool when
    # the coordinator finishes this one
    time.sleep(0.1)
    return x * x


def _slow_boom_on_one(x):
    # task 1 fails at once; the others take long enough that the next
    # shard is still queued on the pool when the failure is collected
    if x == 1:
        raise RuntimeError("task 1 exploded")
    time.sleep(0.3)
    return x


@dataclass(frozen=True)
class _DieInWorkerOn:
    """Kills the pool worker that runs task ``victim``; runs it in the
    coordinator (pid ``home``) like any other task."""

    victim: int
    home: int

    def __call__(self, x):
        if x == self.victim and os.getpid() != self.home:
            os._exit(1)
        time.sleep(0.05)
        return x * x


class _Watched:
    """A block job that keeps a weakref to every analysis it computes."""

    def __init__(self, job):
        self.job = job
        self.refs = []

    def cache_keyer(self):
        return self.job.cache_keyer()

    def map_chunk(self, specs):
        results = self.job.map_chunk(specs)
        self.refs += [weakref.ref(r.analysis) for r in results]
        return results


def _alloc_block(n):
    # ~240 KB per task: big enough that holding all results dominates
    # the coordinator's allocation peak in the RSS-bound test
    return np.arange(30_000, dtype=np.float64) + float(n)


# ---------------------------------------------------------------------------
# planning
# ---------------------------------------------------------------------------
class TestShardPlan:
    @pytest.mark.parametrize("n_shards,n_tasks", [(1, 5), (3, 10), (4, 4), (7, 100)])
    def test_ranges_contiguous_balanced_and_complete(self, n_shards, n_tasks):
        plan = ShardPlan.plan(n_shards, n_tasks)
        ranges = plan.ranges
        assert ranges[0][0] == 0 and ranges[-1][1] == n_tasks
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo  # contiguous, no gap or overlap
        sizes = [hi - lo for lo, hi in ranges]
        assert max(sizes) - min(sizes) <= 1  # balanced within one task
        assert all(size > 0 for size in sizes)  # no empty shard

    def test_shard_of_is_the_inverse_of_ranges(self):
        plan = ShardPlan.plan(5, 23)
        for shard, (lo, hi) in enumerate(plan.ranges):
            for index in range(lo, hi):
                assert plan.shard_of(index) == shard
        with pytest.raises(IndexError):
            plan.shard_of(23)
        with pytest.raises(IndexError):
            plan.shard_of(-1)

    def test_plan_clamps_to_task_count(self):
        assert ShardPlan.plan(10, 3).n_shards == 3
        assert ShardPlan.plan(0, 5).n_shards == 1
        assert ShardPlan.plan(-2, 5).n_shards == 1
        assert ShardPlan.plan(4, 0).n_shards == 1  # empty runs stay unsharded


class TestResolveShards:
    def test_explicit_value_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "9")
        assert resolve_shards(3) == 3
        assert resolve_shards(0) == 1

    def test_environment_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        assert resolve_shards(None) == 1
        monkeypatch.setenv("REPRO_SHARDS", "")
        assert resolve_shards(None) == 1
        monkeypatch.setenv("REPRO_SHARDS", "6")
        assert resolve_shards(None) == 6
        assert CampaignEngine(SerialExecutor()).shards == 6

    def test_garbage_value_warns_and_runs_unsharded(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "many")
        with pytest.warns(RuntimeWarning, match="REPRO_SHARDS"):
            assert resolve_shards(None) == 1
        monkeypatch.setenv("REPRO_SHARDS", "-4")
        with pytest.warns(RuntimeWarning, match="REPRO_SHARDS"):
            assert resolve_shards(None) == 1

    def test_cli_flag_sets_environment(self, monkeypatch, capsys):
        import os

        from repro.cli import main

        # setenv first so monkeypatch restores the *original* (unset)
        # state at teardown even though main() overwrites the value
        monkeypatch.setenv("REPRO_SHARDS", "stale")
        assert main(["--shards", "4", "list"]) == 0
        assert os.environ["REPRO_SHARDS"] == "4"


# ---------------------------------------------------------------------------
# spill round-trips
# ---------------------------------------------------------------------------
class TestSpillRoundTrip:
    def _roundtrip(self, items, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path))
        spill = SpillDir.create()
        reader = spill.write_shard(0, items)
        results = SpilledResults(spill, [reader])
        return results

    def test_external_arrays_rehydrate_byte_identical(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(17)
        items = [
            {"f8": rng.normal(size=256), "i4": rng.integers(0, 9, 64).astype("<i4")},
            {"c16": (rng.normal(size=32) + 1j * rng.normal(size=32))},
            {"2d": rng.normal(size=(16, 16)), "bool": rng.normal(size=128) > 0},
            {
                "dt": np.arange(64).astype("datetime64[s]"),
                "td": np.arange(64).astype("timedelta64[ms]"),
            },
        ]
        results = self._roundtrip(items, tmp_path, monkeypatch)
        assert len(results) == len(items)
        for original, loaded in zip(items, results):
            assert pickle.dumps(loaded) == pickle.dumps(original)
            for key, arr in original.items():
                out = loaded[key]
                assert out.dtype == arr.dtype and out.shape == arr.shape
                assert out.flags.writeable and not isinstance(out, np.memmap)

    def test_nan_bit_patterns_survive_the_trip(self, tmp_path, monkeypatch):
        # distinct NaN payloads are invisible to == but not to tobytes()
        bits = np.array(
            [0x7FF8000000000001, 0x7FF8000000000002, 0xFFF8000000000000] * 4,
            dtype="<u8",
        )
        arr = bits.view(np.float64)
        [loaded] = self._roundtrip([{"nans": arr}], tmp_path, monkeypatch)
        assert loaded["nans"].tobytes() == arr.tobytes()
        assert pickle.dumps(loaded["nans"]) == pickle.dumps(arr)

    def test_awkward_arrays_stay_inline_but_identical(self, tmp_path, monkeypatch):
        base = np.arange(512, dtype=np.float64)
        items = [
            {
                "strided": base[::2],  # not C-contiguous
                "fortran": np.asfortranarray(np.arange(64, dtype=np.float64).reshape(8, 8)),
                "deep": np.zeros((2, 2, 2, 2, 2)),  # 5-D: beyond the meta row
                "objects": np.array([{"a": 1}, [2, 3], None], dtype=object),
                "structured": np.zeros(16, dtype=[("x", "<f8"), ("y", "<i4")]),
                "tiny": np.arange(4, dtype=np.int8),  # below the spill floor
            }
        ]
        monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path))
        spill = SpillDir.create()
        reader = spill.write_shard(0, items)
        parts = sorted(p.name for p in spill.directory.iterdir())
        assert parts == ["shard-00.blobs.npy", "shard-00.items.npy"]
        [loaded] = SpilledResults(spill, [reader])
        assert pickle.dumps(loaded) == pickle.dumps(items[0])

    def test_intra_result_aliasing_is_preserved(self, tmp_path, monkeypatch):
        # an array referenced twice must rehydrate as one object, or the
        # re-pickled memo structure (and bytes) would change
        shared = np.arange(128, dtype=np.float64)
        item = {"a": shared, "b": shared, "c": shared[:64].copy()}
        [loaded] = self._roundtrip([item], tmp_path, monkeypatch)
        assert loaded["a"] is loaded["b"]
        assert loaded["c"] is not loaded["a"]
        assert pickle.dumps(loaded) == pickle.dumps(item)

    def test_sequence_protocol(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path))
        spill = SpillDir.create()
        readers = [
            spill.write_shard(0, [10, 11, 12]),
            spill.write_shard(1, [13, 14]),
            spill.write_shard(2, [15]),
        ]
        results = SpilledResults(spill, readers)
        assert list(results) == [10, 11, 12, 13, 14, 15]
        assert results[0] == 10 and results[-1] == 15 and results[4] == 14
        assert results[1:4] == [11, 12, 13]
        with pytest.raises(IndexError):
            results[6]


class TestSpillLifecycle:
    def test_success_cleans_up_when_results_die(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path))
        engine = CampaignEngine(SerialExecutor(), shards=3)
        run = engine.run(_square, list(range(9)), label="spill-gc")
        assert isinstance(run.results, SpilledResults)
        spill_dir = run.results.spill_dir
        assert spill_dir.is_dir() and spill_dir.parent == tmp_path
        assert list(run.results) == [i * i for i in range(9)]
        del run
        gc.collect()
        assert not spill_dir.exists()
        assert list(tmp_path.iterdir()) == []

    def test_mid_shard_failure_cleans_up_and_raises(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path))
        engine = CampaignEngine(SerialExecutor(), shards=4)
        with pytest.raises(RuntimeError, match="task 7"):
            engine.run(_boom_on_seven, list(range(12)), label="spill-fail")
        gc.collect()
        assert list(tmp_path.iterdir()) == []  # coordinator deleted its spill

    def test_cleanup_is_idempotent(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path))
        spill = SpillDir.create()
        spill.write_shard(0, [1, 2])
        assert spill.alive
        spill.cleanup()
        assert not spill.alive and not spill.directory.exists()
        spill.cleanup()  # second call must be a no-op


# ---------------------------------------------------------------------------
# the engine's sharded path
# ---------------------------------------------------------------------------
class TestShardedEngine:
    def test_plain_tasks_match_unsharded(self):
        unsharded = CampaignEngine(SerialExecutor()).run(_square, list(range(20)))
        sharded = CampaignEngine(SerialExecutor(), shards=6).run(_square, list(range(20)))
        assert list(sharded.results) == unsharded.results
        assert sharded.metrics.n_tasks == 20
        assert sharded.metrics.shards == {
            "shards": 6,
            "spilled_items": 20,
            "spill_bytes": sharded.metrics.shards["spill_bytes"],
        }
        assert sharded.metrics.shards["spill_bytes"] > 0
        assert "shards: merged 6 shards" in sharded.metrics.report()

    def test_one_shard_stays_on_the_unsharded_path(self):
        run = CampaignEngine(SerialExecutor(), shards=1).run(_square, list(range(5)))
        assert isinstance(run.results, list)
        assert run.metrics.shards is None

    def test_merged_metrics_match_unsharded_funnel(self, small_world):
        serial = DatasetBuilder(small_world).analyze(
            DATASET, engine=CampaignEngine(SerialExecutor())
        )
        sharded = DatasetBuilder(small_world).analyze(
            DATASET, engine=CampaignEngine(SerialExecutor(), shards=4)
        )
        assert sharded.metrics.funnel == serial.metrics.funnel
        assert sharded.metrics.n_tasks == serial.metrics.n_tasks
        for name, totals in serial.metrics.stages.items():
            merged = sharded.metrics.stages[name]
            assert merged.touched == totals.touched, name
            assert merged.skips == totals.skips, name

    def test_traced_sharded_run_is_one_campaign(self, small_world):
        unsharded = DatasetBuilder(small_world).analyze(
            DATASET, engine=CampaignEngine(SerialExecutor())
        )
        tracer = Tracer()
        with use_tracer(tracer):
            traced = DatasetBuilder(small_world).analyze(
                DATASET, engine=CampaignEngine(SerialExecutor(), shards=3)
            )
        spans = tracer.finished
        assert [s.name for s in spans].count("campaign") == 1
        blocks = [s for s in spans if s.name == "block"]
        assert len(blocks) == traced.metrics.n_tasks
        for block in blocks:
            assert block.attrs["shard"] in (0, 1, 2) and block.attrs["shards"] == 3
        metrics = traced.metrics
        assert metrics.wall_s == metrics.resources["wall_s"]
        assert metrics.funnel == unsharded.metrics.funnel
        assert {name: t.calls for name, t in metrics.stages.items()} == {
            name: t.calls for name, t in unsharded.metrics.stages.items()
        }

    def test_analyses_are_a_lazy_mapping_and_byte_identical(self, small_world):
        serial = DatasetBuilder(small_world).analyze(
            DATASET, engine=CampaignEngine(SerialExecutor())
        )
        sharded = DatasetBuilder(small_world).analyze(
            DATASET, engine=CampaignEngine(SerialExecutor(), shards=3)
        )
        analyses = sharded.analyses
        assert isinstance(analyses, SpilledAnalyses)
        assert list(analyses) == list(serial.analyses)
        assert len(analyses) == len(serial.analyses)
        first = next(iter(analyses))
        assert first in analyses and "not-a-block" not in analyses
        with pytest.raises(KeyError):
            analyses["not-a-block"]
        for cidr in analyses:
            assert pickle.dumps(analyses[cidr]) == pickle.dumps(
                serial.analyses[cidr]
            ), f"sharded diverged from serial for {cidr}"

    def test_sharded_peak_allocation_stays_below_unsharded(self, tmp_path, monkeypatch):
        # the tentpole's success metric at smoke scale: holding every
        # result (unsharded) must allocate measurably more than
        # streaming shards through the spill directory
        monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path))
        tasks = list(range(48))
        started_here = not tracemalloc.is_tracing()
        if started_here:
            tracemalloc.start()
        try:
            gc.collect()
            tracemalloc.reset_peak()
            run = CampaignEngine(SerialExecutor()).run(_alloc_block, tasks)
            assert len(run.results) == 48
            _, unsharded_peak = tracemalloc.get_traced_memory()
            del run
            gc.collect()
            tracemalloc.reset_peak()
            run = CampaignEngine(SerialExecutor(), shards=12).run(_alloc_block, tasks)
            assert len(run.results) == 48
            _, sharded_peak = tracemalloc.get_traced_memory()
            del run
            gc.collect()
        finally:
            if started_here:
                tracemalloc.stop()
        assert sharded_peak < 0.6 * unsharded_peak, (
            f"sharded peak {sharded_peak} not below unsharded {unsharded_peak}"
        )


# ---------------------------------------------------------------------------
# experiment outputs: the acceptance bar
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def fig3_serial_bytes():
    from repro.experiments import fig3

    return pickle.dumps(fig3.run(n_blocks=64, engine=CampaignEngine(SerialExecutor())))


class TestShardedByteIdentity:
    def test_serial_sharded_matches(self, fig3_serial_bytes):
        from repro.experiments import fig3

        engine = CampaignEngine(SerialExecutor(), shards=3)
        assert pickle.dumps(fig3.run(n_blocks=64, engine=engine)) == fig3_serial_bytes

    def test_parallel_sharded_matches(self, fig3_serial_bytes):
        from repro.experiments import fig3

        with CampaignEngine(PoolExecutor(workers=2), shards=3) as engine:
            result = fig3.run(n_blocks=64, engine=engine)
            assert engine.executor.fallback_reason is None
        assert pickle.dumps(result) == fig3_serial_bytes

    def test_shm_sharded_matches(self, fig3_serial_bytes):
        from repro.experiments import fig3

        with CampaignEngine(PoolExecutor(workers=2), shards=2) as engine:
            result = fig3.run(n_blocks=64, engine=engine)
            assert engine.executor.fallback_reason is None
        assert pickle.dumps(result) == fig3_serial_bytes

    def test_table2_sharded_matches(self):
        from repro.experiments import table2

        serial = pickle.dumps(
            table2.run(n_blocks=48, engine=CampaignEngine(SerialExecutor()))
        )
        sharded = pickle.dumps(
            table2.run(n_blocks=48, engine=CampaignEngine(SerialExecutor(), shards=4))
        )
        assert sharded == serial


# ---------------------------------------------------------------------------
# one cache layout for every shard count
# ---------------------------------------------------------------------------
class TestCacheResharding:
    def test_resharding_stays_warm(self, small_world, tmp_path):
        cold = CampaignEngine(
            SerialExecutor(), cache=AnalysisCache(tmp_path), shards=2
        )
        first = DatasetBuilder(small_world).analyze(DATASET, engine=cold)
        assert first.metrics.cache["misses"] == first.metrics.n_tasks

        warm = CampaignEngine(
            SerialExecutor(), cache=AnalysisCache(tmp_path), shards=3
        )
        second = DatasetBuilder(small_world).analyze(DATASET, engine=warm)
        assert second.metrics.cache["hits"] == second.metrics.n_tasks
        assert second.metrics.cache["misses"] == 0
        for cidr in second.analyses:
            assert pickle.dumps(second.analyses[cidr]) == pickle.dumps(
                first.analyses[cidr]
            )
        assert not list(tmp_path.glob("shard-*"))

    def test_sharded_runs_read_unsharded_entries(self, small_world, tmp_path):
        flat = CampaignEngine(SerialExecutor(), cache=AnalysisCache(tmp_path))
        DatasetBuilder(small_world).analyze(DATASET, engine=flat)
        sharded = CampaignEngine(
            SerialExecutor(), cache=AnalysisCache(tmp_path), shards=4
        )
        result = DatasetBuilder(small_world).analyze(DATASET, engine=sharded)
        assert result.metrics.cache["hits"] == result.metrics.n_tasks
        assert not list(tmp_path.glob("shard-*"))

    def test_cache_holds_no_result_after_a_sharded_run(self, small_world, tmp_path):
        """The cache is its directory: once a sharded run's shards are
        spilled and the run is dropped, no computed analysis stays alive
        behind the engine or its cache."""
        job = _Watched(
            BlockAnalysisJob(world=small_world, ds=dataset(DATASET), pipeline=BlockPipeline())
        )
        cache = AnalysisCache(tmp_path)
        engine = CampaignEngine(SerialExecutor(), cache=cache, shards=4)
        run = engine.run(job, small_world.blocks)
        n = len(small_world.blocks)
        assert run.metrics.cache == {"hits": 0, "misses": n, "stores": n}
        assert len(job.refs) == n
        del run
        gc.collect()
        assert [r for r in job.refs if r() is not None] == []
        assert engine.cache is cache  # both stayed alive throughout


# ---------------------------------------------------------------------------
# the progress plane under sharding
# ---------------------------------------------------------------------------
class TestShardedProgress:
    def test_records_carry_shard_and_campaign_fields(self, tmp_path):
        import json

        emitter = ProgressEmitter(tmp_path, interval_s=0.0)
        with use_progress(emitter):
            CampaignEngine(SerialExecutor(), shards=3).run(
                _square, list(range(9)), label="sharded-progress"
            )
        records = [
            json.loads(line)
            for line in (tmp_path / "progress.jsonl").read_text().splitlines()
        ]
        assert records, "no heartbeats emitted"
        # one bracket for the whole campaign: done/total are campaign-wide
        assert [r["event"] for r in records].count("start") == 1
        assert [r["event"] for r in records].count("finish") == 1
        assert records[0]["event"] == "start" and records[-1]["event"] == "finish"
        for record in records:
            assert record["shards"] == 3
            assert record["total"] == 9
            assert record["shard"] in (0, 1, 2)
            assert "campaign_done" not in record and "campaign_total" not in record
        done = [r["done"] for r in records]
        assert done == sorted(done), "campaign progress must be monotonic"
        assert records[-1]["done"] == 9
        shards = [r["shard"] for r in records]
        assert shards == sorted(shards) and set(shards) == {0, 1, 2}
        ticks = [r for r in records if r["event"] == "tick" and r["shard"] == 1]
        assert ticks and all(r["done"] >= 3 for r in ticks)

    def test_unsharded_records_stay_unchanged(self, tmp_path):
        import json

        emitter = ProgressEmitter(tmp_path, interval_s=0.0)
        with use_progress(emitter):
            CampaignEngine(SerialExecutor()).run(_square, list(range(4)))
        records = [
            json.loads(line)
            for line in (tmp_path / "progress.jsonl").read_text().splitlines()
        ]
        assert records
        for record in records:
            assert "shard" not in record and "shards" not in record


# ---------------------------------------------------------------------------
# the shard pipeline: shard i is queued before shard i-1 is collected
# ---------------------------------------------------------------------------
def _spy_submissions(monkeypatch, executor):
    """Record every Pending ``executor.submit`` returns, with the pool
    futures it queued (none when it runs in-process)."""
    submitted = []
    submit = executor.submit

    def spy(*args, **kwargs):
        pending = submit(*args, **kwargs)
        queued = pending._queued
        submitted.append((pending, list(queued.futures) if queued else []))
        return pending

    monkeypatch.setattr(executor, "submit", spy)
    return submitted


class TestPipelineFailures:
    def test_task_exception_with_a_shard_in_flight(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path))
        executor = PoolExecutor(workers=2)
        submitted = _spy_submissions(monkeypatch, executor)
        engine = CampaignEngine(executor, shards=3)
        try:
            with pytest.raises(RuntimeError, match="task 1 exploded"):
                engine.run(_slow_boom_on_one, list(range(24)), label="boom")
            # shard 1 was queued before shard 0 was collected, and the
            # chunks of it that no worker had started never run
            assert len(submitted) == 2
            queued = submitted[1][1]
            assert queued and any(f.cancelled() for f in queued)
            workers = set(executor._pool._processes)
        finally:
            engine.close()
        assert all(f.done() for _, futures in submitted for f in futures)
        gc.collect()
        assert list(tmp_path.iterdir()) == []  # the spill dir is gone
        alive = {p.pid for p in multiprocessing.active_children()}
        assert workers and not workers & alive  # close joined every worker

    def test_broken_pool_with_a_shard_queued_falls_back_for_both(self, monkeypatch):
        """The pool breaks while shard 1 is collected and shard 2 is
        queued: both shards rerun in-process, with no task lost."""

        class BreaksAfterShardZero:
            def __init__(self, *args, **kwargs):
                self.calls = 0

            def submit(self, fn, *args):
                self.calls += 1
                future = Future()
                if self.calls <= 3:  # shard 0's three chunks
                    future.set_result(fn(*args))
                else:
                    future.set_exception(BrokenProcessPool("worker died"))
                return future

            def shutdown(self, *args, **kwargs):
                pass

        monkeypatch.setattr(executors_mod, "ProcessPoolExecutor", BreaksAfterShardZero)
        tasks = list(range(9))
        serial = CampaignEngine(SerialExecutor()).run(_square, tasks)
        with CampaignEngine(PoolExecutor(workers=2), shards=3) as engine:
            run = engine.run(_square, tasks, label="broken")
            executor = engine.executor
            assert executor.fallback_reason == (
                "pool failed: BrokenProcessPool: worker died"
            )
            assert executor._pool is None
        assert executor.payload["fallbacks"] == 2
        assert pickle.dumps(list(run.results)) == pickle.dumps(serial.results)
        assert run.metrics.fallback == "pool failed: BrokenProcessPool: worker died"
        assert executor.payload["maps"] == 1  # shard 0 alone came back pooled

    def test_killed_worker_with_a_shard_queued_loses_nothing(self, monkeypatch):
        tasks = list(range(9))
        job = _DieInWorkerOn(victim=4, home=os.getpid())  # task 4: shard 1
        serial = CampaignEngine(SerialExecutor()).run(job, tasks)
        executor = PoolExecutor(workers=2)
        submitted = _spy_submissions(monkeypatch, executor)
        with CampaignEngine(executor, shards=3) as engine:
            run = engine.run(job, tasks, label="killed")
            assert run.metrics.fallback.startswith("pool failed: BrokenProcessPool")
        assert len(submitted) == 3
        assert submitted[1][0].fallback_reason is not None
        assert pickle.dumps(list(run.results)) == pickle.dumps(serial.results)

    def test_full_disk_mid_spill_with_a_shard_in_flight(
        self, tmp_path, monkeypatch, sanitizer
    ):
        """``ENOSPC`` while shard 0 spills and shard 1 is queued: the
        error surfaces as itself, shard 1's unstarted chunks never run,
        and the pool and the spill dir are gone once the engine closes."""

        def full_disk(self, shard_id, results):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path))
        monkeypatch.setattr(SpillDir, "write_shard", full_disk)
        executor = PoolExecutor(workers=2)
        submitted = _spy_submissions(monkeypatch, executor)
        engine = CampaignEngine(executor, shards=3)
        try:
            with pytest.raises(OSError) as raised:
                engine.run(_slow_square, list(range(24)), label="enospc")
            assert raised.value.errno == errno.ENOSPC
            assert len(submitted) == 2
            assert any(f.cancelled() for f in submitted[1][1])
        finally:
            engine.close()
        assert raised.traceback and list(tmp_path.iterdir()) == []
        assert sanitizer.live() == []

    def test_interrupt_between_shards(self, tmp_path, monkeypatch, sanitizer):
        """Ctrl-C as shard 1 starts (shard 0 spilled, shard 1 queued):
        ``KeyboardInterrupt`` propagates, shard 1's unstarted chunks are
        cancelled, and the spill dir holding shard 0 is removed."""
        emitter = ProgressEmitter(tmp_path / "progress", interval_s=0.0)

        def interrupt(**counts):
            raise KeyboardInterrupt

        monkeypatch.setattr(emitter, "next_shard", interrupt)
        spill_parent = tmp_path / "spill"
        monkeypatch.setenv("REPRO_SPILL_DIR", str(spill_parent))
        executor = PoolExecutor(workers=2)
        submitted = _spy_submissions(monkeypatch, executor)
        engine = CampaignEngine(executor, shards=3)
        try:
            with use_progress(emitter), pytest.raises(KeyboardInterrupt) as raised:
                engine.run(_slow_square, list(range(24)), label="interrupted")
            assert len(submitted) == 2
            assert any(f.cancelled() for f in submitted[1][1])
        finally:
            engine.close()
        # removed eagerly: the traceback still holds the run's frame, so
        # the spill dir's GC finalizer has not fired
        assert raised.traceback and list(spill_parent.iterdir()) == []
        assert sanitizer.live() == []


# the perfbench ``pool-sharded`` shape: 2 workers, 3 shards, cold on-disk cache
POOL_SHARDED = {"workers": 2, "shards": 3}


def _cache_files(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*.pkl"))
    }


def _forced_records(directory):
    return [
        (r["event"], r["shard"], r["done"], r["total"], r["cache_hit_rate"])
        for r in map(json.loads, (directory / "progress.jsonl").read_text().splitlines())
    ]


class TestPipelinedIdentity:
    def test_pool_sharded_cold_cache_matches_serial(self, small_world, tmp_path):
        serial_dir, pool_dir = tmp_path / "serial", tmp_path / "pool"
        serial = DatasetBuilder(small_world).analyze(
            DATASET, engine=CampaignEngine(SerialExecutor(), cache=AnalysisCache(serial_dir))
        )
        progress_dir = tmp_path / "progress"
        # only the records a shard boundary forces: start, one per shard, finish
        with use_progress(ProgressEmitter(progress_dir, interval_s=1e9)):
            with CampaignEngine(
                PoolExecutor(workers=POOL_SHARDED["workers"]),
                cache=AnalysisCache(pool_dir),
                shards=POOL_SHARDED["shards"],
            ) as engine:
                pooled = DatasetBuilder(small_world).analyze(DATASET, engine=engine)
                assert engine.executor.fallback_reason is None
                assert engine.executor.payload["maps"] == 3  # one per shard
        n = serial.metrics.n_tasks
        for cidr in serial.analyses:
            assert pickle.dumps(pooled.analyses[cidr]) == pickle.dumps(
                serial.analyses[cidr]
            ), cidr
        assert pooled.metrics.funnel == serial.metrics.funnel
        assert pooled.metrics.cache == serial.metrics.cache == {
            "hits": 0, "misses": n, "stores": n,
        }
        assert _cache_files(pool_dir) == _cache_files(serial_dir)
        assert _forced_records(progress_dir) == [
            ("start", 0, 0, n, 0.0),
            ("tick", 1, 20, n, 0.0),
            ("tick", 2, 40, n, 0.0),
            ("finish", 2, n, n, 0.0),
        ]

        # a warm rerun of the same shape is all hits
        with CampaignEngine(
            PoolExecutor(workers=2), cache=AnalysisCache(pool_dir), shards=3
        ) as engine:
            warm = DatasetBuilder(small_world).analyze(DATASET, engine=engine)
            assert engine.executor.payload["maps"] == 0  # nothing dispatched
        assert warm.metrics.cache == {"hits": n, "misses": 0, "stores": 0}

    def test_every_tick_is_booked_in_its_own_shard(self, small_world, tmp_path):
        with use_progress(ProgressEmitter(tmp_path, interval_s=0.0)):
            with CampaignEngine(PoolExecutor(workers=2), shards=3) as engine:
                DatasetBuilder(small_world).analyze(DATASET, engine=engine)
        ranges = ShardPlan.plan(3, len(small_world.blocks)).ranges
        records = list(map(json.loads, (tmp_path / "progress.jsonl").read_text().splitlines()))
        assert [r["shard"] for r in records] == sorted(r["shard"] for r in records)
        for record in records:
            lo, hi = ranges[record["shard"]]
            assert lo <= record["done"] <= hi, record

    @pytest.mark.parametrize("workers", [1, 2])
    def test_block_in_two_adjacent_shards_counts_like_the_sequential_loop(
        self, small_world, tmp_path, workers
    ):
        """A block that ends shard 0 and starts shard 1 is consulted in
        shard 1 before shard 0 is stored, so both copies miss and are
        stored, as in an unsharded cold run; results stay byte-identical."""
        job = BlockAnalysisJob(
            world=small_world, ds=dataset(DATASET), pipeline=BlockPipeline()
        )
        blocks = list(small_world.blocks[:47])
        blocks.insert(16, blocks[15])
        lo, hi = ShardPlan.plan(3, len(blocks)).ranges[1]
        assert blocks[lo - 1] is blocks[lo]

        serial = CampaignEngine(SerialExecutor()).run(job, blocks)
        executor = PoolExecutor(workers=2) if workers > 1 else SerialExecutor()
        with CampaignEngine(
            executor, cache=AnalysisCache(tmp_path / "pipelined"), shards=3
        ) as engine:
            pipelined = engine.run(job, blocks)
        unsharded = CampaignEngine(
            SerialExecutor(), cache=AnalysisCache(tmp_path / "unsharded")
        ).run(job, blocks)
        n = len(blocks)
        assert pipelined.metrics.cache == unsharded.metrics.cache == {
            "hits": 0, "misses": n, "stores": n,
        }
        assert [pickle.dumps(r.analysis) for r in pipelined.results] == [
            pickle.dumps(r.analysis) for r in serial.results
        ]
        assert _cache_files(tmp_path / "pipelined") == _cache_files(tmp_path / "unsharded")
