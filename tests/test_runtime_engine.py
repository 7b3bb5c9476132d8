"""Tests for the campaign engine, executors, and run metrics."""

from __future__ import annotations

import dataclasses
import datetime as dt
import enum
import hashlib
import multiprocessing
import os
import pickle
import sqlite3
import threading
from dataclasses import dataclass, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.runtime.executors as executors_mod
from repro.core.pipeline import BlockPipeline
from repro.core.stages import PIPELINE_STAGES
from repro.datasets.builder import DatasetBuilder
from repro.datasets.catalog import dataset
from repro.experiments.common import covid_world
from repro.experiments.fig3 import _ScanTimeJob
from repro.net.world import WorldModel, scenario_covid2020
from repro.runtime import (
    CACHE_SCHEMA,
    AnalysisCache,
    BlockAnalysisJob,
    BlockResult,
    CampaignEngine,
    SerialExecutor,
    PoolExecutor,
    StageTotals,
    default_engine,
    stable_token,
    task_keyer,
)

DATASET = "2020it89-match-ejnw"  # two weeks, four observers: cheap but real


@pytest.fixture(scope="module")
def world200() -> WorldModel:
    """The acceptance-scale world: 200 routed blocks."""
    return WorldModel(scenario_covid2020(), n_blocks=200, seed=7)


@pytest.fixture(scope="module")
def funnel_world() -> WorldModel:
    """The shape of the benchmark's funnel world: 300 blocks, seed 20."""
    return covid_world(300, 20, diurnal_boost=1.0)


@pytest.fixture(scope="module")
def serial_result(world200):
    engine = CampaignEngine(SerialExecutor())
    return DatasetBuilder(world200).analyze(DATASET, engine=engine)


def per_block_oracle(world, blocks=None):
    """The per-block oracle: one direct ``BlockAnalysisJob`` call per block."""
    job = BlockAnalysisJob(world=world, ds=dataset(DATASET), pipeline=BlockPipeline())
    return [job(spec) for spec in (world.blocks if blocks is None else blocks)]


class TestSerialParallelEquivalence:
    def test_parallel_matches_serial_byte_identical(self, world200, serial_result):
        with CampaignEngine(PoolExecutor(workers=2)) as engine:
            parallel = DatasetBuilder(world200).analyze(DATASET, engine=engine)
            assert engine.executor.fallback_reason is None
        assert list(parallel.analyses) == list(serial_result.analyses)
        for cidr, analysis in parallel.analyses.items():
            assert pickle.dumps(analysis) == pickle.dumps(
                serial_result.analyses[cidr]
            ), f"parallel diverged from serial for {cidr}"

    def test_workers_one_degenerates_to_serial(self, world200, serial_result):
        with CampaignEngine(PoolExecutor(workers=1)) as engine:
            result = DatasetBuilder(world200).analyze(DATASET, engine=engine)
            assert engine.executor._pool is None  # no pool was spawned
        assert result.funnel() == serial_result.funnel()
        assert result.metrics.executor == "pool[1]"


class TestRunMetrics:
    def test_stage_totals_cover_routed_blocks(self, serial_result):
        metrics = serial_result.metrics
        assert metrics is not None
        routed = metrics.funnel["routed"]
        assert routed == 200
        for name in PIPELINE_STAGES:
            totals = metrics.stages[name]
            assert totals.touched >= routed, name

    def test_funnel_matches_dataset_result(self, serial_result):
        funnel = serial_result.funnel()
        assert serial_result.metrics.funnel == {
            "routed": funnel.routed,
            "responsive": funnel.responsive,
            "diurnal": funnel.diurnal,
            "wide_swing": funnel.wide_swing,
            "change_sensitive": funnel.change_sensitive,
        }

    def test_firewalled_blocks_skip_every_stage(self, serial_result):
        # every pipeline stage must see the same firewalled-skip count
        metrics = serial_result.metrics
        firewalled = {
            name: metrics.stages[name].skips.get("firewalled", 0)
            for name in PIPELINE_STAGES
        }
        assert len(set(firewalled.values())) == 1
        assert firewalled["repair"] > 0  # the world does have firewalled blocks

    def test_report_and_dict(self, serial_result):
        metrics = serial_result.metrics
        text = metrics.report()
        assert "blocks/s" in text and "reconstruct" in text and "funnel:" in text
        d = metrics.as_dict()
        assert d["n_tasks"] == 200
        assert set(d["stages"]) >= set(PIPELINE_STAGES)
        assert d["funnel"]["routed"] == 200

    def test_simulate_stage_dominates(self, serial_result):
        # simulation (truth synthesis, then probing) is the hot path; its
        # two records must exist, one call each per responsive block
        stages = serial_result.metrics.stages
        responsive = stages["repair"].calls
        assert stages["truth"].calls == stages["probe"].calls == responsive > 0
        assert stages["probe"].n_out == stages["repair"].n_in  # every probe logged


class TestFallback:
    def test_pool_spawn_failure_falls_back_to_serial(self, monkeypatch, world200):
        class ExplodingPool:
            def __init__(self, *args, **kwargs):
                raise OSError("no processes for you")

        monkeypatch.setattr(executors_mod, "ProcessPoolExecutor", ExplodingPool)
        executor = PoolExecutor(workers=2)
        blocks = list(world200.blocks)[:20]
        with CampaignEngine(executor) as engine:
            result = DatasetBuilder(world200).analyze(
                DATASET, blocks=blocks, engine=engine
            )
        assert len(result.analyses) == 20  # no block lost
        assert "pool spawn failed" in executor.fallback_reason
        assert result.metrics.fallback == executor.fallback_reason

    def test_fallback_results_match_serial(self, monkeypatch, world200, serial_result):
        class ExplodingPool:
            def __init__(self, *args, **kwargs):
                raise OSError("boom")

        monkeypatch.setattr(executors_mod, "ProcessPoolExecutor", ExplodingPool)
        blocks = list(world200.blocks)[:20]
        with CampaignEngine(PoolExecutor(workers=2)) as engine:
            result = DatasetBuilder(world200).analyze(
                DATASET, blocks=blocks, engine=engine
            )
        for cidr, analysis in result.analyses.items():
            assert pickle.dumps(analysis) == pickle.dumps(
                serial_result.analyses[cidr]
            )


class TestEngineGenerics:
    def test_ordering_preserved_for_plain_tasks(self):
        with CampaignEngine(PoolExecutor(workers=2)) as engine:
            run = engine.run(_square, list(range(20)), label="squares")
        assert run.results == [i * i for i in range(20)]
        assert run.metrics.n_tasks == 20
        assert run.metrics.funnel == {}  # no BlockResults -> no funnel

    def test_engine_history_accumulates(self):
        from repro.runtime import peek_run_log

        engine = CampaignEngine()
        engine.run(_square, [1, 2], label="a")
        engine.run(_square, [3], label="b")
        assert [m.label for m in peek_run_log()[-2:]] == ["a", "b"]
        assert peek_run_log()[-2].executor == "serial"

    def test_task_exception_propagates(self):
        with CampaignEngine(PoolExecutor(workers=2)) as engine:
            with pytest.raises(ValueError, match="bad task"):
                engine.run(_explode, list(range(8)), label="explode")


class TestDefaultEngine:
    def test_unset_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert isinstance(default_engine().executor, SerialExecutor)

    def test_env_selects_parallel(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        with default_engine() as engine:
            assert isinstance(engine.executor, PoolExecutor)
            assert engine.executor.workers == 3

    def test_garbage_env_is_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.warns(RuntimeWarning, match="not an integer"):
            assert isinstance(default_engine().executor, SerialExecutor)


class TestBlockAnalysisJob:
    def test_job_is_picklable(self, world200):
        job = BlockAnalysisJob(
            world=world200, ds=dataset(DATASET), pipeline=BlockPipeline()
        )
        clone = pickle.loads(pickle.dumps(job))
        spec = next(s for s in world200.blocks if s.responsive_by_design)
        a = job(spec)
        b = clone(spec)
        assert isinstance(a, BlockResult)
        assert pickle.dumps(a.analysis) == pickle.dumps(b.analysis)

    def test_firewalled_block_short_circuits(self, world200):
        job = BlockAnalysisJob(
            world=world200, ds=dataset(DATASET), pipeline=BlockPipeline()
        )
        spec = next(s for s in world200.blocks if not s.responsive_by_design)
        result = job(spec)
        assert not result.analysis.classification.responsive
        assert all(r.skipped == "firewalled" for r in result.stages)

    @staticmethod
    def assert_chunk_matches_oracle(job, chunk):
        oracle = [pickle.dumps(job(spec).analysis) for spec in chunk]
        results = job.map_chunk(chunk)
        assert [r.key for r in results] == [spec.block.cidr for spec in chunk]
        assert [pickle.dumps(r.analysis) for r in results] == oracle

    @pytest.mark.parametrize(
        "ds, style",
        [("2020it89-w", "adaptive"), (DATASET, "bayesian")],
        ids=["survey", "bayesian"],
    )
    def test_map_chunk_matches_oracle_probing_lane_by_lane(self, world200, ds, style):
        job = BlockAnalysisJob(
            world=world200, ds=dataset(ds), pipeline=BlockPipeline(), observer_style=style
        )
        chunk = tuple(world200.blocks[:12])
        assert sum(spec.responsive_by_design for spec in chunk) >= 3
        self.assert_chunk_matches_oracle(job, chunk)

    @pytest.mark.parametrize("ds", ["2020h1-ejnw", "2020m1-ejnw"])
    def test_lane_kernel_chunk_reconstructs_from_rounds(self, world200, ds, monkeypatch):
        """A batched chunk reconstructs every block straight from the lane
        rounds, never through the log route, with the oracle's bytes and
        the oracle's stage names and sizes."""
        import repro.datasets.builder as builder_mod

        job = BlockAnalysisJob(world=world200, ds=dataset(ds), pipeline=BlockPipeline())
        chunk = tuple(world200.blocks[:20])
        # every lane loses replies: the scenario's base loss is Bernoulli
        assert world200.scenario.base_loss.max_probability() > 0
        oracle = [job(spec) for spec in chunk]

        def refuse(*args, **kwargs):
            raise AssertionError("a lane-kernel block took the log route")

        monkeypatch.setattr(builder_mod, "reconstruct_logs", refuse)
        results = job.map_chunk(chunk)
        assert [pickle.dumps(r.analysis) for r in results] == [
            pickle.dumps(r.analysis) for r in oracle
        ]
        for got, want in zip(results, oracle):
            assert [(r.name, r.n_in, r.n_out, r.skipped) for r in got.stages] == [
                (r.name, r.n_in, r.n_out, r.skipped) for r in want.stages
            ]

    def test_small_chunk_never_calls_the_builder(self, world200, monkeypatch):
        """A one-block chunk is simulated by simulate_chunk, not by the
        per-block oracle, and reconstructs from the lane rounds, never
        through the log route."""
        import repro.datasets.builder as builder_mod

        job = BlockAnalysisJob(world=world200, ds=dataset(DATASET), pipeline=BlockPipeline())
        chunk = tuple(world200.blocks[:1])
        assert chunk[0].responsive_by_design
        oracle = [pickle.dumps(job(spec).analysis) for spec in chunk]

        def refuse(*args, **kwargs):
            raise AssertionError("map_chunk called the per-block oracle or the log route")

        monkeypatch.setattr(DatasetBuilder, "reconstruct_block", refuse)
        monkeypatch.setattr(builder_mod, "reconstruct_logs", refuse)
        assert [pickle.dumps(r.analysis) for r in job.map_chunk(chunk)] == oracle

    def test_all_firewalled_chunk_simulates_nothing(self, world200, monkeypatch):
        import repro.datasets.builder as builder_mod

        def refuse(*args, **kwargs):
            raise AssertionError("an all-firewalled chunk was simulated")

        monkeypatch.setattr(builder_mod, "simulate_chunk", refuse)
        job = BlockAnalysisJob(world=world200, ds=dataset(DATASET), pipeline=BlockPipeline())
        chunk = tuple(s for s in world200.blocks if not s.responsive_by_design)[:3]
        results = job.map_chunk(chunk)
        assert len(results) == 3
        for result in results:
            assert [r.name for r in result.stages] == list(PIPELINE_STAGES)
            assert all(r.skipped == "firewalled" for r in result.stages)


class TestAnalysisCache:
    N = 30  # blocks per cached run: cheap but covers firewalled + responsive

    def _blocks(self, world200):
        return list(world200.blocks)[: self.N]

    def test_cold_then_warm_disk_byte_identical(
        self, world200, serial_result, tmp_path
    ):
        blocks = self._blocks(world200)
        cold_engine = CampaignEngine(SerialExecutor(), AnalysisCache(tmp_path))
        cold = DatasetBuilder(world200).analyze(
            DATASET, blocks=blocks, engine=cold_engine
        )
        assert cold.metrics.cache == {"hits": 0, "misses": self.N, "stores": self.N}
        # a fresh engine + fresh cache object: every hit comes from disk
        warm_engine = CampaignEngine(SerialExecutor(), AnalysisCache(tmp_path))
        warm = DatasetBuilder(world200).analyze(
            DATASET, blocks=blocks, engine=warm_engine
        )
        assert warm.metrics.cache == {"hits": self.N, "misses": 0, "stores": 0}
        assert list(warm.analyses) == list(cold.analyses)
        for cidr, analysis in warm.analyses.items():
            reference = pickle.dumps(serial_result.analyses[cidr])
            assert pickle.dumps(analysis) == reference
            assert pickle.dumps(cold.analyses[cidr]) == reference
        assert warm.funnel() == cold.funnel()
        assert f"cache: {self.N}/{self.N} hits (100%)" in warm.metrics.report()

    def test_parallel_with_cache_matches_serial(
        self, world200, serial_result, tmp_path
    ):
        blocks = self._blocks(world200)
        executor = PoolExecutor(workers=2)
        with CampaignEngine(executor, AnalysisCache(tmp_path)) as engine:
            cold = DatasetBuilder(world200).analyze(DATASET, blocks=blocks, engine=engine)
            assert executor.fallback_reason is None
            warm = DatasetBuilder(world200).analyze(DATASET, blocks=blocks, engine=engine)
        assert cold.metrics.cache == {"hits": 0, "misses": self.N, "stores": self.N}
        assert warm.metrics.cache == {"hits": self.N, "misses": 0, "stores": 0}
        for cidr, analysis in warm.analyses.items():
            assert pickle.dumps(analysis) == pickle.dumps(serial_result.analyses[cidr])

    def test_corrupt_disk_entries_recompute(self, world200, serial_result, tmp_path):
        blocks = self._blocks(world200)
        engine = CampaignEngine(SerialExecutor(), AnalysisCache(tmp_path))
        DatasetBuilder(world200).analyze(DATASET, blocks=blocks, engine=engine)
        assert len(_rows(tmp_path)) == self.N
        _execute(tmp_path, "UPDATE entries SET blob = ?", (b"not a pickle",))
        assert set(_rows(tmp_path).values()) == {b"not a pickle"}
        fresh = CampaignEngine(SerialExecutor(), AnalysisCache(tmp_path))
        result = DatasetBuilder(world200).analyze(
            DATASET, blocks=blocks, engine=fresh
        )
        assert result.metrics.cache["hits"] == 0  # every load failed -> recompute
        assert result.metrics.cache["misses"] == self.N
        for cidr, analysis in result.analyses.items():
            assert pickle.dumps(analysis) == pickle.dumps(serial_result.analyses[cidr])

    def test_entry_naming_a_missing_module_is_one_miss(
        self, world200, serial_result, tmp_path
    ):
        blocks = self._blocks(world200)
        engine = CampaignEngine(SerialExecutor(), AnalysisCache(tmp_path))
        DatasetBuilder(world200).analyze(DATASET, blocks=blocks, engine=engine)
        key, blob = sorted(_rows(tmp_path).items())[0]
        payload = blob[32:]
        assert b"repro." in payload
        # same length and a matching digest, so the entry passes its
        # digest check, parses up to the import and then raises
        # ModuleNotFoundError rather than an UnpicklingError
        renamed = payload.replace(b"repro.", b"reprX.")
        _set_blob(tmp_path, key, hashlib.sha256(renamed).digest() + renamed)
        with pytest.raises(ModuleNotFoundError):
            pickle.loads(renamed)
        rerun = CampaignEngine(SerialExecutor(), AnalysisCache(tmp_path))
        result = DatasetBuilder(world200).analyze(DATASET, blocks=blocks, engine=rerun)
        assert result.metrics.cache == {"hits": self.N - 1, "misses": 1, "stores": 1}
        for cidr, analysis in result.analyses.items():
            assert pickle.dumps(analysis) == pickle.dumps(serial_result.analyses[cidr])
        assert _rows(tmp_path)[key] == blob  # put rewrote the damaged entry
        again = CampaignEngine(SerialExecutor(), AnalysisCache(tmp_path))
        healed = DatasetBuilder(world200).analyze(DATASET, blocks=blocks, engine=again)
        assert healed.metrics.cache == {"hits": self.N, "misses": 0, "stores": 0}

    def test_byte_flipped_entries_never_raise(self, tmp_path):
        cache = AnalysisCache(tmp_path)
        value = {"series": list(range(40)), "label": "block", "ratio": 0.25}
        key = "ab" * 32
        assert cache.put_many([(key, value)]) == 1
        blob = _rows(tmp_path)[key]
        assert AnalysisCache(tmp_path).get_many([key]) == {0: value}
        for pos in range(len(blob)):
            for flip in (0x01, 0x80, 0xFF):
                damaged = bytearray(blob)
                damaged[pos] ^= flip
                _set_blob(tmp_path, key, bytes(damaged))
                # the entry's digest catches every flip, even one that
                # would still unpickle: a plain miss, never an exception
                # and never a wrong hit
                assert AnalysisCache(tmp_path).get_many([key]) == {}

    def test_garbage_database_is_all_misses(self, world200, serial_result, tmp_path):
        """A ``cache.sqlite`` that is not a database: every get misses,
        every store stores nothing, nothing raises, and the run is the
        serial run byte for byte."""
        blocks = self._blocks(world200)
        garbage = bytes(range(256)) * 64
        (tmp_path / "cache.sqlite").write_bytes(garbage)
        engine = CampaignEngine(SerialExecutor(), AnalysisCache(tmp_path), shards=2)
        result = DatasetBuilder(world200).analyze(DATASET, blocks=blocks, engine=engine)
        assert result.metrics.cache == {"hits": 0, "misses": self.N, "stores": 0}
        assert len(result.analyses) == self.N
        for cidr, analysis in result.analyses.items():
            assert pickle.dumps(analysis) == pickle.dumps(serial_result.analyses[cidr])
        assert (tmp_path / "cache.sqlite").read_bytes() == garbage
        assert [p.name for p in tmp_path.iterdir()] == ["cache.sqlite"]

    def test_concurrent_writers_on_overlapping_keys(self, tmp_path):
        """Two processes store overlapping keys into one directory at the
        same time: both commit, every row's digest checks, and a
        following run is all hits."""
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        done = ctx.Queue()
        ranges = [(0, 120), (60, 180)]
        writers = [
            ctx.Process(target=_store_squares, args=(tmp_path, lo, hi, barrier, done))
            for lo, hi in ranges
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=120)
        assert [writer.exitcode for writer in writers] == [0, 0]
        assert sorted(done.get(timeout=5) for _ in writers) == [120, 120]
        rows = _rows(tmp_path)
        keyer = _SquareKeyed().cache_keyer()
        assert set(rows) == {keyer(x) for x in range(180)}
        for blob in rows.values():
            assert hashlib.sha256(blob[32:]).digest() == blob[:32]
        engine = CampaignEngine(SerialExecutor(), AnalysisCache(tmp_path), shards=3)
        run = engine.run(_SquareKeyed(), list(range(180)))
        assert run.metrics.cache == {"hits": 180, "misses": 0, "stores": 0}
        assert list(run.results) == [_padded_square(x) for x in range(180)]

    def test_a_read_creates_nothing(self, tmp_path):
        missing = tmp_path / "no" / "such" / "dir"
        assert AnalysisCache(missing).get_many(["ab" * 32, None]) == {}
        assert not (tmp_path / "no").exists()
        assert AnalysisCache(tmp_path).get_many(["ab" * 32]) == {}
        assert AnalysisCache(tmp_path).put_many([]) == 0
        assert list(tmp_path.iterdir()) == []

    def test_plain_tasks_bypass_cache(self, tmp_path):
        engine = CampaignEngine(SerialExecutor(), AnalysisCache(tmp_path))
        run = engine.run(_square, [1, 2, 3], label="squares")
        assert run.results == [1, 4, 9]
        assert run.metrics.cache is None  # fn has no cache_keyer: never consulted
        assert not any(tmp_path.iterdir())  # and nothing was stored

    def test_cached_hits_drop_stage_records(self, world200, tmp_path):
        blocks = self._blocks(world200)
        engine = CampaignEngine(SerialExecutor(), AnalysisCache(tmp_path))
        DatasetBuilder(world200).analyze(DATASET, blocks=blocks, engine=engine)
        warm = DatasetBuilder(world200).analyze(DATASET, blocks=blocks, engine=engine)
        # no stage work happened, so stage totals must not claim any
        assert all(t.calls == 0 for t in warm.metrics.stages.values())
        assert warm.metrics.funnel["routed"] == self.N


class _Shade(enum.IntEnum):
    DARK = 1
    LIGHT = 2


class _Tag(str):
    """A ``str`` subclass: tokenized as the ``str`` it is."""


@dataclass(frozen=True)
class _Point:
    x: object
    y: object


def _stable_token_reference(obj):
    """``stable_token`` as first written: the tokens every key must keep."""
    if obj is None or isinstance(obj, (bool, int)):
        return repr(obj)
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, str):
        return "s" + repr(obj)
    if isinstance(obj, bytes):
        return "b" + hashlib.sha256(obj).hexdigest()
    if isinstance(obj, enum.Enum):
        return f"e({type(obj).__qualname__}:{obj.name})"
    if isinstance(obj, (dt.datetime, dt.date, dt.time)):
        return f"t({obj.isoformat()})"
    if isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        digest = hashlib.sha256(arr.tobytes()).hexdigest()
        return f"a({arr.dtype.str},{arr.shape},{digest})"
    if isinstance(obj, np.generic):
        return _stable_token_reference(obj.item())
    token = getattr(obj, "cache_token", None)
    if token is not None and not dataclasses.is_dataclass(obj):
        return f"o({type(obj).__qualname__},{_stable_token_reference(token())})"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        inner = ",".join(
            f"{f.name}={_stable_token_reference(getattr(obj, f.name))}"
            for f in dataclasses.fields(obj)
        )
        return f"d({type(obj).__qualname__},{inner})"
    if isinstance(obj, (tuple, list)):
        return "(" + ",".join(_stable_token_reference(v) for v in obj) + ")"
    if isinstance(obj, dict):
        items = sorted(
            (_stable_token_reference(k), _stable_token_reference(v)) for k, v in obj.items()
        )
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(obj, (set, frozenset)):
        return "f{" + ",".join(sorted(_stable_token_reference(v) for v in obj)) + "}"
    raise TypeError(f"cannot build a stable cache token for {type(obj)!r}")


def _reference_key(kind, inputs):
    """The key of one task, tokenized whole by the reference tokenizer."""
    token = _stable_token_reference((kind, CACHE_SCHEMA, inputs))
    return hashlib.sha256(token.encode()).hexdigest()


class TestTaskKey:
    def test_deterministic_and_spec_sensitive(self, world200):
        job = BlockAnalysisJob(
            world=world200, ds=dataset(DATASET), pipeline=BlockPipeline()
        )
        specs = list(world200.blocks)[:2]
        key = job.cache_keyer()(specs[0])
        assert isinstance(key, str) and len(key) == 64
        assert key == job.cache_keyer()(specs[0])
        assert key != job.cache_keyer()(specs[1])

    def test_pipeline_parameters_change_the_key(self, world200):
        spec = list(world200.blocks)[0]
        a = BlockAnalysisJob(
            world=world200, ds=dataset(DATASET), pipeline=BlockPipeline()
        )
        b = BlockAnalysisJob(
            world=world200,
            ds=dataset(DATASET),
            pipeline=BlockPipeline(),
            observer_style="bayesian",
        )
        assert a.cache_keyer()(spec) != b.cache_keyer()(spec)

    def test_unkeyable_inputs_return_none(self):
        assert task_keyer("kind", {"fn": lambda: None}, "x")(1) is None

    @pytest.mark.parametrize("world_name", ["world200", "funnel_world"])
    def test_keyer_equals_reference_key_for_every_block(self, world_name, request):
        world = request.getfixturevalue(world_name)
        ds = dataset(DATASET)
        jobs = {
            "block-analysis": BlockAnalysisJob(world=world, ds=ds, pipeline=BlockPipeline()),
            "fig3-scan": _ScanTimeJob(world=world, ds=ds, max_scans=40),
        }
        for kind, job in jobs.items():
            keyer = job.cache_keyer()
            invariant = {f.name: getattr(job, f.name) for f in fields(job)}
            for spec in world.blocks:
                assert keyer(spec) == _reference_key(kind, {**invariant, "spec": spec})

    def test_keyer_slot_can_sort_anywhere(self):
        inputs = {"b": 2.5, "d": (1, "x"), "f": None}
        for vary in ("a", "c", "e", "g"):
            keyer = task_keyer("kind", inputs, vary)
            for task in (0, "t", (1, 2)):
                assert keyer(task) == _reference_key("kind", {**inputs, vary: task})
        assert task_keyer("kind", {}, "a")(1) == _reference_key("kind", {"a": 1})
        # the task takes its slot, as in ``{**inputs, vary: task}``
        assert task_keyer("kind", inputs, "b")(7) == _reference_key("kind", {**inputs, "b": 7})

    def test_unkeyable_spec_gets_none(self, world200):
        job = BlockAnalysisJob(world=world200, ds=dataset(DATASET), pipeline=BlockPipeline())
        keyer = job.cache_keyer()
        assert keyer(object()) is None
        assert keyer(lambda: None) is None
        assert keyer(world200.blocks[0]) is not None  # the keyer survives a bad task

    def test_unkeyable_invariant_input_runs_every_task_uncached(self, tmp_path):
        job = _OpaqueKeyed(handle=object())
        engine = CampaignEngine(SerialExecutor(), AnalysisCache(tmp_path), shards=2)
        for _ in range(2):
            run = engine.run(job, list(range(6)))
            assert list(run.results) == [x * x for x in range(6)]
            assert run.metrics.cache == {"hits": 0, "misses": 6, "stores": 0}
        assert not any(tmp_path.iterdir())

    def test_keying_leaves_the_job_and_its_pool_payload_unchanged(self, world200, tmp_path):
        ds = dataset(DATASET)
        blocks = list(world200.blocks)[:12]
        fresh = pickle.dumps(BlockAnalysisJob(world=world200, ds=ds, pipeline=BlockPipeline()))
        job = BlockAnalysisJob(world=world200, ds=ds, pipeline=BlockPipeline())
        job.cache_keyer()(blocks[0])
        assert pickle.dumps(job) == fresh  # no memo rides inside the job
        payloads = []
        for cache in (None, AnalysisCache(tmp_path)):
            executor = PoolExecutor(workers=2)
            with CampaignEngine(executor, cache, shards=1) as engine:
                engine.run(job, blocks)
            payloads.append(executor.payload)
        uncached, cached = payloads
        assert pickle.dumps(job) == fresh
        # the pool ships the parent's job bytes whether or not the run keyed
        assert cached["fn_bytes"] == uncached["fn_bytes"] > 0
        assert cached["fn_bytes"] % len(pickle.dumps(job.map_chunk)) == 0

    def test_an_engine_run_builds_its_keyer_once(self, world200, tmp_path, monkeypatch):
        calls = []
        original = BlockAnalysisJob.cache_keyer

        def spy(job):
            calls.append(job)
            return original(job)

        monkeypatch.setattr(BlockAnalysisJob, "cache_keyer", spy)
        blocks = list(world200.blocks)[:30]
        engine = CampaignEngine(SerialExecutor(), AnalysisCache(tmp_path), shards=3)
        DatasetBuilder(world200).analyze(DATASET, blocks=blocks, engine=engine)
        assert len(calls) == 1  # one run of three shards
        warm = DatasetBuilder(world200).analyze(DATASET, blocks=blocks, engine=engine)
        assert len(calls) == 2
        assert warm.metrics.cache["hits"] == 30
        assert warm.metrics.shards["shards"] == 3

    @settings(max_examples=150, deadline=None)
    @given(value=st.recursive(
        st.one_of(
            st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
            st.binary(max_size=4), st.dates(), st.datetimes(), st.sampled_from(list(_Shade)),
            st.sampled_from([np.float64(0.5), np.int32(3), np.arange(3), True, _Tag("x")]),
        ),
        lambda kids: st.one_of(
            st.tuples(kids, kids),
            st.lists(kids, max_size=3),
            st.dictionaries(st.text(max_size=3), kids, max_size=3),
            st.frozensets(st.integers(), max_size=3),
            st.builds(_Point, kids, kids),
        ),
        max_leaves=12,
    ))
    def test_stable_token_matches_the_reference(self, value):
        assert stable_token(value) == _stable_token_reference(value)

    def test_stable_token_of_a_world_matches_the_reference(self, funnel_world):
        objs = [funnel_world, dataset(DATASET), BlockPipeline(), *funnel_world.blocks]
        assert [stable_token(o) for o in objs] == [_stable_token_reference(o) for o in objs]

    def test_stable_token_dict_order_insensitive(self):
        assert stable_token({"a": 1, "b": 2}) == stable_token({"b": 2, "a": 1})


def _square(x: int) -> int:
    return x * x


@dataclass(frozen=True)
class _OpaqueKeyed:
    """A keyed job whose invariant input has no stable token."""

    handle: object

    def cache_keyer(self):
        return task_keyer("opaque", {"handle": self.handle}, "x")

    def __call__(self, x):
        return x * x


@dataclass(frozen=True)
class _SquareKeyed:
    """A cheap keyed job: its results are worth caching across processes."""

    def cache_keyer(self):
        return task_keyer("square", {}, "x")

    def __call__(self, x):
        return _padded_square(x)


def _padded_square(x):
    # a few KiB per entry, so two writers' transactions overlap in time
    return (x * x, bytes(4096))


def _store_squares(directory, lo, hi, barrier, done):
    """One writer process: keys ``lo..hi`` of :class:`_SquareKeyed`."""
    keyer = _SquareKeyed().cache_keyer()
    items = [(keyer(x), _padded_square(x)) for x in range(lo, hi)]
    barrier.wait(timeout=60)
    done.put(AnalysisCache(directory).put_many(items))


def _execute(directory, sql, params=()):
    """Run one committed statement on a cache directory's database."""
    conn = sqlite3.connect(directory / "cache.sqlite")
    try:
        with conn:
            return conn.execute(sql, params).fetchall()
    finally:
        conn.close()


def _rows(directory):
    """``{key: blob}`` of every row of a cache directory's database."""
    return dict(_execute(directory, "SELECT key, blob FROM entries"))


def _set_blob(directory, key, blob):
    _execute(directory, "UPDATE entries SET blob = ? WHERE key = ?", (blob, key))


@dataclass(frozen=True)
class _DieInWorker:
    """Kills the pool worker that runs task ``victim``; the coordinator
    (pid ``home``) runs it like any other task."""

    victim: int
    home: int

    def __call__(self, x):
        if x == self.victim and os.getpid() != self.home:
            os._exit(1)
        return x * x


def _new_threads(before):
    return [t.name for t in threading.enumerate() if t not in before]


class TestForkSafety:
    """No thread of a pool outlives ``close()``, so a later fork (the next
    pool's workers) never copies a lock that one of them holds."""

    def test_healthy_pool(self, world200):
        before = set(threading.enumerate())
        with CampaignEngine(PoolExecutor(workers=2), shards=2) as engine:
            DatasetBuilder(world200).analyze(
                DATASET, blocks=list(world200.blocks)[:20], engine=engine
            )
            assert _new_threads(before)  # the persistent pool's threads
        assert _new_threads(before) == []

    def test_pool_spawn_failure(self, monkeypatch, world200):
        class ExplodingPool:
            def __init__(self, *args, **kwargs):
                raise OSError("no processes for you")

        monkeypatch.setattr(executors_mod, "ProcessPoolExecutor", ExplodingPool)
        before = set(threading.enumerate())
        executor = PoolExecutor(workers=2)
        with CampaignEngine(executor) as engine:
            DatasetBuilder(world200).analyze(
                DATASET, blocks=list(world200.blocks)[:20], engine=engine
            )
        assert executor.payload["fallbacks"] == 1
        assert _new_threads(before) == []

    def test_pool_broken_mid_run(self):
        before = set(threading.enumerate())
        executor = PoolExecutor(workers=2)
        with CampaignEngine(executor, shards=1) as engine:
            run = engine.run(_DieInWorker(victim=0, home=os.getpid()), list(range(8)))
        assert "BrokenProcessPool" in executor.fallback_reason
        assert run.results == [x * x for x in range(8)]  # no task lost
        assert _new_threads(before) == []


def _explode(x: int) -> int:
    if x == 5:
        raise ValueError("bad task")
    return x


class TestBatchedDispatch:
    """The batched columnar path must be invisible in every output."""

    @pytest.fixture(scope="class")
    def per_block_result(self, world200):
        return per_block_oracle(world200)

    def test_batched_serial_matches_per_block(self, serial_result, per_block_result):
        # serial_result runs through the chunked default path (map_chunk)
        assert list(serial_result.analyses) == [r.key for r in per_block_result]
        for oracle in per_block_result:
            assert pickle.dumps(serial_result.analyses[oracle.key]) == pickle.dumps(
                oracle.analysis
            ), f"batched diverged from per-block for {oracle.key}"

    def test_batched_parallel_matches_per_block(self, world200, per_block_result):
        with CampaignEngine(PoolExecutor(workers=2)) as engine:
            result = DatasetBuilder(world200).analyze(DATASET, engine=engine)
            assert engine.executor.fallback_reason is None
        # genuinely fanned out through the pool, in one dispatch
        assert result.metrics.resources["pool"]["maps"] == 1
        for oracle in per_block_result:
            assert pickle.dumps(result.analyses[oracle.key]) == pickle.dumps(
                oracle.analysis
            ), f"parallel batched diverged from per-block for {oracle.key}"

    def test_stage_records_match_per_block(self, serial_result, per_block_result):
        batched = serial_result.metrics
        scalar: dict[str, StageTotals] = {}
        for oracle in per_block_result:
            for record in oracle.stages:
                scalar.setdefault(record.name, StageTotals()).add(record)
        for name in PIPELINE_STAGES:
            b, s = batched.stages[name], scalar[name]
            assert (b.calls, b.n_in, b.n_out, b.skips) == (
                s.calls,
                s.n_in,
                s.n_out,
                s.skips,
            ), name

    def test_firewalled_short_circuits_reconstruction(self, world200):
        firewalled = next(s for s in world200.blocks if not s.responsive_by_design)
        responsive = next(s for s in world200.blocks if s.responsive_by_design)
        job = BlockAnalysisJob(
            world=world200, ds=dataset(DATASET), pipeline=BlockPipeline()
        )
        short, analysed = job.map_chunk((firewalled, responsive))
        assert isinstance(short, BlockResult) and isinstance(analysed, BlockResult)
        assert [r.name for r in short.stages] == list(PIPELINE_STAGES)
        assert all(r.skipped == "firewalled" for r in short.stages)
        # the builder's truth/probe records, then the pipeline's, in order
        assert [r.name for r in analysed.stages] == ["truth", "probe", *PIPELINE_STAGES]
        assert not any(r.skipped for r in analysed.stages[:5])

    def test_cache_is_path_agnostic(self, world200, tmp_path):
        # a cache written by the per-block path (a job without
        # map_chunk, which the engine maps per block) must be served
        # verbatim by the chunked path (same keys, same bytes) — and
        # hits must bypass the chunk job.
        job = BlockAnalysisJob(
            world=world200, ds=dataset(DATASET), pipeline=BlockPipeline()
        )
        cache = AnalysisCache(tmp_path)
        cold = CampaignEngine(SerialExecutor(), cache=cache)
        first = cold.run(_PerBlock(job), list(world200.blocks))
        assert first.metrics.cache["misses"] == 200
        warm = CampaignEngine(SerialExecutor(), cache=cache)
        second = DatasetBuilder(world200).analyze(DATASET, engine=warm)
        assert second.metrics.cache["hits"] == 200
        # hits bypass the chunk job: no stage ran
        assert all(t.calls == 0 for t in second.metrics.stages.values())
        for computed in first.results:
            assert pickle.dumps(second.analyses[computed.key]) == pickle.dumps(
                computed.analysis
            )


@dataclass(frozen=True)
class _PerBlock:
    """A block job without ``map_chunk``: the engine maps it per block."""

    job: BlockAnalysisJob

    def __call__(self, spec):
        return self.job(spec)

    def cache_keyer(self):
        return self.job.cache_keyer()


class TestTracedUntracedAgree:
    """Traced and untraced runs share one run body; only telemetry differs."""

    def test_same_results_and_metrics(self, world200, tmp_path):
        from contextlib import nullcontext

        from repro.obs.trace import Tracer, use_tracer

        blocks = list(world200.blocks)[:40]
        runs = []
        for i, scope in enumerate((nullcontext(), use_tracer(Tracer()))):
            engine = CampaignEngine(SerialExecutor(), AnalysisCache(tmp_path / str(i)))
            with scope:
                runs.append(
                    DatasetBuilder(world200).analyze(DATASET, blocks=blocks, engine=engine)
                )
        untraced, traced = runs
        assert "workers" not in untraced.metrics.resources
        assert traced.metrics.resources["workers"]["tasks"] == 40
        assert list(untraced.analyses) == list(traced.analyses)
        for cidr, analysis in traced.analyses.items():
            assert pickle.dumps(analysis) == pickle.dumps(untraced.analyses[cidr])
        a, b = untraced.metrics, traced.metrics
        assert a.funnel == b.funnel and a.funnel["routed"] == 40
        assert a.cache == b.cache == {"hits": 0, "misses": 40, "stores": 40}
        assert {n: t.calls for n, t in a.stages.items()} == {
            n: t.calls for n, t in b.stages.items()
        }


class TestChunkedPhaseA:
    """The chunk job probes a whole chunk's lanes at once; every execution
    mode of it must match the per-block oracle byte for byte."""

    N = 120  # blocks per run: enough lanes per pool chunk / shard to batch

    @pytest.fixture(scope="class")
    def blocks(self, world200):
        return list(world200.blocks)[: self.N]

    @pytest.fixture(scope="class")
    def oracle(self, world200, blocks):
        return {r.key: pickle.dumps(r.analysis) for r in per_block_oracle(world200, blocks)}

    @staticmethod
    def assert_matches(result, oracle):
        assert list(result.analyses) == list(oracle)
        for cidr, analysis in result.analyses.items():
            assert pickle.dumps(analysis) == oracle[cidr], cidr

    def test_serial_chunk(self, world200, blocks, oracle):
        engine = CampaignEngine(SerialExecutor())
        result = DatasetBuilder(world200).analyze(DATASET, blocks=blocks, engine=engine)
        self.assert_matches(result, oracle)
        stages = result.metrics.stages
        responsive = sum(spec.responsive_by_design for spec in blocks)
        assert stages["truth"].calls == stages["probe"].calls == responsive > 0

    def test_shm_pool(self, world200, blocks, oracle):
        with CampaignEngine(PoolExecutor(workers=2)) as engine:
            result = DatasetBuilder(world200).analyze(DATASET, blocks=blocks, engine=engine)
            assert engine.executor.fallback_reason is None
        self.assert_matches(result, oracle)

    def test_three_shards(self, world200, blocks, oracle):
        engine = CampaignEngine(SerialExecutor(), shards=3)
        result = DatasetBuilder(world200).analyze(DATASET, blocks=blocks, engine=engine)
        assert result.metrics.shards["shards"] == 3
        self.assert_matches(result, oracle)

    def test_warm_cache(self, world200, blocks, oracle, tmp_path):
        cold = CampaignEngine(SerialExecutor(), AnalysisCache(tmp_path))
        self.assert_matches(
            DatasetBuilder(world200).analyze(DATASET, blocks=blocks, engine=cold), oracle
        )
        warm = CampaignEngine(SerialExecutor(), AnalysisCache(tmp_path))
        result = DatasetBuilder(world200).analyze(DATASET, blocks=blocks, engine=warm)
        assert result.metrics.cache == {"hits": self.N, "misses": 0, "stores": 0}
        self.assert_matches(result, oracle)

    def test_progress_counts_every_block_once(self, world200, blocks, tmp_path):
        import json

        from repro.obs.progress import ProgressEmitter, use_progress

        emitter = ProgressEmitter(tmp_path, interval_s=0.0)
        with use_progress(emitter):
            with CampaignEngine(PoolExecutor(workers=2)) as engine:
                DatasetBuilder(world200).analyze(DATASET, blocks=blocks, engine=engine)
        records = [json.loads(line) for line in emitter.path.read_text().splitlines()]
        assert records[-1]["done"] == records[-1]["total"] == self.N
        assert max(r["done"] for r in records) == self.N
