"""Tests for builder observer styles and the stateless builder."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.datasets.builder import DatasetBuilder
from repro.datasets.catalog import dataset
from repro.net.world import WorldModel, scenario_covid2020

DAY = 86_400.0


@pytest.fixture(scope="module")
def world():
    return WorldModel(scenario_covid2020(), n_blocks=30, seed=91, diurnal_boost=3.0)


class TestObserverStyles:
    def test_unknown_style_rejected(self, world):
        with pytest.raises(ValueError, match="observer_style"):
            DatasetBuilder(world, observer_style="psychic")

    def test_bayesian_style_builds_bayesian_observers(self, world):
        from repro.net.bayesian import BayesianTrinocularObserver

        builder = DatasetBuilder(world, observer_style="bayesian")
        assert all(
            isinstance(obs, BayesianTrinocularObserver)
            for obs in builder.observers.values()
        )

    def test_styles_agree_on_classification(self, world):
        """Adaptive and Bayesian probing classify blocks alike (the
        paper's simplification holds at the funnel level)."""
        spec = next(
            s for s in world.blocks if s.kind in ("pool", "workplace", "home")
        )
        adaptive = DatasetBuilder(world, observer_style="adaptive")
        bayes = DatasetBuilder(world, observer_style="bayesian")
        a = adaptive.analyze_block(spec, "2020m1-ejnw")
        b = bayes.analyze_block(spec, "2020m1-ejnw")
        assert a.classification.responsive == b.classification.responsive
        assert a.classification.is_diurnal == b.classification.is_diurnal

    def test_bayesian_probes_cheaper(self, world):
        spec = next(s for s in world.blocks if s.kind == "churn")
        adaptive = DatasetBuilder(world, observer_style="adaptive")
        bayes = DatasetBuilder(world, observer_style="bayesian")
        start = 92 * 86_400.0
        truth = adaptive.truth(spec, start, 7 * 86_400.0)
        a = adaptive.observe(spec, "e", start, 7 * 86_400.0, truth=truth)
        b = bayes.observe(spec, "e", start, 7 * 86_400.0, truth=truth)
        assert len(b) <= len(a)


def _same_log(a, b):
    return (
        np.array_equal(a.times, b.times)
        and np.array_equal(a.addresses, b.addresses)
        and np.array_equal(a.results, b.results)
    )


def _same_truth(a, b):
    return (
        np.array_equal(a.addresses, b.addresses)
        and np.array_equal(a.active, b.active)
        and np.array_equal(a.col_times, b.col_times)
    )


class TestStatelessBuilder:
    """A builder's answers are functions of their arguments alone."""

    @pytest.fixture(scope="class")
    def world60(self):
        return WorldModel(scenario_covid2020(), n_blocks=60, seed=3)

    def test_observe_does_not_depend_on_call_history(self, world60):
        specs = [s for s in world60.blocks if s.responsive_by_design][:10]
        assert len(specs) == 10
        used = DatasetBuilder(world60)
        for spec in specs:
            wide = used.truth(spec, 8 * DAY, 10 * DAY)
            used.observe(spec, "e", 8 * DAY, 10 * DAY, truth=wide)
            narrow = used.truth(spec, 10 * DAY, 5 * DAY)
            after = used.observe(spec, "e", 10 * DAY, 5 * DAY, truth=narrow)
            fresh = DatasetBuilder(world60)
            truth = fresh.truth(spec, 10 * DAY, 5 * DAY)
            assert len(after) > 0
            assert _same_log(after, fresh.observe(spec, "e", 10 * DAY, 5 * DAY, truth=truth))

    def test_truth_does_not_depend_on_call_history(self):
        world = WorldModel(scenario_covid2020(), n_blocks=200, seed=3)
        m1, h1 = dataset("2020m1-ejnw"), dataset("2020h1-ejnw")
        used = DatasetBuilder(world)
        for spec in world.blocks:
            if not spec.responsive_by_design:
                continue
            used.truth(spec, h1.start_s(world.epoch), h1.duration_s)
            after = used.truth(spec, m1.start_s(world.epoch), m1.duration_s)
            fresh = DatasetBuilder(world).truth(spec, m1.start_s(world.epoch), m1.duration_s)
            assert _same_truth(after, fresh), spec.block.cidr

    def test_same_start_windows_share_a_prefix(self, small_world):
        builder = DatasetBuilder(small_world)
        ds = dataset("2020m1-ejnw")
        start = ds.start_s(small_world.epoch)
        half = ds.duration_s / 2
        specs = [s for s in small_world.blocks if s.responsive_by_design][:15]
        half_ds = replace(ds, weeks=ds.weeks / 2)
        assert half_ds.duration_s == half
        differ = 0
        for spec in specs:
            full_truth = builder.truth(spec, start, ds.duration_s)
            half_truth = builder.truth(spec, start, half)
            # each window's four lanes, probed in one call
            fulls = builder.observe_dataset(spec, ds, truth=full_truth)
            freshes = builder.observe_dataset(spec, half_ds, truth=half_truth)
            for full, fresh in zip(fulls, freshes, strict=True):
                differ += not _same_log(fresh, full.slice_time(start, start + half))
        assert differ == 0

    def test_each_block_generates_truth_once(self, world60, monkeypatch):
        from repro.experiments.additional_probing import _FbsSampleJob
        from repro.experiments.fig3 import _ScanTimeJob

        calls = []
        real = WorldModel.truth

        def counting(self, spec, *args, **kwargs):
            calls.append(spec.block.cidr)
            return real(self, spec, *args, **kwargs)

        monkeypatch.setattr(WorldModel, "truth", counting)
        m1, q1 = dataset("2020m1-ejnw"), dataset("2020q1-ejnw")
        builder = DatasetBuilder(world60)
        specs = [s for s in world60.blocks if s.responsive_by_design][:2]
        for run in (
            lambda spec: builder.reconstruct_block(spec, m1),
            _ScanTimeJob(world=world60, ds=q1, max_scans=4),
            _FbsSampleJob(world=world60, ds=m1),
        ):
            for spec in specs:
                calls.clear()
                run(spec)
                assert calls == [spec.block.cidr]

    def test_chunk_jobs_match_their_per_block_calls(self, world60, monkeypatch):
        from repro.experiments.additional_probing import _FbsSampleJob
        from repro.experiments.fig3 import _ScanTimeJob

        calls = []
        real = WorldModel.truth

        def counting(self, spec, *args, **kwargs):
            calls.append(spec.block.cidr)
            return real(self, spec, *args, **kwargs)

        m1, q1 = dataset("2020m1-ejnw"), dataset("2020q1-ejnw")
        specs = tuple(s for s in world60.blocks if s.responsive_by_design)[:3]
        for job in (
            _ScanTimeJob(world=world60, ds=q1, max_scans=4),
            _FbsSampleJob(world=world60, ds=m1),
        ):
            one_by_one = tuple(job(spec) for spec in specs)
            with monkeypatch.context() as mp:
                mp.setattr(WorldModel, "truth", counting)
                calls.clear()
                chunked = job.map_chunk(specs)
            assert chunked == one_by_one
            assert calls == [spec.block.cidr for spec in specs]
