"""Edge-case coverage across layers."""

from __future__ import annotations

from datetime import datetime

import numpy as np
import pytest

from repro.datasets.catalog import CATALOG
from repro.net.events import Calendar
from repro.net.usage import (
    FirewalledUsage,
    NatGatewayUsage,
    WorkplaceUsage,
    round_grid,
)
from repro.net.world import scenario_baseline2023, scenario_covid2020
from repro.timeseries.series import TimeSeries


class TestCatalogHorizons:
    """Every dataset window must fit inside its scenario's horizon."""

    def test_2020_datasets_fit_covid_scenario(self):
        scenario = scenario_covid2020()
        for name, ds in CATALOG.items():
            if ds.start.year not in (2019, 2020):
                continue
            start = ds.start_s(scenario.epoch)
            assert start >= 0, name
            assert start + ds.duration_s <= scenario.max_duration_s + 1, name

    def test_2023_datasets_fit_control_scenario(self):
        scenario = scenario_baseline2023()
        for name, ds in CATALOG.items():
            if ds.start.year != 2023:
                continue
            start = ds.start_s(scenario.epoch)
            assert start >= 0, name
            assert start + ds.duration_s <= scenario.max_duration_s + 1, name


class TestResampleMinCount:
    def test_min_count_filters_sparse_bins(self):
        ts = TimeSeries(np.array([0.0, 10.0, 3700.0]), np.array([1.0, 3.0, 5.0]))
        strict = ts.resample_mean(3600.0, min_count=2)
        assert strict.values[0] == pytest.approx(2.0)
        assert np.isnan(strict.values[1])  # only one sample in hour 2


class TestZeroAddressBlocks:
    def test_firewalled_block_through_pipeline(self):
        from repro.core.pipeline import BlockPipeline
        from repro.net.prober import TrinocularObserver, probe_order

        cal = Calendar(epoch=datetime(2020, 1, 1))
        truth = FirewalledUsage(eb_addresses=8).generate(0, round_grid(3 * 86_400.0), cal)
        order = probe_order(truth.n_addresses, 0)
        log = TrinocularObserver("e").observe(truth, order)
        analysis = BlockPipeline().analyze([log], truth.addresses)
        assert not analysis.classification.responsive
        assert analysis.trend is None

    def test_nat_block_is_responsive_but_flat(self):
        from repro.core.pipeline import BlockPipeline
        from repro.net.prober import TrinocularObserver, probe_order

        cal = Calendar(epoch=datetime(2020, 1, 1))
        truth = NatGatewayUsage(n_routers=3, stale_addresses=0).generate(
            0, round_grid(7 * 86_400.0), cal
        )
        order = probe_order(truth.n_addresses, 0)
        log = TrinocularObserver("e").observe(truth, order)
        analysis = BlockPipeline().analyze([log], truth.addresses)
        assert analysis.classification.responsive
        assert not analysis.classification.is_diurnal
        assert not analysis.is_change_sensitive


class TestShortObservationWindows:
    def test_two_day_window_classifies_without_trend(self):
        from repro.core.pipeline import BlockPipeline
        from repro.net.prober import TrinocularObserver, probe_order

        cal = Calendar(epoch=datetime(2020, 1, 1))
        truth = WorkplaceUsage(n_desktops=30, n_servers=1).generate(
            1, round_grid(2 * 86_400.0), cal
        )
        order = probe_order(truth.n_addresses, 1)
        log = TrinocularObserver("e").observe(truth, order)
        analysis = BlockPipeline().analyze([log], truth.addresses)
        # two days is under the diurnal test's min_days: never CS, and the
        # pipeline must not crash trying to extract a trend
        assert not analysis.is_change_sensitive

    def test_empty_observation_list(self):
        from repro.core.pipeline import BlockPipeline

        analysis = BlockPipeline().analyze([], np.array([1, 2], dtype=np.int16))
        assert not analysis.classification.responsive


class TestWorldEdgeCases:
    def test_zero_blocks_world(self):
        from repro.net.world import WorldModel

        world = WorldModel(scenario_covid2020(), n_blocks=0, seed=1)
        assert world.blocks == ()

    def test_fully_unresponsive_world(self):
        from repro.net.world import WorldModel

        world = WorldModel(
            scenario_covid2020(), n_blocks=20, seed=1, unresponsive_fraction=1.0
        )
        assert all(s.kind == "firewalled" for s in world.blocks)

    def test_fully_responsive_world(self):
        from repro.net.world import WorldModel

        world = WorldModel(
            scenario_covid2020(), n_blocks=20, seed=1, unresponsive_fraction=0.0
        )
        assert all(s.kind != "firewalled" for s in world.blocks)
