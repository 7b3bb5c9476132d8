"""Unit tests for the ground-truth usage generators."""

from __future__ import annotations

from datetime import date, datetime

import numpy as np
import pytest

from repro.net.events import Calendar, Holiday, WorkFromHome
from repro.net.usage import (
    BlockTruth,
    DynamicPoolUsage,
    FirewalledUsage,
    HomeEveningUsage,
    NatGatewayUsage,
    ServerFarmUsage,
    SparseUsage,
    WorkplaceUsage,
    round_grid,
)

EPOCH = datetime(2020, 1, 1)
WEEK = 7 * 86_400.0


def generate(usage, days=14, tz=0.0, events=(), seed=0):
    cal = Calendar(epoch=EPOCH, tz_hours=tz, events=tuple(events))
    return usage.generate(seed, round_grid(days * 86_400.0), cal), cal


class TestBlockTruth:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            BlockTruth(
                addresses=np.arange(3, dtype=np.int16),
                active=np.zeros((2, 5), dtype=bool),
                col_times=np.arange(5) * 660.0,
            )

    def test_column_of_clamps(self):
        truth, _ = generate(NatGatewayUsage(n_routers=2), days=1)
        assert truth.column_of(-100.0) == 0
        assert truth.column_of(1e12) == truth.n_cols - 1

    def test_column_of_respects_origin(self):
        truth, _ = generate(NatGatewayUsage(n_routers=2), days=2)
        shifted = BlockTruth(
            addresses=truth.addresses,
            active=truth.active[:, 50:],
            col_times=truth.col_times[50:],
        )
        assert shifted.column_of(shifted.col_times[0]) == 0
        assert shifted.column_of(shifted.col_times[3] + 1.0) == 3

    def test_addresses_unique(self):
        truth, _ = generate(WorkplaceUsage(n_desktops=50))
        assert len(np.unique(truth.addresses)) == truth.n_addresses


class TestWorkplace:
    def test_active_during_work_hours_only(self):
        truth, cal = generate(WorkplaceUsage(n_desktops=40, n_servers=0, stale_addresses=0))
        counts = truth.counts()
        lsod = cal.local_second_of_day(truth.col_times)
        days = cal.local_day(truth.col_times)
        workdays = np.array([cal.is_workday(d) for d in days])
        midday = workdays & (np.abs(lsod - 13 * 3600) < 1800)
        night = np.abs(lsod - 3 * 3600) < 1800
        assert counts[midday].mean() > 20
        assert counts[night].max() == 0

    def test_weekends_are_quiet(self):
        truth, cal = generate(WorkplaceUsage(n_desktops=40, n_servers=1, stale_addresses=0))
        counts = truth.counts()
        days = cal.local_day(truth.col_times)
        weekend = np.array([cal.is_weekend(d) for d in days])
        assert counts[weekend].max() <= 1  # only the server

    def test_servers_always_on(self):
        truth, _ = generate(WorkplaceUsage(n_desktops=0, n_servers=3, stale_addresses=0))
        assert truth.counts().min() == 3

    def test_holiday_is_quiet(self):
        holiday = Holiday(first=date(2020, 1, 2))
        truth, cal = generate(
            WorkplaceUsage(n_desktops=30, n_servers=0, stale_addresses=0),
            events=[holiday],
        )
        days = cal.local_day(truth.col_times)
        assert truth.counts()[days == 1].max() == 0

    def test_wfh_reduces_occupancy(self):
        wfh = WorkFromHome(start=date(2020, 1, 8), work_factor=0.05, ramp_days=1)
        truth, cal = generate(
            WorkplaceUsage(n_desktops=40, n_servers=0, stale_addresses=0),
            events=[wfh],
        )
        counts = truth.counts()
        days = cal.local_day(truth.col_times)
        before = counts[(days >= 1) & (days <= 2)].max()
        after = counts[(days >= 8) & (days <= 9)].max()
        assert after < before * 0.4

    def test_stale_addresses_never_respond(self):
        usage = WorkplaceUsage(n_desktops=10, n_servers=0, stale_addresses=6)
        truth, _ = generate(usage)
        assert truth.n_addresses == 16
        never_active = (~truth.active.any(axis=1)).sum()
        assert never_active >= 6


class TestDynamicPool:
    def test_diurnal_swing(self):
        truth, cal = generate(
            DynamicPoolUsage(pool_size=100, peak=0.8, trough=0.1, quiet_week_probability=0)
        )
        counts = truth.counts()
        lsod = cal.local_second_of_day(truth.col_times)
        evening = np.abs(lsod - 21 * 3600) < 3600
        trough = np.abs(lsod - 9 * 3600) < 3600  # opposite the 21:00 peak
        assert counts[evening].mean() > 3 * counts[trough].mean()

    def test_timezone_shifts_peak(self):
        truth, cal = generate(
            DynamicPoolUsage(pool_size=100, quiet_week_probability=0), tz=8.0
        )
        counts = truth.counts()
        utc_sod = np.mod(truth.col_times, 86_400.0)
        # local 21:00 at UTC+8 is 13:00 UTC
        peak_utc = np.abs(utc_sod - 13 * 3600) < 3600
        trough_utc = np.abs(utc_sod - 1 * 3600) < 3600
        assert counts[peak_utc].mean() > counts[trough_utc].mean()

    def test_occupancy_fills_low_slots_first(self):
        truth, _ = generate(
            DynamicPoolUsage(pool_size=60, quiet_week_probability=0), days=7
        )
        # low-threshold slots should be active more often than high ones
        rates = truth.active.mean(axis=1)[:60]
        assert rates[:10].mean() > rates[-10:].mean()


class TestOtherModels:
    def test_server_farm_nearly_always_on(self):
        truth, _ = generate(ServerFarmUsage(n_servers=100))
        assert truth.active.mean() > 0.98

    def test_nat_gateways_always_on(self):
        truth, _ = generate(NatGatewayUsage(n_routers=4, stale_addresses=0))
        assert truth.active[:4].all()

    def test_sparse_not_diurnal(self):
        truth, _ = generate(SparseUsage(n_addresses=20), days=28)
        counts = truth.counts()
        from repro.timeseries.spectrum import diurnal_energy_ratio

        hourly = counts.reshape(-1)  # round-granularity is fine for the ratio
        assert diurnal_energy_ratio(hourly, 660.0) < 0.3

    def test_firewalled_never_responds(self):
        truth, _ = generate(FirewalledUsage(eb_addresses=12))
        assert truth.n_addresses == 12
        assert not truth.ever_responsive()

    def test_eb_size_capped_at_block_size(self):
        usage = ServerFarmUsage(n_servers=250, stale_addresses=20)
        assert usage.eb_size() == 256
