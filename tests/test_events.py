"""Unit tests for events and the per-block calendar."""

from __future__ import annotations

from datetime import date, datetime

import numpy as np
import pytest

from repro.net.events import (
    Calendar,
    Channel,
    Curfew,
    Holiday,
    Migration,
    Outage,
    Renumbering,
    ServiceWindow,
    WorkFromHome,
)

EPOCH = datetime(2020, 1, 1)  # a Wednesday


def make_calendar(tz=0.0, events=()):
    return Calendar(epoch=EPOCH, tz_hours=tz, events=tuple(events))


class TestCalendarTime:
    def test_rejects_non_midnight_epoch(self):
        with pytest.raises(ValueError, match="midnight"):
            Calendar(epoch=datetime(2020, 1, 1, 5))

    def test_local_day_utc(self):
        cal = make_calendar()
        assert cal.local_day(0.0) == 0
        assert cal.local_day(86_399.0) == 0
        assert cal.local_day(86_400.0) == 1

    def test_local_day_positive_tz(self):
        cal = make_calendar(tz=8.0)
        # 2020-01-01 20:00 UTC is already Jan 2 in UTC+8
        assert cal.local_day(20 * 3600.0) == 1

    def test_local_day_negative_tz(self):
        cal = make_calendar(tz=-8.0)
        # 2020-01-01 00:00 UTC is still Dec 31 in UTC-8
        assert cal.local_day(0.0) == -1

    def test_weekday_cycle(self):
        cal = make_calendar()
        assert cal.weekday(0) == 2  # 2020-01-01 was a Wednesday
        assert cal.weekday(3) == 5  # Saturday
        assert cal.is_weekend(3)
        assert cal.is_weekend(4)
        assert not cal.is_weekend(5)

    def test_date_day_roundtrip(self):
        cal = make_calendar()
        assert cal.day_of_date(date(2020, 3, 15)) == 74
        assert cal.date_of_day(74) == date(2020, 3, 15)

    def test_seconds_of_date_respects_tz(self):
        cal = make_calendar(tz=8.0)
        # local midnight of Jan 2 is 16:00 UTC Jan 1
        assert cal.seconds_of_date(date(2020, 1, 2)) == pytest.approx(16 * 3600.0)


class TestWorkFromHome:
    def test_no_effect_before_start(self):
        wfh = WorkFromHome(start=date(2020, 3, 15))
        assert wfh.activity_factor(date(2020, 3, 14), Channel.WORK) == 1.0

    def test_full_effect_after_ramp(self):
        wfh = WorkFromHome(start=date(2020, 3, 15), work_factor=0.1, ramp_days=4)
        assert wfh.activity_factor(date(2020, 3, 25), Channel.WORK) == pytest.approx(0.1)

    def test_ramp_is_monotone(self):
        wfh = WorkFromHome(start=date(2020, 3, 15), ramp_days=4)
        days = [date(2020, 3, 15 + k) for k in range(5)]
        factors = [wfh.activity_factor(d, Channel.WORK) for d in days]
        assert all(a >= b for a, b in zip(factors, factors[1:]))

    def test_home_channel_increases(self):
        wfh = WorkFromHome(start=date(2020, 3, 15), home_factor=1.2)
        assert wfh.activity_factor(date(2020, 4, 1), Channel.HOME) > 1.0

    def test_end_date_restores(self):
        wfh = WorkFromHome(start=date(2020, 2, 1), end=date(2020, 2, 28))
        assert wfh.activity_factor(date(2020, 3, 5), Channel.WORK) == 1.0


class TestHolidayAndCurfew:
    def test_holiday_marks_days(self):
        h = Holiday(first=date(2020, 1, 24), days=8)
        assert h.is_holiday(date(2020, 1, 24))
        assert h.is_holiday(date(2020, 1, 31))
        assert not h.is_holiday(date(2020, 2, 1))

    def test_holiday_suppresses_pool(self):
        h = Holiday(first=date(2020, 1, 24), days=2, pool_factor=0.6)
        assert h.activity_factor(date(2020, 1, 24), Channel.POOL) == 0.6
        assert h.activity_factor(date(2020, 1, 26), Channel.POOL) == 1.0

    def test_calendar_workday_respects_holiday(self):
        cal = make_calendar(events=[Holiday(first=date(2020, 1, 20))])  # a Monday
        assert not cal.is_workday(19)
        assert cal.is_workday(20)

    def test_curfew_suppresses_all_channels(self):
        c = Curfew(first=date(2020, 3, 22), days=1, work_factor=0.1, pool_factor=0.5)
        assert c.activity_factor(date(2020, 3, 22), Channel.WORK) == 0.1
        assert c.activity_factor(date(2020, 3, 22), Channel.POOL) == 0.5
        assert c.activity_factor(date(2020, 3, 23), Channel.WORK) == 1.0

    def test_factors_multiply_across_events(self):
        cal = make_calendar(
            events=[
                WorkFromHome(start=date(2020, 1, 1), pool_factor=0.5, ramp_days=0),
                Curfew(first=date(2020, 2, 1), days=1, pool_factor=0.5),
            ]
        )
        day = cal.day_of_date(date(2020, 2, 1))
        assert cal.activity_factor(day, Channel.POOL) == pytest.approx(0.25)


class TestTruthTransforms:
    def setup_method(self):
        self.rng = np.random.default_rng(0)
        self.cols = np.arange(100) * 660.0
        self.truth = np.ones((8, 100), dtype=bool)

    def test_outage_zeroes_interval(self):
        ev = Outage(start_s=660.0 * 10, end_s=660.0 * 20)
        out = ev.transform(self.truth, self.cols, self.rng)
        assert not out[:, 10:20].any()
        assert out[:, :10].all() and out[:, 20:].all()

    def test_outage_does_not_mutate_input(self):
        ev = Outage(start_s=0.0, end_s=660.0 * 5)
        ev.transform(self.truth, self.cols, self.rng)
        assert self.truth.all()

    def test_renumbering_gap_then_shift(self):
        truth = np.zeros((8, 100), dtype=bool)
        truth[0, :] = True  # only address 0 active
        ev = Renumbering(time_s=660.0 * 50, gap_s=660.0 * 10, shift=3)
        out = ev.transform(truth, self.cols, self.rng)
        assert out[0, :50].all()
        assert not out[:, 50:60].any()  # the gap
        assert out[3, 60:].all()  # shifted identity
        assert not out[0, 60:].any()

    def test_service_window_restricts_activity(self):
        ev = ServiceWindow(start_s=660.0 * 30, end_s=660.0 * 70)
        out = ev.transform(self.truth, self.cols, self.rng)
        assert not out[:, :30].any()
        assert out[:, 30:70].all()
        assert not out[:, 70:].any()

    def test_migration_leaves_residual_only(self):
        ev = Migration(time_s=660.0 * 50, residual_fraction=0.0)
        out = ev.transform(self.truth, self.cols, self.rng)
        assert out[:, :50].all()
        assert not out[:, 50:].any()

    def test_calendar_applies_all_transforms(self):
        cal = make_calendar(
            events=[Outage(start_s=0.0, end_s=660.0), ServiceWindow(end_s=660.0 * 90)]
        )
        out = cal.apply_transforms(self.truth, self.cols, lambda i: self.rng)
        assert not out[:, 0].any()
        assert not out[:, 95].any()
        assert out[:, 50].all()
