"""Additional coverage: experiment helpers, sparkline/table rendering,
and hypothesis properties of the calendar and usage generators."""

from __future__ import annotations

from datetime import date, datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.common import fmt_table, sparkline, top_peaks
from repro.net.events import Calendar, Channel, Holiday, WorkFromHome
from repro.net.usage import (
    DynamicPoolUsage,
    HomeEveningUsage,
    WorkplaceUsage,
    round_grid,
)


class TestReportHelpers:
    def test_fmt_table_alignment(self):
        text = fmt_table(["a", "long"], [[1, 2], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        widths = {len(line) for line in lines}
        assert len(widths) == 1  # all rows padded to equal width

    def test_sparkline_scaling(self):
        line = sparkline(np.array([0.0, 0.5, 1.0]))
        assert len(line) == 3
        assert line[0] == " "
        assert line[-1] == "@"

    def test_sparkline_empty_and_flat(self):
        assert sparkline(np.array([])) == ""
        assert sparkline(np.zeros(4)) == "    "

    def test_top_peaks(self):
        peaks = top_peaks(np.array([1.0, 9.0, 3.0]), k=2)
        assert peaks[0] == (1, 9.0)
        assert peaks[1] == (2, 3.0)


class TestCalendarProperties:
    @given(
        st.integers(min_value=-365, max_value=365),
        st.floats(min_value=-12, max_value=14, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_weekday_cycles_every_seven_days(self, day, tz):
        cal = Calendar(epoch=datetime(2020, 1, 1), tz_hours=tz)
        assert cal.weekday(day) == cal.weekday(day + 7)

    @given(st.integers(min_value=-365, max_value=365))
    @settings(max_examples=50, deadline=None)
    def test_date_day_roundtrip(self, day):
        cal = Calendar(epoch=datetime(2020, 1, 1))
        assert cal.day_of_date(cal.date_of_day(day)) == day

    @given(
        st.integers(min_value=0, max_value=200),
        st.sampled_from(list(Channel)),
    )
    @settings(max_examples=50, deadline=None)
    def test_activity_factor_positive(self, day, channel):
        cal = Calendar(
            epoch=datetime(2020, 1, 1),
            events=(
                WorkFromHome(start=date(2020, 3, 15)),
                Holiday(first=date(2020, 1, 20)),
            ),
        )
        factor = cal.activity_factor(day, channel)
        assert 0.0 < factor < 2.0


class TestUsageProperties:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_workplace_truth_is_deterministic_per_seed(self, seed):
        cal = Calendar(epoch=datetime(2020, 1, 1))
        grid = round_grid(3 * 86_400.0)
        usage = WorkplaceUsage(n_desktops=10, n_servers=1)
        a = usage.generate(seed, grid, cal)
        b = usage.generate(seed, grid, cal)
        assert np.array_equal(a.active, b.active)
        assert np.array_equal(a.addresses, b.addresses)

    @given(st.integers(min_value=4, max_value=64))
    @settings(max_examples=15, deadline=None)
    def test_pool_counts_bounded_by_pool_size(self, pool_size):
        cal = Calendar(epoch=datetime(2020, 1, 1))
        usage = DynamicPoolUsage(pool_size=pool_size, stale_addresses=0)
        truth = usage.generate(1, round_grid(2 * 86_400.0), cal)
        assert truth.counts().max() <= pool_size

    @given(st.integers(min_value=2, max_value=40))
    @settings(max_examples=15, deadline=None)
    def test_home_eb_includes_stale(self, n_devices):
        usage = HomeEveningUsage(n_devices=n_devices, stale_addresses=4)
        assert usage.eb_size() == min(n_devices + 4, 256)


class TestExamplesImportable:
    """The example scripts must at least parse and expose main()."""

    @pytest.mark.parametrize(
        "name",
        ["quickstart", "global_wfh_scan", "curfew_discovery", "congestion_repair"],
    )
    def test_example_compiles(self, name):
        import pathlib

        path = pathlib.Path(__file__).parent.parent / "examples" / f"{name}.py"
        source = path.read_text()
        compiled = compile(source, str(path), "exec")
        assert "main" in source
        assert compiled is not None
