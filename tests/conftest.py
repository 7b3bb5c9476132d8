"""Shared fixtures: small deterministic worlds and canonical series.

Also arms the runtime ResourceSanitizer for the whole session: every
process pool and spill directory the runtime acquires is tracked from
the moment it exists, and the session fails (exit 3) if anything is
still live at the end.
"""

from __future__ import annotations

import gc
import sys
from datetime import date, datetime

import numpy as np
import pytest

from repro.net.events import Calendar, Holiday, WorkFromHome
from repro.net.prober import TrinocularObserver, probe_order
from repro.net.usage import WorkplaceUsage, round_grid
from repro.net.world import WorldModel, scenario_covid2020
from repro.timeseries.series import TimeSeries

#: pytest exit status used when the sanitizer finds leaked resources.
SANITIZER_EXIT = 3


def pytest_configure(config: pytest.Config) -> None:
    from repro.lint import sanitizer

    sanitizer.get_sanitizer().install()


def pytest_sessionfinish(session: pytest.Session, exitstatus: int) -> None:
    from repro.lint import sanitizer

    san = sanitizer.get_sanitizer()
    gc.collect()  # let finalizer safety nets fire before judging
    leaks = san.live()
    if leaks:
        print(f"\n{san.report()}", file=sys.stderr, flush=True)
        session.exitstatus = SANITIZER_EXIT
    # the registry is clean (or reported); keep atexit from re-firing
    san.uninstall()


@pytest.fixture()
def sanitizer():
    """A second sanitizer stacked on the session's for one test: its live
    set holds only what the test itself acquired and did not release."""
    from repro.lint.sanitizer import ResourceSanitizer

    san = ResourceSanitizer()
    san.install()
    yield san
    san.uninstall()


@pytest.fixture(scope="session")
def small_world() -> WorldModel:
    """A 60-block Covid-2020 world shared across tests."""
    return WorldModel(scenario_covid2020(), n_blocks=60, seed=3)


@pytest.fixture(scope="session")
def workplace_block():
    """A two-week workplace block with truth, order and one observer log."""
    calendar = Calendar(
        epoch=datetime(2020, 1, 1),
        tz_hours=0.0,
        events=(Holiday(first=date(2020, 1, 6), name="test holiday"),),
    )
    usage = WorkplaceUsage(n_desktops=30, n_servers=2, stale_addresses=4)
    truth = usage.generate(99, round_grid(14 * 86_400.0), calendar)
    order = probe_order(truth.n_addresses, 99)
    log = TrinocularObserver("e", phase_offset_s=100.0).observe(
        truth, order, rng=np.random.default_rng(7)
    )
    return calendar, truth, order, log


@pytest.fixture()
def hourly_step_series() -> tuple[TimeSeries, int]:
    """Four weeks of hourly data with a step drop halfway; returns (ts, step_idx)."""
    rng = np.random.default_rng(5)
    n = 24 * 28
    t = np.arange(n) * 3600.0
    step = n // 2
    values = (
        np.where(np.arange(n) < step, 15.0, 9.0)
        + 4.0 * np.sin(2 * np.pi * t / 86_400.0)
        + rng.normal(0, 0.4, n)
    )
    return TimeSeries(t, values), step
