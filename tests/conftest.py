"""Shared fixtures: small deterministic worlds and canonical series.

Also wires the opt-in runtime ResourceSanitizer into the suite: run
``REPRO_SANITIZE=1 pytest`` and every process pool and spill
directory acquired during the session is tracked, with the
session failing if anything is still live at the end (the CI
sanitize-smoke job runs tier-1 exactly this way).
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

    sanitizer.install_if_enabled()


def pytest_sessionfinish(session: pytest.Session, exitstatus: int) -> None:
    from repro.lint import sanitizer

    san = sanitizer.get_sanitizer()
    if not san.installed:
        return
    gc.collect()  # let finalizer safety nets fire before judging
    leaks = san.live()
    if leaks:
        print(f"\n{san.report()}", file=sys.stderr, flush=True)
        session.exitstatus = SANITIZER_EXIT
    # the registry is clean (or reported); keep atexit from re-firing
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
    rng = np.random.default_rng(99)
    truth = usage.generate(rng, round_grid(14 * 86_400.0), calendar)
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
