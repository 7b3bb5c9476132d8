"""Window-local truth: a window is a view of the world, not a different world.

A block's activity in a column is a pure function of its stream key,
its kind and the absolute day, so any two windows agree bit for bit
wherever they overlap, and a window's truth costs only its own columns.
"""

from __future__ import annotations

import math
from datetime import datetime

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.builder import simulate_chunk
from repro.datasets.catalog import dataset
from repro.net.events import Calendar, Migration, Outage, Renumbering, ServiceWindow
from repro.net.usage import ROUND_SECONDS, round_grid
from repro.net.world import WorldModel, _build_usage, scenario_covid2020

DAY = 86_400.0
EPOCH = datetime(2019, 10, 1)
KINDS = ("pool", "workplace", "home", "nat", "server", "churn", "sparse", "firewalled")
#: western, UTC and eastern offsets, half and quarter hours included
TIME_ZONES = (-11.0, -9.5, -5.0, -3.5, 0.0, 1.0, 5.5, 5.75, 8.0, 9.5, 13.0)

starts = st.one_of(st.just(0.0), st.floats(0.0, 60 * DAY))  # often on the epoch
lengths = st.floats(0.0, 20 * DAY)
moments = st.floats(0.0, 80 * DAY)


@st.composite
def network_events(draw):
    """An outage, a renumbering, a service window and a migration."""
    outage = draw(moments)
    return (
        Outage(start_s=outage, end_s=outage + draw(st.floats(600.0, 6 * 3600.0))),
        Renumbering(time_s=draw(moments), shift=draw(st.integers(1, 128))),
        ServiceWindow(start_s=draw(moments)) if draw(st.booleans()) else ServiceWindow(
            end_s=draw(moments)
        ),
        Migration(time_s=draw(moments), residual_fraction=draw(st.floats(0.0, 0.5))),
    )


def overlap(a, b):
    """The two truths' active columns over their common absolute columns."""
    first_a = round(a.col_times[0] / ROUND_SECONDS) if a.n_cols else 0
    first_b = round(b.col_times[0] / ROUND_SECONDS) if b.n_cols else 0
    lo = max(first_a, first_b)
    hi = min(first_a + a.n_cols, first_b + b.n_cols)
    if hi <= lo:
        return None
    return (
        a.active[:, lo - first_a : hi - first_a],
        b.active[:, lo - first_b : hi - first_b],
    )


@given(
    kind=st.sampled_from(KINDS),
    seed=st.integers(0, 2**32 - 1),
    tz=st.sampled_from(TIME_ZONES),
    events=network_events(),
    start_a=starts,
    length_a=lengths,
    start_b=starts,
    length_b=lengths,
)
@settings(max_examples=80, deadline=None)
def test_overlapping_windows_are_bit_identical(
    kind, seed, tz, events, start_a, length_a, start_b, length_b
):
    usage = _build_usage(kind, np.random.default_rng([seed, 0xA]))
    calendar = Calendar(epoch=EPOCH, tz_hours=tz, events=events)
    a = usage.generate((seed, 0xB), round_grid(start_a + length_a, start_s=start_a), calendar)
    b = usage.generate((seed, 0xB), round_grid(start_b + length_b, start_s=start_b), calendar)
    assert np.array_equal(a.addresses, b.addresses)
    both = overlap(a, b)
    if both is not None:
        assert np.array_equal(*both)


def test_baseline_and_detection_windows_see_one_world():
    """The §3.4 protocol's m1 baseline and h1 detection agree over January."""
    world = WorldModel(scenario_covid2020(), n_blocks=120, seed=20, diurnal_boost=3.0)
    m1, h1 = dataset("2020m1-ejnw"), dataset("2020h1-ejnw")
    compared = 0
    for spec in world.blocks:
        january = world.truth(spec, m1.duration_s, start_s=m1.start_s(world.epoch))
        half = world.truth(spec, h1.duration_s, start_s=h1.start_s(world.epoch))
        both = overlap(january, half)
        assert both is not None and both[0].shape == january.active.shape
        assert np.array_equal(*both), spec.block.cidr
        compared += spec.kind != "firewalled"
    assert compared > 30


def test_chunk_truth_covers_only_the_window():
    """A two-week chunk generates |E(b)| x (window columns + slack) cells.

    The slack is the part-rounds at the window's two edges; generating
    from the scenario epoch would cost ten times as many cells.
    """
    world = WorldModel(scenario_covid2020(), n_blocks=40, seed=20)
    ds = dataset("2020it89-match-ejnw")
    specs = [s for s in world.blocks if s.responsive_by_design]
    sim = simulate_chunk(world, specs, ds)
    start = ds.start_s(world.epoch)
    end = start + ds.duration_s
    window_cols = int(ds.duration_s // ROUND_SECONDS)
    slack = math.ceil(end / ROUND_SECONDS) - math.floor(start / ROUND_SECONDS) - window_cols
    assert slack in (1, 2)
    assert sim.truth_cells == [a.size * (window_cols + slack) for a in sim.addresses]
    from_epoch = math.ceil(end / ROUND_SECONDS)
    assert sum(sim.truth_cells) * 5 < sum(a.size * from_epoch for a in sim.addresses)
