"""Vectorized kernels against their scalar reference oracles.

Each performance-critical kernel keeps its original scalar
implementation as a ``*_reference`` oracle; these property-style tests
sweep randomized worlds and adversarial edge cases asserting the
vectorized path reproduces the oracle exactly (bit-for-bit for the
prober and reconstruction, exact alarms + allclose traces for CUSUM,
whose running-minimum identity reorders float additions).
"""

from __future__ import annotations

import pickle
from datetime import date, datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.front_half import LaneBlock, SampleGrid, _Lane, _sent_before, _shift
from repro.core.pipeline import BlockPipeline
from repro.core.reconstruction import (
    full_scan_durations,
    full_scan_durations_reference,
)
from repro.core.stages import StageContext
from repro.datasets.builder import reconstruct_logs, sample_grid
from repro.datasets.catalog import TRINOCULAR_SITES, DatasetSpec, dataset
from repro.net.events import (
    Calendar,
    Holiday,
    Migration,
    Outage,
    Renumbering,
    ServiceWindow,
)
from repro.net.loss import BernoulliLoss, DiurnalCongestionLoss, NoLoss
from repro.net.observations import ObservationSeries
from repro.net.prober import (
    DRAW_BLOCK,
    ProbeLane,
    ProbeTarget,
    TrinocularObserver,
    observe_batch,
    probe_order,
)
from repro.net.usage import (
    BlockTruth,
    NatGatewayUsage,
    ServerFarmUsage,
    SparseUsage,
    WorkplaceUsage,
    round_grid,
)
from repro.net.world import _build_usage
from repro.timeseries.detect import detect_cusum, detect_cusum_reference

EPOCH = datetime(2020, 1, 1)
KINDS = ("pool", "workplace", "home", "nat", "server", "churn", "sparse", "firewalled")


def make_truth(usage, days=2.0, seed=0, tz_hours=0.0):
    cal = Calendar(epoch=EPOCH, tz_hours=tz_hours)
    return usage.generate(seed, round_grid(days * 86_400.0), cal)


def assert_same_series(fast: ObservationSeries, slow: ObservationSeries) -> None:
    assert np.array_equal(fast.times, slow.times)
    assert np.array_equal(fast.addresses, slow.addresses)
    assert np.array_equal(fast.results, slow.results)


def both_observations(obs, truth, order, loss, seed, **kwargs):
    """Run the one-lane kernel and the reference prober on twin RNG streams."""
    rng_fast = np.random.default_rng(seed)
    rng_slow = np.random.default_rng(seed)
    fast = obs.observe(truth, order, loss, rng_fast, **kwargs)
    slow = obs.observe_reference(truth, order, loss, rng_slow, **kwargs)
    assert_same_series(fast, slow)
    # same number of uniforms consumed -> identical generator state after
    assert rng_fast.bit_generator.state == rng_slow.bit_generator.state
    return fast


class TestProberEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_worlds(self, seed):
        """Random usage model / loss / cursor / phase sweeps match exactly."""
        rng = np.random.default_rng(seed)
        usage = [
            WorkplaceUsage(n_desktops=int(rng.integers(5, 60)), n_servers=2),
            SparseUsage(n_addresses=int(rng.integers(8, 48))),
            NatGatewayUsage(n_routers=2, stale_addresses=int(rng.integers(0, 12))),
            ServerFarmUsage(n_servers=int(rng.integers(4, 40))),
        ][seed % 4]
        truth = make_truth(usage, days=float(rng.uniform(0.5, 3.0)), seed=seed)
        order = probe_order(truth.n_addresses, seed)
        loss = BernoulliLoss(p=float(rng.uniform(0.0, 0.7)))
        obs = TrinocularObserver(
            "e",
            phase_offset_s=float(rng.uniform(0.0, 660.0)),
            max_probes_per_round=int(rng.integers(1, 20)),
        )
        log = both_observations(
            obs,
            truth,
            order,
            loss,
            seed,
            start_cursor=int(rng.integers(truth.n_addresses)),
        )
        assert len(log) > 0

    def test_no_loss_fast_path(self):
        truth = make_truth(WorkplaceUsage(n_desktops=30, n_servers=1), days=1.5, seed=3)
        order = probe_order(truth.n_addresses, 3)
        both_observations(TrinocularObserver("e"), truth, order, NoLoss(), 3)

    def test_all_dark_block(self):
        """Every round exhausts its probe budget without a reply."""
        truth = make_truth(SparseUsage(n_addresses=24), days=1.0, seed=1)
        truth.active[:] = False
        order = probe_order(truth.n_addresses, 1)
        log = both_observations(
            TrinocularObserver("e", max_probes_per_round=7), truth, order, NoLoss(), 1
        )
        assert not log.results.any()

    def test_heavy_loss(self):
        """Near-total loss: most rounds burn their budget, many draws used."""
        truth = make_truth(ServerFarmUsage(n_servers=16), days=1.0, seed=2)
        order = probe_order(truth.n_addresses, 2)
        log = both_observations(
            TrinocularObserver("e"), truth, order, BernoulliLoss(p=0.99), 2
        )
        assert len(log) > 0 and log.results.mean() < 0.5

    def test_zero_duration(self):
        truth = make_truth(ServerFarmUsage(n_servers=8), days=1.0, seed=4)
        order = probe_order(truth.n_addresses, 4)
        log = both_observations(
            TrinocularObserver("e"), truth, order, NoLoss(), 4, duration_s=0.0
        )
        assert len(log) == 0

    def test_partial_final_round(self):
        """A window ending mid-round truncates that round's probes alike."""
        truth = make_truth(SparseUsage(n_addresses=20), days=1.0, seed=5)
        truth.active[:] = False
        order = probe_order(truth.n_addresses, 5)
        both_observations(
            TrinocularObserver("e", max_probes_per_round=15),
            truth,
            order,
            NoLoss(),
            5,
            duration_s=660.0 * 3 + 7.0,  # 4th round fits only 3 probe slots
        )

    def test_single_address_block(self):
        truth = make_truth(ServerFarmUsage(n_servers=1), days=0.5, seed=6)
        order = probe_order(truth.n_addresses, 6)
        both_observations(
            TrinocularObserver("e"), truth, order, BernoulliLoss(p=0.5), 6
        )

    def test_budget_larger_than_block(self):
        """max_probes = min(limit, m) when the block is tiny."""
        truth = make_truth(SparseUsage(n_addresses=4), days=0.5, seed=7)
        truth.active[:] = False
        order = probe_order(truth.n_addresses, 7)
        log = both_observations(
            TrinocularObserver("e", max_probes_per_round=15), truth, order, NoLoss(), 7
        )
        per_round = np.bincount(np.floor(log.times / 660.0).astype(int))
        assert per_round.max() == truth.n_addresses  # budget clamps to m

    def test_phase_straddles_column_boundary(self):
        """Probe windows crossing a truth-column edge pick the right column."""
        truth = make_truth(WorkplaceUsage(n_desktops=40, n_servers=2), days=1.0, seed=8)
        order = probe_order(truth.n_addresses, 8)
        # place round starts a few seconds before each column boundary so
        # the 3s-spaced candidate window crosses into the next column
        obs = TrinocularObserver("e", phase_offset_s=660.0 - 4.0)
        both_observations(obs, truth, order, BernoulliLoss(p=0.3), 8)

    def test_offset_window(self):
        truth = make_truth(WorkplaceUsage(n_desktops=25, n_servers=1), days=3.0, seed=9)
        order = probe_order(truth.n_addresses, 9)
        both_observations(
            TrinocularObserver("e"),
            truth,
            order,
            BernoulliLoss(p=0.2),
            9,
            start_s=86_400.0,
            duration_s=86_400.0,
            start_cursor=11,
        )


# ---------------------------------------------------------------------------
# lane-parallel prober: lanes together vs each lane alone vs the oracle
# ---------------------------------------------------------------------------
def check_lanes(specs):
    """Run ``observe_batch`` over lanes built from ``specs`` and compare
    every lane with ``observe`` (the kernel on that lane alone) and
    ``observe_reference`` on twin generators: arrays, dtypes and each
    generator's next draw must all match.

    A spec is ``(observer, truth, order, loss, seed, kwargs)``; lanes
    with the same ``truth`` and ``order`` objects share one packed target.
    """
    targets: dict[tuple[int, int, float], ProbeTarget] = {}
    lanes = []
    for obs, truth, order, loss, seed, kwargs in specs:
        start = kwargs.get("start_s", 0.0)
        key = (id(truth), id(order), start)
        if key not in targets:
            targets[key] = ProbeTarget.of(truth, order, start)
        lanes.append(
            ProbeLane(obs, targets[key], loss, np.random.default_rng(seed), **kwargs)
        )
    logs = observe_batch(lanes)
    fast_rngs = []
    fast = []
    for obs, truth, order, loss, seed, kwargs in specs:
        fast_rngs.append(np.random.default_rng(seed))
        fast.append(obs.observe(truth, order, loss, fast_rngs[-1], **kwargs))
    assert len(logs) == len(specs)
    for i, (obs, truth, order, loss, seed, kwargs) in enumerate(specs):
        slow_rng = np.random.default_rng(seed)
        slow = obs.observe_reference(truth, order, loss, slow_rng, **kwargs)
        got = logs[i]
        assert logs.n_probes(i) == len(got)
        for series in (got, fast[i]):
            assert_same_series(series, slow)
            assert series.times.dtype == slow.times.dtype
            assert series.addresses.dtype == slow.addresses.dtype
            assert series.observer == slow.observer
        next_draw = slow_rng.random()
        assert lanes[i].rng.random() == next_draw
        assert fast_rngs[i].random() == next_draw
    return logs


def random_lane_specs(seed: int) -> list:
    """Blocks of several sizes (m < 15 included), each probed by a few
    observers with mixed loss models, phases, budgets, cursors and
    window lengths."""
    rng = np.random.default_rng(seed)
    specs = []
    for b in range(int(rng.integers(2, 6))):
        usage = [
            WorkplaceUsage(n_desktops=int(rng.integers(1, 60)), n_servers=2),
            SparseUsage(n_addresses=int(rng.integers(2, 14))),
            NatGatewayUsage(n_routers=2, stale_addresses=int(rng.integers(0, 12))),
            ServerFarmUsage(n_servers=int(rng.integers(1, 40))),
        ][int(rng.integers(4))]
        truth = make_truth(usage, days=float(rng.uniform(0.5, 3.0)), seed=seed * 7 + b)
        order = probe_order(truth.n_addresses, seed * 7 + b)
        start = float(rng.choice([0.0, 3_000.0]))
        for o in range(int(rng.integers(1, 5))):
            loss = [
                NoLoss(),
                BernoulliLoss(p=float(rng.uniform(0.0, 0.9))),
                DiurnalCongestionLoss(base=0.05, peak=0.8, tz_hours=float(o)),
            ][int(rng.integers(3))]
            obs = TrinocularObserver(
                "ejnw"[o],
                # 656 s: every round's probes straddle a truth column edge
                phase_offset_s=float(rng.choice([rng.uniform(0.0, 660.0), 656.0])),
                max_probes_per_round=int(rng.integers(1, 20)),
            )
            kwargs = {
                "start_s": start,
                "duration_s": float(rng.uniform(0.2, 1.0)) * (truth.duration_s - start),
                # cursors anywhere, the last position included
                "start_cursor": int(rng.choice([rng.integers(truth.n_addresses),
                                                truth.n_addresses - 1])),
            }
            specs.append((obs, truth, order, loss, int(rng.integers(2**32)), kwargs))
    return specs


class TestObserveBatchEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_lane_sets(self, seed):
        check_lanes(random_lane_specs(seed))

    def test_draw_buffer_runs_out_mid_round(self):
        """Always-active targets under heavy loss: every probe draws, so
        buffers refill repeatedly, inside rounds and inside resumed
        (lost-reply) walks."""
        truth = make_truth(ServerFarmUsage(n_servers=30), days=8.0, seed=11)
        order = probe_order(truth.n_addresses, 11)
        specs = [
            (TrinocularObserver(name), truth, order, BernoulliLoss(p=0.95), 100 + i, {})
            for i, name in enumerate("ejnw")
        ]
        logs = check_lanes(specs)
        assert min(len(logs[i]) for i in range(len(logs))) > 2 * DRAW_BLOCK

    def test_zero_round_and_empty_lanes(self):
        """Empty windows still consume the prefilled draws; empty orders
        return empty logs and leave counters and generators alone."""
        truth = make_truth(WorkplaceUsage(n_desktops=20, n_servers=1), days=1.0, seed=12)
        order = probe_order(truth.n_addresses, 12)
        empty = order[:0]
        specs = [
            (TrinocularObserver("e"), truth, order, BernoulliLoss(p=0.2), 1, {"duration_s": 0.0}),
            (TrinocularObserver("j", phase_offset_s=600.0), truth, order, NoLoss(), 2,
             {"duration_s": 500.0}),
            (TrinocularObserver("n"), truth, empty, BernoulliLoss(p=0.2), 3, {}),
            (TrinocularObserver("w"), truth, order, BernoulliLoss(p=0.2), 4, {}),
        ]
        logs = check_lanes(specs)
        assert [len(logs[i]) == 0 for i in range(3)] == [True, True, True]
        assert len(logs[3]) > 0

    def test_small_blocks_and_window_lengths(self):
        """m < 15 caps the budget at m; lanes of one block with different
        window lengths share one target."""
        truth = make_truth(SparseUsage(n_addresses=5, stale_addresses=1), days=2.0, seed=13)
        order = probe_order(truth.n_addresses, 13)
        specs = [
            (TrinocularObserver(name, phase_offset_s=137.0 * (i + 1)), truth, order,
             BernoulliLoss(p=0.3), 20 + i, {"duration_s": 86_400.0 * (0.5 + i / 3)})
            for i, name in enumerate("ejnw")
        ]
        check_lanes(specs)

    def test_windowed_target_matches_whole_truth(self):
        """A target packing only the window's columns (as the batched
        runtime path builds it) gives the whole-truth logs."""
        truth = make_truth(WorkplaceUsage(n_desktops=30, n_servers=2), days=3.0, seed=14)
        order = probe_order(truth.n_addresses, 14)
        start, end = 86_400.0, 2 * 86_400.0
        obs = TrinocularObserver("e", phase_offset_s=137.0)
        loss = BernoulliLoss(p=0.1)
        lane = ProbeLane(
            obs, ProbeTarget.of(truth, order, start, end), loss,
            np.random.default_rng(5), start_s=start, duration_s=end - start, start_cursor=3,
        )
        assert lane.target.width < truth.n_cols / 2
        want = obs.observe_reference(
            truth, order, loss, np.random.default_rng(5),
            start_s=start, duration_s=end - start, start_cursor=3,
        )
        assert_same_series(observe_batch([lane])[0], want)

    def test_long_windows(self):
        """Lanes over three weeks: many column runs, a window start off the
        column grid, steady lanes beside lanes that straddle every round
        or start on a column edge, congestion loss whose draw buffer
        refills mid-window, a last round cut short by the window end, and
        a block of 256 targets."""
        start = 86_400.0 + 317.0  # 317 s into a column
        duration = 660.0 * 2900 + 20.0  # phase 0's last round keeps 20 s of probes
        days = (start + duration) / 86_400.0 + 0.5
        blocks = [
            make_truth(WorkplaceUsage(n_desktops=240, n_servers=12), days=days, seed=21),
            make_truth(SparseUsage(n_addresses=60), days=days, seed=22),
            make_truth(ServerFarmUsage(n_servers=40), days=days, seed=23),
        ]
        assert blocks[0].n_addresses == 256
        lo, hi = blocks[0].column_of(start), blocks[0].column_of(start + duration)
        busy = blocks[0].active[:, lo:hi]
        assert np.count_nonzero((busy[:, 1:] != busy[:, :-1]).any(axis=0)) > 500  # runs
        # column offsets 317, 454, 647 (straddles: 647 + 42 > 660) and 0
        phases = (0.0, 137.0, 330.0, 343.0)
        losses = (
            BernoulliLoss(p=0.05),
            DiurnalCongestionLoss(base=0.3, peak=0.9),
            BernoulliLoss(p=0.2),
            NoLoss(),
        )
        specs = []
        for b, truth in enumerate(blocks):
            order = probe_order(truth.n_addresses, 21 + b)
            for o, (phase, loss) in enumerate(zip(phases, losses)):
                obs = TrinocularObserver("ejnw"[o], phase_offset_s=phase)
                kwargs = {"start_s": start, "duration_s": duration, "start_cursor": 7 * o}
                specs.append((obs, truth, order, loss, 100 * b + o, kwargs))
        last = TrinocularObserver("e").round_starts(start, start + duration)[-1]
        assert last + 3.0 * 14 >= start + duration  # the last round's budget is cut
        logs = check_lanes(specs)
        # the always-active farm's congested lane draws on every probe
        assert len(logs[9]) > DRAW_BLOCK

    def test_many_lanes_near_a_loss(self):
        """Always-active blocks under light loss: a reply every round, and
        more lanes near a possibly lost draw than are followed one by
        one, so the countdowns' full counts fall between watched rounds."""
        specs = []
        for b in range(12):
            truth = make_truth(ServerFarmUsage(n_servers=20 + b), days=3.0, seed=40 + b)
            order = probe_order(truth.n_addresses, 40 + b)
            for o, name in enumerate("ejnw"):
                obs = TrinocularObserver(name, phase_offset_s=137.0 + 101.0 * o)
                specs.append((obs, truth, order, BernoulliLoss(p=0.06), 10 * b + o, {}))
        check_lanes(specs)

    def test_reply_on_the_last_target(self):
        """Replies from probe positions 9 and 14 of 15, with a budget of 10:
        every other round ends on the last target, so its next cursor
        wraps to exactly 0, and the round after it replies on its
        budget's last probe, the farthest a table row looks ahead."""
        m, n_cols = 15, 300
        active = np.zeros((m, n_cols), dtype=bool)
        active[[9, 14]] = True
        truth = BlockTruth(np.arange(m, dtype=np.int16), active, np.arange(n_cols) * 660.0)
        order = np.arange(m)
        specs = [
            (TrinocularObserver(name, phase_offset_s=100.0 * (i + 1), max_probes_per_round=10),
             truth, order, loss, i, {})
            for i, (name, loss) in enumerate([("e", NoLoss()), ("j", BernoulliLoss(p=0.3))])
        ]
        logs = check_lanes(specs)
        rounds = logs.rounds(0)
        assert rounds.hit.all() and (rounds.k[::2] == 10).all() and (rounds.k[1::2] == 5).all()

    def test_wide_tables(self):
        """A budget of 130 probes (K >= 128) takes 16-bit tables; a second
        lane of the same block with K = 15 resolves every round on the
        general path."""
        truth = make_truth(WorkplaceUsage(n_desktops=240, n_servers=12), days=2.0, seed=24)
        order = probe_order(truth.n_addresses, 24)
        specs = [
            (TrinocularObserver("e", phase_offset_s=137.0, max_probes_per_round=130),
             truth, order, BernoulliLoss(p=0.3), 31, {"start_cursor": 200}),
            (TrinocularObserver("j", phase_offset_s=500.0), truth, order,
             DiurnalCongestionLoss(base=0.05, peak=0.8), 32, {"start_cursor": 255}),
        ]
        check_lanes(specs)

    def test_shared_generator_is_rejected(self):
        truth = make_truth(ServerFarmUsage(n_servers=8), days=0.5, seed=15)
        target = ProbeTarget.of(truth, probe_order(truth.n_addresses, 15))
        rng = np.random.default_rng(0)
        lanes = [ProbeLane(TrinocularObserver(n), target, rng=rng) for n in "ej"]
        with pytest.raises(ValueError, match="share a Generator"):
            observe_batch(lanes)


# ---------------------------------------------------------------------------
# columnar front half vs the per-block log route
# ---------------------------------------------------------------------------
@st.composite
def front_half_chunks(draw):
    """A chunk of blocks laid out as ``simulate_chunk`` lays it out: every
    block's observer lanes, block-major, probed in one ``observe_batch``.

    Returns ``(start_s, ds, lanes, blocks)`` with one ``(truth, fractional)``
    per block; ``fractional`` says whether a lane of the block with probes
    has a non-integer phase (the front half must decline that block).
    """
    # zero rounds, one round (for small phases), or many
    weeks = draw(st.sampled_from([0.0, 0.0005, 0.001, 0.1, 0.2]))
    start = draw(st.sampled_from([0.0, 86_400.0]))
    n_obs = draw(st.integers(1, 4))
    ds = DatasetSpec("front-half", date(2020, 1, 1), weeks, tuple("ejnw"[:n_obs]))
    phases = [draw(st.sampled_from([0.0, 137.0, 347.0, 551.0, 656.0])) for _ in range(n_obs)]
    if n_obs > 1 and draw(st.booleans()):
        phases[1] = phases[0]  # equal times: the merge's tie-break decides
    if draw(st.integers(0, 4)) == 0:
        phases[-1] += 0.5  # probe times are not whole seconds
    lanes, blocks = [], []
    for b in range(draw(st.integers(1, 3))):
        size = draw(st.integers(1, 40))
        usage = draw(
            st.sampled_from(
                [
                    SparseUsage(n_addresses=size, stale_addresses=0),
                    WorkplaceUsage(n_desktops=size, n_servers=1),
                    ServerFarmUsage(n_servers=size),
                ]
            )
        )
        seed = draw(st.integers(0, 2**16))
        truth = make_truth(usage, days=(start + ds.duration_s) / 86_400.0 + 0.05, seed=seed)
        m = truth.n_addresses
        order = probe_order(m, seed)
        if draw(st.integers(0, 5)) == 0:
            order = order[:0]  # every lane of the block is empty
        target = ProbeTarget.of(truth, order, start, start + ds.duration_s)
        fractional = False
        for o, phase in enumerate(phases):
            loss = draw(
                st.sampled_from(
                    [
                        NoLoss(),
                        BernoulliLoss(p=0.3),
                        DiurnalCongestionLoss(base=0.05, peak=0.8, tz_hours=float(o)),
                    ]
                )
            )
            obs = TrinocularObserver(
                "ejnw"[o],
                phase_offset_s=phase,
                # budgets from one probe to above m, so K = m occurs
                max_probes_per_round=draw(st.integers(1, m + 3)),
            )
            lane = ProbeLane(
                obs, target, loss, np.random.default_rng([seed, o]),
                start_s=start, duration_s=ds.duration_s,
                start_cursor=draw(st.integers(0, m - 1)),
            )
            lanes.append(lane)
            fractional |= phase != int(phase) and order.size > 0 and phase < ds.duration_s
        blocks.append((truth, fractional))
    return start, ds, lanes, blocks


def stage_sizes(ctx):
    return [(r.name, r.n_in, r.n_out, r.skipped) for r in ctx.records]


class TestFrontHalfEquivalence:
    """``LaneBlock.reconstruct`` against ``reconstruct_logs`` on the
    assembled, window-sliced lane logs (the runtime's log route)."""

    @settings(max_examples=60, deadline=None)
    @given(chunk=front_half_chunks(), repair=st.booleans())
    def test_matches_reconstruct_logs(self, chunk, repair):
        start, ds, lanes, blocks = chunk
        logs = observe_batch(lanes)
        pipeline = BlockPipeline(apply_repair=repair)
        grid = SampleGrid.of(sample_grid(start, ds))
        n = len(ds.observers)
        for j, (truth, fractional) in enumerate(blocks):
            ids = range(j * n, (j + 1) * n)
            end = start + ds.duration_s
            want_ctx = StageContext()
            want = reconstruct_logs(
                pipeline, [logs[i].slice_time(start, end) for i in ids],
                truth.addresses, start, ds, want_ctx,
            )
            block = LaneBlock.of(logs, ids, truth.addresses, grid)
            if fractional:
                assert block is None
                continue
            assert block is not None
            ctx = StageContext()
            got = block.reconstruct(ctx, repair=repair)
            assert pickle.dumps(got) == pickle.dumps(want)
            assert stage_sizes(ctx) == stage_sizes(want_ctx)

    def test_lossy_month_with_ties(self):
        """A month of four lossy lanes, two of them in lockstep: 101
        repairs, resumed lost replies and equal-time merges all occur."""
        truth = make_truth(WorkplaceUsage(n_desktops=30, n_servers=2), days=29.0, seed=3)
        order = probe_order(truth.n_addresses, 3)
        target = ProbeTarget.of(truth, order)
        ds = DatasetSpec("front-half", date(2020, 1, 1), 4.0, tuple("ejnw"))
        lanes = [
            ProbeLane(
                TrinocularObserver(name, phase_offset_s=phase), target,
                BernoulliLoss(p=0.2), np.random.default_rng(i),
                duration_s=ds.duration_s, start_cursor=7 * i,
            )
            for i, (name, phase) in enumerate(zip("ejnw", (137.0, 137.0, 449.0, 551.0)))
        ]
        logs = observe_batch(lanes)
        want_ctx = StageContext()
        want = reconstruct_logs(
            BlockPipeline(), [logs[i] for i in range(4)], truth.addresses, 0.0, ds, want_ctx
        )
        ctx = StageContext()
        grid = SampleGrid.of(sample_grid(0.0, ds))
        got = LaneBlock.of(logs, range(4), truth.addresses, grid).reconstruct(ctx)
        assert pickle.dumps(got) == pickle.dumps(want)
        assert stage_sizes(ctx) == stage_sizes(want_ctx)
        assert got.is_complete and np.nanmax(got.counts.values) > 0


# ---------------------------------------------------------------------------
# the front half's round-unit tables against explicit probe times
# ---------------------------------------------------------------------------
def explicit_times(lane):
    """Every probe's send time, round by round."""
    return np.concatenate(
        [np.zeros(0, dtype=np.int64)]
        + [lane.base + r * lane.step + np.arange(k) * lane.spacing for r, k in enumerate(lane.k)]
    )


@st.composite
def lane_pairs(draw):
    """Two lanes on one round step and a sample grid on that step.

    Phases, spacings, budgets up to a round's length and round counts
    (the window cut) are random.  The second lane's phase is often within
    a round of the first's, so their rounds interleave, and the grid
    often starts inside a round of the first lane, so its rounds
    straddle a grid time.
    """
    step = draw(st.sampled_from([660, 97, 30]))
    lanes = []
    for i in range(2):
        spacing = draw(st.integers(1, 5))
        budget = draw(st.integers(1, (step - 1) // spacing + 1))
        n_rounds = draw(st.integers(1, 12))
        if i and draw(st.booleans()):
            reach = budget * spacing
            base = lanes[0].base + draw(st.integers(-reach, reach))
        else:
            base = draw(st.integers(0, 3 * step))
        k = draw(st.lists(st.integers(1, budget), min_size=n_rounds, max_size=n_rounds))
        lanes.append(
            _Lane.of_counts(
                base, step if n_rounds > 1 else 0, spacing, 0, np.array(k),
                np.zeros(n_rounds, dtype=bool),
            )
        )
    a = lanes[0]
    first = a.base + draw(st.integers(0, a.kmax * a.spacing)) - step * draw(st.integers(-2, 3))
    n_grid = draw(st.integers(0, 15))
    grid = SampleGrid(first + np.arange(n_grid, dtype=np.float64) * step, first, step)
    return lanes, step, grid


class TestFrontHalfTables:
    """The round-unit counts of another lane's earlier probes and the
    per-lane grid index tables against a binary search over every
    probe's explicit send time."""

    @settings(max_examples=300, deadline=None)
    @given(pair=lane_pairs(), tie=st.integers(0, 1))
    def test_sent_before_matches_search(self, pair, tie):
        (a, b), step, _ = pair
        pos = np.arange(a.n)
        r = np.repeat(np.arange(a.k.size), a.k)
        want = np.searchsorted(explicit_times(b), explicit_times(a) + tie)
        assert np.array_equal(_sent_before(a, b, tie, step, pos, r), want)
        assert np.array_equal(_sent_before(a, b, tie, 0, pos, r), want)

    @settings(max_examples=200, deadline=None)
    @given(pair=lane_pairs(), m=st.integers(1, 6))
    def test_cells_match_grid_index(self, pair, m):
        lanes, step, grid = pair
        for lane in lanes:
            want = np.searchsorted(grid.times, explicit_times(lane))
            got = lane.cells(grid, m, step)
            assert np.array_equal(got[: lane.n], want)
            assert np.all(got[lane.n :] == grid.times.size) and got.size == lane.n + m
            assert np.array_equal(lane.cells(grid, m, 0), got)

    @pytest.mark.parametrize("repair", [True, False])
    def test_catalog_phases(self, repair):
        """The four ``2020h1-ejnw`` sites, lossy, over its 26-week window,
        whose last round is cut short."""
        ds = dataset("2020h1-ejnw")
        assert ds.duration_s % 660.0
        days = ds.duration_s / 86_400.0 + 0.05
        truth = make_truth(WorkplaceUsage(n_desktops=40, n_servers=2), days=days, seed=5)
        target = ProbeTarget.of(truth, probe_order(truth.n_addresses, 5))
        lanes = [
            ProbeLane(
                TrinocularObserver(name, phase_offset_s=TRINOCULAR_SITES[name]), target,
                BernoulliLoss(p=0.15), np.random.default_rng(i),
                duration_s=ds.duration_s, start_cursor=11 * i,
            )
            for i, name in enumerate(ds.observers)
        ]
        logs = observe_batch(lanes)
        pipeline = BlockPipeline(apply_repair=repair)
        want_ctx = StageContext()
        want = reconstruct_logs(
            pipeline, [logs[i] for i in range(4)], truth.addresses, 0.0, ds, want_ctx
        )
        grid = SampleGrid.of(sample_grid(0.0, ds))
        block = LaneBlock.of(logs, range(4), truth.addresses, grid)
        assert block.step == 660
        # every pair of sites counts with one gather per positive probe
        for i, a in enumerate(block.lanes):
            for j, b in enumerate(block.lanes):
                assert i == j or _shift(a, b, int(j < i), block.step) in (-1, 0)
        ctx = StageContext()
        got = block.reconstruct(ctx, repair=repair)
        assert pickle.dumps(got) == pickle.dumps(want)
        assert stage_sizes(ctx) == stage_sizes(want_ctx)
        assert got.is_complete and np.nanmax(got.counts.values) > 0

    def test_fractional_step_takes_log_route(self):
        """A round step just off 660 s whose float round starts all land
        on the whole seconds of a 660 s step: ``LaneBlock.of`` declines
        it, and the log route gives the bytes the columnar route gives
        for the whole-second step."""
        start = 13 * 86_400.0
        ds = DatasetSpec("front-half", date(2020, 1, 1), 2 / 7, tuple("ej"))
        truth = make_truth(WorkplaceUsage(n_desktops=20, n_servers=2), days=15.05, seed=9)
        order = probe_order(truth.n_addresses, 9)
        target = ProbeTarget.of(truth, order, start, start + ds.duration_s)

        def probe(round_s):
            return observe_batch([
                ProbeLane(
                    TrinocularObserver(
                        name, phase_offset_s=TRINOCULAR_SITES[name], round_seconds=round_s
                    ),
                    target, BernoulliLoss(p=0.2), np.random.default_rng(i),
                    start_s=start, duration_s=ds.duration_s, start_cursor=5 * i,
                )
                for i, name in enumerate(ds.observers)
            ])

        odd, whole = probe(660.0000000000001), probe(660.0)
        for i in range(2):
            assert_same_series(odd[i], whole[i])
        grid = SampleGrid.of(sample_grid(start, ds))
        assert LaneBlock.of(odd, range(2), truth.addresses, grid) is None
        want = reconstruct_logs(
            BlockPipeline(), [odd[i] for i in range(2)], truth.addresses, start, ds, StageContext()
        )
        got = LaneBlock.of(whole, range(2), truth.addresses, grid).reconstruct(StageContext())
        assert pickle.dumps(got) == pickle.dumps(want)
        assert got.is_complete


def kind_usage(kind, seed):
    """A block kind's usage model with world-drawn parameters."""
    return _build_usage(kind, np.random.default_rng([seed, 0xA]))


def same_truth(a, b):
    return (
        np.array_equal(a.addresses, b.addresses)
        and np.array_equal(a.active, b.active)
        and np.array_equal(a.col_times, b.col_times)
    )


class TestTruthGeneratorEquivalence:
    """Every kind's window-local generator against its per-day twin."""

    @staticmethod
    def check_truth(usage, key, start_s, end_s, tz_hours=0.0, events=()):
        cal = Calendar(epoch=EPOCH, tz_hours=tz_hours, events=tuple(events))
        grid = round_grid(end_s, start_s=start_s)
        fast = usage.generate(key, grid, cal)
        slow = usage.generate_reference(key, grid, cal)
        assert fast.active.dtype == slow.active.dtype == bool
        assert same_truth(fast, slow)
        return fast

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", range(4))
    def test_random_windows(self, kind, seed):
        rng = np.random.default_rng([seed, 0xE0])
        start = float(rng.uniform(0.0, 30.0)) * 86_400.0
        end = start + float(rng.uniform(0.02, 12.0)) * 86_400.0
        tz = float(rng.choice([-9.5, -5.0, 0.0, 5.75, 8.0, 12.0]))
        events = (
            Outage(start_s=start + 3_000.0, end_s=start + 20_000.0),
            Renumbering(time_s=start + 86_400.0, shift=int(rng.integers(1, 64))),
            ServiceWindow(end_s=end - 40_000.0),
            Migration(time_s=start + 2 * 86_400.0, residual_fraction=0.3),
            Holiday(first=(EPOCH + timedelta(seconds=start)).date(), days=2),
        )
        truth = self.check_truth(kind_usage(kind, seed), (seed, 0xB), start, end, tz, events)
        assert truth.n_cols == len(round_grid(end, start_s=start))

    def test_edge_cases(self):
        self.check_truth(ServerFarmUsage(n_servers=0), 5, 0.0, 86_400.0)
        # maintenance every day: windows open at the run's start are kept
        busy = ServerFarmUsage(n_servers=20, maintenance_rate_per_day=0.5)
        self.check_truth(busy, 8, 5 * 86_400.0 + 1_000.0, 7 * 86_400.0)


class TestSparseUsageEquivalence:
    """The telegraph kind's day-batched span draw against its per-day twin."""

    check_truth = staticmethod(TestTruthGeneratorEquivalence.check_truth)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_parameters(self, seed):
        rng = np.random.default_rng(seed)
        usage = SparseUsage(
            n_addresses=int(rng.integers(1, 80)),
            mean_on_days=float(rng.uniform(0.01, 6.0)),
            mean_off_days=float(rng.uniform(0.01, 6.0)),
        )
        horizon = float(rng.uniform(0.01, 200.0)) * 86_400.0
        self.check_truth(usage, seed, 0.0, horizon)
        self.check_truth(usage, seed, float(rng.uniform(0.0, horizon)), horizon)

    @pytest.mark.parametrize("days", [14.0, 31.0, 182.0])
    def test_world_parameters(self, days):
        """The churn and sparse kinds' parameter ranges at campaign horizons,
        on the epoch and for a window that ends at the horizon."""
        for key, usage in enumerate(
            (
                SparseUsage(n_addresses=80, mean_on_days=0.4, mean_off_days=0.5),
                SparseUsage(n_addresses=24, mean_on_days=1.4, mean_off_days=2.0),
                SparseUsage(n_addresses=4, mean_on_days=5.0, mean_off_days=6.0),
            ),
            start=1,
        ):
            self.check_truth(usage, key, 0.0, days * 86_400.0)
            self.check_truth(usage, key, (days - 9.0) * 86_400.0, days * 86_400.0)

    def test_edge_cases(self):
        self.check_truth(SparseUsage(n_addresses=10), 4, 0.0, 0.0)  # no columns
        self.check_truth(SparseUsage(n_addresses=0), 5, 0.0, 3 * 86_400.0)  # no addresses
        # spans far longer than the horizon: every address holds its state
        long_spans = SparseUsage(n_addresses=30, mean_on_days=500.0, mean_off_days=500.0)
        self.check_truth(long_spans, 7, 86_400.0, 2 * 86_400.0)
        with pytest.raises(ValueError, match="positive"):
            self.check_truth(SparseUsage(n_addresses=10, mean_on_days=0.0), 6, 0.0, 86_400.0)


class TestFullScanEquivalence:
    @staticmethod
    def random_series(rng, n, pool):
        times = np.sort(rng.uniform(0.0, 1e5, size=n))
        addrs = rng.choice(pool, size=n).astype(np.int16)
        return ObservationSeries(
            times=times, addresses=addrs, results=rng.random(n) < 0.5
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized(self, seed):
        rng = np.random.default_rng(seed)
        pool = np.arange(1, int(rng.integers(2, 30)), dtype=np.int16)
        obs = self.random_series(rng, int(rng.integers(1, 400)), pool)
        eb = rng.choice(pool, size=int(rng.integers(1, pool.size + 1)), replace=False)
        max_scans = None if seed % 2 else int(rng.integers(1, 5))
        fast = full_scan_durations(obs, eb, max_scans=max_scans)
        slow = full_scan_durations_reference(obs, eb, max_scans=max_scans)
        assert np.array_equal(fast, slow)

    def test_empty_series(self):
        obs = ObservationSeries(
            times=np.array([]), addresses=np.array([], dtype=np.int16),
            results=np.array([], dtype=bool),
        )
        eb = np.array([1, 2], dtype=np.int16)
        assert full_scan_durations(obs, eb).size == 0
        assert full_scan_durations_reference(obs, eb).size == 0

    def test_address_never_probed(self):
        obs = ObservationSeries(
            times=np.array([0.0, 1.0]),
            addresses=np.array([1, 1], dtype=np.int16),
            results=np.array([True, True]),
        )
        eb = np.array([1, 2], dtype=np.int16)
        assert full_scan_durations(obs, eb).size == 0
        assert full_scan_durations_reference(obs, eb).size == 0

    def test_simulated_block(self):
        """End-to-end: a real probe log instead of synthetic indices."""
        truth = make_truth(WorkplaceUsage(n_desktops=30, n_servers=2), days=4.0, seed=10)
        order = probe_order(truth.n_addresses, 10)
        log = TrinocularObserver("e").observe(
            truth, order, NoLoss(), np.random.default_rng(10)
        )
        fast = full_scan_durations(log, truth.addresses)
        slow = full_scan_durations_reference(log, truth.addresses)
        assert np.array_equal(fast, slow)
        assert fast.size > 0


class TestCusumEquivalence:
    @staticmethod
    def check(x, threshold=1.0, drift=0.001, estimate_ending=True):
        fast = detect_cusum(x, threshold, drift, estimate_ending=estimate_ending)
        slow = detect_cusum_reference(
            x, threshold, drift, estimate_ending=estimate_ending
        )
        assert fast.alarms == slow.alarms  # exact: indices, directions, amplitudes
        np.testing.assert_allclose(fast.gp, slow.gp, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(fast.gn, slow.gn, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_walks(self, seed):
        rng = np.random.default_rng(seed)
        x = np.cumsum(rng.normal(0.0, 0.4, size=int(rng.integers(10, 2000))))
        self.check(
            x,
            threshold=float(rng.uniform(0.3, 3.0)),
            drift=float(rng.uniform(0.0, 0.05)),
            estimate_ending=bool(seed % 2),
        )

    def test_constant_series(self):
        self.check(np.full(500, 3.7))

    def test_step_change(self):
        self.check(np.concatenate([np.zeros(100), np.ones(100) * 5.0]))

    def test_empty_and_tiny(self):
        self.check(np.array([]))
        self.check(np.array([1.0]))

    def test_nan_forward_fill(self):
        x = np.concatenate([np.zeros(50), np.full(10, np.nan), np.ones(50) * 4.0])
        self.check(x)

    def test_all_nan(self):
        self.check(np.full(40, np.nan))


class TestReplyRateByAddress:
    def test_matches_naive_on_large_series(self):
        """Regression: bincount path equals the per-address mean exactly."""
        rng = np.random.default_rng(42)
        n = 200_000
        addrs = rng.integers(1, 255, size=n).astype(np.int16)
        obs = ObservationSeries(
            times=np.sort(rng.uniform(0.0, 1e6, size=n)),
            addresses=addrs,
            results=rng.random(n) < 0.3,
        )
        rates = obs.reply_rate_by_address()
        for a in np.unique(addrs)[:32]:
            mask = obs.addresses == a
            assert rates[int(a)] == float(obs.results[mask].mean())
        assert set(rates) == set(int(a) for a in np.unique(addrs))


# ---------------------------------------------------------------------------
# batched columnar kernels vs their per-block scalar paths
# ---------------------------------------------------------------------------
# The batched analysis plane promises *bit*-identity: every ``*_batch``
# kernel routes the scalar call through the same 2-D core with B == 1,
# and the batched primitives are batch-size invariant, so each row of a
# batch must equal the scalar call on that row byte for byte.

import pickle

from repro.core.changes import ChangeDetector
from repro.core.diurnal import DiurnalTest
from repro.core.pipeline import BlockPipeline
from repro.core.reconstruction import Reconstruction
from repro.core.sensitivity import SensitivityClassifier
from repro.core.stages import StageContext
from repro.core.swing import SwingTest
from repro.core.trend import TrendExtractor
from repro.timeseries.detect import detect_cusum_batch, zscore_rows
from repro.timeseries.loess import loess_smooth, loess_smooth_batch
from repro.timeseries.series import (
    SECONDS_PER_HOUR,
    BlockMatrix,
    TimeSeries,
    group_block_matrices,
)
from repro.timeseries.spectrum import (
    diurnal_energy_ratio,
    diurnal_energy_ratio_batch,
    periodogram,
    periodogram_batch,
)
from repro.timeseries.stl import (
    _moving_average,
    _moving_average_reference,
    stl_decompose,
    stl_decompose_batch,
)


def _count_rows(rng, n_rows, n, period=24):
    """Plausible diurnal count rows: level + daily cycle + noise + NaN gaps."""
    t = np.arange(n)
    rows = np.empty((n_rows, n))
    for i in range(n_rows):
        level = rng.uniform(5.0, 60.0)
        amp = rng.uniform(0.0, 0.5 * level)
        rows[i] = level + amp * np.sin(2 * np.pi * (t + rng.integers(period)) / period)
        rows[i] += rng.normal(0.0, 0.05 * level, n)
        if rng.random() < 0.5:  # reconstruction gaps
            gaps = rng.choice(n, size=int(rng.integers(1, max(n // 20, 2))), replace=False)
            rows[i, gaps] = np.nan
    return rows


class TestLoessBatchEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_rows_match_scalar(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(12, 300))
        x = np.arange(n, dtype=float) * float(rng.uniform(0.5, 4.0))
        values = rng.normal(0.0, 1.0, (int(rng.integers(1, 7)), n))
        q = int(rng.integers(3, n + 4))  # sometimes >= n: scalar fallback
        degree = int(rng.integers(0, 2))
        batch = loess_smooth_batch(x, values, q, degree=degree)
        for i, row in enumerate(values):
            np.testing.assert_array_equal(
                batch[i], loess_smooth(x, row, q, degree=degree)
            )

    def test_offset_xout_matches_scalar(self):
        """The cycle-subseries grid (xout = -1..m) uses the fast path."""
        rng = np.random.default_rng(1)
        m = 30
        x = np.arange(m, dtype=float)
        xout = np.arange(-1.0, m + 1.0)
        values = rng.normal(0.0, 1.0, (4, m))
        weights = rng.uniform(0.2, 1.0, (4, m))
        batch = loess_smooth_batch(x, values, 7, xout=xout, robustness_weights=weights)
        for i, row in enumerate(values):
            np.testing.assert_array_equal(
                batch[i],
                loess_smooth(x, row, 7, xout=xout, robustness_weights=weights[i]),
            )

    def test_single_row_is_scalar(self):
        rng = np.random.default_rng(2)
        x = np.arange(50, dtype=float)
        y = rng.normal(0.0, 1.0, 50)
        np.testing.assert_array_equal(
            loess_smooth_batch(x, y[None, :], 9)[0], loess_smooth(x, y, 9)
        )

    def test_nonuniform_grid_falls_back_per_row(self):
        rng = np.random.default_rng(3)
        x = np.sort(rng.uniform(0.0, 100.0, 40))
        values = rng.normal(0.0, 1.0, (3, 40))
        batch = loess_smooth_batch(x, values, 7)
        for i, row in enumerate(values):
            np.testing.assert_array_equal(batch[i], loess_smooth(x, row, 7))


class TestMovingAverageEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_cumsum_matches_convolve_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(30, 3000))
        window = int(rng.integers(2, min(n, 200)))
        x = rng.normal(50.0, 10.0, n)
        np.testing.assert_allclose(
            _moving_average(x, window),
            _moving_average_reference(x, window),
            rtol=1e-12,
            atol=1e-9,
        )

    def test_batched_rows_match_rowwise(self):
        rng = np.random.default_rng(9)
        x = rng.normal(0.0, 1.0, (5, 400))
        batch = _moving_average(x, 25)
        for i, row in enumerate(x):
            np.testing.assert_array_equal(batch[i], _moving_average(row, 25))


class TestStlBatchEquivalence:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"outer_iterations": 0},
            {"outer_iterations": 3},
            {"seasonal_smoother": 11},
            {"seasonal_smoother": 11, "outer_iterations": 2},
        ],
    )
    def test_rows_match_scalar(self, kwargs):
        rng = np.random.default_rng(4)
        n = 24 * 21
        t = np.arange(n)
        values = np.stack(
            [
                10 + a * np.sin(2 * np.pi * t / 24) + rng.normal(0, 0.4, n)
                for a in (0.5, 3.0, 8.0)
            ]
        )
        batch = stl_decompose_batch(values, 24, **kwargs)
        for i, row in enumerate(values):
            ref = stl_decompose(row, 24, **kwargs)
            np.testing.assert_array_equal(batch.trend[i], ref.trend)
            np.testing.assert_array_equal(batch.seasonal[i], ref.seasonal)
            np.testing.assert_array_equal(batch.residual[i], ref.residual)

    def test_batch_width_invariance(self):
        """Bit-identity must not depend on how many rows share the batch."""
        rng = np.random.default_rng(5)
        n = 24 * 14
        values = rng.normal(20.0, 2.0, (6, n)) + np.sin(
            2 * np.pi * np.arange(n) / 24
        )
        wide = stl_decompose_batch(values, 24)
        narrow = stl_decompose_batch(values[2:4], 24)
        np.testing.assert_array_equal(wide.trend[2:4], narrow.trend)

    def test_empty_batch(self):
        out = stl_decompose_batch(np.empty((0, 24 * 3)), 24)
        assert out.trend.shape == (0, 24 * 3)


class TestPeriodogramBatchEquivalence:
    def test_rows_match_scalar_including_dead_rows(self):
        rng = np.random.default_rng(6)
        n = 24 * 10
        values = _count_rows(rng, 5, n)
        values[2] = np.nan  # dead row
        values[3] = 7.0  # constant row
        batch = periodogram_batch(values, SECONDS_PER_HOUR)
        for i, row in enumerate(values):
            ref = periodogram(row, SECONDS_PER_HOUR)
            np.testing.assert_array_equal(batch[i].frequencies, ref.frequencies)
            np.testing.assert_array_equal(batch[i].power, ref.power)

    def test_single_row(self):
        rng = np.random.default_rng(7)
        row = _count_rows(rng, 1, 24 * 5)
        batch = periodogram_batch(row, SECONDS_PER_HOUR)
        ref = periodogram(row[0], SECONDS_PER_HOUR)
        np.testing.assert_array_equal(batch[0].power, ref.power)

    def test_diurnal_ratio_rows_match_scalar(self):
        rng = np.random.default_rng(8)
        values = _count_rows(rng, 4, 24 * 12)
        batch = diurnal_energy_ratio_batch(values, SECONDS_PER_HOUR)
        for i, row in enumerate(values):
            assert batch[i] == diurnal_energy_ratio(row, SECONDS_PER_HOUR)


class TestCusumBatchEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_rows_match_scalar(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(50, 1200))
        values = np.cumsum(rng.normal(0.0, 0.4, (4, n)), axis=1)
        values[1, :7] = np.nan  # leading NaNs
        values[2, n // 2 : n // 2 + 9] = np.nan  # interior gap
        values[3] = np.nan  # all-NaN row
        batch = detect_cusum_batch(values, 1.0, 0.0055)
        for i, row in enumerate(values):
            ref = detect_cusum(row, 1.0, 0.0055)
            assert batch[i].alarms == ref.alarms
            np.testing.assert_array_equal(batch[i].gp, ref.gp)
            np.testing.assert_array_equal(batch[i].gn, ref.gn)


class TestZscoreRowsEquivalence:
    def test_matches_trendresult_normalize(self):
        rng = np.random.default_rng(11)
        n = 24 * 14
        times = np.arange(n) * SECONDS_PER_HOUR
        values = _count_rows(rng, 5, n)
        values = np.where(np.isnan(values), 0.0, values)  # trends are finite
        batch = zscore_rows(values, min_abs_scale=0.5, min_rel_scale=0.02)
        from repro.core.trend import TrendResult

        for i, row in enumerate(values):
            series = TimeSeries(times, row)
            result = TrendResult(
                hourly=series,
                trend=series,
                seasonal=series,
                residual=series,
                period=24,
                method="stl",
            )
            np.testing.assert_array_equal(batch[i], result.normalize().values)

    def test_nan_rows_pass_through(self):
        values = np.array([[np.nan, np.nan, np.nan], [1.0, 2.0, 3.0]])
        out = zscore_rows(values)
        np.testing.assert_array_equal(out[0], values[0])


class TestBlockMatrixEquivalence:
    def _series(self, rng, n, step=660.0, t0=0.0):
        times = t0 + np.arange(n) * step
        return TimeSeries(times, _count_rows(rng, 1, n)[0])

    def test_resample_interpolate_swings_match_rowwise(self):
        rng = np.random.default_rng(12)
        n = 131 * 24  # ~1.5 days of 11-minute rounds
        series = [self._series(rng, n) for _ in range(5)]
        matrix = BlockMatrix.from_series(series)
        hourly = matrix.resample_mean(SECONDS_PER_HOUR).interpolate_nan()
        for i, s in enumerate(series):
            ref = s.resample_mean(SECONDS_PER_HOUR).interpolate_nan()
            np.testing.assert_array_equal(hourly.times, ref.times)
            np.testing.assert_array_equal(hourly.values[i], ref.values)
        day_idx, swings = matrix.daily_swings()
        for i, s in enumerate(series):
            ref_days, ref_swings = s.daily_swing()
            present = ~np.isnan(swings[i])
            np.testing.assert_array_equal(day_idx[present], ref_days)
            np.testing.assert_array_equal(swings[i][present], ref_swings)

    def test_group_block_matrices_partitions_by_grid(self):
        rng = np.random.default_rng(13)
        a = [self._series(rng, 100) for _ in range(3)]
        b = [self._series(rng, 80, t0=660.0) for _ in range(2)]
        ragged = [a[0], b[0], a[1], b[1], a[2]]
        groups = group_block_matrices(ragged)
        assert [idx for idx, _ in groups] == [(0, 2, 4), (1, 3)]
        for indices, matrix in groups:
            for pos, i in enumerate(indices):
                np.testing.assert_array_equal(matrix.values[pos], ragged[i].values)


class TestVerdictBatchEquivalence:
    """The classifier's two verdict kernels, each against its scalar twin."""

    def _series(self, rng, n, step=660.0):
        times = np.arange(n) * step
        return TimeSeries(times, _count_rows(rng, 1, n)[0])

    def test_diurnal_evaluate_batch_matches_scalar(self):
        rng = np.random.default_rng(16)
        long_n = 131 * 24 * 7
        short_n = 131 * 24 * 2  # below min_days: the unjudgeable early-out
        series = [self._series(rng, long_n) for _ in range(4)]
        series.append(self._series(rng, short_n))
        diurnal = DiurnalTest()
        for group in (series[:4], series[4:]):
            batch = diurnal.evaluate_batch(BlockMatrix.from_series(group))
            for verdict, s in zip(batch, group):
                assert pickle.dumps(verdict) == pickle.dumps(diurnal.evaluate(s))

    def test_swing_evaluate_batch_matches_scalar(self):
        rng = np.random.default_rng(17)
        n = 131 * 24 * 7
        series = [self._series(rng, n) for _ in range(5)]
        swing = SwingTest()
        batch = swing.evaluate_batch(BlockMatrix.from_series(series))
        for profile, s in zip(batch, series):
            assert pickle.dumps(profile) == pickle.dumps(swing.evaluate(s))


class TestAnalysisTailBatchEquivalence:
    def _recon(self, rng, n):
        series = TimeSeries(np.arange(n) * 660.0, _count_rows(rng, 1, n)[0])
        return Reconstruction(
            counts=series,
            complete_time_s=660.0,
            eb_size=64,
            observed_addresses=np.arange(64, dtype=np.int16),
        )

    def test_classify_trend_detect_batch_match_scalar(self):
        rng = np.random.default_rng(14)
        n = 131 * 24 * 14  # two weeks of 11-minute rounds
        recons = [self._recon(rng, n) for _ in range(4)]
        matrix = BlockMatrix.from_series([r.counts for r in recons])

        classifier = SensitivityClassifier()
        batch_cls = classifier.classify_batch(matrix)
        for i, r in enumerate(recons):
            assert pickle.dumps(batch_cls[i]) == pickle.dumps(
                classifier.classify(r.counts)
            )

        extractor = TrendExtractor()
        batch_trends = extractor.extract_batch(matrix)
        detector = ChangeDetector()
        live = [i for i, t in enumerate(batch_trends) if t is not None]
        assert live  # the synthetic rows are long enough to decompose
        for i in live:
            ref = extractor.extract(recons[i].counts)
            assert pickle.dumps(batch_trends[i]) == pickle.dumps(ref)
            batch_report = detector.detect_batch(
                BlockMatrix(
                    batch_trends[i].trend.times,
                    zscore_rows(batch_trends[i].trend.values[None, :],
                                min_abs_scale=0.5, min_rel_scale=0.02),
                )
            )[0]
            assert pickle.dumps(batch_report) == pickle.dumps(
                detector.detect(ref.normalized_trend)
            )

    def test_analyze_tail_batch_matches_per_block_over_ragged_grids(self):
        rng = np.random.default_rng(15)
        long_n = 131 * 24 * 14
        short_n = 131 * 24 * 7
        recons = [
            self._recon(rng, long_n),
            self._recon(rng, short_n),
            self._recon(rng, long_n),
            self._recon(rng, short_n),
            self._recon(rng, long_n),
        ]
        pipeline = BlockPipeline(detect_on_all=True)
        batch_ctxs = [StageContext() for _ in recons]
        batch = pipeline.analyze_tail_batch(recons, batch_ctxs)
        for i, recon in enumerate(recons):
            ctx = StageContext()
            ref = pipeline.analyze_tail(recon, ctx)
            assert pickle.dumps(batch[i]) == pickle.dumps(ref), f"block {i}"
            # same stage names, sizes, and skip reasons (wall times differ)
            assert [
                (r.name, r.n_in, r.n_out, r.skipped) for r in batch_ctxs[i].records
            ] == [(r.name, r.n_in, r.n_out, r.skipped) for r in ctx.records]
