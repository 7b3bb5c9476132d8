"""Ground-truth address-usage generators.

Each model produces, for one /24 block, the boolean activity of every
ever-active address on the world's 660-second round grid.  The models
encode the address-use regimes the paper observes (§2.4, §3.5):

* :class:`WorkplaceUsage` — desktops on public IPs during local work
  hours on workdays (the USC block of Figure 1);
* :class:`HomeEveningUsage` — evening/weekend devices on public IPs;
* :class:`DynamicPoolUsage` — ISP pools assigning public addresses to
  active subscribers (the Asia-heavy diurnal regime of Figure 7);
* :class:`ServerFarmUsage` — always-on servers (dense blocks that scan
  slowly and are not change-sensitive);
* :class:`NatGatewayUsage` — a handful of always-on home routers hiding
  everything behind NAT;
* :class:`SparseUsage` — intermittent, non-diurnal addresses;
* :class:`FirewalledUsage` — historically active space that no longer
  answers probes.

Human events (WFH, holidays, curfews) enter through the per-day activity
factors of the block's :class:`~repro.net.events.Calendar`; network events
(outages, renumbering, migration) are applied afterwards as truth
transforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .addresses import BLOCK_SIZE
from .events import Calendar, Channel

ROUND_SECONDS = 660.0

__all__ = [
    "ROUND_SECONDS",
    "BlockTruth",
    "UsageModel",
    "WorkplaceUsage",
    "HomeEveningUsage",
    "DynamicPoolUsage",
    "ServerFarmUsage",
    "NatGatewayUsage",
    "SparseUsage",
    "FirewalledUsage",
    "round_grid",
]


def round_grid(duration_s: float, round_seconds: float = ROUND_SECONDS) -> np.ndarray:
    """Round-start times covering ``[0, duration_s)``."""
    n = int(np.ceil(duration_s / round_seconds))
    return np.arange(n, dtype=np.float64) * round_seconds


@dataclass(frozen=True)
class BlockTruth:
    """Ground-truth activity of a block's ever-active addresses E(b).

    ``active[i, c]`` says whether address ``addresses[i]`` (a last octet)
    answers a probe during round column ``c`` (``col_times[c]`` is the
    column's start, seconds since the world epoch).
    """

    addresses: np.ndarray  # int16 last octets, shape [m]
    active: np.ndarray  # bool, shape [m, n_cols]
    col_times: np.ndarray  # float64, shape [n_cols]
    round_seconds: float = ROUND_SECONDS

    def __post_init__(self) -> None:
        if self.active.shape != (self.addresses.size, self.col_times.size):
            raise ValueError(
                f"active matrix shape {self.active.shape} does not match "
                f"{self.addresses.size} addresses x {self.col_times.size} columns"
            )

    @property
    def n_addresses(self) -> int:
        return int(self.addresses.size)

    @property
    def n_cols(self) -> int:
        return int(self.col_times.size)

    @property
    def duration_s(self) -> float:
        return self.n_cols * self.round_seconds

    def column_of(self, time_s: float) -> int:
        """Round column covering ``time_s`` (clamped to the grid)."""
        origin = float(self.col_times[0]) if self.n_cols else 0.0
        col = int((time_s - origin) // self.round_seconds)
        return min(max(col, 0), self.n_cols - 1)

    def counts(self) -> np.ndarray:
        """True active-address count per column (ground-truth signal)."""
        return self.active.sum(axis=0).astype(np.float64)

    def ever_responsive(self) -> bool:
        return bool(self.active.any())


def _clip_prob(p: np.ndarray | float) -> np.ndarray:
    return np.clip(p, 0.0, 0.99)


class UsageModel:
    """Base class: handles the E(b) layout and stale-address padding."""

    channel: Channel = Channel.HOME
    #: addresses in E(b) that were active historically but never respond
    #: now (Trinocular's target lists are refreshed only quarterly, §2.2)
    stale_addresses: int = 0

    def _core_size(self) -> int:
        raise NotImplementedError

    def _generate_core(
        self, rng: np.random.Generator, col_times: np.ndarray, calendar: Calendar
    ) -> np.ndarray:
        """Activity matrix for the model's core addresses."""
        raise NotImplementedError

    def eb_size(self) -> int:
        """Number of addresses in E(b) (probed addresses)."""
        return min(self._core_size() + self.stale_addresses, BLOCK_SIZE)

    def generate(
        self, rng: np.random.Generator, col_times: np.ndarray, calendar: Calendar
    ) -> BlockTruth:
        """Build the block's ground truth on the given round grid."""
        core = self._generate_core(rng, col_times, calendar)
        n_stale = self.eb_size() - core.shape[0]
        if n_stale > 0:
            stale = np.zeros((n_stale, col_times.size), dtype=bool)
            active = np.vstack((core, stale))
        else:
            active = core
        addresses = rng.permutation(BLOCK_SIZE)[: active.shape[0]].astype(np.int16)
        active = calendar.apply_transforms(active, col_times, rng)
        return BlockTruth(addresses=addresses, active=active, col_times=col_times)

    # ------------------------------------------------------------------
    # shared machinery
    # ------------------------------------------------------------------
    def _day_layout(
        self, col_times: np.ndarray, calendar: Calendar
    ) -> tuple[np.ndarray, np.ndarray, int, int]:
        """Per-column (day offset, local second-of-day) plus day range."""
        days = calendar.local_day(col_times)
        lsod = calendar.local_second_of_day(col_times)
        first_day = int(days[0])
        n_days = int(days[-1]) - first_day + 1
        return days - first_day, lsod, first_day, n_days

    def _interval_truth(
        self,
        rng: np.random.Generator,
        col_times: np.ndarray,
        calendar: Calendar,
        *,
        n_units: int,
        presence: float,
        start_hour: float,
        start_jitter: float,
        end_hour: float,
        end_jitter: float,
        workdays_only: bool,
        weekend_start_hour: float | None = None,
    ) -> np.ndarray:
        """Units on between jittered daily start/end local times."""
        day_col, lsod, first_day, n_days = self._day_layout(col_times, calendar)
        workday, factor = calendar.day_table(first_day, n_days, self.channel)

        p = _clip_prob(presence * np.minimum(factor, 1.25))
        present = rng.random((n_units, n_days)) < p[None, :]
        if workdays_only:
            present &= workday[None, :]

        start = rng.normal(start_hour, start_jitter, (n_units, n_days)) * 3600.0
        end = rng.normal(end_hour, end_jitter, (n_units, n_days)) * 3600.0
        if weekend_start_hour is not None:
            weekend = ~workday
            early = rng.normal(weekend_start_hour, start_jitter, (n_units, n_days)) * 3600.0
            start = np.where(weekend[None, :], early, start)
        end = np.maximum(end, start + 1800.0)  # at least half an hour on

        on = present[:, day_col]
        return on & (lsod[None, :] >= start[:, day_col]) & (lsod[None, :] < end[:, day_col])


class WorkplaceUsage(UsageModel):
    """Office/university desktops plus a few always-on servers."""

    channel = Channel.WORK

    def __init__(
        self,
        n_desktops: int = 40,
        n_servers: int = 2,
        presence: float = 0.85,
        start_hour: float = 8.5,
        end_hour: float = 17.5,
        stale_addresses: int = 4,
    ) -> None:
        self.n_desktops = n_desktops
        self.n_servers = n_servers
        self.presence = presence
        self.start_hour = start_hour
        self.end_hour = end_hour
        self.stale_addresses = stale_addresses

    def _core_size(self) -> int:
        return self.n_desktops + self.n_servers

    def _generate_core(
        self, rng: np.random.Generator, col_times: np.ndarray, calendar: Calendar
    ) -> np.ndarray:
        desktops = self._interval_truth(
            rng,
            col_times,
            calendar,
            n_units=self.n_desktops,
            presence=self.presence,
            start_hour=self.start_hour,
            start_jitter=0.6,
            end_hour=self.end_hour,
            end_jitter=1.0,
            workdays_only=True,
        )
        servers = np.ones((self.n_servers, col_times.size), dtype=bool)
        return np.vstack((desktops, servers))


class HomeEveningUsage(UsageModel):
    """Home devices on public IPs: evenings on workdays, daytime on weekends."""

    channel = Channel.HOME

    def __init__(
        self,
        n_devices: int = 24,
        presence: float = 0.7,
        stale_addresses: int = 4,
    ) -> None:
        self.n_devices = n_devices
        self.presence = presence
        self.stale_addresses = stale_addresses

    def _core_size(self) -> int:
        return self.n_devices

    def _generate_core(
        self, rng: np.random.Generator, col_times: np.ndarray, calendar: Calendar
    ) -> np.ndarray:
        return self._interval_truth(
            rng,
            col_times,
            calendar,
            n_units=self.n_devices,
            presence=self.presence,
            start_hour=17.5,
            start_jitter=0.8,
            end_hour=23.5,
            end_jitter=0.7,
            workdays_only=False,
            weekend_start_hour=10.0,
        )


class DynamicPoolUsage(UsageModel):
    """An ISP pool assigning public addresses to active subscribers.

    Occupancy follows a smooth diurnal curve (trough ~4am, peak ~9pm
    local); address ``i`` is active while the pool occupancy exceeds its
    per-day threshold, which mimics paired pooling: subscribers hold an
    address for the session, and low-numbered pool slots fill first.
    """

    channel = Channel.POOL

    def __init__(
        self,
        pool_size: int = 160,
        peak: float = 0.7,
        trough: float = 0.12,
        peak_hour: float = 21.0,
        quiet_week_probability: float = 0.03,
        stale_addresses: int = 6,
    ) -> None:
        self.pool_size = pool_size
        self.peak = peak
        self.trough = trough
        self.peak_hour = peak_hour
        self.quiet_week_probability = quiet_week_probability
        self.stale_addresses = stale_addresses

    def _core_size(self) -> int:
        return self.pool_size

    def _generate_core(
        self, rng: np.random.Generator, col_times: np.ndarray, calendar: Calendar
    ) -> np.ndarray:
        day_col, lsod, first_day, n_days = self._day_layout(col_times, calendar)
        _, factor = calendar.day_table(first_day, n_days, self.channel)

        phase = 2.0 * np.pi * (lsod / 86_400.0 - self.peak_hour / 24.0)
        curve = self.trough + (self.peak - self.trough) * (0.5 + 0.5 * np.cos(phase))
        day_wobble = rng.normal(1.0, 0.05, n_days)
        # occasional quiet weeks: demand collapses toward the trough
        # (local events we do not model); these lapses are what dilutes
        # diurnality over long observation windows (S3.2.1)
        n_weeks = n_days // 7 + 1
        quiet = rng.random(n_weeks) < self.quiet_week_probability
        week_factor = np.where(quiet, 0.5, 1.0)[np.arange(n_days) // 7]
        occupancy = np.clip(
            curve * factor[day_col] * (day_wobble * week_factor)[day_col], 0.0, 1.0
        )

        base = (np.arange(self.pool_size) + 0.5) / self.pool_size
        thresholds = np.clip(
            base[:, None] + rng.normal(0.0, 0.04, (self.pool_size, n_days)), 0.0, 1.0
        )
        return thresholds[:, day_col] < occupancy[None, :]


class ServerFarmUsage(UsageModel):
    """A dense block of always-on servers with rare maintenance windows."""

    channel = Channel.WORK

    def __init__(
        self,
        n_servers: int = 248,
        maintenance_rate_per_day: float = 0.01,
        maintenance_hours: float = 3.0,
        stale_addresses: int = 0,
    ) -> None:
        self.n_servers = n_servers
        self.maintenance_rate_per_day = maintenance_rate_per_day
        self.maintenance_hours = maintenance_hours
        self.stale_addresses = stale_addresses

    def _core_size(self) -> int:
        return self.n_servers

    def _generate_core(
        self, rng: np.random.Generator, col_times: np.ndarray, calendar: Calendar
    ) -> np.ndarray:
        active = np.ones((self.n_servers, col_times.size), dtype=bool)
        duration_days = col_times[-1] / 86_400.0 if col_times.size else 0.0
        expected = self.n_servers * self.maintenance_rate_per_day * duration_days
        n_windows = rng.poisson(max(expected, 0.0))
        cols_per_window = max(int(self.maintenance_hours * 3600.0 / ROUND_SECONDS), 1)
        for _ in range(int(n_windows)):
            server = rng.integers(self.n_servers)
            start = rng.integers(max(col_times.size - cols_per_window, 1))
            active[server, start : start + cols_per_window] = False
        return active


class NatGatewayUsage(UsageModel):
    """A handful of always-on NAT routers; human activity is invisible."""

    channel = Channel.HOME

    def __init__(self, n_routers: int = 4, stale_addresses: int = 2) -> None:
        self.n_routers = n_routers
        self.stale_addresses = stale_addresses

    def _core_size(self) -> int:
        return self.n_routers

    def _generate_core(
        self, rng: np.random.Generator, col_times: np.ndarray, calendar: Calendar
    ) -> np.ndarray:
        return np.ones((self.n_routers, col_times.size), dtype=bool)


class SparseUsage(UsageModel):
    """Intermittently used addresses with no daily rhythm (telegraph)."""

    channel = Channel.HOME

    def __init__(
        self,
        n_addresses: int = 10,
        mean_on_days: float = 3.0,
        mean_off_days: float = 4.0,
        stale_addresses: int = 2,
    ) -> None:
        self.n_addresses = n_addresses
        self.mean_on_days = mean_on_days
        self.mean_off_days = mean_off_days
        self.stale_addresses = stale_addresses

    def _core_size(self) -> int:
        return self.n_addresses

    def _generate_core(
        self, rng: np.random.Generator, col_times: np.ndarray, calendar: Calendar
    ) -> np.ndarray:
        """Alternating on/off spans per address, drawn one vector at a time.

        Bit-identical to :meth:`_generate_core_reference`, generator end
        state included.  Each address draws its initial state, then its
        whole span sequence as one ``standard_exponential`` vector
        (``exponential(mean)`` is ``mean * standard_exponential()`` on
        the same stream): the bit generator is snapshotted, spans are
        over-drawn until their running sum reaches the horizon, and the
        generator is restored and advanced by exactly the spans the
        scalar loop would have drawn.  ``cumsum`` accumulates
        sequentially, so span end times equal the loop's ``t += span``.
        """
        n_cols = col_times.size
        duration = n_cols * ROUND_SECONDS
        active = np.zeros((self.n_addresses, n_cols), dtype=bool)
        means = (self.mean_on_days, self.mean_off_days)
        if duration <= 0 or self.n_addresses == 0:
            rng.random(self.n_addresses)  # the initial states, as the loop draws them
            return active
        if min(means) < 0 or sum(means) <= 0:
            raise ValueError("span means must be non-negative and not both zero")
        guess = int(duration / (0.5 * sum(means) * 86_400.0) * 1.25) + 16
        # span k's mean for an address starting on (row 0) or off (row 1)
        scales = np.array([means, means[::-1]])[:, np.arange(guess) % 2]
        bitgen = rng.bit_generator
        states: list[bool] = []
        span_ends: list[np.ndarray] = []
        for _ in range(self.n_addresses):
            state = bool(rng.random() < 0.5)
            snapshot = bitgen.state
            ends = rng.standard_exponential(guess)
            ends *= scales[0 if state else 1]
            ends *= 86_400.0
            np.cumsum(ends, out=ends)
            while ends[-1] < duration:  # rare: the over-draw fell short
                k = np.arange(ends.size, 2 * ends.size)
                more = np.where((k % 2 == 0) == state, means[0], means[1])
                more = more * rng.standard_exponential(k.size) * 86_400.0
                ends = np.concatenate((ends, np.cumsum(np.append(ends[-1], more))[1:]))
            n_spans = int(ends.searchsorted(duration)) + 1
            bitgen.state = snapshot
            rng.standard_exponential(n_spans)
            states.append(state)
            span_ends.append(ends[:n_spans])

        # on-spans of every address at once: [start, end) -> columns
        counts = np.array([e.size for e in span_ends])
        first = np.cumsum(counts) - counts
        ends = np.concatenate(span_ends)
        starts = np.empty_like(ends)
        starts[1:] = ends[:-1]
        starts[first] = 0.0
        index = np.arange(ends.size) - np.repeat(first, counts)
        on = (index % 2 == 0) == np.repeat(states, counts)
        base = np.repeat(np.arange(self.n_addresses) * n_cols, counts)[on]
        lo = base + np.floor_divide(starts[on], ROUND_SECONDS).astype(np.int64)
        hi = base + np.minimum(
            np.floor_divide(ends[on], ROUND_SECONDS).astype(np.int64) + 1, n_cols
        )
        if lo.size == 0:
            return active
        # the flat on-intervals are sorted and overlap their predecessor
        # by at most one column: merge, then paint off/on runs in one go
        gap = lo[1:] > hi[:-1]
        lo = lo[np.concatenate(([True], gap))]
        hi = hi[np.concatenate((gap, [True]))]
        edges = np.empty(2 * lo.size + 2, dtype=np.int64)
        edges[0], edges[-1] = 0, active.size
        edges[1:-1:2], edges[2:-1:2] = lo, hi
        runs = np.zeros(edges.size - 1, dtype=bool)
        runs[1::2] = True
        return np.repeat(runs, np.diff(edges)).reshape(active.shape)

    def _generate_core_reference(
        self, rng: np.random.Generator, col_times: np.ndarray, calendar: Calendar
    ) -> np.ndarray:
        """Span-by-span oracle for :meth:`_generate_core` (tests only)."""
        n_cols = col_times.size
        duration = n_cols * ROUND_SECONDS
        active = np.zeros((self.n_addresses, n_cols), dtype=bool)
        for i in range(self.n_addresses):
            t = 0.0
            state = bool(rng.random() < 0.5)
            while t < duration:
                mean = self.mean_on_days if state else self.mean_off_days
                span = rng.exponential(mean) * 86_400.0
                if state:
                    lo = int(t // ROUND_SECONDS)
                    hi = min(int((t + span) // ROUND_SECONDS) + 1, n_cols)
                    active[i, lo:hi] = True
                t += span
                state = not state
        return active


class FirewalledUsage(UsageModel):
    """Historically responsive space that now answers nothing."""

    channel = Channel.HOME

    def __init__(self, eb_addresses: int = 16) -> None:
        self._eb = eb_addresses
        self.stale_addresses = 0

    def _core_size(self) -> int:
        return self._eb

    def _generate_core(
        self, rng: np.random.Generator, col_times: np.ndarray, calendar: Calendar
    ) -> np.ndarray:
        return np.zeros((self._eb, col_times.size), dtype=bool)
