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

Truth is window-local.  A block's activity on a day is a pure function
of its stream key, its kind and the absolute day: every draw comes from
a :class:`TruthStream`, laid out at a fixed stride per absolute day, so
a generator given any run of the epoch-anchored round grid draws only
that run's days and skips the prefix with ``advance()``.  Kinds whose
state crosses days (the sparse/churn telegraph, server maintenance)
reach the window start by a cheap per-day scan of the same stream
instead of generating the prefix's columns.  Every vectorised generator
keeps a per-day scalar twin (:meth:`UsageModel.generate_reference`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .addresses import BLOCK_SIZE
from .events import Calendar, Channel

ROUND_SECONDS = 660.0
SECONDS_PER_DAY = 86_400.0

#: The first absolute local day a window can touch: the epoch's UTC
#: midnight falls on local day -1 in western time zones.
FIRST_DAY = -1
FIRST_WEEK = FIRST_DAY // 7

#: Counter lanes of a block's truth stream (the Philox counter's top
#: word): the address permutation, the per-day draws, the per-week
#: draws, day-zero initial states, and the events' own draws.
_PERMUTATION, _DAYS, _WEEKS, _INITIAL, _EVENTS = range(5)

__all__ = [
    "ROUND_SECONDS",
    "BlockTruth",
    "TruthStream",
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


def round_grid(
    end_s: float, round_seconds: float = ROUND_SECONDS, *, start_s: float = 0.0
) -> np.ndarray:
    """Round-start times of the epoch-anchored grid covering ``[start_s, end_s)``.

    The first column is the round containing ``start_s``, so a time maps
    to the same absolute column whichever window's grid holds it.
    """
    first = int(start_s // round_seconds)
    n = int(np.ceil(end_s / round_seconds))
    return np.arange(first, max(n, first), dtype=np.float64) * round_seconds


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


class TruthStream:
    """A block's truth draws, addressed by lane and absolute position.

    One ``np.random.Philox`` keyed on ``key`` (an int, or two 64-bit
    words such as ``(spec.seed, 0xB)``).  Each lane is its own counter
    range (the counter's top word), and Philox emits four 64-bit draws
    per counter step, so a lane laid out in rows of whole counter steps
    is random access: :meth:`rows` ``advance()``s to its first row
    instead of drawing the ones before it.  Only uniforms are drawn
    from the row lanes; each consumes exactly one 64-bit draw.
    """

    def __init__(self, key: int | Sequence[int]) -> None:
        words = [key, 0] if isinstance(key, (int, np.integer)) else list(key)
        if len(words) != 2:
            raise ValueError("a truth stream key is an int or two 64-bit words")
        self._key = np.array(words, dtype=np.uint64)
        self._bitgen = np.random.Philox(key=self._key)
        self._gen = np.random.Generator(self._bitgen)

    def lane(self, lane: int, steps: int = 0) -> np.random.Generator:
        """The stream's generator at counter step ``steps`` of ``lane``.

        The generator is shared: the next call repositions it."""
        self._bitgen.state = {
            "bit_generator": "Philox",
            "state": {"counter": np.array([0, 0, 0, lane], dtype=np.uint64), "key": self._key},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        if steps:
            self._bitgen.advance(steps)
        return self._gen

    def rows(self, lane: int, first: int, n: int, width: int) -> np.ndarray:
        """Uniforms ``[n, width]`` of rows ``first..first+n`` of a lane.

        Row ``r`` starts at counter step ``r * ceil(width / 4)``, so it is
        the same ``width`` draws whichever run of rows is asked for."""
        steps = -(-width // 4)
        return self.lane(lane, first * steps).random((n, 4 * steps))[:, :width]

    def days(self, first_day: int, n_days: int, width: int) -> np.ndarray:
        """The ``width`` per-day uniforms of absolute days ``first_day..``."""
        return self.rows(_DAYS, first_day - FIRST_DAY, n_days, width)

    def event_rng(self, index: int) -> np.random.Generator:
        """Draws of the calendar's ``index``-th event (one row of the
        event lane per event, :data:`BLOCK_SIZE` draws long)."""
        return self.lane(_EVENTS, index * (BLOCK_SIZE // 4))


def _normals(u: np.ndarray) -> np.ndarray:
    """Standard normals from uniforms by Box–Muller, one per uniform.

    ``u[..., :h]`` pairs with ``u[..., h:]`` (``h`` half the last axis,
    which must be even).  Unlike numpy's ziggurat, every value costs a
    fixed number of draws, so a day's draws have a fixed count.
    """
    h = u.shape[-1] // 2
    radius = np.sqrt(-2.0 * np.log1p(-u[..., :h]))
    theta = (2.0 * np.pi) * u[..., h:]
    return np.concatenate((radius * np.cos(theta), radius * np.sin(theta)), axis=-1)


def _utc_days(col_times: np.ndarray) -> tuple[int, int, int]:
    """(first column, first UTC day, UTC day count) a grid run touches."""
    c0 = round(float(col_times[0]) / ROUND_SECONDS)
    c1 = c0 + col_times.size
    first = int(c0 * ROUND_SECONDS // SECONDS_PER_DAY)
    last = int((c1 * ROUND_SECONDS - 1.0) // SECONDS_PER_DAY)
    return c0, first, last - first + 1


def _day_layout(
    col_times: np.ndarray, calendar: Calendar
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Per-column (window day index, local second-of-day) plus the
    absolute local day range ``first_day .. first_day + n_days``."""
    days = calendar.local_day(col_times)
    lsod = calendar.local_second_of_day(col_times)
    first_day = int(days[0])
    n_days = int(days[-1]) - first_day + 1
    return days - first_day, lsod, first_day, n_days


def _day_bounds(day_col: np.ndarray, n_days: int) -> np.ndarray:
    """Column bounds of each window day: day ``k`` is ``[b[k], b[k+1])``."""
    return np.searchsorted(day_col, np.arange(n_days + 1))


def _clip_prob(p: np.ndarray | float) -> np.ndarray:
    return np.clip(p, 0.0, 0.99)


class UsageModel:
    """Base class: handles the E(b) layout, stale rows and transforms.

    ``generate(key, col_times, calendar)`` takes a :class:`TruthStream`
    key and a contiguous run of the epoch-anchored round grid (see
    :func:`round_grid`); the same key gives the same activity for a
    column whichever run holds it.
    """

    channel: Channel = Channel.HOME
    #: addresses in E(b) that were active historically but never respond
    #: now (Trinocular's target lists are refreshed only quarterly, §2.2)
    stale_addresses: int = 0

    def _core_size(self) -> int:
        raise NotImplementedError

    def _generate_core(
        self, stream: TruthStream, col_times: np.ndarray, calendar: Calendar, out: np.ndarray
    ) -> None:
        """Fill ``out`` (all-False, ``[core, n_cols]``) with the core's activity."""
        raise NotImplementedError

    def _generate_core_reference(
        self, stream: TruthStream, col_times: np.ndarray, calendar: Calendar, out: np.ndarray
    ) -> None:
        """Day-by-day scalar twin of :meth:`_generate_core` (draw-free
        kinds share one implementation)."""
        self._generate_core(stream, col_times, calendar, out)

    def eb_size(self) -> int:
        """Number of addresses in E(b) (probed addresses)."""
        return min(self._core_size() + self.stale_addresses, BLOCK_SIZE)

    def generate(
        self, key: int | Sequence[int], col_times: np.ndarray, calendar: Calendar
    ) -> BlockTruth:
        """Build the block's ground truth on the given run of the round grid."""
        return self._build(key, col_times, calendar, self._generate_core)

    def generate_reference(
        self, key: int | Sequence[int], col_times: np.ndarray, calendar: Calendar
    ) -> BlockTruth:
        """:meth:`generate` through the per-day scalar generators (tests)."""
        return self._build(key, col_times, calendar, self._generate_core_reference)

    def _build(
        self,
        key: int | Sequence[int],
        col_times: np.ndarray,
        calendar: Calendar,
        core: Callable[[TruthStream, np.ndarray, Calendar, np.ndarray], None],
    ) -> BlockTruth:
        stream = TruthStream(key)
        m = self.eb_size()
        addresses = stream.lane(_PERMUTATION).permutation(BLOCK_SIZE)[:m].astype(np.int16)
        # one allocation: the stale rows stay all-False below the core
        active = np.zeros((m, col_times.size), dtype=bool)
        if col_times.size:
            core(stream, col_times, calendar, active[: self._core_size()])
        active = calendar.apply_transforms(active, col_times, stream.event_rng)
        return BlockTruth(addresses=addresses, active=active, col_times=col_times)


@dataclass(frozen=True)
class _Shift:
    """Units on between jittered daily start/end local times.

    A day's draws are ``n_units`` presence uniforms followed by the
    Box–Muller uniforms of the units' start, end (and weekend start)
    normals.
    """

    n_units: int
    presence: float
    start_hour: float
    start_jitter: float
    end_hour: float
    end_jitter: float
    workdays_only: bool
    weekend_start_hour: float | None = None

    @property
    def _n_normals(self) -> int:
        per_unit = 2 if self.weekend_start_hour is None else 3
        return 2 * -(-self.n_units * per_unit // 2)

    @property
    def width(self) -> int:
        return self.n_units + self._n_normals

    def days(
        self, u: np.ndarray, workday: np.ndarray, factor: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(present, start_s, end_s), each ``[n_days, n_units]``, from the
        days' uniforms ``u`` ``[n_days, width]``."""
        n = self.n_units
        p = _clip_prob(self.presence * np.minimum(factor, 1.25))
        present = u[:, :n] < p[:, None]
        if self.workdays_only:
            present &= workday[:, None]
        z = _normals(u[:, n:])
        start = (self.start_hour + self.start_jitter * z[:, :n]) * 3600.0
        end = (self.end_hour + self.end_jitter * z[:, n : 2 * n]) * 3600.0
        if self.weekend_start_hour is not None:
            early = (self.weekend_start_hour + self.start_jitter * z[:, 2 * n : 3 * n]) * 3600.0
            start = np.where(workday[:, None], start, early)
        end = np.maximum(end, start + 1800.0)  # at least half an hour on
        return present, start, end

    def generate(
        self,
        stream: TruthStream,
        col_times: np.ndarray,
        calendar: Calendar,
        channel: Channel,
        out: np.ndarray,
    ) -> None:
        """Each unit-day's on-columns found by binary search of the day's
        (increasing) local seconds, then painted as runs."""
        day_col, lsod, first_day, n_days = _day_layout(col_times, calendar)
        workday, factor = calendar.day_table(first_day, n_days, channel)
        u = stream.days(first_day, n_days, self.width)
        present, start, end = self.days(u, workday, factor)
        bounds = _day_bounds(day_col, n_days)
        lo = np.empty((n_days, self.n_units), dtype=np.int64)
        hi = np.empty((n_days, self.n_units), dtype=np.int64)
        for k in range(n_days):
            day = lsod[bounds[k] : bounds[k + 1]]
            lo[k] = np.searchsorted(day, start[k]) + bounds[k]
            hi[k] = np.searchsorted(day, end[k]) + bounds[k]
        on = (present & (lo < hi)).T
        base = np.arange(self.n_units)[:, None] * out.shape[1]
        _paint_runs(out, (lo.T + base)[on], (hi.T + base)[on])

    def generate_reference(
        self,
        stream: TruthStream,
        col_times: np.ndarray,
        calendar: Calendar,
        channel: Channel,
        out: np.ndarray,
    ) -> None:
        day_col, lsod, first_day, n_days = _day_layout(col_times, calendar)
        bounds = _day_bounds(day_col, n_days)
        for k in range(n_days):
            day = first_day + k
            workday = np.array([calendar.is_workday(day)])
            factor = np.array([calendar.activity_factor(day, channel)])
            u = stream.days(day, 1, self.width)
            present, start, end = (a[0] for a in self.days(u, workday, factor))
            for c in range(bounds[k], bounds[k + 1]):
                out[:, c] = present & (start <= lsod[c]) & (lsod[c] < end)


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

    def _shift(self) -> _Shift:
        return _Shift(
            n_units=self.n_desktops,
            presence=self.presence,
            start_hour=self.start_hour,
            start_jitter=0.6,
            end_hour=self.end_hour,
            end_jitter=1.0,
            workdays_only=True,
        )

    def _generate_core(
        self, stream: TruthStream, col_times: np.ndarray, calendar: Calendar, out: np.ndarray
    ) -> None:
        self._shift().generate(stream, col_times, calendar, self.channel, out[: self.n_desktops])
        out[self.n_desktops :] = True

    def _generate_core_reference(
        self, stream: TruthStream, col_times: np.ndarray, calendar: Calendar, out: np.ndarray
    ) -> None:
        desktops = out[: self.n_desktops]
        self._shift().generate_reference(stream, col_times, calendar, self.channel, desktops)
        out[self.n_desktops :] = True


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

    def _shift(self) -> _Shift:
        return _Shift(
            n_units=self.n_devices,
            presence=self.presence,
            start_hour=17.5,
            start_jitter=0.8,
            end_hour=23.5,
            end_jitter=0.7,
            workdays_only=False,
            weekend_start_hour=10.0,
        )

    def _generate_core(
        self, stream: TruthStream, col_times: np.ndarray, calendar: Calendar, out: np.ndarray
    ) -> None:
        self._shift().generate(stream, col_times, calendar, self.channel, out)

    def _generate_core_reference(
        self, stream: TruthStream, col_times: np.ndarray, calendar: Calendar, out: np.ndarray
    ) -> None:
        self._shift().generate_reference(stream, col_times, calendar, self.channel, out)


class DynamicPoolUsage(UsageModel):
    """An ISP pool assigning public addresses to active subscribers.

    Occupancy follows a smooth diurnal curve (trough ~4am, peak ~9pm
    local); address ``i`` is active while the pool occupancy exceeds its
    per-day threshold, which mimics paired pooling: subscribers hold an
    address for the session, and low-numbered pool slots fill first.
    A day's draws are the Box–Muller uniforms of its demand wobble and
    the slots' thresholds; each absolute week draws one quiet-week
    uniform.
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

    def _curve(self, lsod: np.ndarray) -> np.ndarray:
        phase = 2.0 * np.pi * (lsod / 86_400.0 - self.peak_hour / 24.0)
        return self.trough + (self.peak - self.trough) * (0.5 + 0.5 * np.cos(phase))

    def _days(
        self, stream: TruthStream, first_day: int, n_days: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """(demand scale ``[n_days]``, thresholds ``[n_days, pool]``)."""
        z = _normals(stream.days(first_day, n_days, 2 * -(-(self.pool_size + 1) // 2)))
        # occasional quiet weeks: demand collapses toward the trough
        # (local events we do not model); these lapses are what dilutes
        # diurnality over long observation windows (S3.2.1)
        weeks = np.floor_divide(np.arange(first_day, first_day + n_days), 7)
        quiet = stream.rows(_WEEKS, int(weeks[0]) - FIRST_WEEK, int(weeks[-1] - weeks[0]) + 1, 1)
        quiet = quiet[:, 0] < self.quiet_week_probability
        week_factor = np.where(quiet, 0.5, 1.0)[weeks - weeks[0]]
        scale = (1.0 + 0.05 * z[:, 0]) * week_factor
        base = (np.arange(self.pool_size) + 0.5) / self.pool_size
        thresholds = np.clip(base + 0.04 * z[:, 1 : self.pool_size + 1], 0.0, 1.0)
        return scale, thresholds

    def _generate_core(
        self, stream: TruthStream, col_times: np.ndarray, calendar: Calendar, out: np.ndarray
    ) -> None:
        day_col, lsod, first_day, n_days = _day_layout(col_times, calendar)
        _, factor = calendar.day_table(first_day, n_days, self.channel)
        scale, thresholds = self._days(stream, first_day, n_days)
        occupancy = np.clip(self._curve(lsod) * factor[day_col] * scale[day_col], 0.0, 1.0)
        thresholds = np.ascontiguousarray(thresholds.T)
        bounds = _day_bounds(day_col, n_days)
        for k in range(n_days):  # day by day: the whole-window gather thrashes the cache
            cols = slice(bounds[k], bounds[k + 1])
            np.less(thresholds[:, k : k + 1], occupancy[cols], out=out[:, cols])

    def _generate_core_reference(
        self, stream: TruthStream, col_times: np.ndarray, calendar: Calendar, out: np.ndarray
    ) -> None:
        day_col, lsod, first_day, n_days = _day_layout(col_times, calendar)
        curve = self._curve(lsod)
        bounds = _day_bounds(day_col, n_days)
        for k in range(n_days):
            day = first_day + k
            factor = calendar.activity_factor(day, self.channel)
            scale, thresholds = self._days(stream, day, 1)
            for c in range(bounds[k], bounds[k + 1]):
                occupancy = min(max(curve[c] * factor * scale[0], 0.0), 1.0)
                out[:, c] = thresholds[0] < occupancy


class ServerFarmUsage(UsageModel):
    """A dense block of always-on servers with rare maintenance windows.

    Maintenance windows arrive per UTC day: a day's draws are its window
    count (Poisson by inverse CDF, at most :attr:`slots` a day) and a
    (server, start offset) pair per slot.  A grid run also reads the
    days a window still open at its start began on (the
    ``maintenance_hours`` look-back).
    """

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

    @property
    def slots(self) -> int:
        """Most maintenance windows a day can hold."""
        lam = self.n_servers * self.maintenance_rate_per_day
        return int(lam + 6.0 * math.sqrt(lam)) + 4

    def _cols_per_window(self) -> int:
        return max(int(self.maintenance_hours * 3600.0 / ROUND_SECONDS), 1)

    def _windows(
        self, stream: TruthStream, first_day: int, n_days: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(count ``[n_days]``, server ``[n_days, slots]``, start column
        ``[n_days, slots]``) of the days' maintenance windows."""
        k = self.slots
        u = stream.days(first_day, n_days, 1 + 2 * k)
        lam = self.n_servers * self.maintenance_rate_per_day
        cdf = np.cumsum([math.exp(-lam) * lam**j / math.factorial(j) for j in range(k)])
        count = np.searchsorted(cdf, u[:, 0], side="right")
        server = (u[:, 1 : k + 1] * self.n_servers).astype(np.int64)
        day = np.arange(first_day, first_day + n_days, dtype=np.float64)[:, None]
        start = day * SECONDS_PER_DAY + u[:, k + 1 :] * SECONDS_PER_DAY
        return count, server, np.floor_divide(start, ROUND_SECONDS).astype(np.int64)

    def _lookback(self, col_times: np.ndarray) -> tuple[int, int, int]:
        """(first column, first UTC day, day count) whose windows reach the run."""
        c0, first, n_days = _utc_days(col_times)
        back = int(max(c0 - self._cols_per_window() + 1, 0) * ROUND_SECONDS // SECONDS_PER_DAY)
        return c0, back, n_days + first - back

    def _generate_core(
        self, stream: TruthStream, col_times: np.ndarray, calendar: Calendar, out: np.ndarray
    ) -> None:
        out[:] = True
        c0, first_day, n_days = self._lookback(col_times)
        count, server, start = self._windows(stream, first_day, n_days)
        used = np.arange(self.slots) < count[:, None]
        rows, lo = server[used], start[used] - c0
        width = self._cols_per_window()
        cols = lo[:, None] + np.arange(width)
        inside = (cols >= 0) & (cols < out.shape[1])
        out[np.broadcast_to(rows[:, None], cols.shape)[inside], cols[inside]] = False

    def _generate_core_reference(
        self, stream: TruthStream, col_times: np.ndarray, calendar: Calendar, out: np.ndarray
    ) -> None:
        out[:] = True
        c0, first_day, n_days = _utc_days(col_times)
        width = self._cols_per_window()
        for d in range(first_day + n_days):  # every day from the epoch
            count, server, start = self._windows(stream, d, 1)
            for j in range(int(count[0])):
                lo = max(int(start[0, j]) - c0, 0)
                hi = max(int(start[0, j]) - c0 + width, 0)
                out[server[0, j], lo:hi] = False


class NatGatewayUsage(UsageModel):
    """A handful of always-on NAT routers; human activity is invisible."""

    channel = Channel.HOME

    def __init__(self, n_routers: int = 4, stale_addresses: int = 2) -> None:
        self.n_routers = n_routers
        self.stale_addresses = stale_addresses

    def _core_size(self) -> int:
        return self.n_routers

    def _generate_core(
        self, stream: TruthStream, col_times: np.ndarray, calendar: Calendar, out: np.ndarray
    ) -> None:
        out[:] = True


class SparseUsage(UsageModel):
    """Intermittently used addresses with no daily rhythm (telegraph).

    Each address alternates on/off spans with exponential lengths of
    mean ``mean_on_days`` / ``mean_off_days``, from a fair-coin state at
    the epoch.  The spans restart at every UTC midnight (exact, since
    exponential spans are memoryless): a day's draws are
    ``spans_per_day + 1`` standard exponentials per address; a day that
    starts on uses the first ``spans_per_day`` of them and a day that
    starts off the last, and an address that spends them all holds its
    state to the day's end.  The one-draw shift decorrelates the two
    start states, so their paths meet within days (see :meth:`_state_at`).
    """

    channel = Channel.HOME
    #: days drawn ahead of a window, with it, to find its start states
    LEAD_DAYS = 6

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

    @property
    def spans_per_day(self) -> int:
        """Span draws per address and day (a six-sigma day at the fast rate)."""
        if min(self.mean_on_days, self.mean_off_days) <= 0:
            raise ValueError("span means must be positive")
        rate = 1.0 / min(self.mean_on_days, self.mean_off_days)
        return int(rate + 6.0 * math.sqrt(rate)) + 4

    def _scales(self) -> tuple[np.ndarray, np.ndarray]:
        """Span ``j``'s mean in seconds for a day that starts off, and on."""
        first = np.arange(self.spans_per_day) % 2 == 0
        on, off = self.mean_on_days * SECONDS_PER_DAY, self.mean_off_days * SECONDS_PER_DAY
        return np.where(first, off, on), np.where(first, on, off)

    def _flips(
        self, stream: TruthStream, first_day: int, n_days: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Flip times of the days from either start state.

        Returns ``(ends, n_flips)``: ``ends[j, s, d, i]`` is the end of
        span ``j`` (seconds into day ``d``) of address ``i`` starting the
        day in state ``s`` (0 off, 1 on), and ``n_flips[s, d, i]`` how
        many of those ends fall inside the day.  Spans lead the layout
        so the running sums advance whole days and addresses at once.
        """
        k = self.spans_per_day
        u = stream.days(first_day, n_days, self.n_addresses * (k + 1))
        spans = -np.log1p(-u).reshape(n_days, self.n_addresses, k + 1).transpose(2, 0, 1)
        off_first, on_first = self._scales()
        ends = np.empty((k, 2, n_days, self.n_addresses))
        np.multiply(spans[1:], off_first[:, None, None], out=ends[:, 0])
        np.multiply(spans[:-1], on_first[:, None, None], out=ends[:, 1])
        for j in range(1, k):  # the running sums; numpy's cumsum over axis 0 is slower
            np.add(ends[j - 1], ends[j], out=ends[j])
        return ends, np.add.reduce(ends < SECONDS_PER_DAY, axis=0, dtype=np.int8)

    def _initial(self, stream: TruthStream) -> np.ndarray:
        """Every address's state at the epoch."""
        return stream.rows(_INITIAL, 0, 1, self.n_addresses)[0] < 0.5

    def _state_at(self, stream: TruthStream, day: int, odd: np.ndarray) -> np.ndarray:
        """Every address's state at the start of UTC ``day``.

        ``odd[s, d]`` are the flip parities, from either start state, of
        the days just before ``day`` (already drawn).  Coupling from the
        past: compose the day maps (start state -> end state) backwards
        from ``day`` until every address's composition is constant — its
        state no longer depends on anything earlier — drawing earlier
        days in growing chunks, and fall back on the epoch state for an
        address that never coalesces.  Exactly the forward scan's
        answer, at the cost of a few days' draws.
        """
        const = np.zeros(self.n_addresses, dtype=bool)
        value = np.zeros(self.n_addresses, dtype=bool)  # the constant, or the flip parity
        hi, chunk = day, 2 * max(odd.shape[1], 4)
        while True:
            for d in range(odd.shape[1] - 1, -1, -1):
                value = np.where(const, value, value ^ odd[0, d])
                const |= odd[0, d] != odd[1, d]  # both start states end alike
            hi -= odd.shape[1]
            if hi <= 0 or const.all():
                return np.where(const, value, value ^ self._initial(stream))
            lo = max(hi - chunk, 0)
            odd = self._flips(stream, lo, hi - lo)[1] % 2 == 1
            chunk *= 2

    def _generate_core(
        self, stream: TruthStream, col_times: np.ndarray, calendar: Calendar, out: np.ndarray
    ) -> None:
        c0, first_day, n_days = _utc_days(col_times)
        lead = min(first_day, self.LEAD_DAYS)
        ends, n_flips = self._flips(stream, first_day - lead, lead + n_days)
        odd = n_flips % 2 == 1
        state = self._state_at(stream, first_day, odd[:, :lead])
        # each day's start state, then its flips from that state
        starts = np.empty((n_days, self.n_addresses), dtype=bool)
        for d in range(n_days):
            starts[d] = state
            state = state ^ np.where(state, odd[1, lead + d], odd[0, lead + d])
        day_ends = np.where(starts, ends[:, 1, lead:], ends[:, 0, lead:])
        day_ends += (first_day + np.arange(n_days, dtype=np.float64))[:, None] * SECONDS_PER_DAY
        n_used = np.where(starts, n_flips[1, lead:], n_flips[0, lead:])
        used = np.arange(ends.shape[0])[:, None, None] < n_used
        # every address's flips in time order: address, then day, then span
        flips = day_ends.transpose(2, 1, 0)[used.transpose(2, 1, 0)]
        _paint_telegraph(out, c0, starts[0], flips, n_used.sum(axis=0))

    def _generate_core_reference(
        self, stream: TruthStream, col_times: np.ndarray, calendar: Calendar, out: np.ndarray
    ) -> None:
        c0, first_day, n_days = _utc_days(col_times)
        c1 = c0 + out.shape[1]
        k = self.spans_per_day
        state = self._initial(stream).tolist()
        since = [0.0] * self.n_addresses  # when each address's current span began
        for day in range(first_day + n_days):  # forward from the epoch
            spans = -np.log1p(-stream.days(day, 1, self.n_addresses * (k + 1)))[0]
            for i in range(self.n_addresses):
                first = i * (k + 1) + (0 if state[i] else 1)
                t = 0.0
                for j in range(k):
                    mean = self.mean_on_days if state[i] else self.mean_off_days
                    t += spans[first + j] * (mean * SECONDS_PER_DAY)
                    if t >= SECONDS_PER_DAY:
                        break
                    flip = day * SECONDS_PER_DAY + t
                    if state[i]:
                        _paint_span(out, i, c0, c1, since[i], flip)
                    since[i] = flip
                    state[i] = not state[i]
        for i in range(self.n_addresses):
            if state[i]:
                _paint_span(out, i, c0, c1, since[i], c1 * ROUND_SECONDS)


def _paint_runs(out: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
    """Set ``out`` (C-contiguous) to True exactly on the flat index runs
    ``[lo[j], hi[j])``, which are sorted with ``hi[j] <= lo[j + 1]``."""
    edges = np.empty(2 * lo.size + 2, dtype=np.int64)
    edges[0], edges[-1] = 0, out.size
    edges[1:-1:2], edges[2:-1:2] = lo, hi
    runs = np.zeros(edges.size - 1, dtype=bool)
    runs[1::2] = True
    out[:] = np.repeat(runs, np.diff(edges)).reshape(out.shape)


def _paint_span(out: np.ndarray, row: int, c0: int, c1: int, on_s: float, off_s: float) -> None:
    """Mark the columns an on-span ``[on_s, off_s)`` touches."""
    lo = max(int(on_s // ROUND_SECONDS), c0)
    hi = min(int(off_s // ROUND_SECONDS) + 1, c1)
    if lo < hi:
        out[row, lo - c0 : hi - c0] = True


def _paint_telegraph(
    out: np.ndarray, c0: int, state0: np.ndarray, flips: np.ndarray, counts: np.ndarray
) -> None:
    """Paint telegraph rows from their start states and sorted flips.

    ``flips`` holds every row's flip times, row-major, ``counts[i]`` of
    them for row ``i``, and row ``i`` starts the run in state
    ``state0[i]``.  Its spans run between consecutive flips (from the
    run's first column to its last); an on-span ``[a, b)`` marks
    columns ``a // round`` through ``b // round``.
    """
    n_rows, n_cols = out.shape
    # per row, the span boundaries as columns: first column, flips, last column
    n_bounds = counts + 2
    first = np.cumsum(n_bounds) - n_bounds
    last = first + n_bounds - 1
    bounds = np.empty(int(n_bounds.sum()), dtype=np.int64)
    inner = np.ones(bounds.size, dtype=bool)
    inner[first] = inner[last] = False
    bounds[first], bounds[last] = c0, c0 + n_cols - 1
    bounds[inner] = np.floor_divide(flips, ROUND_SECONDS).astype(np.int64)
    starts = np.ones(bounds.size, dtype=bool)
    starts[last] = False  # span j runs from boundary j to boundary j + 1
    row = np.repeat(np.arange(n_rows), n_bounds)
    index = np.arange(bounds.size) - first[row]
    on = starts & ((index % 2 == 0) == state0[row])
    lo = np.maximum(bounds[on], c0) - c0
    hi = np.minimum(bounds[np.flatnonzero(on) + 1], c0 + n_cols - 1) + 1 - c0
    keep = lo < hi
    base = row[on][keep] * n_cols
    lo, hi = lo[keep] + base, hi[keep] + base
    if lo.size == 0:
        return
    # a row's on-spans are sorted and overlap their predecessor by at
    # most one column: merge them, then paint
    gap = lo[1:] > hi[:-1]
    _paint_runs(out, lo[np.concatenate(([True], gap))], hi[np.concatenate((gap, [True]))])


class FirewalledUsage(UsageModel):
    """Historically responsive space that now answers nothing."""

    channel = Channel.HOME

    def __init__(self, eb_addresses: int = 16) -> None:
        self._eb = eb_addresses
        self.stale_addresses = 0

    def _core_size(self) -> int:
        return self._eb

    def _generate_core(
        self, stream: TruthStream, col_times: np.ndarray, calendar: Calendar, out: np.ndarray
    ) -> None:
        """Nothing answers: ``out`` stays all-False."""
