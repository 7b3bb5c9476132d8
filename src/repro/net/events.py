"""Human-activity events and the per-block calendar.

The paper detects changes caused by work-from-home orders, public
holidays, curfews, and distinguishes them from network outages and ISP
renumbering (§2.6, §4).  Since no news archive is available offline, the
world model *schedules* such events explicitly; detection experiments then
score themselves against this exact ground truth (a stronger version of
the paper's manual news-matching in §3.6).

Two kinds of events exist:

* **activity events** (:class:`WorkFromHome`, :class:`Holiday`,
  :class:`Curfew`) scale the day-by-day occupancy that usage models draw
  from, per channel (workplace / home / dynamic pool);
* **truth transforms** (:class:`Outage`, :class:`Renumbering`,
  :class:`Migration`) rewrite the generated ground-truth activity matrix
  directly — they model network causes, not human ones.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from typing import Callable

import numpy as np

__all__ = [
    "Calendar",
    "Channel",
    "Curfew",
    "Event",
    "Holiday",
    "Migration",
    "Outage",
    "ServiceWindow",
    "Renumbering",
    "WorkFromHome",
]

SECONDS_PER_DAY = 86_400


class Channel(enum.Enum):
    """Which population a usage model draws from."""

    WORK = "work"
    HOME = "home"
    POOL = "pool"


@dataclass(frozen=True)
class Event:
    """Base event: no activity effect, no truth transform."""

    def activity_factor(self, day_date: date, channel: Channel) -> float:
        return 1.0

    def is_holiday(self, day_date: date) -> bool:
        return False

    def transform(
        self, truth: np.ndarray, col_times: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        return truth


@dataclass(frozen=True)
class WorkFromHome(Event):
    """A work-from-home shift starting on ``start``.

    Workplace occupancy ramps down to ``work_factor`` over ``ramp_days``;
    dynamic pools shrink mildly (reduced mobility), home activity grows a
    little.  Mirrors the paper's Figure 1 and the §3.6 WFH ground truth.
    """

    start: date
    work_factor: float = 0.10
    pool_factor: float = 0.55
    home_factor: float = 1.10
    ramp_days: int = 4
    end: date | None = None  # None = persists to end of data

    def _progress(self, day_date: date) -> float:
        """0 before the event, 1 once fully in effect."""
        if day_date < self.start:
            return 0.0
        if self.end is not None and day_date > self.end:
            return 0.0
        elapsed = (day_date - self.start).days
        if self.ramp_days <= 0:
            return 1.0
        return min(1.0, (elapsed + 1) / self.ramp_days)

    def activity_factor(self, day_date: date, channel: Channel) -> float:
        p = self._progress(day_date)
        if p == 0.0:
            return 1.0
        target = {
            Channel.WORK: self.work_factor,
            Channel.HOME: self.home_factor,
            Channel.POOL: self.pool_factor,
        }[channel]
        return 1.0 + (target - 1.0) * p


@dataclass(frozen=True)
class Holiday(Event):
    """One or more non-working days (national holiday, festival).

    Workplaces close entirely (handled via :meth:`is_holiday`); dynamic
    pools shrink modestly (travel, businesses shut), which is what makes
    multi-day festivals such as Spring Festival visible in pool-dominated
    regions (paper §4.2).
    """

    first: date
    days: int = 1
    pool_factor: float = 0.80
    home_factor: float = 1.05
    name: str = ""

    def is_holiday(self, day_date: date) -> bool:
        return self.first <= day_date < self.first + timedelta(days=self.days)

    def activity_factor(self, day_date: date, channel: Channel) -> float:
        if not self.is_holiday(day_date):
            return 1.0
        if channel is Channel.POOL:
            return self.pool_factor
        if channel is Channel.HOME:
            return self.home_factor
        return 1.0  # WORK handled by is_holiday -> non-workday


@dataclass(frozen=True)
class Curfew(Event):
    """A government-mandated stay-home period suppressing all channels."""

    first: date
    days: int = 1
    work_factor: float = 0.15
    pool_factor: float = 0.55
    home_factor: float = 1.05
    name: str = ""

    def _active(self, day_date: date) -> bool:
        return self.first <= day_date < self.first + timedelta(days=self.days)

    def activity_factor(self, day_date: date, channel: Channel) -> float:
        if not self._active(day_date):
            return 1.0
        return {
            Channel.WORK: self.work_factor,
            Channel.HOME: self.home_factor,
            Channel.POOL: self.pool_factor,
        }[channel]


@dataclass(frozen=True)
class Outage(Event):
    """A network outage: every address is unreachable for an interval.

    Times are seconds since the world epoch.  Outages are short (minutes
    to hours, paper §2.6) and must be *filtered out* by change analysis.
    """

    start_s: float
    end_s: float

    def transform(
        self, truth: np.ndarray, col_times: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        mask = (col_times >= self.start_s) & (col_times < self.end_s)
        if mask.any():
            truth = truth.copy()
            truth[:, mask] = False
        return truth


@dataclass(frozen=True)
class Renumbering(Event):
    """ISP renumbering: users move to different addresses in the block.

    Activity stops at ``time_s``, then resumes after ``gap_s`` on
    addresses shifted by ``shift`` last-octet positions — the closely
    paired down/up change signature of §2.6 and Appendix B.1.
    """

    time_s: float
    gap_s: float = 6 * 3600.0
    shift: int = 64

    def transform(
        self, truth: np.ndarray, col_times: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        after_gap = col_times >= self.time_s + self.gap_s
        in_gap = (col_times >= self.time_s) & ~after_gap
        truth = truth.copy()
        truth[:, in_gap] = False
        if after_gap.any():
            truth[:, after_gap] = np.roll(truth[:, after_gap], self.shift, axis=0)
        return truth


@dataclass(frozen=True)
class ServiceWindow(Event):
    """The block's service exists only within ``[start_s, end_s)``.

    Models target-list churn: allocations that come online mid-stream,
    ISPs that migrate customers behind CG-NAT and leave the space dark,
    and similar slow turnover.  This is what makes the change-sensitive
    set churn between quarters (§3.4) and why long windows find fewer
    diurnal blocks than short ones (§3.2.1).
    """

    start_s: float = 0.0
    end_s: float = float("inf")

    def transform(
        self, truth: np.ndarray, col_times: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        outside = (col_times < self.start_s) | (col_times >= self.end_s)
        if outside.any():
            truth = truth.copy()
            truth[:, outside] = False
        return truth


@dataclass(frozen=True)
class Migration(Event):
    """Permanent move of the block's users elsewhere (the VPN of B.2)."""

    time_s: float
    residual_fraction: float = 0.02

    def transform(
        self, truth: np.ndarray, col_times: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        mask = col_times >= self.time_s
        if not mask.any():
            return truth
        truth = truth.copy()
        keep = rng.random(truth.shape[0]) < self.residual_fraction
        truth[np.ix_(~keep, np.flatnonzero(mask))] = False
        return truth


@dataclass(frozen=True)
class Calendar:
    """Per-block time base: epoch, timezone, weekends, holidays, events.

    The epoch is a UTC midnight ``datetime``; all pipeline times are
    seconds since that epoch.  Human activity follows *local* time, so
    day/workday queries convert with ``tz_hours``.
    """

    epoch: datetime
    tz_hours: float = 0.0
    events: tuple[Event, ...] = ()
    weekend: tuple[int, ...] = (5, 6)  # Monday=0 .. Sunday=6

    def __post_init__(self) -> None:
        epoch = self.epoch
        if epoch.tzinfo is None:
            epoch = epoch.replace(tzinfo=timezone.utc)
        if epoch.hour or epoch.minute or epoch.second or epoch.microsecond:
            raise ValueError("calendar epoch must be a UTC midnight")
        object.__setattr__(self, "epoch", epoch)

    # -- conversions ---------------------------------------------------
    @property
    def tz_seconds(self) -> float:
        return self.tz_hours * 3600.0

    def local_day(self, times: np.ndarray | float) -> np.ndarray:
        """Local-calendar day index for epoch-relative seconds."""
        return np.floor(
            (np.asarray(times, dtype=np.float64) + self.tz_seconds) / SECONDS_PER_DAY
        ).astype(np.int64)

    def local_second_of_day(self, times: np.ndarray | float) -> np.ndarray:
        return np.mod(
            np.asarray(times, dtype=np.float64) + self.tz_seconds, SECONDS_PER_DAY
        )

    def date_of_day(self, day: int) -> date:
        return (self.epoch + timedelta(days=int(day))).date()

    def day_of_date(self, when: date) -> int:
        return (when - self.epoch.date()).days

    def seconds_of_date(self, when: date, local_hour: float = 0.0) -> float:
        """Epoch-relative seconds of a local time on a local date."""
        day = self.day_of_date(when)
        return day * SECONDS_PER_DAY + local_hour * 3600.0 - self.tz_seconds

    # -- schedule queries ----------------------------------------------
    def weekday(self, day: int) -> int:
        return (self.epoch.weekday() + int(day)) % 7

    def is_weekend(self, day: int) -> bool:
        return self.weekday(day) in self.weekend

    def is_holiday(self, day: int) -> bool:
        d = self.date_of_day(day)
        return any(ev.is_holiday(d) for ev in self.events)

    def is_workday(self, day: int) -> bool:
        return not self.is_weekend(day) and not self.is_holiday(day)

    def activity_factor(self, day: int, channel: Channel) -> float:
        d = self.date_of_day(day)
        factor = 1.0
        for ev in self.events:
            factor *= ev.activity_factor(d, channel)
        return factor

    # -- vectorized precomputation for usage models ---------------------
    def day_table(
        self, first_day: int, n_days: int, channel: Channel
    ) -> tuple[np.ndarray, np.ndarray]:
        """Arrays ``(workday[bool], factor[float])`` for a run of days."""
        days = range(first_day, first_day + n_days)
        workday = np.array([self.is_workday(d) for d in days], dtype=bool)
        factor = np.array([self.activity_factor(d, channel) for d in days])
        return workday, factor

    def apply_transforms(
        self,
        truth: np.ndarray,
        col_times: np.ndarray,
        event_rng: Callable[[int], np.random.Generator],
    ) -> np.ndarray:
        """Run all truth transforms (outages, renumbering, migration).

        ``event_rng(i)`` is the ``i``-th event's own generator, so an
        event's draws (``Migration``'s residual users) do not depend on
        the window: every transform acts on each column alone or on
        those row draws."""
        for i, ev in enumerate(self.events):
            truth = ev.transform(truth, col_times, event_rng(i))
        return truth
