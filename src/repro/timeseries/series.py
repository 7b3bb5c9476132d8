"""Regularly and irregularly sampled time-series containers.

The analysis pipeline moves between three time bases:

* probe rounds (660 s, the Trinocular cadence),
* an hourly grid used for trend extraction, and
* UTC days used for swing and change aggregation.

:class:`TimeSeries` stores ``(times, values)`` with times in seconds since
a dataset epoch and provides the resampling and windowing operations the
pipeline needs.  Values may contain NaN (e.g. before a block's first full
reconstruction).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import numpy as np

SECONDS_PER_DAY = 86_400
SECONDS_PER_HOUR = 3_600

__all__ = [
    "SECONDS_PER_DAY",
    "SECONDS_PER_HOUR",
    "BlockMatrix",
    "TimeSeries",
    "day_index",
    "group_block_matrices",
    "second_of_day",
    "utc_datetime",
]


def day_index(times: np.ndarray | float, epoch_offset: float = 0.0) -> np.ndarray:
    """Return the UTC day number for each timestamp.

    ``epoch_offset`` is the second-of-day of the dataset epoch; pass it when
    the epoch does not fall on a UTC midnight.
    """
    return np.floor((np.asarray(times, dtype=np.float64) + epoch_offset) / SECONDS_PER_DAY).astype(np.int64)


def second_of_day(times: np.ndarray | float, epoch_offset: float = 0.0) -> np.ndarray:
    """Return the second-of-UTC-day for each timestamp."""
    return np.mod(np.asarray(times, dtype=np.float64) + epoch_offset, SECONDS_PER_DAY)


def utc_datetime(epoch: datetime, seconds: float) -> datetime:
    """Return ``epoch + seconds`` as a timezone-aware UTC datetime."""
    if epoch.tzinfo is None:
        epoch = epoch.replace(tzinfo=timezone.utc)
    return epoch + timedelta(seconds=float(seconds))


@dataclass(frozen=True)
class TimeSeries:
    """An ordered series of ``(time, value)`` samples.

    Times are float seconds since the owning dataset's epoch and must be
    strictly increasing.  The container is immutable; every operation
    returns a new series.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        if times.ndim != 1 or values.ndim != 1:
            raise ValueError("times and values must be one-dimensional")
        if times.shape != values.shape:
            raise ValueError(
                f"times and values must have equal length, got {times.shape} and {values.shape}"
            )
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    # ------------------------------------------------------------------
    # basics
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.times.size)

    @property
    def is_empty(self) -> bool:
        return self.times.size == 0

    @property
    def duration(self) -> float:
        """Span in seconds between the first and last sample."""
        if self.times.size < 2:
            return 0.0
        return float(self.times[-1] - self.times[0])

    def with_values(self, values: np.ndarray) -> "TimeSeries":
        """Return a series with the same times and new values."""
        return TimeSeries(self.times, values)

    def dropna(self) -> "TimeSeries":
        """Return the series without NaN samples."""
        keep = ~np.isnan(self.values)
        return TimeSeries(self.times[keep], self.values[keep])

    def slice_time(self, start: float, stop: float) -> "TimeSeries":
        """Return samples with ``start <= time < stop``."""
        lo = np.searchsorted(self.times, start, side="left")
        hi = np.searchsorted(self.times, stop, side="left")
        return TimeSeries(self.times[lo:hi], self.values[lo:hi])

    # ------------------------------------------------------------------
    # resampling
    # ------------------------------------------------------------------
    def resample_mean(self, bin_seconds: float, *, min_count: int = 1) -> "TimeSeries":
        """Resample to a regular grid using the mean of samples per bin.

        Output times are bin centers.  Bins with fewer than ``min_count``
        non-NaN samples become NaN.
        """
        if self.is_empty:
            return self
        t0 = np.floor(self.times[0] / bin_seconds) * bin_seconds
        bins = ((self.times - t0) / bin_seconds).astype(np.int64)
        n_bins = int(bins[-1]) + 1
        valid = ~np.isnan(self.values)
        sums = np.bincount(bins[valid], weights=self.values[valid], minlength=n_bins)
        counts = np.bincount(bins[valid], minlength=n_bins)
        with np.errstate(invalid="ignore", divide="ignore"):
            means = np.where(counts >= min_count, sums / np.maximum(counts, 1), np.nan)
        centers = t0 + (np.arange(n_bins) + 0.5) * bin_seconds
        return TimeSeries(centers, means)

    def resample_hourly(self) -> "TimeSeries":
        """Resample to the hourly grid used by trend extraction."""
        return self.resample_mean(SECONDS_PER_HOUR)

    def interpolate_nan(self) -> "TimeSeries":
        """Linearly interpolate interior NaN runs; edge NaNs are held flat."""
        values = self.values.copy()
        nans = np.isnan(values)
        if not nans.any():
            return self
        if nans.all():
            return self
        good = ~nans
        values[nans] = np.interp(self.times[nans], self.times[good], values[good])
        return TimeSeries(self.times, values)

    # ------------------------------------------------------------------
    # daily windows
    # ------------------------------------------------------------------
    def daily_groups(self, epoch_offset: float = 0.0) -> dict[int, np.ndarray]:
        """Group sample values by UTC day index (NaNs removed per day)."""
        days = day_index(self.times, epoch_offset)
        groups: dict[int, np.ndarray] = {}
        if days.size == 0:
            return groups
        boundaries = np.flatnonzero(np.diff(days)) + 1
        starts = np.concatenate(([0], boundaries))
        stops = np.concatenate((boundaries, [days.size]))
        for lo, hi in zip(starts, stops):
            vals = self.values[lo:hi]
            vals = vals[~np.isnan(vals)]
            if vals.size:
                groups[int(days[lo])] = vals
        return groups

    def daily_swing(self, epoch_offset: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(day_indices, max - min per UTC day)``, skipping empty days."""
        groups = self.daily_groups(epoch_offset)
        days = np.array(sorted(groups), dtype=np.int64)
        swings = np.array([groups[d].max() - groups[d].min() for d in days], dtype=np.float64)
        return days, swings

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def zscore(self) -> "TimeSeries":
        """Return the z-normalized series (constant series become zeros)."""
        vals = self.values
        good = ~np.isnan(vals)
        if not good.any():
            return self
        mean = float(np.mean(vals[good]))
        std = float(np.std(vals[good]))
        if std == 0.0:
            return self.with_values(np.where(good, 0.0, np.nan))
        return self.with_values((vals - mean) / std)

    def pearson(self, other: "TimeSeries") -> float:
        """Pearson correlation against another series on the same grid."""
        if len(self) != len(other) or not np.allclose(self.times, other.times):
            raise ValueError("series must share a time grid for correlation")
        good = ~np.isnan(self.values) & ~np.isnan(other.values)
        a = self.values[good]
        b = other.values[good]
        if a.size < 2 or np.std(a) == 0 or np.std(b) == 0:
            return float("nan")
        return float(np.corrcoef(a, b)[0, 1])


@dataclass(frozen=True)
class BlockMatrix:
    """Count series of many blocks stacked on one shared sample grid.

    ``times`` is the shared ``(n,)`` grid and ``values`` a ``(B, n)`` matrix
    whose row ``i`` is one block's series.  This is the unit of work of the
    batched analysis plane: the funnel kernels run across all rows at once,
    and every row operation is defined so that it is bit-identical to the
    corresponding :class:`TimeSeries` method applied to :meth:`row` —
    flattened ``bincount`` resampling accumulates each row's samples in the
    same order as the per-row call, and segment max/min use exact,
    order-free reductions.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        if times.ndim != 1 or values.ndim != 2:
            raise ValueError("times must be (n,) and values (B, n)")
        if values.shape[1] != times.size:
            raise ValueError(
                f"values has {values.shape[1]} columns for {times.size} times"
            )
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_series(cls, series: "list[TimeSeries] | tuple[TimeSeries, ...]") -> "BlockMatrix":
        """Stack series that share one sample grid into a matrix."""
        if not series:
            raise ValueError("need at least one series to form a matrix")
        times = series[0].times
        for s in series[1:]:
            if s.times.size != times.size or not np.array_equal(s.times, times):
                raise ValueError("all series must share one sample grid")
        return cls(times, np.stack([s.values for s in series]))

    def __len__(self) -> int:
        return int(self.values.shape[0])

    @property
    def n_samples(self) -> int:
        return int(self.times.size)

    def row(self, i: int) -> TimeSeries:
        """Block ``i``'s series as a :class:`TimeSeries`."""
        return TimeSeries(self.times, self.values[i])

    def take(self, rows: "np.ndarray | list[int] | tuple[int, ...]") -> "BlockMatrix":
        """Sub-matrix of the given row indices (same grid)."""
        return BlockMatrix(self.times, self.values[np.asarray(rows, dtype=np.intp)])

    def resample_mean(self, bin_seconds: float, *, min_count: int = 1) -> "BlockMatrix":
        """Row-wise :meth:`TimeSeries.resample_mean` in one bincount pass.

        The per-bin sums use one flattened ``bincount`` over
        ``row * n_bins + bin``, which adds each row's samples in the same
        left-to-right order as the per-row call — bit-identical results.
        """
        if self.times.size == 0:
            return self
        t0 = np.floor(self.times[0] / bin_seconds) * bin_seconds
        bins = ((self.times - t0) / bin_seconds).astype(np.int64)
        n_bins = int(bins[-1]) + 1
        n_rows = self.values.shape[0]
        valid = ~np.isnan(self.values)
        flat = (np.arange(n_rows)[:, None] * n_bins + bins[None, :])[valid]
        sums = np.bincount(
            flat, weights=self.values[valid], minlength=n_rows * n_bins
        ).reshape(n_rows, n_bins)
        counts = np.bincount(flat, minlength=n_rows * n_bins).reshape(n_rows, n_bins)
        with np.errstate(invalid="ignore", divide="ignore"):
            means = np.where(counts >= min_count, sums / np.maximum(counts, 1), np.nan)
        centers = t0 + (np.arange(n_bins) + 0.5) * bin_seconds
        return BlockMatrix(centers, means)

    def interpolate_nan(self) -> "BlockMatrix":
        """Row-wise :meth:`TimeSeries.interpolate_nan` (same ``np.interp`` calls)."""
        values = self.values.copy()
        for row in values:
            nans = np.isnan(row)
            if not nans.any() or nans.all():
                continue
            good = ~nans
            row[nans] = np.interp(self.times[nans], self.times[good], row[good])
        return BlockMatrix(self.times, values)

    def daily_swings(self, epoch_offset: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
        """Per-day max - min for every row in one segmented reduction.

        Returns ``(day_indices, swings)`` where ``swings`` is ``(B, n_days)``
        with NaN marking days where a row has no finite samples (the per-row
        :meth:`TimeSeries.daily_swing` drops those days).  ``np.fmax`` /
        ``np.fmin`` skip NaNs and max/min are exact, so finite entries equal
        the per-row results bit for bit.
        """
        days = day_index(self.times, epoch_offset)
        if days.size == 0:
            return days, np.empty((self.values.shape[0], 0), dtype=np.float64)
        boundaries = np.flatnonzero(np.diff(days)) + 1
        starts = np.concatenate(([0], boundaries))
        highs = np.fmax.reduceat(self.values, starts, axis=1)
        lows = np.fmin.reduceat(self.values, starts, axis=1)
        return days[starts], highs - lows


def group_block_matrices(
    series: "list[TimeSeries] | tuple[TimeSeries, ...]",
) -> list[tuple[tuple[int, ...], BlockMatrix]]:
    """Group series sharing an identical sample grid into matrix batches.

    Returns ``(indices, matrix)`` pairs in first-seen order; every input
    series lands in exactly one group.  Campaign blocks share one grid in
    practice, so this is normally a single group, but differing grids (e.g.
    blocks with per-block default grids) batch separately and still get
    per-row-identical results.
    """
    groups: dict[bytes, list[int]] = {}
    for i, s in enumerate(series):
        groups.setdefault(s.times.tobytes(), []).append(i)
    return [
        (tuple(idxs), BlockMatrix.from_series([series[i] for i in idxs]))
        for idxs in groups.values()
    ]
