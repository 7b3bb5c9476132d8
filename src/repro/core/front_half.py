"""The columnar front half: repair, combine and reconstruct from lane rounds.

:meth:`LaneBlock.reconstruct` gives one block's :class:`Reconstruction`
straight from the lane kernel's per-round probe counts ``k`` and reply
flags ``hit`` (:class:`~repro.net.prober.LaneRounds`).  The result is
byte-identical to assembling every lane's probe log and running 1-loss
repair, the observer merge and hold-last-state reconstruction on the logs
(:func:`repro.datasets.builder.reconstruct_logs`, the oracle), but no
per-probe log, merged stream or sorted copy is ever built.  Two
identities stand in for them (docs/algorithms.md §18):

* **repair is a stride** — a lane's cursor walks the probe order
  cyclically and never resets, so probes ``i`` and ``i + m`` of a lane
  hit the same address and 101 -> 111 repair is
  ``r[i - m] & ~r[i] & r[i + m]`` on the lane's own result vector;
* **the count is an interval count** — the hold-last-state count at
  grid time ``t`` is the number of positive probes ``P`` with
  ``t_P <= t < t_next(P)``, where ``t_next(P)`` is the time of the next
  probe of the same address in merged order (equal times order by
  observer index, as the stable merge orders them).  In ``P``'s own lane
  that probe is ``i + m``; in another lane it is found by counting that
  lane's earlier probes and stepping to the next index with the right
  stride residue.  Only grid indices are compared, never times: the
  grid index is monotone in time, so the first grid time at or after
  ``t_next(P)`` is the least over the candidates' grid indices.

Both run in round units where they can.  The lanes of a block share
the 660 s round step, which is also the sample grid's, and each lane has
a fixed phase.  When no grid time falls inside a lane's rounds, a
probe's grid index is its round plus the index of the lane's first
round, so one ``np.repeat`` builds the lane's table of grid indices.
When two lanes' rounds never interleave (the catalog's site phases are
102 s or more apart and their rounds last at most 42 s), how many of
lane ``b``'s probes merge before a probe of lane ``a``'s round ``r`` is
``b``'s probe count up to round ``r + c`` for one constant ``c``: a
single gather.  Any other lane or pair works from explicit send times.

Probe times are ``round_start + p * spacing`` in whole seconds, which is
exactly what the logs' sequential ``cumsum`` gives only when every round
start and the spacing are whole numbers (below 2**53).
:meth:`LaneBlock.of` declines a block with any other lane, and the
caller takes the log route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, TypeVar

import numpy as np

from ..net.prober import LaneRounds, ProbeLogs
from ..timeseries.series import TimeSeries
from .reconstruction import Reconstruction
from .stages import StageContext

__all__ = ["LaneBlock", "SampleGrid"]

#: the send time of an address that is never probed: later than every
#: probe and grid time
_NEVER = 2**62
#: whole-second times below this are exact float64 sums
_EXACT = 2**53

_Times = TypeVar("_Times", int, np.ndarray)


@dataclass(frozen=True)
class SampleGrid:
    """The sample grid ``first + g * step``, in whole seconds.

    One window's blocks share it: build it once with :meth:`of` and pass
    it to :meth:`LaneBlock.of` for each block.
    """

    times: np.ndarray  # float64 [G]
    first: int
    step: int

    @classmethod
    def of(cls, sample_times: np.ndarray) -> "SampleGrid | None":
        """The grid, or None when its times are not evenly spaced whole seconds."""
        times = np.asarray(sample_times, dtype=np.float64)
        if times.size == 0:
            return cls(times, 0, 1)
        first = float(times[0])
        step = float(times[1] - times[0]) if times.size > 1 else 1.0
        if not (first.is_integer() and step.is_integer() and step >= 1):
            return None
        grid = int(first) + np.arange(times.size, dtype=np.int64) * int(step)
        if abs(first) >= _EXACT or grid[-1] >= _EXACT or not np.array_equal(grid, times):
            return None
        return cls(times, int(first), int(step))

    def after(self, t: _Times) -> _Times:
        """Index of the first grid time at or after each time ``t``, unclipped."""
        return (t + (self.step - 1 - self.first)) // self.step

    def index(self, t: np.ndarray) -> np.ndarray:
        """How many grid times lie before each of the times ``t``."""
        return np.clip(self.after(t), 0, self.times.size)


@dataclass(frozen=True)
class _Lane:
    """One resolved lane in round units.

    Round ``r`` starts at ``base + r * step`` and sends ``k[r]`` probes
    ``spacing`` seconds apart.  ``edge`` pads the rounds with one empty
    round before the first and one after the last: ``edge[r + 1]``
    probes were sent before round ``r`` and ``edge[r + 2]`` by its end.
    """

    base: int
    step: int  # 0 for a lane of one round, which fits any longer step
    spacing: int
    kmax: int  # the most probes any round sent
    cursor: int  # position in the probe order of the lane's probe 0
    k: np.ndarray  # int64 [R] probes per round
    edge: np.ndarray  # int64 [R + 3]: 0, 0, cumsum(k), n
    hit: np.ndarray  # bool [R] round ended on a positive reply

    @classmethod
    def of(cls, rounds: LaneRounds, m: int) -> "_Lane | None":
        """The lane, or None when its probe times are not whole seconds."""
        obs = rounds.lane.observer
        n_rounds = rounds.k.size
        # the first round start and the step between starts, as
        # LaneRounds.round_starts computes them
        base = float(rounds.start_s + obs.phase_offset_s)
        step = float(obs.round_seconds) if n_rounds > 1 else 0.0
        spacing = float(rounds.spacing)
        if not all(x.is_integer() for x in (base, step, spacing)) or spacing < 1:
            return None
        lane = cls.of_counts(
            int(base), int(step), int(spacing), rounds.start_cursor % m, rounds.k, rounds.hit
        )
        if (
            base < rounds.start_s  # the window slice would drop probes
            or base <= -_EXACT
            or lane.base + (n_rounds - 1) * lane.step + lane.kmax * lane.spacing >= _EXACT
            or (n_rounds > 1 and (lane.kmax - 1) * lane.spacing >= lane.step)  # rounds overlap
        ):
            return None
        return lane

    @classmethod
    def of_counts(
        cls, base: int, step: int, spacing: int, cursor: int, k: np.ndarray, hit: np.ndarray
    ) -> "_Lane":
        """The lane of rounds that sent ``k`` probes each, unchecked."""
        k = k.astype(np.int64)
        edge = np.zeros(k.size + 3, dtype=np.int64)
        np.cumsum(k, out=edge[2:-1])
        edge[-1] = edge[-2]
        return cls(base, step, spacing, int(k.max()), cursor, k, edge, hit)

    @property
    def n(self) -> int:
        return int(self.edge[-1])

    def rounds_of(self, idx: np.ndarray) -> np.ndarray:
        """Rounds of the lane's probes ``idx`` (each below ``n``)."""
        return np.searchsorted(self.edge, idx, side="right") - 2

    def times(self, idx: np.ndarray) -> np.ndarray:
        """Send times of the lane's probes ``idx`` (each below ``n``)."""
        r = self.rounds_of(idx)
        return self.base + r * self.step + (idx - self.edge[r + 1]) * self.spacing

    def positives(self, m: int, repair: bool) -> tuple[np.ndarray, np.ndarray]:
        """Indices of the lane's positive probes after 1-loss repair, and their rounds."""
        r = np.flatnonzero(self.hit)
        pos = self.edge[2:][r] - 1  # a hit round's last probe
        if not repair or pos.size < 2:
            return pos, r
        positive = np.zeros(self.n + 2 * m, dtype=bool)
        positive[pos] = True
        # 101 -> 111: probe i between positive probes i - m and i + m
        mid = pos[positive[pos + 2 * m]] + m
        mid = mid[~positive[mid]]
        return np.concatenate([pos, mid]), np.concatenate([r, self.rounds_of(mid)])

    def cells(self, grid: SampleGrid, m: int, step: int) -> np.ndarray:
        """Grid index of each probe, then ``m`` entries of ``G``.

        A probe's grid index is the first grid time at or after it, so a
        probe never sent (index ``n`` and on) is at ``G``.  When the lane
        is on the grid's ``step`` (nonzero) and no grid time falls inside
        its rounds, it is the probe's round plus the grid index of the
        lane's first probe; otherwise it is worked out from the probe's
        send time.
        """
        n, G = self.n, grid.times.size
        e0 = int(grid.after(self.base))
        if not step or grid.after(self.base + (self.kmax - 1) * self.spacing) != e0:
            cells = np.full(n + m, G, dtype=np.int64)
            cells[:n] = grid.index(self.times(np.arange(n)))
            return cells
        rows = np.arange(e0, e0 + self.k.size + 1)
        rows[-1] = G
        cells = np.repeat(rows, np.append(self.k, m))
        np.minimum(cells, G, out=cells)
        return np.maximum(cells, 0, out=cells) if e0 < 0 else cells


def _shift(a: _Lane, b: _Lane, tie: int, step: int) -> int | None:
    """The ``c`` for which every probe of lane ``a``'s round ``r`` merges
    after all of lane ``b``'s round ``r + c`` and before any of its next.

    None when the two lanes' rounds interleave, or when they are not on
    one round ``step`` (0).  ``tie`` is 1 when ``b`` merges first on
    equal times.
    """
    if not step:
        return None
    # seconds from the start of b's round r to probe 0 of a's round r
    x0 = a.base - b.base + tie
    c = (x0 - 1) // step  # b's last round to start before it, minus r
    if (x0 + (a.kmax - 1) * a.spacing - 1) // step != c:
        return None  # a's round r spans the start of b's round r + c + 1
    if (x0 - c * step + b.spacing - 1) // b.spacing < b.kmax:
        return None  # b's round r + c may still be sending
    return c


def _sent_before(
    a: _Lane, b: _Lane, tie: int, step: int, pos: np.ndarray, r: np.ndarray
) -> np.ndarray:
    """How many of lane ``b``'s probes merge before lane ``a``'s probes ``pos``.

    ``r`` holds the probes' rounds and ``tie`` is 1 when ``b`` merges
    first on equal times.  When the lanes' rounds never interleave
    (:func:`_shift`) the count is ``b``'s probes up to the end of round
    ``r + c``; the padding rows of ``b.edge`` give 0 before ``b``'s first
    round and ``n`` after its last.  Otherwise it is a binary search over
    ``b``'s send times.
    """
    c = _shift(a, b, tie, step)
    if c is None:
        return np.searchsorted(b.times(np.arange(b.n)), a.times(pos) + tie)
    if c >= -2 and a.k.size + c <= b.k.size + 1:
        return b.edge[c + 2 :][r]
    return b.edge[np.clip(r + c + 2, 0, b.k.size + 2)]


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a is b or np.array_equal(a, b)


@dataclass(frozen=True)
class LaneBlock:
    """One block's resolved lanes and sample grid, ready for :meth:`reconstruct`."""

    lanes: list[_Lane]  # the lanes that sent probes, in merge order
    cells: list[np.ndarray]  # per lane: grid index of each probe (_Lane.cells)
    step: int  # the lanes' and the grid's round step, or 0: compare send times
    addresses: np.ndarray  # E(b), truth row order
    order: np.ndarray  # the lanes' shared probe order over truth rows
    grid: SampleGrid

    @classmethod
    def of(
        cls,
        logs: ProbeLogs,
        lanes: Sequence[int],
        addresses: np.ndarray,
        grid: SampleGrid | None,
    ) -> "LaneBlock | None":
        """Lanes ``lanes`` of ``logs`` (one block's observers in merge
        order, all probing E(b) ``addresses`` in one probe order), to be
        reconstructed on the window's sample ``grid``.

        None when a lane holds a plain probe log, or a probe or grid time
        is not a whole second (``grid`` None); the caller then takes the
        log route.
        """
        eb = np.asarray(addresses)
        m = eb.size
        if grid is None:
            return None
        resolved: list[_Lane] = []
        order: np.ndarray | None = None
        for i in lanes:
            rounds = logs.rounds(i)
            if rounds is None:
                if logs.n_probes(i):
                    return None  # a plain per-lane log
                continue
            if not _same(rounds.addresses, eb) or (
                order is not None and not _same(rounds.order, order)
            ):
                return None  # the lanes must share E(b) and its probe order
            lane = _Lane.of(rounds, m)
            if lane is None:
                return None
            resolved.append(lane)
            order = rounds.order
        if order is None:
            order = np.arange(m)
        elif np.unique(eb).size != m:
            return None  # the stride identities need distinct addresses
        # round units need every lane on the grid's step, its rounds shorter
        step = grid.step
        if any(
            lane.step not in (0, step) or (lane.kmax - 1) * lane.spacing >= step
            for lane in resolved
        ):
            step = 0
        cells = [lane.cells(grid, m, step) for lane in resolved]
        return cls(resolved, cells, step, eb, order, grid)

    def reconstruct(self, ctx: StageContext, *, repair: bool = True) -> Reconstruction:
        """Repair, combine and reconstruct.

        Records the ``repair`` (skipped as "disabled" when ``repair`` is
        False), ``combine`` and ``reconstruct`` stages into ``ctx`` with
        the sizes :func:`~repro.datasets.builder.reconstruct_logs`
        records.
        """
        m = self.addresses.size
        n = sum(lane.n for lane in self.lanes)
        if repair:
            with ctx.stage("repair", n_in=n) as active:
                positives = [lane.positives(m, True) for lane in self.lanes]
                active.n_out = n
        else:
            ctx.skip("repair", "disabled", n_in=n)
            positives = [lane.positives(m, False) for lane in self.lanes]
        with ctx.stage("combine", n_in=n) as active:
            spans = self._spans(positives)
            active.n_out = n
        with ctx.stage("reconstruct", n_in=n) as active:
            recon = self._count(spans, n)
            active.n_out = len(recon.counts)
        return recon

    def _spans(
        self, positives: list[tuple[np.ndarray, np.ndarray]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Grid index range ``[lo, hi)`` each positive probe is counted on.

        ``lo`` is the first grid time at or after the probe, ``hi`` the
        first at or after the next probe of its address in merged order.
        """
        m = self.addresses.size
        los: list[np.ndarray] = []
        his: list[np.ndarray] = []
        for a, (lane, (pos, r)) in enumerate(zip(self.lanes, positives)):
            cells = self.cells[a]
            # the next probe of the address: i + m in the lane itself ...
            hi = cells[pos + m]
            u = pos + lane.cursor
            for b, other in enumerate(self.lanes):
                if b == a:
                    continue
                # ... or the first of lane b's probes merged after it,
                # where a tie in time goes to the lower observer index
                s = _sent_before(lane, other, int(b < a), self.step, pos, r)
                q = u - other.cursor - s
                q -= q // m * m
                q += s
                np.minimum(hi, self.cells[b][q], out=hi)
            los.append(cells[pos])
            his.append(hi)
        empty = np.zeros(0, dtype=np.int64)
        return np.concatenate([empty, *los]), np.concatenate([empty, *his])

    def _count(self, spans: tuple[np.ndarray, np.ndarray], n: int) -> Reconstruction:
        """The active count on the grid, completion time and observed set."""
        eb = self.addresses
        m = eb.size
        sample_times = self.grid.times
        G = sample_times.size
        if n == 0 or m == 0:
            return Reconstruction(
                counts=TimeSeries(sample_times, np.full(G, np.nan)),
                complete_time_s=float("nan"),
                eb_size=m,
                observed_addresses=np.array([], dtype=eb.dtype),
            )
        lo, hi = spans
        edges = np.bincount(lo, minlength=G + 1) - np.bincount(hi, minlength=G + 1)
        values = np.cumsum(edges[:G]).astype(np.float64)

        # each address's first probe is among the first m probes of a lane
        first = np.full(m, _NEVER, dtype=np.int64)
        for lane in self.lanes:
            t = lane.times(np.arange(min(m, lane.n)))
            # probe q lands on position (cursor + q) % m: two runs
            c = lane.cursor
            head = first[c : c + t.size]
            np.minimum(head, t[: head.size], out=head)
            tail = first[: t.size - head.size]
            np.minimum(tail, t[head.size :], out=tail)
        seen = first < _NEVER
        observed = np.unique(np.asarray(eb[self.order[seen]], dtype=np.int16))
        if seen.all():
            complete_time = float(first.max())
            values[sample_times < complete_time] = np.nan
        else:
            complete_time = float("nan")
            values[:] = np.nan
        return Reconstruction(
            counts=TimeSeries(sample_times, values),
            complete_time_s=complete_time,
            eb_size=m,
            observed_addresses=observed,
        )
