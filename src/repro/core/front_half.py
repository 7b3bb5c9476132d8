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
  lane's earlier probes from its round starts and stepping to the next
  index with the right stride residue.

Probe times are ``round_start + p * spacing`` in whole seconds, which is
exactly what the logs' sequential ``cumsum`` gives only when every round
start and the spacing are whole numbers (below 2**53).
:meth:`LaneBlock.of` declines a block with any other lane, and the
caller takes the log route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..net.prober import LaneRounds, ProbeLogs
from ..timeseries.series import TimeSeries
from .reconstruction import Reconstruction
from .stages import StageContext

__all__ = ["LaneBlock"]

#: the send time of a lane's probe ``n``, which is never sent: later than
#: every probe and grid time
_NEVER = 2**62
#: whole-second times below this are exact float64 sums
_EXACT = 2**53


@dataclass(frozen=True)
class _Lane:
    """One resolved lane in whole seconds.

    Round ``r`` starts at ``base + r * step``; probe ``i`` of round ``r``
    is sent at ``shift[r] + i * spacing``.  One sentinel round past the
    last holds probe ``n``, sent at :data:`_NEVER`.
    """

    base: int
    step: int
    spacing: int
    cursor: int  # position in the probe order of the lane's probe 0
    k: np.ndarray  # int64 [R] probes per round
    off: np.ndarray  # int64 [R] index of each round's first probe
    hit: np.ndarray  # bool [R] round ended on a positive reply
    shift: np.ndarray  # int64 [R + 1]
    round_of: np.ndarray  # int32 [n + 1] round of each probe

    @classmethod
    def of(cls, rounds: LaneRounds, m: int) -> "_Lane | None":
        """The lane, or None when its probe times are not whole seconds."""
        rs = rounds.round_starts
        base = float(rs[0])
        step = float(rs[1] - rs[0]) if rs.size > 1 else 1.0
        spacing = float(rounds.spacing)
        if not all(x.is_integer() for x in (base, step, spacing)) or min(step, spacing) < 1:
            return None
        base_i, step_i, spacing_i = int(base), int(step), int(spacing)
        starts = base_i + np.arange(rs.size, dtype=np.int64) * step_i
        if not np.array_equal(starts, rs):
            return None
        k = rounds.k.astype(np.int64)
        if (
            base < rounds.start_s  # the window slice would drop probes
            or base <= -_EXACT
            or int(starts[-1]) + int(k.max()) * spacing_i >= _EXACT
            or (rs.size > 1 and (int(k.max()) - 1) * spacing_i >= step_i)  # rounds overlap
        ):
            return None
        off = np.cumsum(k) - k
        n = int(off[-1] + k[-1])
        round_of = np.empty(n + 1, dtype=np.int32)
        round_of[:n] = np.repeat(np.arange(rs.size, dtype=np.int32), rounds.k)
        round_of[n] = rs.size
        return cls(
            base=base_i,
            step=step_i,
            spacing=spacing_i,
            cursor=rounds.start_cursor % m,
            k=k,
            off=off,
            hit=rounds.hit,
            shift=np.append(starts - off * spacing_i, _NEVER - n * spacing_i),
            round_of=round_of,
        )

    @property
    def n(self) -> int:
        return int(self.round_of.size - 1)

    def times(self, idx: np.ndarray) -> np.ndarray:
        """Send times of the lane's probes ``idx``."""
        return self.shift[self.round_of[idx]] + idx * self.spacing

    def sent_before(self, t: np.ndarray) -> np.ndarray:
        """How many of the lane's probes were sent strictly before ``t``."""
        # the last round starting before t: round 0 or the last round when
        # t lies outside the lane's rounds, where the counts clip right
        r = np.minimum(np.maximum((t - (self.base + 1)) // self.step, 0), self.k.size - 1)
        in_round = (t - r * self.step + (self.spacing - 1 - self.base)) // self.spacing
        return np.maximum(self.off[r] + np.minimum(self.k[r], in_round), 0)

    def positives(self, m: int, repair: bool) -> np.ndarray:
        """Indices of the lane's positive probes, after 1-loss repair."""
        pos = self.off[self.hit] + self.k[self.hit] - 1  # a hit round's last probe
        if not repair or pos.size < 2:
            return pos
        positive = np.zeros(self.n + 2 * m, dtype=bool)
        positive[pos] = True
        # 101 -> 111: probe i between positive probes i - m and i + m
        mid = pos[positive[pos + 2 * m]] + m
        return np.concatenate([pos, mid[~positive[mid]]])


@dataclass(frozen=True)
class _Grid:
    """The sample grid ``first + g * step``, in whole seconds."""

    times: np.ndarray  # float64 [G]
    first: int
    step: int

    @classmethod
    def of(cls, sample_times: np.ndarray) -> "_Grid | None":
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

    def index(self, t: np.ndarray) -> np.ndarray:
        """How many grid times lie before each of the times ``t``."""
        g = (t + (self.step - 1 - self.first)) // self.step
        return np.minimum(np.maximum(g, 0), self.times.size)


@dataclass(frozen=True)
class LaneBlock:
    """One block's resolved lanes and sample grid, ready for :meth:`reconstruct`."""

    lanes: list[_Lane]  # the lanes that sent probes, in merge order
    addresses: np.ndarray  # E(b), truth row order
    order: np.ndarray  # the lanes' shared probe order over truth rows
    grid: _Grid

    @classmethod
    def of(
        cls,
        logs: ProbeLogs,
        lanes: Sequence[int],
        addresses: np.ndarray,
        sample_times: np.ndarray,
    ) -> "LaneBlock | None":
        """Lanes ``lanes`` of ``logs`` (one block's observers in merge
        order, all probing E(b) ``addresses`` in one probe order), to be
        reconstructed on the grid ``sample_times``.

        None when a lane holds a plain probe log, or a probe or grid time
        is not a whole second; the caller then takes the log route.
        """
        eb = np.asarray(addresses)
        m = eb.size
        grid = _Grid.of(sample_times)
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
            if not np.array_equal(rounds.addresses, eb) or (
                order is not None and not np.array_equal(rounds.order, order)
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
        return cls(resolved, eb, order, grid)

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

    def _spans(self, positives: list[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
        """Grid index range ``[lo, hi)`` each positive probe is counted on.

        ``lo`` is the first grid time at or after the probe, ``hi`` the
        first at or after the next probe of its address in merged order.
        """
        m = self.addresses.size
        out = []
        for a, (lane, pos) in enumerate(zip(self.lanes, positives)):
            t = lane.times(pos)
            # the next probe of the address: i + m in the lane itself ...
            t_next = lane.times(np.minimum(pos + m, lane.n))
            for b, other in enumerate(self.lanes):
                if b == a:
                    continue
                # ... or the first of lane b's probes merged after it,
                # where a tie in time goes to the lower observer index
                s = other.sent_before(t + int(b < a))
                q = s + (pos + (lane.cursor - other.cursor) - s) % m
                np.minimum(t_next, other.times(np.minimum(q, other.n)), out=t_next)
            out.append((self.grid.index(t), self.grid.index(t_next)))
        return out

    def _count(self, spans: list[tuple[np.ndarray, np.ndarray]], n: int) -> Reconstruction:
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
        edges = np.zeros(G + 1, dtype=np.int64)
        for lo, hi in spans:
            edges += np.bincount(lo, minlength=G + 1)
            edges -= np.bincount(hi, minlength=G + 1)
        values = np.cumsum(edges[:G]).astype(np.float64)

        # each address's first probe is among the first m probes of a lane
        first = np.full(m, _NEVER, dtype=np.int64)
        for lane in self.lanes:
            q = np.arange(min(m, lane.n), dtype=np.int64)
            at = (lane.cursor + q) % m
            first[at] = np.minimum(first[at], lane.times(q))
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
