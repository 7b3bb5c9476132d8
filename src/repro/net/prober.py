"""Observer simulators: Trinocular-style adaptive probing and extensions.

:class:`TrinocularObserver` reproduces the probing discipline the paper's
data source uses (§2.2–§2.3): rounds every 11 minutes, targets taken from
a pseudorandom order fixed for the quarter, at most ``max_probes_per_round``
probes per round, and — crucially — probing stops at the block's first
positive reply of the round.  That early stop is what makes dense blocks
scan slowly (§3.1, Figure 5) and what the §2.8 additional prober
(:class:`AdditionalProber`) relaxes.

Observers start unsynchronized (``phase_offset_s``), which is what makes
combining observers shorten full-block-scan times (§2.7, Figure 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..obs.metrics import get_registry
from ..obs.names import metric_name
from .loss import LossModel, NoLoss
from .observations import ObservationSeries
from .usage import BlockTruth

__all__ = [
    "TrinocularObserver",
    "AdditionalProber",
    "LaneRounds",
    "ProbeLane",
    "ProbeLogs",
    "ProbeTarget",
    "count_probe_volume",
    "observe_batch",
    "probe_order",
]


def count_probe_volume(kind: str, series: ObservationSeries) -> ObservationSeries:
    """Feed the probe-volume counters and return ``series`` unchanged.

    ``probes.sent.<kind>`` counts every probe an observer simulator
    emitted; ``probes.positive.<kind>`` the replies.  The paper sizes
    real probing budgets from exactly these volumes (§2.7–§2.8), so the
    telemetry layer tracks them per observer family.
    """
    registry = get_registry()
    registry.counter(metric_name("probes.sent", kind)).inc(len(series))
    registry.counter(metric_name("probes.positive", kind)).inc(int(np.sum(series.results)))
    return series


def _empty_series(name: str) -> ObservationSeries:
    return ObservationSeries(
        times=np.array([]),
        addresses=np.array([], dtype=np.int16),
        results=np.array([], dtype=bool),
        observer=name,
    )


def _candidate_times(round_starts: np.ndarray, K: int, spacing: float) -> np.ndarray:
    """The ``K`` candidate probe times of every round, shape ``[rounds, K]``.

    Accumulated exactly like the reference's repeated ``t += spacing``
    (``cumsum`` adds sequentially).
    """
    T = np.empty((round_starts.size, K), dtype=np.float64)
    T[:, 0] = round_starts
    if K > 1:
        T[:, 1:] = spacing
    np.cumsum(T, axis=1, out=T)
    return T


def _assemble_log(
    name: str,
    T: np.ndarray,
    k: np.ndarray,
    hit: np.ndarray,
    order: np.ndarray,
    addresses: np.ndarray,
    start_cursor: int,
) -> ObservationSeries:
    """A probe log from per-round probe counts ``k`` and reply flags.

    Because the cursor never resets, probe ``i`` of the run targets
    ``order[(start_cursor + i) % m]``; a round's final probe is positive
    exactly when the round ``hit``.
    """
    k = k.astype(np.int64, copy=False)
    total = int(k.sum())
    walk = (start_cursor + np.arange(total, dtype=np.int64)) % order.size
    mask = np.arange(T.shape[1])[None, :] < k[:, None]
    results = np.zeros(total, dtype=bool)
    ends = np.cumsum(k) - 1
    results[ends[hit]] = True
    return ObservationSeries(
        times=T[mask],
        addresses=addresses[order[walk]],
        results=results,
        observer=name,
    )


def probe_order(n_targets: int, seed: int) -> np.ndarray:
    """The pseudorandom target order, fixed per (block, quarter).

    Every observer uses the same order (paper §2.2); they differ only in
    start phase and in where their cursor happens to be.
    """
    rng = np.random.default_rng(seed)
    return rng.permutation(n_targets)


@dataclass(frozen=True)
class TrinocularObserver:
    """One probing site running the adaptive Trinocular algorithm."""

    name: str
    phase_offset_s: float = 0.0
    max_probes_per_round: int = 15
    probe_spacing_s: float = 3.0
    round_seconds: float = 660.0

    def observe(
        self,
        truth: BlockTruth,
        order: np.ndarray,
        loss: LossModel | None = None,
        rng: np.random.Generator | None = None,
        *,
        start_s: float = 0.0,
        duration_s: float | None = None,
        start_cursor: int = 0,
    ) -> ObservationSeries:
        """Probe one block for ``duration_s`` and return the probe log.

        The cursor walks ``order`` circularly and never resets between
        rounds; each round sends probes until the first positive reply or
        the per-round limit.  Lost probes are recorded as non-replies —
        an observer cannot tell loss from inactivity.

        Vectorized simulation, bit-identical to
        :meth:`observe_reference` (including the uniform-draw stream the
        loss model consumes).  The per-probe Python loop is gone:

        * the permuted truth of the columns the window touches is stored
          column-major as one ``bytes`` object (never the whole truth:
          a two-week window reads ~2k of a year's ~48k columns), so
          resolving a round is a single C-speed ``find`` over
          its at-most-``max_probes`` candidate window (two ``find`` calls
          when the window wraps the cursor or crosses a truth column) —
          dark rounds and first-reply rounds cost the same;
        * candidate probe times are built for all rounds at once with a
          row-wise ``cumsum`` (sequential accumulation, so the floats
          match the reference's repeated ``t += spacing`` exactly) and
          truth columns are derived from them in bulk;
        * because the cursor never resets, probe ``i`` of the run targets
          ``order[(start_cursor + i) % m]`` — the output arrays are
          assembled in one shot from the per-round probe counts, with a
          round's final probe marked positive only when its reply
          survived loss.

        Only loss draws stay sequential (one uniform per active-truth
        probe, in probe order, from the same lazily refilled 4096-chunk
        buffer), because each draw's outcome decides whether the round
        continues.
        """
        loss = loss or NoLoss()
        rng = rng or np.random.default_rng(0)
        if duration_s is None:
            duration_s = truth.duration_s - start_s
        end_s = start_s + duration_s

        m = int(order.size)
        if m == 0 or truth.n_cols == 0:
            return _empty_series(self.name)
        if m != truth.n_addresses:
            raise ValueError("order must permute the block's E(b) addresses")

        round_starts = self.round_starts(start_s, end_s)
        n_rounds = round_starts.size
        if n_rounds == 0:
            # the scalar implementation prefilled its draw buffer before
            # noticing the window was empty; consume the same uniforms so
            # callers sharing the generator stay bit-compatible
            rng.random(4096)
            return count_probe_volume("trinocular", _empty_series(self.name))
        loss_p = loss.loss_probability(round_starts) if loss.max_probability() > 0 else None

        n_cols = truth.n_cols
        col_origin = float(truth.col_times[0])
        inv_round = 1.0 / truth.round_seconds
        max_probes = min(self.max_probes_per_round, m)
        spacing = self.probe_spacing_s
        K = max_probes

        T = _candidate_times(round_starts, K, spacing)
        n_time = (T < end_s).sum(axis=1).astype(np.int64)
        rem_arr = np.minimum(n_time, K)

        # per-probe truth columns; a round spans < round_seconds so it
        # touches at most two, and only rounds straddling a column
        # boundary (rare) need a crossover index — everything else reads
        # its first probe's column throughout (jc = K sentinel)
        c0_arr = np.clip(
            ((round_starts - col_origin) * inv_round).astype(np.int64), 0, n_cols - 1
        )
        jc_arr = np.full(n_rounds, K, dtype=np.int64)
        c1_arr = c0_arr
        if K > 1:
            c_last = np.clip(
                ((T[:, K - 1] - col_origin) * inv_round).astype(np.int64),
                0,
                n_cols - 1,
            )
            cross = np.flatnonzero(c_last != c0_arr)
            if cross.size:
                Cx = np.clip(
                    ((T[cross] - col_origin) * inv_round).astype(np.int64),
                    0,
                    n_cols - 1,
                )
                jc_x = (Cx == Cx[:, :1]).sum(axis=1)
                jc_arr[cross] = jc_x
                c1_arr = c0_arr.copy()
                c1_arr[cross] = Cx[np.arange(cross.size), jc_x]

        # permuted truth of the touched columns [lo, hi], column-major
        # bytes: column c's cursor walk is the slice [(c - lo) * m,
        # (c - lo + 1) * m), searched with C-speed find
        lo = int(c0_arr.min())
        hi = int(max(c0_arr.max(), c1_arr.max()))
        colbytes = np.ascontiguousarray(truth.active[:, lo : hi + 1][order].T).tobytes()
        c0_arr = c0_arr - lo
        c1_arr = c1_arr - lo

        # uniform draws for loss, consumed lazily — identical stream to
        # the reference: one draw per active-truth probe when p > 0
        draw_buf = rng.random(4096)
        draw_i = 0

        k_out: list[int] = []
        hit_out: list[bool] = []
        k_app, hit_app = k_out.append, hit_out.append
        c1_l = c1_arr.tolist()
        p_l = loss_p.tolist() if loss_p is not None else None
        find = colbytes.find

        cur = start_cursor % m
        for r, (rem, c0, jc) in enumerate(
            zip(rem_arr.tolist(), c0_arr.tolist(), jc_arr.tolist())
        ):
            p = 0.0 if p_l is None else p_l[r]
            if p == 0.0 and jc >= rem:
                # fast path: one column, no loss — find the round's first
                # active target (two searches when the cursor walk wraps)
                base = c0 * m
                end1 = cur + rem
                if end1 > m:
                    end1 = m
                f = find(1, base + cur, base + end1)
                if f >= 0:
                    k = f - base - cur + 1
                    hit = True
                else:
                    got = end1 - cur
                    if rem > got:
                        f = find(1, base, base + rem - got)
                    if f >= 0:
                        k = got + f - base + 1
                        hit = True
                    else:
                        k = rem
                        hit = False
                k_app(k)
                hit_app(hit)
                cur += k
                if cur >= m:
                    cur -= m
                continue
            j = 0
            hit = False
            while j < rem:
                # sub-window [j, seg_end) reads a single truth column
                if j < jc:
                    c = c0
                    seg_end = jc if jc < rem else rem
                else:
                    c = c1_l[r]
                    seg_end = rem
                # first active target in the sub-window (cursor walk may
                # wrap the block, hence up to two contiguous searches)
                base = c * m
                a = cur + j
                if a >= m:
                    a -= m
                end1 = a + (seg_end - j)
                if end1 > m:
                    end1 = m
                f = find(1, base + a, base + end1)
                if f >= 0:
                    j += f - base - a
                elif seg_end - j > end1 - a:
                    f = find(1, base, base + (seg_end - j) - (end1 - a))
                    if f >= 0:
                        j += (end1 - a) + (f - base)
                if f < 0:
                    j = seg_end
                    continue
                st = True
                if p > 0.0:
                    if draw_i >= 4096:
                        draw_buf = rng.random(4096)
                        draw_i = 0
                    if draw_buf[draw_i] < p:
                        st = False
                    draw_i += 1
                j += 1
                if st:
                    hit = True
                    break
            k_app(j)
            hit_app(hit)
            cur += j
            if cur >= m:
                cur -= m
        series = _assemble_log(
            self.name,
            T,
            np.asarray(k_out, dtype=np.int64),
            np.asarray(hit_out, dtype=bool),
            order,
            truth.addresses,
            start_cursor,
        )
        return count_probe_volume("trinocular", series)

    def round_starts(self, start_s: float, end_s: float) -> np.ndarray:
        """Start times of the rounds that begin inside ``[start_s, end_s)``."""
        round_s = self.round_seconds
        n_rounds = int(np.ceil((end_s - start_s - self.phase_offset_s) / round_s))
        n_rounds = max(n_rounds, 0)
        round_starts = start_s + self.phase_offset_s + np.arange(n_rounds) * round_s
        # the reference stops at the first round starting at/after end_s
        n_rounds = int(np.searchsorted(round_starts, end_s, side="left"))
        return round_starts[:n_rounds]

    def observe_reference(
        self,
        truth: BlockTruth,
        order: np.ndarray,
        loss: LossModel | None = None,
        rng: np.random.Generator | None = None,
        *,
        start_s: float = 0.0,
        duration_s: float | None = None,
        start_cursor: int = 0,
    ) -> ObservationSeries:
        """Probe-by-probe oracle for :meth:`observe` (tests only).

        The original scalar round loop; :meth:`observe` must reproduce
        its output bit-for-bit, including which uniforms the loss model
        consumes.  Does not feed the probe-volume counters, so running
        the oracle beside the production path leaves telemetry intact.
        """
        loss = loss or NoLoss()
        rng = rng or np.random.default_rng(0)
        if duration_s is None:
            duration_s = truth.duration_s - start_s
        end_s = start_s + duration_s

        m = int(order.size)
        if m == 0 or truth.n_cols == 0:
            return ObservationSeries(
                times=np.array([]),
                addresses=np.array([], dtype=np.int16),
                results=np.array([], dtype=bool),
                observer=self.name,
            )
        if m != truth.n_addresses:
            raise ValueError("order must permute the block's E(b) addresses")

        round_s = self.round_seconds
        n_rounds = int(np.ceil((end_s - start_s - self.phase_offset_s) / round_s))
        n_rounds = max(n_rounds, 0)
        round_starts = start_s + self.phase_offset_s + np.arange(n_rounds) * round_s
        loss_p = loss.loss_probability(round_starts) if loss.max_probability() > 0 else None

        # flatten truth to a bytes object for the fastest scalar lookups
        flat = truth.active.astype(np.uint8).tobytes()
        n_cols = truth.n_cols
        col_origin = float(truth.col_times[0])
        inv_round = 1.0 / truth.round_seconds
        order_list = order.tolist()
        addr_of = truth.addresses.tolist()
        max_probes = min(self.max_probes_per_round, m)
        spacing = self.probe_spacing_s

        # uniform draws for loss, consumed lazily
        draw_buf = rng.random(4096)
        draw_i = 0

        times: list[float] = []
        addrs: list[int] = []
        results: list[bool] = []
        t_app, a_app, r_app = times.append, addrs.append, results.append

        cur = start_cursor % m
        for r in range(n_rounds):
            t = round_starts[r]
            if t >= end_s:
                break
            p = 0.0 if loss_p is None else loss_p[r]
            k = 0
            while True:
                idx = order_list[cur]
                col = int((t - col_origin) * inv_round)
                if col >= n_cols:
                    col = n_cols - 1
                elif col < 0:
                    col = 0
                st = flat[idx * n_cols + col]
                if st and p > 0.0:
                    if draw_i >= 4096:
                        draw_buf = rng.random(4096)
                        draw_i = 0
                    if draw_buf[draw_i] < p:
                        st = 0
                    draw_i += 1
                t_app(t)
                a_app(addr_of[idx])
                r_app(bool(st))
                cur += 1
                if cur == m:
                    cur = 0
                k += 1
                if st or k >= max_probes:
                    break
                t += spacing
                if t >= end_s:
                    break
        return ObservationSeries(
            times=np.asarray(times, dtype=np.float64),
            addresses=np.asarray(addrs, dtype=np.int16),
            results=np.asarray(results, dtype=bool),
            observer=self.name,
        )


# ---------------------------------------------------------------------------
# lane-parallel probing
# ---------------------------------------------------------------------------
#: uniforms each generator refills its loss-draw buffer with
DRAW_BLOCK = 4096
#: rounds the lane kernel resolves per slab; its tables and per-round
#: arrays are sized by this, never by the window length
SLAB_ROUNDS = 64


@dataclass(frozen=True, eq=False)
class ProbeTarget:
    """One block's truth as :func:`observe_batch` reads it.

    ``packed`` holds the truth rows in probe order (row ``i`` is truth
    row ``order[i]``) over the columns ``[first_col, first_col + width)``,
    eight columns per byte.  ``n_cols``, ``origin`` and ``round_seconds``
    describe the whole truth grid, so probe times map to columns exactly
    as :meth:`TrinocularObserver.observe` maps them on the whole truth.
    """

    addresses: np.ndarray  # int16 [m], truth row order
    order: np.ndarray  # probe order over truth rows
    packed: np.ndarray  # uint8 [m, ceil(width / 8)]
    first_col: int
    width: int
    n_cols: int
    origin: float
    round_seconds: float

    @classmethod
    def of(
        cls,
        truth: BlockTruth,
        order: np.ndarray,
        start_s: float = 0.0,
        end_s: float | None = None,
    ) -> "ProbeTarget":
        """Pack the truth columns a window ``[start_s, end_s)`` can probe.

        One column of slack on each side covers the difference between
        the prober's ``int(t * (1 / round_seconds))`` and
        :meth:`BlockTruth.column_of`'s floor division.
        """
        m = int(order.size)
        if m and m != truth.n_addresses:
            raise ValueError("order must permute the block's E(b) addresses")
        n_cols = truth.n_cols
        lo = hi = 0
        if m and n_cols:
            end = truth.duration_s if end_s is None else end_s
            lo = max(truth.column_of(start_s) - 1, 0)
            hi = min(truth.column_of(end) + 2, n_cols)
        return cls(
            addresses=truth.addresses,
            order=order,
            packed=np.packbits(truth.active[:, lo:hi][order], axis=1),
            first_col=lo,
            width=hi - lo,
            n_cols=n_cols,
            origin=float(truth.col_times[0]) if n_cols else 0.0,
            round_seconds=truth.round_seconds,
        )

    @property
    def m(self) -> int:
        return int(self.order.size)

    def columns(self, lo: int, hi: int) -> np.ndarray:
        """0/1 ``uint8`` truth of the columns ``[lo, hi)``, probe-order rows."""
        a, b = lo - self.first_col, hi - self.first_col
        if a < 0 or b > self.width:
            raise ValueError(
                f"columns [{lo}, {hi}) fall outside the packed window "
                f"[{self.first_col}, {self.first_col + self.width})"
            )
        bits = np.unpackbits(self.packed[:, a // 8 : (b + 7) // 8], axis=1)
        return bits[:, a % 8 : a % 8 + (b - a)]


@dataclass(frozen=True, eq=False)
class ProbeLane:
    """One (block, observer) pair: the arguments of one ``observe`` call."""

    observer: TrinocularObserver
    target: ProbeTarget
    loss: LossModel | None = None
    rng: np.random.Generator | None = None
    start_s: float = 0.0
    duration_s: float | None = None
    start_cursor: int = 0


@dataclass(frozen=True)
class LaneRounds:
    """A lane the kernel resolved: per-round probe counts and reply flags.

    Round ``r`` starts at ``round_starts[r]`` and sends ``k[r]`` probes
    ``spacing`` seconds apart (accumulated like :func:`_candidate_times`);
    its last probe is the only positive one, and only when ``hit[r]``.
    Because the cursor never resets, probe ``i`` of the lane targets
    ``addresses[order[(start_cursor + i) % m]]``.
    """

    lane: ProbeLane
    end_s: float
    k: np.ndarray  # probes sent per round
    hit: np.ndarray  # round ended on a positive reply

    @property
    def start_s(self) -> float:
        return self.lane.start_s

    @property
    def round_starts(self) -> np.ndarray:
        return self.lane.observer.round_starts(self.lane.start_s, self.end_s)

    @property
    def spacing(self) -> float:
        return self.lane.observer.probe_spacing_s

    @property
    def order(self) -> np.ndarray:
        return self.lane.target.order

    @property
    def addresses(self) -> np.ndarray:
        return self.lane.target.addresses

    @property
    def start_cursor(self) -> int:
        return self.lane.start_cursor

    def log(self) -> ObservationSeries:
        """The lane's probe log, as :meth:`TrinocularObserver.observe` returns it."""
        obs, target = self.lane.observer, self.lane.target
        K = min(obs.max_probes_per_round, target.m)
        return _assemble_log(
            obs.name,
            _candidate_times(self.round_starts, K, obs.probe_spacing_s),
            self.k,
            self.hit,
            target.order,
            target.addresses,
            self.lane.start_cursor,
        )


class ProbeLogs:
    """:func:`observe_batch`'s result: lane ``i``'s probe log, on access.

    The kernel keeps two bytes per lane-round (probe count and reply
    flag); a log is expanded to times/addresses/results only when read,
    so a caller that consumes its lanes block by block holds one block's
    logs at a time.  Reading a lane twice assembles it twice.
    :meth:`rounds` hands out the resolved rounds themselves, for callers
    that never need the per-probe log.
    """

    def __init__(self, lanes: "list[LaneRounds | ObservationSeries]") -> None:
        self._lanes = lanes

    def __len__(self) -> int:
        return len(self._lanes)

    def __getitem__(self, i: int) -> ObservationSeries:
        lane = self._lanes[i]
        return lane if isinstance(lane, ObservationSeries) else lane.log()

    def __iter__(self) -> "Iterator[ObservationSeries]":
        return (self[i] for i in range(len(self)))

    def rounds(self, i: int) -> LaneRounds | None:
        """Lane ``i``'s resolved rounds; None when the lane holds a plain log."""
        lane = self._lanes[i]
        return None if isinstance(lane, ObservationSeries) else lane

    def n_probes(self, i: int) -> int:
        """Probes lane ``i`` sent, without assembling its log."""
        lane = self._lanes[i]
        if isinstance(lane, ObservationSeries):
            return len(lane)
        return int(lane.k.sum(dtype=np.int64))


def observe_batch(lanes: "Sequence[ProbeLane]") -> ProbeLogs:
    """Run :meth:`TrinocularObserver.observe` on many lanes at once.

    Lane ``i``'s log, the ``probes.*.trinocular`` counters and every
    lane generator's end state are bit-identical to calling
    ``lane.observer.observe_reference`` once per lane.  Rounds are
    stepped in Python; each round resolves every lane with a few O(L)
    numpy operations:

    * per slab of :data:`SLAB_ROUNDS` rounds, each block gets a
      *next-active table*: for every truth column the slab touches and
      every cursor position, the cyclic distance to the next active
      target in probe order, capped just above ``max_probes``.  One
      gather per lane finds the round's first reply; rounds that
      straddle a truth column read a second table column;
    * each lane draws loss from its own buffer of :data:`DRAW_BLOCK`
      uniforms, refilled from the lane's own generator exactly when the
      scalar loop would refill it, so every stream is consumed in the
      same order.  For a constant loss probability the buffer keeps the
      draw outcomes (``u < p``) instead of the uniforms;
    * the rare lanes whose reply was lost continue one at a time in
      Python, reading the same tables.

    Lanes must not share a generator: draws interleave across lanes,
    which is invisible only when every stream is private.
    """
    rngs = [lane.rng for lane in lanes if lane.rng is not None]
    if len({id(rng) for rng in rngs}) != len(rngs):
        raise ValueError("observe_batch lanes must not share a Generator")

    out: "list[LaneRounds | ObservationSeries]" = []
    live: list[_LiveLane] = []
    counted = False
    for lane in lanes:
        obs, target = lane.observer, lane.target
        if target.m == 0 or target.n_cols == 0:
            out.append(_empty_series(obs.name))
            continue
        rng = lane.rng or np.random.default_rng(0)
        loss = lane.loss or NoLoss()
        duration_s = lane.duration_s
        if duration_s is None:
            duration_s = target.n_cols * target.round_seconds - lane.start_s
        end_s = lane.start_s + duration_s
        round_starts = obs.round_starts(lane.start_s, end_s)
        counted = True
        if round_starts.size == 0:
            rng.random(DRAW_BLOCK)  # the scalar loop prefills before its first round
            out.append(_empty_series(obs.name))
            continue
        K = min(obs.max_probes_per_round, target.m)
        if K < 1 or (K - 1) * obs.probe_spacing_s >= target.round_seconds:
            raise ValueError("a round's probes must fit inside one truth column span")
        loss_p: float | np.ndarray = 0.0
        if loss.max_probability() > 0:
            loss_p = loss.loss_probability(round_starts)
            if np.all(loss_p == loss_p[0]):
                loss_p = float(loss_p[0])  # constant: keep one number, not a column
        live.append(_LiveLane(len(out), lane, rng, end_s, round_starts.size, loss_p))
        out.append(_empty_series(obs.name))  # placeholder, replaced below

    sent = positive = 0
    if live:
        kernel = _LaneKernel(live)
        kernel.run()
        for j, item in enumerate(kernel.live):
            n = item.n_rounds
            out[item.slot] = LaneRounds(
                item.lane, item.end_s, kernel.k_out[:n, j], kernel.hit_out[:n, j]
            )
        sent = int(kernel.k_out.sum(dtype=np.int64))
        positive = int(np.count_nonzero(kernel.hit_out))
    if counted:
        registry = get_registry()
        registry.counter(metric_name("probes.sent", "trinocular")).inc(sent)
        registry.counter(metric_name("probes.positive", "trinocular")).inc(positive)
    return ProbeLogs(out)


@dataclass(frozen=True)
class _LiveLane:
    """A lane with at least one round, as :func:`observe_batch` set it up."""

    slot: int
    lane: ProbeLane
    rng: np.random.Generator
    end_s: float
    n_rounds: int
    loss_p: float | np.ndarray  # per round, or one constant


class _LaneKernel:
    """The state of one :func:`observe_batch` call.

    Lanes are sorted by round count, longest first, so the lanes still
    probing in any round are a prefix of every per-lane array.
    """

    def __init__(self, live: "list[_LiveLane]") -> None:
        live = sorted(live, key=lambda x: -x.n_rounds)  # stable
        self.live = live
        lanes = [x.lane for x in live]
        observers = [lane.observer for lane in lanes]
        targets = [lane.target for lane in lanes]
        self.rngs = [x.rng for x in live]
        self.n_rounds = np.array([x.n_rounds for x in live], dtype=np.int64)
        self.m = np.array([t.m for t in targets], dtype=np.int64)
        self.K = np.minimum([o.max_probes_per_round for o in observers], self.m)
        # the same Python expression observe() uses for round 0's start
        self.base = np.array(
            [lane.start_s + o.phase_offset_s for lane, o in zip(lanes, observers)]
        )
        self.step = np.array([o.round_seconds for o in observers], dtype=np.float64)
        self.spacing = np.array([o.probe_spacing_s for o in observers], dtype=np.float64)
        self.end = np.array([x.end_s for x in live], dtype=np.float64)
        self.origin = np.array([t.origin for t in targets], dtype=np.float64)
        self.inv = np.array([1.0 / t.round_seconds for t in targets], dtype=np.float64)
        self.last_col = np.array([t.n_cols - 1 for t in targets], dtype=np.int64)
        self.cur = np.array(
            [lane.start_cursor % t.m for lane, t in zip(lanes, targets)], dtype=np.int64
        )

        # one next-active table per (block, window start, round length)
        keys: dict[tuple[int, float, float], int] = {}
        self.g_target: list[ProbeTarget] = []
        gid = []
        for lane, o in zip(lanes, observers):
            key = (id(lane.target), lane.start_s, o.round_seconds)
            if key not in keys:
                keys[key] = len(keys)
                self.g_target.append(lane.target)
            gid.append(keys[key])
        self.gid = np.array(gid, dtype=np.int64)
        self.g_m = np.array([t.m for t in self.g_target], dtype=np.int64)
        self.g_kt = np.zeros(len(self.g_target), dtype=np.int64)
        np.maximum.at(self.g_kt, self.gid, self.K)
        k_max = int(self.K.max())
        self.inf = k_max  # any distance >= this means "no reply this round"
        self.steps = [1 << i for i in range(max(k_max - 1, 0).bit_length())]
        self.table_dtype = np.uint8 if 3 * k_max <= 255 else np.uint16

        # loss: constant-probability lanes keep draw outcomes, the rest
        # (time-varying loss) keep the uniforms and their per-round p
        L = len(live)
        self.p_const = np.zeros(L, dtype=np.float64)
        self.var_row = np.full(L, -1, dtype=np.int64)
        self.p_arrays: list[np.ndarray] = []
        for j, x in enumerate(live):
            if isinstance(x.loss_p, float):
                self.p_const[j] = x.loss_p
            else:
                self.var_row[j] = len(self.p_arrays)
                self.p_arrays.append(x.loss_p)
        self.outcome = np.zeros((L, DRAW_BLOCK), dtype=bool)
        self.uniform = np.zeros((len(self.p_arrays), DRAW_BLOCK), dtype=np.float64)
        self.drawn = np.zeros(L, dtype=np.int64)
        for j, rng in enumerate(self.rngs):
            self._fill(j, rng.random(DRAW_BLOCK))

        n_max = int(self.n_rounds[0])
        k_dtype = np.uint8 if k_max < 256 else np.uint16
        self.k_out = np.zeros((n_max, L), dtype=k_dtype)
        self.hit_out = np.zeros((n_max, L), dtype=bool)
        self.table = np.zeros(0, dtype=self.table_dtype)

    # -- loss draws ----------------------------------------------------------
    def _fill(self, j: int, uniforms: np.ndarray) -> None:
        row = self.var_row[j]
        if row >= 0:
            self.uniform[row] = uniforms
        else:
            self.outcome[j] = uniforms < self.p_const[j]
        self.drawn[j] = 0

    def _lost_one(self, j: int, p: float) -> bool:
        if self.drawn[j] >= DRAW_BLOCK:
            self._fill(j, self.rngs[j].random(DRAW_BLOCK))
        i = int(self.drawn[j])
        self.drawn[j] = i + 1
        row = self.var_row[j]
        return bool(self.uniform[row, i] < p) if row >= 0 else bool(self.outcome[j, i])

    def _lost_many(self, idx: np.ndarray, p: np.ndarray) -> np.ndarray:
        drawn = self.drawn[idx]
        if drawn.max() >= DRAW_BLOCK:
            for j in idx[drawn >= DRAW_BLOCK].tolist():
                self._fill(j, self.rngs[j].random(DRAW_BLOCK))
            drawn = self.drawn[idx]
        self.drawn[idx] = drawn + 1
        lost = self.outcome.ravel()[idx * DRAW_BLOCK + drawn]
        if self.p_arrays:
            rows = self.var_row[idx]
            var = rows >= 0
            if var.any():
                u = self.uniform.ravel()[rows[var] * DRAW_BLOCK + drawn[var]]
                lost[var] = u < p[idx[var]]
        return lost

    # -- rounds --------------------------------------------------------------
    def _columns(self, times: np.ndarray, lanes: slice) -> np.ndarray:
        """observe()'s time -> truth column map, per lane row."""
        cols = ((times - self.origin[lanes, None]) * self.inv[lanes, None]).astype(np.int64)
        return np.clip(cols, 0, self.last_col[lanes, None])

    def run(self) -> None:
        n_max = int(self.n_rounds[0])
        for r0 in range(0, n_max, SLAB_ROUNDS):
            self._slab(r0, min(r0 + SLAB_ROUNDS, n_max))

    def _slab(self, r0: int, r1: int) -> None:
        n_live = int(np.count_nonzero(self.n_rounds > r0))
        lanes = slice(0, n_live)
        rounds = np.arange(r0, r1)
        valid = rounds[None, :] < self.n_rounds[lanes, None]
        K = self.K[lanes, None]

        # per (lane, round): probe budget (rem), crossover index into a
        # second truth column (jc, K when none) and the two columns.
        # A round's last candidate time is bounded from above without
        # the exact cumsum; only rounds whose bound reaches the window
        # end or the next column (a few percent) are computed exactly,
        # as observe() computes them.
        starts = self.base[lanes, None] + rounds[None, :] * self.step[lanes, None]
        c0 = self._columns(starts, lanes)
        bound = starts + (K - 1) * self.spacing[lanes, None]
        bound = bound + (np.abs(bound) * 1e-12 + 1e-9)
        exact = (self._columns(bound, lanes) != c0) | (bound >= self.end[lanes, None])
        rem = np.repeat(K, rounds.size, axis=1)
        jc = rem.copy()
        c1 = c0.copy()
        fi, fr = np.nonzero(exact & valid)
        if fi.size:
            kf = self.K[fi]
            T = np.empty((fi.size, int(kf.max())), dtype=np.float64)
            T[:, 0] = starts[fi, fr]
            T[:, 1:] = self.spacing[fi, None]
            np.cumsum(T, axis=1, out=T)
            in_k = np.arange(T.shape[1])[None, :] < kf[:, None]
            rem[fi, fr] = np.minimum(((T < self.end[fi, None]) & in_k).sum(axis=1), kf)
            cols = ((T - self.origin[fi, None]) * self.inv[fi, None]).astype(np.int64)
            cols = np.clip(cols, 0, self.last_col[fi, None])
            first = c0[fi, fr]
            cross = np.flatnonzero(cols[np.arange(fi.size), kf - 1] != first)
            if cross.size:
                jx = ((cols[cross] == first[cross, None]) & in_k[cross]).sum(axis=1)
                jc[fi[cross], fr[cross]] = jx
                c1[fi[cross], fr[cross]] = cols[cross, jx]
        straddle = (jc < rem) & valid

        # next-active tables of the columns each block's lanes touch
        gid = self.gid[lanes]
        n_groups = len(self.g_target)
        g_lo = np.full(n_groups, np.iinfo(np.int64).max, dtype=np.int64)
        g_hi = np.full(n_groups, -1, dtype=np.int64)
        np.minimum.at(g_lo, gid, c0[:, 0])
        np.maximum.at(g_hi, gid, np.where(valid, np.where(straddle, c1, c0), -1).max(axis=1))
        groups = np.flatnonzero(g_hi >= 0)
        n_cols = g_hi[groups] - g_lo[groups] + 1
        row_len = self.g_m[groups] + self.g_kt[groups] - 1
        sizes = n_cols * row_len
        g_off = np.zeros(n_groups, dtype=np.int64)
        g_off[groups] = np.cumsum(sizes) - sizes
        g_row = np.zeros(n_groups, dtype=np.int64)
        g_row[groups] = row_len
        self.table = table = self._tables(groups, g_lo, n_cols, row_len, g_off, int(sizes.sum()))

        # flat table index of each (lane, round)'s column, round-major
        off = g_off[gid, None] - g_lo[gid, None] * g_row[gid, None]
        B0 = np.ascontiguousarray((off + c0 * g_row[gid, None]).T)
        B1 = np.ascontiguousarray((off + c1 * g_row[gid, None]).T)
        LIM = np.ascontiguousarray(np.minimum(rem, jc).T)
        REM = np.ascontiguousarray(rem.T)
        JC = np.ascontiguousarray(jc.T)
        STR = np.ascontiguousarray(straddle.T)
        any_straddle = STR.any(axis=1).tolist()
        P = np.repeat(self.p_const[lanes, None], rounds.size, axis=1)
        for j in np.flatnonzero(self.var_row[lanes] >= 0).tolist():
            seg = self.p_arrays[self.var_row[j]][r0:r1]
            P[j, : seg.size] = seg
        LOSSY = np.ascontiguousarray((P > 0).T)
        P = np.ascontiguousarray(P.T)
        any_loss = bool(LOSSY.any())
        n_active = np.searchsorted(-self.n_rounds, -rounds, side="left")
        m_all = self.m

        for rr, r in enumerate(range(r0, r1)):
            A = int(n_active[rr])
            cur = self.cur[:A]
            d = table[B0[rr, :A] + cur]
            hit = d < LIM[rr, :A]
            k = np.where(hit, d + 1, REM[rr, :A])
            if any_straddle[rr]:
                # lanes whose round continues into the next truth column
                s = np.flatnonzero(STR[rr, :A] & ~hit)
                jcs = JC[rr, s]
                d2 = table[B1[rr, s] + (cur[s] + jcs) % m_all[s]]
                ok = d2 < REM[rr, s] - jcs
                s = s[ok]
                hit[s] = True
                k[s] = jcs[ok] + d2[ok] + 1
            if any_loss:
                idx = np.flatnonzero(hit & LOSSY[rr, :A])
                if idx.size:
                    lost = self._lost_many(idx, P[rr])
                    for j in idx[lost].tolist():
                        k[j], hit[j] = self._resume(
                            j,
                            int(k[j]),
                            int(REM[rr, j]),
                            int(JC[rr, j]),
                            int(B0[rr, j]),
                            int(B1[rr, j]),
                            float(P[rr, j]),
                        )
            self.k_out[r, :A] = k
            self.hit_out[r, :A] = hit
            cur += k
            np.remainder(cur, m_all[:A], out=cur)

    def _tables(
        self,
        groups: np.ndarray,
        g_lo: np.ndarray,
        n_cols: np.ndarray,
        row_len: np.ndarray,
        g_off: np.ndarray,
        size: int,
    ) -> np.ndarray:
        """All blocks' next-active tables for one slab, in one flat array.

        Block ``g``'s rows (one per truth column, ``m + kt - 1`` long:
        the probe-order truth plus its first ``kt - 1`` targets again,
        so cyclic cursor walks need no wrap) are laid end to end.  The
        distance to the next active entry is then resolved for every
        row at once by log-step doubling over the flat array
        (``d[p] = min(d[p], d[p + s] + s)`` for s = 1, 2, 4, ...).  A
        walk that runs off a row's end into the next row only ever
        finds distances of at least ``kt``, which no lane can use.
        """
        table = np.empty(size, dtype=self.table_dtype)
        for g, n, w in zip(groups.tolist(), n_cols.tolist(), row_len.tolist()):
            target = self.g_target[g]
            m = target.m
            bits = target.columns(int(g_lo[g]), int(g_lo[g]) + n).T
            view = table[g_off[g] : g_off[g] + n * w].reshape(n, w)
            view[:, :m] = bits
            view[:, m:] = bits[:, : w - m]
        np.bitwise_xor(table, 1, out=table)
        table *= self.inf
        for s in self.steps:
            shifted = table[s:] + s
            np.minimum(table[:-s], shifted, out=table[:-s])
        return table

    def _resume(
        self, j: int, pos: int, rem: int, jc: int, b0: int, b1: int, p: float
    ) -> tuple[int, bool]:
        """Continue lane ``j``'s round after a lost reply at ``pos - 1``."""
        table = self.table
        m = int(self.m[j])
        cur = int(self.cur[j])
        while pos < rem:
            if pos < jc:
                base, seg_end = b0, min(jc, rem)
            else:
                base, seg_end = b1, rem
            gap = int(table[base + (cur + pos) % m])
            if gap >= seg_end - pos:
                pos = seg_end
                continue
            pos += gap + 1
            if not self._lost_one(j, p):
                return pos, True
        return pos, False


@dataclass(frozen=True)
class AdditionalProber:
    """The §2.8 designed observer for under-observed blocks.

    Sends a *fixed* number of probes per round — up to four extra after a
    positive reply, capped at 8 per round (one probe per 88 s, half the
    prior rate limit) — sized so the whole E(b) is covered within
    ``target_scan_hours``.  Because the per-round count is deterministic,
    the whole observation is vectorized.
    """

    name: str = "a"
    phase_offset_s: float = 0.0
    round_seconds: float = 660.0
    target_scan_hours: float = 6.0
    max_probes_per_round: int = 8

    def probes_per_round(self, eb_size: int) -> int:
        """Probes each round so E(b) is scanned in the target time."""
        rounds_available = self.target_scan_hours * 3600.0 / self.round_seconds
        needed = int(np.ceil(eb_size / max(rounds_available, 1.0)))
        return int(np.clip(needed, 1, min(self.max_probes_per_round, max(eb_size, 1))))

    def observe(
        self,
        truth: BlockTruth,
        order: np.ndarray,
        loss: LossModel | None = None,
        rng: np.random.Generator | None = None,
        *,
        start_s: float = 0.0,
        duration_s: float | None = None,
        start_cursor: int = 0,
    ) -> ObservationSeries:
        loss = loss or NoLoss()
        rng = rng or np.random.default_rng(0)
        if duration_s is None:
            duration_s = truth.duration_s - start_s
        end_s = start_s + duration_s

        m = int(order.size)
        if m == 0:
            return ObservationSeries(
                times=np.array([]),
                addresses=np.array([], dtype=np.int16),
                results=np.array([], dtype=bool),
                observer=self.name,
            )
        per_round = self.probes_per_round(m)
        spacing = self.round_seconds / max(per_round, 1)

        n_rounds = int(np.ceil((end_s - start_s - self.phase_offset_s) / self.round_seconds))
        n_rounds = max(n_rounds, 0)
        total = n_rounds * per_round
        pos = np.arange(total, dtype=np.int64)
        t = (
            start_s
            + self.phase_offset_s
            + (pos // per_round) * self.round_seconds
            + (pos % per_round) * spacing
        )
        keep = t < end_s
        pos, t = pos[keep], t[keep]

        order_idx = order[(start_cursor + pos) % m]
        col_origin = float(truth.col_times[0]) if truth.n_cols else 0.0
        cols = np.clip(
            ((t - col_origin) / truth.round_seconds).astype(np.int64), 0, truth.n_cols - 1
        )
        states = truth.active[order_idx, cols]
        if loss.max_probability() > 0:
            lost = rng.random(t.size) < loss.loss_probability(t)
            states = states & ~lost
        return count_probe_volume(
            "additional",
            ObservationSeries(
                times=t,
                addresses=truth.addresses[order_idx],
                results=states,
                observer=self.name,
            ),
        )
