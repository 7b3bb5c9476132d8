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

One kernel probes every adaptive lane: :func:`observe_batch` resolves
many (block, observer) lanes together, :meth:`TrinocularObserver.observe`
is its one-lane call, and :meth:`TrinocularObserver.observe_reference`
is the scalar oracle both must match bit for bit.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

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
    "observe_batch",
    "probe_order",
]


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

        One lane of :func:`observe_batch`: the window's truth columns are
        packed (:meth:`ProbeTarget.of`) and the lane kernel resolves the
        rounds, bit-identical to :meth:`observe_reference` (including
        the uniform-draw stream the loss model consumes).  A caller with
        several lanes to probe passes them to :func:`observe_batch` in
        one call, which costs far less than one call per lane.
        """
        end_s = None if duration_s is None else start_s + duration_s
        target = ProbeTarget.of(truth, order, start_s, end_s)
        lane = ProbeLane(self, target, loss, rng, start_s, duration_s, start_cursor)
        return observe_batch([lane])[0]

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
        """Probe-by-probe oracle for :func:`observe_batch` (tests only).

        The original scalar round loop; every lane of the lane kernel,
        and so :meth:`observe`, must reproduce its output bit-for-bit,
        including which uniforms the loss model consumes.
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
    as :meth:`TrinocularObserver.observe_reference` maps them on the whole
    truth.
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
        # observer.round_starts' expression over the rounds resolved, without
        # working the round count out of the window again
        obs = self.lane.observer
        return self.lane.start_s + obs.phase_offset_s + np.arange(self.k.size) * obs.round_seconds

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
    """Probe many lanes at once: the lane kernel, the one production prober.

    Lane ``i``'s log and every lane generator's end state are
    bit-identical to calling ``lane.observer.observe_reference`` once
    per lane.  Rounds are
    stepped in Python; a *steady* round (the full probe budget, one
    truth column, the block's budget) costs three numpy calls for all
    lanes together:

    * per slab of :data:`SLAB_ROUNDS` rounds, each block gets a *code
      table* and a *next-cursor table* over the distinct truth columns
      (runs of equal columns) the slab touches: for every cursor
      position, the probes a round sends and whether it ends on a reply
      (``k | hit << 7``), and where the cursor moves.  A steady round is
      one gather of each per lane;
    * rounds cut short by the window end, rounds that straddle a truth
      column and lanes whose budget is below their block's go through a
      general path that reads the same tables;
    * each lane draws loss from its own buffer of :data:`DRAW_BLOCK`
      uniforms, refilled from the lane's own generator exactly when the
      scalar loop would refill it, so every stream is consumed in the
      same order.  A lane counts down the replies left before its next
      *possibly* lost draw (a uniform below its largest loss
      probability); only the lanes that reach one are resolved one at a
      time in Python, and a lost reply continues its round there.

    Lanes must not share a generator: draws interleave across lanes,
    which is invisible only when every stream is private.
    """
    rngs = [lane.rng for lane in lanes if lane.rng is not None]
    if len({id(rng) for rng in rngs}) != len(rngs):
        raise ValueError("observe_batch lanes must not share a Generator")

    out: "list[LaneRounds | ObservationSeries]" = []
    live: list[_LiveLane] = []
    # lanes of one observer and window share their round starts, and lanes
    # that also share a loss model share its probabilities
    starts_of: dict[tuple[float, float, float, float], np.ndarray] = {}
    loss_of: dict[tuple[int, float, float, float, float], float | np.ndarray] = {}
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
        window = (lane.start_s, end_s, obs.phase_offset_s, obs.round_seconds)
        round_starts = starts_of.get(window)
        if round_starts is None:
            round_starts = starts_of[window] = obs.round_starts(lane.start_s, end_s)
        if round_starts.size == 0:
            rng.random(DRAW_BLOCK)  # the scalar loop prefills before its first round
            out.append(_empty_series(obs.name))
            continue
        K = min(obs.max_probes_per_round, target.m)
        if K < 1 or (K - 1) * obs.probe_spacing_s >= target.round_seconds:
            raise ValueError("a round's probes must fit inside one truth column span")
        loss_p: float | np.ndarray = 0.0
        if loss.max_probability() > 0:
            key = (id(loss), *window)
            if key not in loss_of:
                p = loss.loss_probability(round_starts)
                # constant: keep one number, not a column
                loss_of[key] = float(p[0]) if np.all(p == p[0]) else p
            loss_p = loss_of[key]
        live.append(_LiveLane(len(out), lane, rng, end_s, round_starts.size, loss_p))
        out.append(_empty_series(obs.name))  # placeholder, replaced below

    if live:
        kernel = _LaneKernel(live)
        kernel.run()
        for j, item in enumerate(kernel.live):
            n = item.n_rounds
            out[item.slot] = LaneRounds(
                item.lane, item.end_s, kernel.k_out[:n, j], kernel.hit_out[:n, j]
            )
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


#: the three masked swaps that transpose an 8x8 bit block inside a uint64
_SWAPS = tuple(
    (np.uint64(s), np.uint64(mask))
    for s, mask in ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))
)


def _transpose_blocks(rows: np.ndarray) -> np.ndarray:
    """Column-major bits of ``rows`` (uint8 ``[8a, nb]``, bits packed along each row).

    Returns uint8 ``[a, nb, 8]``: byte ``7 - j`` of ``[i, b]`` holds the
    bits of column ``8b + j`` in rows ``8i .. 8i + 7``, most significant
    bit first.  Every 8x8 bit block is transposed at once inside a uint64.
    """
    a, nb = rows.shape[0] // 8, rows.shape[1]
    # byte 7 - r of word [i, b] holds row 8i + r
    x = np.ascontiguousarray(rows.reshape(a, 8, nb)[:, ::-1].transpose(0, 2, 1))
    x = x.view("<u8").reshape(a, nb)
    t = np.empty_like(x)
    for s, mask in _SWAPS:
        np.right_shift(x, s, out=t)
        t ^= x
        t &= mask
        x ^= t
        t <<= s
        x ^= t
    return x.view(np.uint8).reshape(a, nb, 8)


#: blocks whose packed truth adds up to about this many bytes are
#: transposed together (one pass over many small blocks, but no more
#: than fits a core's cache)
_RUNS_BATCH_BYTES = 1 << 19

#: after a full count of replies, the lanes fewer than this many replies
#: from a possibly lost draw are followed one by one, at most
#: ``_WATCHED`` of them (the nearest); the next full count comes when the
#: nearest lane not followed could reach its draw
_WATCH_ROUNDS = 32
_WATCHED = 16

#: A lane without loss never reaches its next possible loss: its
#: countdown starts here, far above any window's reply count.
_NO_LOSS = 1 << 62


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
        # the same Python expression observe_reference() uses for round 0's start
        self.base = np.array(
            [lane.start_s + o.phase_offset_s for lane, o in zip(lanes, observers)]
        )
        self.step = np.array([o.round_seconds for o in observers], dtype=np.float64)
        self.spacing = np.array([o.probe_spacing_s for o in observers], dtype=np.float64)
        self.end = np.array([x.end_s for x in live], dtype=np.float64)
        self.origin = np.array([t.origin for t in targets], dtype=np.float64)
        self.column_s = np.array([t.round_seconds for t in targets], dtype=np.float64)
        self.inv = 1.0 / self.column_s
        self.last_col = np.array([t.n_cols - 1 for t in targets], dtype=np.int64)

        # one set of tables per (block, window start, round length)
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
        # a table entry's code is k | hit << shift, so it holds k < 2**shift
        k_max = int(self.K.max())
        wide = k_max >= 128 or int(self.m.max()) > 256
        self.dtype = np.dtype(np.uint16 if wide else np.uint8)
        self.shift = 8 * self.dtype.itemsize - 1
        self.hit_bit = 1 << self.shift
        # the CODE byte that holds the hit bit, in a row's bytes
        self.hit_byte = self.dtype.itemsize - 1 if sys.byteorder == "little" else 0
        self.inf = k_max  # any distance >= a block's K means "no reply this round"
        self.steps = [1 << i for i in range(max(k_max - 1, 0).bit_length())]
        self.mixed_k = np.flatnonzero(self.K != self.g_kt[self.gid]).tolist()
        self.m_list, self.K_list = self.m.tolist(), self.K.tolist()
        self.lane_ids = np.arange(len(live))
        self.cur = np.array(
            [lane.start_cursor % t.m for lane, t in zip(lanes, targets)], dtype=self.dtype
        )
        self.zero = int(self.m.max())  # the zero row: code 0, next cursor = cursor
        self.ident = np.arange(self.zero).astype(self.dtype)
        # row positions 8j .. 8j + 7 of byte j, as uint64 words of table entries
        per_word = 8 // self.dtype.itemsize
        lane = 8 * self.dtype.itemsize
        self.spread = np.uint64(sum(1 << (lane * i) for i in range(per_word)))
        self.ramp = np.array(
            [sum((w * per_word + i) << (lane * i) for i in range(per_word))
             for w in range(self.dtype.itemsize)],
            dtype="<u8",
        )
        self._runs()
        self._verify()

        # loss: each lossy lane counts down the replies left before its
        # next possibly lost draw (a uniform below its largest p)
        L = len(live)
        self.p_const = np.zeros(L, dtype=np.float64)
        self.p_max = np.zeros(L, dtype=np.float64)
        self.var_row = [-1] * L
        self.p_arrays: list[np.ndarray] = []
        for j, x in enumerate(live):
            if isinstance(x.loss_p, float):
                self.p_const[j] = self.p_max[j] = x.loss_p
            else:
                self.var_row[j] = len(self.p_arrays)
                self.p_arrays.append(x.loss_p)
                self.p_max[j] = float(x.loss_p.max())
        self.var_lanes = [j for j, row in enumerate(self.var_row) if row >= 0]
        self.p_lists = [p.tolist() for p in self.p_arrays]
        self.uniform: list[list[float]] = [[] for _ in self.p_arrays]
        self.left = np.full(L, _NO_LOSS, dtype=np.int64)
        self.nxt = [DRAW_BLOCK] * L  # buffer index of the next possibly lost draw
        self.cand: list[list[int]] = [[] for _ in range(L)]
        self.ptr = [0] * L  # nxt == cand[ptr] while candidates remain
        for j, rng in enumerate(self.rngs):
            uniforms = rng.random(DRAW_BLOCK)
            if self.p_max[j] > 0:
                self._fill(j, uniforms)

        n_max = int(self.n_rounds[0])
        k_dtype = np.uint8 if k_max < 256 else np.uint16
        self.k_out = np.zeros((n_max, L), dtype=k_dtype)
        self.hit_out = np.zeros((n_max, L), dtype=bool)

    def _runs(self) -> None:
        """Each block's distinct truth columns, packed once for every slab.

        Consecutive equal columns of a block form a *run*.  A run's row
        is its probe-order truth followed by its first ``kt - 1``
        targets again (so a cursor walk never wraps), packed eight
        targets per byte; ``rows`` holds every block's run rows end to
        end and ``row_pos`` the row position of each byte's first bit.
        ``run_bits[lane_col + c]`` is truth column ``c``'s row offset,
        in bits, from its block's first row.
        """
        n = len(self.g_target)
        self.g_first = np.array([t.first_col for t in self.g_target], dtype=np.int64)
        self.g_width = np.array([t.width for t in self.g_target], dtype=np.int64)
        self.g_mbw = np.zeros(n, dtype=np.int64)
        g_col = np.cumsum(self.g_width) - self.g_width
        rows: list[np.ndarray] = []
        pos: list[np.ndarray] = []
        self.g_col = g_col
        self.run_bits = np.empty(int(self.g_width.sum()), dtype=np.int32)
        batch: list[int] = []
        size = 0
        for g, t in enumerate(self.g_target):
            batch.append(g)
            size += (t.m + 7) // 8 * 8 * t.packed.shape[1]
            following = self.g_target[g + 1] if g + 1 < n else None
            if following is None or following.width != t.width or size > _RUNS_BATCH_BYTES:
                self._runs_of(batch, rows, pos)
                batch, size = [], 0
        sizes = np.array([r.size for r in rows], dtype=np.int64)
        self.g_byte = np.cumsum(sizes) - sizes
        self.rows = np.concatenate(rows)
        self.row_pos = np.concatenate(pos)
        self.lane_col = (g_col - self.g_first)[self.gid]

    def _runs_of(
        self,
        gs: list[int],
        rows: list[np.ndarray],
        pos: list[np.ndarray],
    ) -> None:
        """Append the run rows of blocks ``gs``, which share a window width."""
        targets = [self.g_target[g] for g in gs]
        width = targets[0].width
        # the blocks' rows end to end, each padded to a multiple of 8
        mb = [(t.m + 7) // 8 for t in targets]
        first = (8 * (np.cumsum(mb) - mb)).tolist()
        bits = np.zeros((8 * sum(mb), targets[0].packed.shape[1]), dtype=np.uint8)
        for t, row in zip(targets, first):
            bits[row : row + t.m] = t.packed
        # columns that differ from the one before: shift each packed row
        # one column right and compare, all in the packed bytes
        diff = bits >> 1
        diff[:, 1:] |= bits[:, :-1] * np.uint8(128)  # << 7, but fast
        diff ^= bits
        by_column = _transpose_blocks(bits)
        for g, t, b, row in zip(gs, targets, mb, first):
            changed = np.bitwise_or.reduce(diff[row : row + t.m], axis=0)
            new_run = np.unpackbits(changed, count=width).astype(bool)
            new_run[0] = True
            cols = np.flatnonzero(new_run)
            runs = by_column[row // 8 : row // 8 + b, cols >> 3, 7 - (cols & 7)].T
            # append each row's first kt - 1 targets after target m - 1;
            # bits copied past position m + kt - 2 only ever sit at
            # distances of at least kt
            m, kt = t.m, int(self.g_kt[g])
            mbw = (m + kt + 6) // 8
            packed = np.zeros((cols.size, mbw), dtype=np.uint8)
            packed[:, :b] = runs
            at, sh = divmod(m, 8)
            wrap = runs[:, : min((kt + 6) // 8, mbw - at)]
            packed[:, at : at + wrap.shape[1]] |= wrap >> sh
            if sh:
                wrap = wrap[:, : mbw - at - 1]
                packed[:, at + 1 : at + 1 + wrap.shape[1]] |= wrap * np.uint8(1 << (8 - sh))
            rows.append(packed.ravel())
            pos.append(np.tile((8 * np.arange(mbw)).astype(self.dtype), cols.size))
            run_bits = self.run_bits[self.g_col[g] : self.g_col[g] + width]
            np.cumsum(new_run, out=run_bits)
            run_bits -= 1
            run_bits *= 8 * mbw
            self.g_mbw[g] = mbw

    def _verify(self) -> None:
        """Find the lanes whose round ``r`` reads truth column ``c_first + r``.

        With whole-second times, ``t - origin`` is an exact integer and
        observe_reference()'s ``int((t - origin) * (1 / round_seconds))`` is its
        floor quotient, unless ``t`` lies within rounding error (far
        below a second) of a column edge.  A lane whose rounds step by
        exactly one column, whose first probe comes at least a second
        after an edge and whose last probe at least a second before the
        next one therefore reads column ``c_first + r`` in round ``r``
        and never straddles; every round but its last has the full
        budget.  The other lanes, and every lane's last round, keep
        observe_reference()'s float expressions.
        """
        span = (self.K - 1) * self.spacing
        exact = [self.base, self.origin, self.step, self.spacing, self.column_s]
        whole = np.logical_and.reduce(
            [(x == np.floor(x)) & (np.abs(x) < 2.0**40) for x in exact]
        )
        t0 = self.base - self.origin
        c_first = np.floor_divide(t0, self.column_s)
        phase = t0 - c_first * self.column_s
        ok = (
            whole
            & (self.step == self.column_s)
            & (t0 >= 0)
            & (phase >= 1)
            & (phase + span <= self.column_s - 1)
            & (c_first + self.n_rounds - 1 <= self.last_col)
        )
        self.c_first = np.where(ok, c_first, 0).astype(np.int64)
        self.unverified = np.flatnonzero(~ok)

    # -- loss draws ----------------------------------------------------------
    def _fill(self, j: int, uniforms: np.ndarray) -> None:
        row = self.var_row[j]
        if row >= 0:
            self.uniform[row] = uniforms.tolist()
        cand = np.flatnonzero(uniforms < self.p_max[j]).tolist()
        self.cand[j] = cand
        self.ptr[j] = 0
        self.nxt[j] = nxt = cand[0] if cand else DRAW_BLOCK
        self.left[j] = nxt

    def _draw(self, j: int, r: int, i: int) -> bool:
        """Lane ``j`` takes buffer entry ``i`` in round ``r``: was the reply lost?

        ``i`` is at most the lane's next candidate; on it, the lane moves
        on to the following candidate.
        """
        nxt = self.nxt[j]
        lost = False
        if i == nxt:
            row = self.var_row[j]
            lost = row < 0 or self.uniform[row][i] < self.p_lists[row][r]
            ptr = self.ptr[j] = self.ptr[j] + 1
            cand = self.cand[j]
            nxt = self.nxt[j] = cand[ptr] if ptr < len(cand) else DRAW_BLOCK
        self.left[j] = nxt - i - 1
        return lost

    def _lost_one(self, j: int, r: int) -> bool:
        """Lane ``j`` draws once in round ``r``: was the reply lost?"""
        i = self.nxt[j] - int(self.left[j])  # draws taken from the buffer
        if i >= DRAW_BLOCK:
            self._fill(j, self.rngs[j].random(DRAW_BLOCK))
            i = 0
        return self._draw(j, r, i)

    # -- rounds --------------------------------------------------------------
    def _columns(self, times: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        """observe_reference()'s time -> truth column map; the last axis runs
        over ``lanes``."""
        cols = ((times - self.origin[lanes]) * self.inv[lanes]).astype(np.int64)
        return np.clip(cols, 0, self.last_col[lanes])

    def run(self) -> None:
        n_max = int(self.n_rounds[0])
        for r0 in range(0, n_max, SLAB_ROUNDS):
            self._slab(r0, min(r0 + SLAB_ROUNDS, n_max))

    def _first_columns(
        self, rounds: np.ndarray, n_live: int, last: np.ndarray
    ) -> "tuple[np.ndarray, tuple[np.ndarray, ...]]":
        """First truth column of every (round, lane), round-major, and the
        cells computed exactly.

        Verified lanes read ``c_first + r``.  The other lanes' rounds are
        bounded from above without the exact cumsum, and only rounds
        whose bound reaches the window end or the next column are
        computed exactly, as observe_reference() computes them; so is every lane's
        last round.  Those cells ``(fi, fr)`` (lane, round in the slab)
        get a probe budget ``rem`` and a crossover index ``jc`` (``K``
        when none) into a second column ``c1``; every other cell has
        ``rem = jc = K``.  Rounds past a lane's last read its first
        column, so that every cell indexes its block's runs.
        """
        n, r0 = rounds.size, int(rounds[0])
        c0 = rounds[:, None] + self.c_first[:n_live]
        fi = np.flatnonzero(self.n_rounds[:n_live] - r0 <= n)
        fr = last[fi]
        u = self.unverified[self.unverified < n_live]
        if u.size:
            starts = self.base[u] + rounds[:, None] * self.step[u]
            c0[:, u] = self._columns(starts, u)
            bound = starts + (self.K[u] - 1) * self.spacing[u]
            bound = bound + (np.abs(bound) * 1e-12 + 1e-9)
            near = (self._columns(bound, u) != c0[:, u]) | (bound >= self.end[u])
            er, el = np.nonzero(near & (np.arange(n)[:, None] <= last[u]))
            cells = np.unique(np.concatenate((fi * n + fr, u[el] * n + er)))
            fi, fr = np.divmod(cells, n)
        kf = self.K[fi]
        if not fi.size:
            return c0, (fi, fr, kf, kf, kf)
        T = np.empty((fi.size, int(kf.max())), dtype=np.float64)
        T[:, 0] = self.base[fi] + rounds[fr] * self.step[fi]
        T[:, 1:] = self.spacing[fi, None]
        np.cumsum(T, axis=1, out=T)
        in_k = np.arange(T.shape[1])[None, :] < kf[:, None]
        rem = np.minimum(((T < self.end[fi, None]) & in_k).sum(axis=1), kf)
        cols = ((T - self.origin[fi, None]) * self.inv[fi, None]).astype(np.int64)
        cols = np.clip(cols, 0, self.last_col[fi, None])
        jc = kf.copy()
        c1 = cols[:, 0].copy()
        cross = np.flatnonzero(cols[np.arange(fi.size), kf - 1] != cols[:, 0])
        if cross.size:
            jx = ((cols[cross] == cols[cross, :1]) & in_k[cross]).sum(axis=1)
            jc[cross] = jx
            c1[cross] = cols[cross, jx]
        if (last < n - 1).any():
            c0 = np.where(np.arange(n)[:, None] <= last, c0, c0[0])
        return c0, (fi, fr, rem, jc, c1)

    def _slab(self, r0: int, r1: int) -> None:
        n_live = int(np.count_nonzero(self.n_rounds > r0))
        n = r1 - r0
        rounds = np.arange(r0, r1)
        last = np.minimum(self.n_rounds[:n_live] - 1 - r0, n - 1)  # in this slab
        c0, cells = self._first_columns(rounds, n_live, last)
        fi, fr, rem, jc, c1 = cells
        straddle = jc < rem

        # the tables of the runs each block's lanes touch
        gid = self.gid[:n_live]
        top = c0[last, self.lane_ids[:n_live]]
        np.maximum.at(top, fi[straddle], c1[straddle])
        n_groups = len(self.g_target)
        g_lo = np.full(n_groups, np.iinfo(np.int64).max, dtype=np.int64)
        g_hi = np.full(n_groups, -1, dtype=np.int64)
        np.minimum.at(g_lo, gid, c0[0])
        np.maximum.at(g_hi, gid, top)
        groups = np.flatnonzero(g_hi >= 0)
        lo, hi = g_lo[groups], g_hi[groups]
        first = self.g_first[groups]
        if (lo < first).any() or (hi >= first + self.g_width[groups]).any():
            raise ValueError("a round reads truth columns outside its target's packed window")
        g_row = np.zeros(n_groups, dtype=np.int64)
        g_row[groups] = self._tables(groups, lo, hi)

        # table offset of each (round, lane)'s row.  Cells with a cut
        # budget, a straddle, a lane K below its block's, or no draw on
        # a reply (p = 0) go the general path; they read the zero row,
        # which leaves them untouched
        row = g_row[gid]
        col = self.lane_col[:n_live]
        B0r = B0 = row + self.run_bits[c0 + col]
        cut = straddle | (rem < self.K[fi])
        gr, gl = [fr[cut]], [fi[cut]]
        for j in self.mixed_k:
            if j < n_live:
                gr.append(np.arange(last[j] + 1))
                gl.append(np.full(last[j] + 1, j))
        drawing: dict[int, np.ndarray] = {}
        for j in self.var_lanes:
            if j < n_live:
                drawing[j] = self.p_arrays[self.var_row[j]][r0:r1] > 0
                idle = np.flatnonzero(~drawing[j][: last[j] + 1])
                gr.append(idle)
                gl.append(np.full(idle.size, j))
        general = [False] * n
        if sum(g.size for g in gr):
            GEN = np.zeros((n, n_live), dtype=bool)
            GEN[np.concatenate(gr), np.concatenate(gl)] = True
            general = GEN.any(axis=1).tolist()
            B0 = np.where(GEN, 0, B0r)
            REM = np.repeat(self.K[None, :n_live], n, axis=0)
            JC = REM.copy()
            REM[fr, fi] = rem
            JC[fr, fi] = jc
            B1r = B0r
            if straddle.any():
                s = np.flatnonzero(straddle)
                B1r = B0r.copy()
                B1r[fr[s], fi[s]] = row[fi[s]] + self.run_bits[c1[s] + col[fi[s]]]
            lossy = np.repeat((self.p_const[:n_live] > 0)[None, :], n, axis=0)
            for j, d in drawing.items():
                lossy[: d.size, j] = d
        n_active = np.searchsorted(-self.n_rounds, -rounds, side="left").tolist()
        # rounds whose replies must all be counted: the lane set changes
        # after them, or lanes take the general path in them
        sync = [
            g or a != b for g, a, b in zip(general, n_active, n_active[1:] + [-1])
        ]

        codes, nextc, hit_bit = self.codes, self.nextc, self.hit_bit
        cur, left = self.cur, self.left
        CODE = np.zeros((n, n_live), dtype=self.dtype)
        # Replies are counted against every countdown in the full rounds
        # only.  In between, a lane at least `horizon` replies from its
        # next possibly lost draw cannot reach it, so only the few lanes
        # nearer theirs are followed, one byte of each CODE row at a time.
        counted = horizon = 0  # CODE rows before `counted` are counted
        watched: list[list[int]] = []  # [row byte, lane, countdown at `counted`, replies since]
        outs, b0s = list(CODE), list(B0)  # row views
        A = -1
        for rr, r in enumerate(range(r0, r1)):
            if n_active[rr] != A:
                A = n_active[rr]
                c, lv, idx = cur[:A], left[:A], np.empty(A, dtype=np.int64)
            out, b0 = outs[rr], b0s[rr]
            if A < n_live:
                out, b0 = out[:A], b0[:A]
            np.add(b0, c, out=idx)
            codes.take(idx, out=out)
            nextc.take(idx, out=c)
            if rr - counted < horizon and not sync[rr]:
                if watched:
                    replies = out.tobytes()
                    for w in watched:
                        if replies[w[0]] >= 0x80:
                            w[3] += 1
                            if w[3] > w[2]:
                                self._flag_watched(rr, r, w, CODE, B0)
                continue
            if counted == rr:
                lv -= out >= hit_bit
            else:
                lv -= (CODE[counted : rr + 1, :A] >= hit_bit).sum(axis=0)
            counted = rr + 1
            flagged = (lv < 0).nonzero()[0]
            if flagged.size:
                for j in flagged.tolist():
                    self._flagged(rr, r, j, CODE, B0)
            if general[rr]:
                G = GEN[rr, :A].nonzero()[0]
                self._general(rr, r, G, CODE, B0r, B1r, REM, JC, lossy)
            horizon, watched = self._watch(left[: n_active[rr + 1] if rr + 1 < n else A])
        self.k_out[r0:r1, :n_live] = CODE & (self.hit_bit - 1)
        self.hit_out[r0:r1, :n_live] = CODE >= self.hit_bit

    def _tables(self, groups: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Build one slab's code and next-cursor tables; return each block's row base.

        Block ``g``'s runs from column ``lo[g]``'s to ``hi[g]``'s are
        contiguous in ``rows``, so every block's bytes come out of one
        gather and one unpack, laid end to end after the zero row.  The
        distance ``d`` from each position to the next active entry is
        resolved for every row at once by log-step doubling over the
        flat array (``d[p] = min(d[p], d[p + s] + s)`` for s = 1, 2, 4,
        ...); a walk that runs off a row's end only ever finds distances
        of at least ``kt``, which no lane can use.  A cursor at ``p``
        then sends ``k = min(d + 1, kt)`` probes, hits when ``d < kt``
        and moves to ``(p + k) % m``: ``codes`` holds ``k | hit <<
        shift`` and ``nextc`` the next cursor, in the narrow table dtype
        (a wrapped sum is right modulo 2**bits, and the cursor is below
        ``m``).  Entries past ``m`` in a row are never read.
        """
        dt = self.dtype
        g_col = self.g_col[groups] - self.g_first[groups]
        r_lo = self.run_bits[g_col + lo]
        mbw = self.g_mbw[groups]
        nb = (self.run_bits[g_col + hi] - r_lo) // 8 + mbw
        off = np.cumsum(nb) - nb
        size = int(off[-1] + nb[-1])
        idx = np.arange(size) + np.repeat(self.g_byte[groups] + r_lo // 8 - off, nb)
        d = np.unpackbits(self.rows[idx]).astype(dt, copy=False)
        np.bitwise_xor(d, 1, out=d)
        d *= self.inf
        for s in self.steps:
            np.minimum(d[:-s], d[s:] + s, out=d[:-s])
        nbits = 8 * nb
        km1 = np.repeat((self.g_kt[groups] - 1).astype(dt), nbits)
        m = np.repeat(self.g_m[groups].astype(dt), nbits)  # modulo 2**bits, like every sum here
        # each byte's eight row positions, built eight at a time in uint64
        # words; positions past 2**bits wrap, but they are past m anyway
        pos = (self.row_pos[idx].astype("<u8")[:, None] * self.spread + self.ramp)
        pos = pos.view(dt.newbyteorder("<")).reshape(-1)
        hit = np.less_equal(d, km1).view(np.uint8)
        np.minimum(d, km1, out=d)
        d += 1  # k
        z = self.zero
        codes = np.empty(z + d.size, dtype=dt)
        codes[:z] = 0
        code = codes[z:]
        np.multiply(hit, self.hit_bit, out=code, dtype=dt)
        code += d
        nextc = np.empty(z + d.size, dtype=dt)
        nextc[:z] = self.ident
        nxt = nextc[z:]
        np.add(pos, d, out=nxt)  # p + k
        np.subtract(m, d, out=km1)  # m - k
        m *= np.greater_equal(pos, km1).view(np.uint8)  # p + k >= m
        nxt -= m
        self.codes, self.nextc = codes, nextc
        return z + 8 * off - r_lo

    def _decode(self, codes: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """(hit, d) of table entries: a reply ``d`` probes on, if any."""
        return codes >= self.hit_bit, (codes & (self.hit_bit - 1)).astype(np.int64) - 1

    def _general(
        self,
        rr: int,
        r: int,
        G: np.ndarray,
        CODE: np.ndarray,
        B0r: np.ndarray,
        B1r: np.ndarray,
        rem: np.ndarray,
        jc: np.ndarray,
        lossy: np.ndarray,
    ) -> None:
        """Resolve round ``r`` for lanes ``G``: cut budgets, straddles, mixed K."""
        codes, m = self.codes, self.m[G]
        cur = self.cur[G].astype(np.int64)
        remg, jcg, b0, b1 = rem[rr, G], jc[rr, G], B0r[rr, G], B1r[rr, G]
        hit, d = self._decode(codes[b0 + cur])
        hit &= d < np.minimum(remg, jcg)
        k = np.where(hit, d + 1, remg)
        s = np.flatnonzero(~hit & (jcg < remg))
        if s.size:
            # the round continues into the next truth column
            jcs = jcg[s]
            hit2, d2 = self._decode(codes[b1[s] + (cur[s] + jcs) % m[s]])
            ok = hit2 & (d2 < remg[s] - jcs)
            s = s[ok]
            hit[s] = True
            k[s] = jcs[ok] + d2[ok] + 1
        drew = np.flatnonzero(hit & lossy[rr, G])
        if drew.size:
            left = self.left
            left[G[drew]] -= 1
            for q in drew[left[G[drew]] < 0].tolist():
                j = int(G[q])
                left[j] += 1
                if self._lost_one(j, r):
                    k[q], hit[q] = self._resume(
                        j, r, int(cur[q]), int(k[q]), int(remg[q]), int(jcg[q]),
                        int(b0[q]), int(b1[q]),
                    )
        CODE[rr, G] = k | (hit.astype(np.int64) << self.shift)
        self.cur[G] = (cur + k) % m

    def _watch(self, left: np.ndarray) -> "tuple[int, list[list[int]]]":
        """After a full count: the rounds until the next one, and the lanes
        to follow until then (at most :data:`_WATCHED`, all nearer than
        that many replies to a possibly lost draw)."""
        near = (left < _WATCH_ROUNDS).nonzero()[0]
        horizon = _WATCH_ROUNDS
        if near.size > _WATCHED:
            countdown = left[near]
            horizon = int(np.partition(countdown, _WATCHED)[_WATCHED])
            near = near[countdown < horizon]
        size, at = self.dtype.itemsize, self.hit_byte
        return horizon, [
            [size * j + at, j, c, 0] for j, c in zip(near.tolist(), left[near].tolist())
        ]

    def _flag_watched(
        self, rr: int, r: int, w: list[int], CODE: np.ndarray, B0: np.ndarray
    ) -> None:
        """A followed lane's reply in round ``r`` took a possibly lost draw."""
        j = w[1]
        self._flagged(rr, r, j, CODE, B0)
        # restate the countdown as of the last full count, which the next
        # full count brings up to date by this lane's replies since
        w[3] += int(CODE[rr, j] >= self.hit_bit) - 1
        w[2] = int(self.left[j]) + w[3]
        self.left[j] = w[2]

    def _flagged(self, rr: int, r: int, j: int, CODE: np.ndarray, B0: np.ndarray) -> None:
        """Steady lane ``j``'s reply in round ``r`` took a possibly lost draw."""
        i = self.nxt[j]  # the draw the reply took
        if i >= DRAW_BLOCK:  # the buffer ran out before it: refill first
            self._fill(j, self.rngs[j].random(DRAW_BLOCK))
            i = 0
        if not self._draw(j, r, i):
            return
        # lost: the round goes on from the target after the reply
        hit_bit = self.hit_bit
        k = int(CODE[rr, j]) - hit_bit
        m, K = self.m_list[j], self.K_list[j]
        cur = (int(self.cur[j]) - k) % m  # the round's starting cursor
        base = int(B0[rr, j])
        hit = False
        while k < K:
            code = int(self.codes[base + (cur + k) % m])
            if code < hit_bit or code - hit_bit > K - k:  # no reply within budget
                k = K
                break
            k += code - hit_bit
            i += 1
            if i >= DRAW_BLOCK:
                self._fill(j, self.rngs[j].random(DRAW_BLOCK))
                i = 0
            if not self._draw(j, r, i):
                hit = True
                break
        CODE[rr, j] = k | (hit << self.shift)
        self.cur[j] = (cur + k) % m

    def _resume(
        self, j: int, r: int, cur: int, pos: int, rem: int, jc: int, b0: int, b1: int
    ) -> tuple[int, bool]:
        """Continue lane ``j``'s round after a lost reply at ``pos - 1``."""
        codes = self.codes
        m = self.m_list[j]
        mask = self.hit_bit - 1
        while pos < rem:
            if pos < jc:
                base, seg_end = b0, min(jc, rem)
            else:
                base, seg_end = b1, rem
            code = int(codes[base + (cur + pos) % m])
            gap = (code & mask) - 1 if code & self.hit_bit else seg_end
            if gap >= seg_end - pos:
                pos = seg_end
                continue
            pos += gap + 1
            if not self._lost_one(j, r):
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
            return _empty_series(self.name)
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
        return ObservationSeries(
            times=t,
            addresses=truth.addresses[order_idx],
            results=states,
            observer=self.name,
        )
