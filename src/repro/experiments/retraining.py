"""§3.4 ongoing work: quarterly target-list retraining.

The paper notes that non-stationarity (churned allocations, CG-NAT
migrations) "can be addressed by regular retraining, as is already done
for input targets."  This experiment closes that loop: blocks whose user
population shifts to *different addresses* between quarters are probed
with (a) a stale target list frozen at quarter 0 and (b) a list refreshed
each quarter from the previous quarter's replies plus a census sweep.

Expected shapes: with a stale list, change-sensitivity detection decays
in later quarters (the active addresses are no longer probed); the
refreshed list rediscovers them and restores detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime

import numpy as np

from ..core.pipeline import BlockPipeline
from ..datasets.targets import TargetList, TargetListManager
from ..net.events import Calendar, Renumbering
from ..net.prober import ProbeLane, probe_order
from ..net.usage import BlockTruth, DynamicPoolUsage, round_grid
from .common import fmt_table, observe_blocks, site_lanes

__all__ = ["RetrainingResult", "run"]

EPOCH = datetime(2020, 1, 1)
QUARTER_DAYS = 28  # compressed quarters keep the experiment quick
N_QUARTERS = 3
N_BLOCKS = 8


@dataclass(frozen=True)
class RetrainingResult:
    #: per-quarter count of blocks classified change-sensitive
    stale_cs: tuple[int, ...]
    fresh_cs: tuple[int, ...]
    n_blocks: int

    def shape_checks(self) -> dict[str, bool]:
        return {
            "both lists work in quarter 0": (
                self.stale_cs[0] == self.fresh_cs[0] and self.fresh_cs[0] > 0
            ),
            "stale lists lose blocks after renumbering": (
                self.stale_cs[-1] < self.stale_cs[0]
            ),
            "retraining retains more blocks than the stale list": (
                self.fresh_cs[-1] > self.stale_cs[-1]
            ),
            "retraining retains most blocks": self.fresh_cs[-1]
            >= 0.6 * self.fresh_cs[0],
        }


def _target_lanes(
    truth: BlockTruth, targets: TargetList, seed: int, start_s: float, duration_s: float
) -> tuple[list[ProbeLane], BlockTruth]:
    """One quarter's site lanes over only the target list's addresses
    (none when the list is empty), and the truth they probe."""
    keep = np.isin(truth.addresses, targets.addresses)
    sub = BlockTruth(
        addresses=truth.addresses[keep],
        active=truth.active[keep],
        col_times=truth.col_times,
    )
    if sub.n_addresses == 0:
        return [], sub
    order = probe_order(sub.n_addresses, seed)
    lanes = site_lanes(
        sub, order, seed, 127.0, salt=(int(start_s),), start_s=start_s, duration_s=duration_s
    )
    return lanes, sub


def _renumbered_block(block_seed: int, horizon: float) -> BlockTruth:
    """A pool block whose users move to the /24's other half after quarter 0."""
    rng = np.random.default_rng(block_seed)
    # base activity without network events...
    calendar = Calendar(epoch=EPOCH, tz_hours=float(rng.integers(-8, 9)))
    usage = DynamicPoolUsage(
        pool_size=96,
        peak=0.7,
        trough=0.08,
        quiet_week_probability=0.0,
        stale_addresses=0,
    )
    generated = usage.generate(block_seed, round_grid(horizon), calendar)
    # ...embedded into the low half of the /24 so the +128 renumbering
    # moves users onto addresses no target list has ever seen
    base = np.zeros((256, generated.n_cols), dtype=bool)
    for row in range(generated.n_addresses):
        base[row] = generated.active[row]
    renumber_at = (QUARTER_DAYS + int(rng.integers(2, 10))) * 86_400.0
    renumber = Renumbering(time_s=renumber_at, gap_s=6 * 3600.0, shift=128)
    return BlockTruth(
        addresses=np.arange(256, dtype=np.int16),
        active=renumber.transform(base, generated.col_times, rng),
        col_times=generated.col_times,
    )


def run(seed: int = 35) -> RetrainingResult:
    pipeline = BlockPipeline()
    horizon = N_QUARTERS * QUARTER_DAYS * 86_400.0
    seeds = [seed + 61 * b for b in range(N_BLOCKS)]
    truths = [_renumbered_block(block_seed, horizon) for block_seed in seeds]
    managers = [TargetListManager() for _ in seeds]
    # bootstrap both lists from a quarter-0 census of actual responders
    stale_lists = []
    for truth in truths:
        responders = truth.active[:, : QUARTER_DAYS * 130].any(axis=1)
        stale_lists.append(TargetList(addresses=truth.addresses[responders], quarter=0))
    fresh_lists = list(stale_lists)

    stale_cs = [0] * N_QUARTERS
    fresh_cs = [0] * N_QUARTERS
    for q in range(N_QUARTERS):
        start = q * QUARTER_DAYS * 86_400.0
        duration = QUARTER_DAYS * 86_400.0
        probes = [
            (
                _target_lanes(truth, stale, block_seed, start, duration),
                _target_lanes(truth, fresh, block_seed + 7, start, duration),
            )
            for block_seed, truth, stale, fresh in zip(seeds, truths, stale_lists, fresh_lists)
        ]
        # every block's stale and fresh lanes of the quarter, probed in
        # one lane-kernel call
        logs = observe_blocks([lanes for pair in probes for lanes, _ in pair])
        for b, ((stale_lanes, stale_sub), (fresh_lanes, fresh_sub)) in enumerate(probes):
            stale_logs, fresh_logs = next(logs), next(logs)
            if stale_lanes:
                analysis = pipeline.analyze(stale_logs, stale_sub.addresses)
                stale_cs[q] += int(analysis.is_change_sensitive)
            if fresh_lanes:
                analysis = pipeline.analyze(fresh_logs, fresh_sub.addresses)
                fresh_cs[q] += int(analysis.is_change_sensitive)
                sweep = managers[b].sweep(truths[b], start + duration - 43_200.0)
                fresh_lists[b] = managers[b].refresh(
                    fresh_lists[b],
                    pipeline_merged(fresh_logs),
                    sweep_responders=sweep,
                )
    return RetrainingResult(
        stale_cs=tuple(stale_cs), fresh_cs=tuple(fresh_cs), n_blocks=N_BLOCKS
    )


def pipeline_merged(logs):
    from ..net.observations import merge_observations

    return merge_observations(logs)


def format_report(result: RetrainingResult) -> str:
    rows = [
        [f"quarter {q}", result.stale_cs[q], result.fresh_cs[q]]
        for q in range(len(result.stale_cs))
    ]
    out = [
        f"S3.4: target-list retraining ({result.n_blocks} renumbering pool blocks)",
        fmt_table(["window", "CS w/ stale list", "CS w/ retrained list"], rows),
        "",
    ]
    for check, ok in result.shape_checks().items():
        out.append(f"  [{'ok' if ok else 'FAIL'}] {check}")
    return "\n".join(out)


def main() -> None:
    print(format_report(run()))


if __name__ == "__main__":
    main()
