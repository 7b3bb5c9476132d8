"""Figure 5: where reconstruction misses change-sensitive blocks.

Compares survey ground truth with 4-observer reconstruction over the
same two weeks and bins the blocks that are change-sensitive in truth
but *missed* by reconstruction, by observed scan time (x) and scan size
|E(b)| (y).

The paper's heatmap comes from 32k survey-overlap blocks; to cover the
size/availability plane at laptop scale we sweep a grid of dynamic-pool
blocks from small-and-sparse to full-and-dense.  Expected shape:
failures concentrate away from the origin — large blocks with long scan
times, exactly the blocks §2.8's additional probing targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime

import numpy as np

from ..core.pipeline import BlockPipeline
from ..core.reconstruction import full_scan_durations
from ..net.events import Calendar
from ..net.observations import ObservationSeries, merge_observations
from ..net.prober import probe_order
from ..net.survey import SurveyObserver
from ..net.usage import BlockTruth, DynamicPoolUsage, round_grid
from .common import fmt_table, observe_blocks, site_lanes

__all__ = ["Fig5Result", "run", "TIME_EDGES_H", "SIZE_EDGES"]

TIME_EDGES_H = (0, 2, 6, 10, 14, 18, 22, 24, 1e9)
SIZE_EDGES = (0, 20, 60, 100, 140, 180, 220, 256)
DURATION_DAYS = 14
EPOCH = datetime(2020, 2, 19)

#: the sweep: pool sizes x overnight occupancy (availability)
POOL_SIZES = (32, 64, 96, 128, 160, 192, 224, 250)
TROUGHS = (0.05, 0.20, 0.40, 0.60)


@dataclass(frozen=True)
class SweptBlock:
    eb_size: int
    trough: float
    scan_hours: float
    truth_cs: bool
    recon_cs: bool

    @property
    def missed(self) -> bool:
        return self.truth_cs and not self.recon_cs


@dataclass(frozen=True)
class Fig5Result:
    blocks: tuple[SweptBlock, ...]
    heatmap: np.ndarray  # [size_bins, time_bins] counts of missed blocks

    @property
    def n_truth_cs(self) -> int:
        return sum(b.truth_cs for b in self.blocks)

    @property
    def n_missed(self) -> int:
        return sum(b.missed for b in self.blocks)

    def shape_checks(self) -> dict[str, bool]:
        missed = [b for b in self.blocks if b.missed]
        recovered = [b for b in self.blocks if b.truth_cs and b.recon_cs]
        checks = {
            "most truth-CS blocks are recovered": len(recovered) > len(missed),
            "some truth-CS blocks are missed": bool(missed),
        }
        if missed and recovered:
            checks["missed blocks scan slower than recovered ones"] = np.median(
                [b.scan_hours for b in missed]
            ) > np.median([b.scan_hours for b in recovered])
            checks["missed blocks are larger than recovered ones"] = np.median(
                [b.eb_size for b in missed]
            ) >= np.median([b.eb_size for b in recovered])
        return checks


def _sweep_truth(pool_size: int, trough: float, seed: int) -> BlockTruth:
    calendar = Calendar(epoch=EPOCH, tz_hours=2.0)
    peak = min(trough + 0.45, 0.95)
    usage = DynamicPoolUsage(
        pool_size=pool_size,
        peak=peak,
        trough=trough,
        quiet_week_probability=0.0,
        stale_addresses=0,
    )
    return usage.generate(seed, round_grid(DURATION_DAYS * 86_400.0), calendar)


def _sweep_block(
    truth: BlockTruth, logs: list[ObservationSeries], trough: float, seed: int
) -> SweptBlock:
    pipeline = BlockPipeline()
    survey_log = SurveyObserver().observe(truth, rng=np.random.default_rng([seed, 9]))
    truth_cls = pipeline.analyze([survey_log], truth.addresses).classification

    recon_cls = pipeline.analyze(logs, truth.addresses).classification
    durations = full_scan_durations(
        merge_observations(logs), truth.addresses, max_scans=8
    )
    scan_hours = (
        float(np.median(durations)) / 3600.0 if durations.size else DURATION_DAYS * 24.0
    )
    return SweptBlock(
        eb_size=truth.n_addresses,
        trough=trough,
        scan_hours=scan_hours,
        truth_cs=truth_cls.is_change_sensitive,
        recon_cs=recon_cls.is_change_sensitive,
    )


def run(seed: int = 28) -> Fig5Result:
    cases = [
        (pool_size, trough, seed + 37 * i + j)
        for i, pool_size in enumerate(POOL_SIZES)
        for j, trough in enumerate(TROUGHS)
    ]
    truths = [_sweep_truth(*case) for case in cases]
    # every block's four sites, probed in one lane-kernel call
    lanes = [
        site_lanes(truth, probe_order(truth.n_addresses, s), s, 131.0)
        for truth, (_, _, s) in zip(truths, cases)
    ]
    blocks = [
        _sweep_block(truth, logs, trough, s)
        for truth, (_, trough, s), logs in zip(truths, cases, observe_blocks(lanes))
    ]

    heatmap = np.zeros((len(SIZE_EDGES) - 1, len(TIME_EDGES_H) - 1), dtype=int)
    for b in blocks:
        if not b.missed:
            continue
        ti = int(np.searchsorted(TIME_EDGES_H, b.scan_hours, side="right")) - 1
        si = int(np.searchsorted(SIZE_EDGES, b.eb_size, side="right")) - 1
        heatmap[min(si, heatmap.shape[0] - 1), min(ti, heatmap.shape[1] - 1)] += 1
    return Fig5Result(blocks=tuple(blocks), heatmap=heatmap)


def format_report(result: Fig5Result) -> str:
    headers = ["|E(b)| \\ scan"] + [
        f"<{int(TIME_EDGES_H[i + 1])}h" if TIME_EDGES_H[i + 1] < 1e9 else ">=24h"
        for i in range(len(TIME_EDGES_H) - 1)
    ]
    rows = []
    for si in range(result.heatmap.shape[0] - 1, -1, -1):
        label = f"{SIZE_EDGES[si]}-{SIZE_EDGES[si + 1]}"
        rows.append([label] + list(result.heatmap[si]))
    out = [
        "Figure 5: change-sensitivity failures by scan time x scan size",
        f"swept blocks: {len(result.blocks)}; truth-CS: {result.n_truth_cs}; "
        f"missed in reconstruction: {result.n_missed}",
        fmt_table(headers, rows),
        "",
    ]
    for check, ok in result.shape_checks().items():
        out.append(f"  [{'ok' if ok else 'FAIL'}] {check}")
    return "\n".join(out)


def main() -> None:
    print(format_report(run()))


if __name__ == "__main__":
    main()
