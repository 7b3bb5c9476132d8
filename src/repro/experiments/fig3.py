"""Figure 3: CDF of full-block-scan time with 1-4 observers.

For every change-sensitive block in 2020q1, measure the durations of
successive full scans of E(b) under four observer combinations (e / jw /
jnw / ejnw) and compare the distributions at the paper's 6-hour and
12-hour marks.  Expected shape: each added observer shifts the CDF left
(more blocks fully scanned within 6/12 hours), mirroring the paper's
48% -> 65% at 6 h and 61% -> 78% at 12 h from one to four observers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.reconstruction import full_scan_durations
from ..datasets.builder import DatasetBuilder
from ..datasets.catalog import DatasetSpec
from ..net.observations import merge_observations
from ..net.world import BlockSpec, WorldModel
from ..runtime.cache import task_keyer
from ..runtime.engine import CampaignEngine, engine_scope
from .common import bench_scale, covid_world, fmt_table

__all__ = ["Fig3Result", "run", "OBSERVER_SETS"]

OBSERVER_SETS = ("e", "jw", "jnw", "ejnw")
DATASET = "2020q1-ejnw"
SIX_HOURS = 6 * 3600.0
TWELVE_HOURS = 12 * 3600.0


@dataclass(frozen=True)
class Fig3Result:
    n_blocks: int
    median_scan_s: dict[str, np.ndarray]  # per-set median scan time per block

    def fraction_within(self, observers: str, seconds: float) -> float:
        med = self.median_scan_s[observers]
        if med.size == 0:
            return float("nan")
        return float((med <= seconds).mean())

    def cdf(self, observers: str, grid_s: np.ndarray) -> np.ndarray:
        med = np.sort(self.median_scan_s[observers])
        if med.size == 0:
            return np.zeros(grid_s.size)
        return np.searchsorted(med, grid_s, side="right") / med.size

    def shape_checks(self) -> dict[str, bool]:
        at6 = [self.fraction_within(o, SIX_HOURS) for o in OBSERVER_SETS]
        at12 = [self.fraction_within(o, TWELVE_HOURS) for o in OBSERVER_SETS]
        return {
            "CDF at 6h is monotone in observer count": all(
                a <= b + 1e-9 for a, b in zip(at6, at6[1:])
            ),
            "CDF at 12h is monotone in observer count": all(
                a <= b + 1e-9 for a, b in zip(at12, at12[1:])
            ),
            "4 observers scan most blocks within 12h": at12[-1] >= 0.6,
            "12h covers more than 6h for every set": all(
                a <= b + 1e-9 for a, b in zip(at6, at12)
            ),
        }


@dataclass(frozen=True)
class _ScanTimeJob:
    """Per-block task: median full-scan duration for each observer set."""

    world: WorldModel
    ds: DatasetSpec
    max_scans: int

    def cache_keyer(self) -> Callable[[BlockSpec], str | None]:
        return task_keyer(
            "fig3-scan",
            {"world": self.world, "ds": self.ds, "max_scans": self.max_scans},
            "spec",
        )

    def __call__(self, spec: BlockSpec) -> dict[str, float | None]:
        builder = DatasetBuilder(self.world)
        start = self.ds.start_s(self.world.epoch)
        truth = builder.truth(spec, start, self.ds.duration_s)
        logs = {
            o: builder.observe(spec, o, start, self.ds.duration_s, truth=truth)
            for o in "ejnw"
        }
        out: dict[str, float | None] = {}
        for combo in OBSERVER_SETS:
            merged = merge_observations([logs[o] for o in combo])
            durations = full_scan_durations(
                merged, truth.addresses, max_scans=self.max_scans
            )
            out[combo] = float(np.median(durations)) if durations.size else None
        return out


def run(
    n_blocks: int | None = None,
    seed: int = 26,
    max_scans: int = 40,
    *,
    engine: CampaignEngine | None = None,
) -> Fig3Result:
    n = bench_scale(220) if n_blocks is None else n_blocks
    world = covid_world(n, seed, diurnal_boost=2.0)
    builder = DatasetBuilder(world)
    with engine_scope(engine) as engine:
        result = builder.analyze(DATASET, engine=engine)
        cs = result.change_sensitive()
        job = _ScanTimeJob(world=world, ds=result.spec, max_scans=max_scans)
        scan_run = engine.run(
            job, [result.block_specs[c] for c in cs], label="fig3:scan"
        )
    medians: dict[str, list[float]] = {o: [] for o in OBSERVER_SETS}
    for per_block in scan_run.results:
        for combo, median in per_block.items():
            if median is not None:
                medians[combo].append(median)
    return Fig3Result(
        n_blocks=len(cs),
        median_scan_s={o: np.asarray(v) for o, v in medians.items()},
    )


def format_report(result: Fig3Result) -> str:
    rows = [
        [
            observers,
            f"{result.fraction_within(observers, SIX_HOURS):.0%}",
            f"{result.fraction_within(observers, TWELVE_HOURS):.0%}",
        ]
        for observers in OBSERVER_SETS
    ]
    out = [
        f"Figure 3: full-block-scan time CDF ({result.n_blocks} change-sensitive blocks)",
        fmt_table(["observers", "scanned < 6h", "scanned < 12h"], rows),
        "(paper: 48% -> 65% at 6h and 61% -> 78% at 12h from 1 to 4 observers)",
        "",
    ]
    for check, ok in result.shape_checks().items():
        out.append(f"  [{'ok' if ok else 'FAIL'}] {check}")
    return "\n".join(out)


def main() -> None:
    print(format_report(run()))


if __name__ == "__main__":
    main()
