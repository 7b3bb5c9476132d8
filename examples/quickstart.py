"""Quickstart: detect a work-from-home shift in one /24 block.

Builds a synthetic workplace block (people at desks on public IPs during
work hours), schedules a WFH order for 2020-03-15, probes it with four
Trinocular-style observers, and runs the full analysis pipeline:
1-loss repair -> merge -> reconstruction -> change-sensitivity -> STL
trend -> CUSUM change detection.

Run:  python examples/quickstart.py
"""

from datetime import date, datetime, timedelta

import numpy as np

from repro import BlockPipeline, TrinocularObserver, probe_order
from repro.net.events import Calendar, WorkFromHome
from repro.net.usage import WorkplaceUsage, round_grid


def main() -> None:
    # 1. ground truth: a block whose people stop coming in on 2020-03-15
    epoch = datetime(2020, 1, 1)
    calendar = Calendar(
        epoch=epoch,
        tz_hours=-8.0,  # Los Angeles
        events=(WorkFromHome(start=date(2020, 3, 15), work_factor=0.05),),
    )
    usage = WorkplaceUsage(n_desktops=40, n_servers=2)
    truth = usage.generate(42, round_grid(84 * 86_400.0), calendar)
    print(f"block has |E(b)| = {truth.n_addresses} ever-active addresses")

    # 2. measurement: four observers, unsynchronized, shared probe order
    order = probe_order(truth.n_addresses, seed=42)
    logs = [
        TrinocularObserver(name, phase_offset_s=137.0 * (i + 1)).observe(
            truth, order, rng=np.random.default_rng([42, i])
        )
        for i, name in enumerate("ejnw")
    ]
    print(f"collected {sum(len(log) for log in logs)} probe results from 4 observers")

    # 3. analysis
    analysis = BlockPipeline().analyze(logs, truth.addresses)
    c = analysis.classification
    print(f"responsive:        {c.responsive}")
    print(f"diurnal:           {c.is_diurnal} (energy ratio {c.diurnal.energy_ratio:.2f})")
    print(f"wide daily swing:  {c.is_wide_swing} (max swing {c.swing.max_swing:.0f})")
    print(f"change-sensitive:  {c.is_change_sensitive}")

    for event in analysis.changes.human_candidates:
        when = epoch.date() + timedelta(days=event.day)
        direction = "down" if event.is_downward else "up"
        print(f"detected {direction}ward change around {when} (magnitude {event.magnitude:+.1f})")
    print("ground truth: WFH began 2020-03-15")


if __name__ == "__main__":
    main()
