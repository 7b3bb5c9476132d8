"""Diagnosing a congested observer path and repairing it (paper §3.3).

One of five observers probes a block through a link whose loss is
diurnal — which can fake a diurnal usage pattern at the *destination*.
This example shows the full diagnostic workflow a measurement operator
would run: per-observer reply-rate comparison flags the outlier, 1-loss
repair fixes the stream, and the repaired multi-observer reconstruction
no longer inherits the congestion artifact.

Run:  python examples/congestion_repair.py
"""

from datetime import datetime

import numpy as np

from repro.core.combine import compare_observers
from repro.core.diurnal import DiurnalTest
from repro.core.reconstruction import reconstruct
from repro.core.repair import one_loss_repair, repaired_fraction
from repro.net.events import Calendar
from repro.net.loss import BernoulliLoss, DiurnalCongestionLoss
from repro.net.observations import merge_observations
from repro.net.prober import TrinocularObserver, probe_order
from repro.net.usage import SparseUsage, round_grid


def main() -> None:
    # a non-diurnal destination: long-lived sparse addresses
    calendar = Calendar(epoch=datetime(2023, 4, 1), tz_hours=8.0)
    usage = SparseUsage(n_addresses=120, mean_on_days=6.0, mean_off_days=3.0)
    truth = usage.generate(7, round_grid(28 * 86_400.0), calendar)
    order = probe_order(truth.n_addresses, 7)

    congested = DiurnalCongestionLoss(base=0.04, peak=0.5, peak_hour=21.0, tz_hours=8.0)
    clean = BernoulliLoss(0.004)
    logs = {}
    for i, name in enumerate("cegnw"):
        loss = congested if name == "w" else clean
        logs[name] = TrinocularObserver(name, phase_offset_s=101.0 * (i + 1)).observe(
            truth, order, loss, np.random.default_rng([7, i])
        )

    print("step 1: cross-observer health check (per-block reply rates)")
    for health in compare_observers(list(logs.values())):
        flag = "  <-- suspicious" if health.suspicious else ""
        print(f"  {health.observer}: {health.reply_rate:.3f} ({health.deviation:+.3f}){flag}")

    print("\nstep 2: does the lossy stream fake diurnality?")
    for name in ("n", "w"):
        recon = reconstruct(logs[name], truth.addresses, truth.col_times)
        verdict = DiurnalTest().evaluate(recon.counts)
        print(f"  observer {name}: diurnal energy ratio {verdict.energy_ratio:.2f}")

    print("\nstep 3: 1-loss repair")
    for name, log in logs.items():
        print(f"  {name}: repairs {repaired_fraction(log):.1%} of probes")
    repaired = {name: one_loss_repair(log) for name, log in logs.items()}

    merged_raw = merge_observations(list(logs.values()))
    merged_fixed = merge_observations(list(repaired.values()))
    print("\nstep 4: all-observer reconstruction")
    print(f"  reply rate without repair: {merged_raw.reply_rate():.3f}")
    print(f"  reply rate with repair:    {merged_fixed.reply_rate():.3f}")
    print(f"  ground-truth activity:     {truth.active.mean():.3f}")


if __name__ == "__main__":
    main()
