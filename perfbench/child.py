"""One benchmark process: set up a workload, time campaigns, check outputs.

``run.py`` starts this file in a fresh subprocess with a clean
``REPRO_*`` environment.  With ``--role setup`` it only sets the
workload up (imports, world, cache fill) and reports when it was ready;
with ``--role measure`` it then runs timed campaigns for ``--seconds``,
checks the outputs outside the timed region, and reports walls, peak
RSS, check counts, accuracy and (with ``--trace 1``) the per-layer
split.  The report is one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pickle
import statistics
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np

#: Sampled blocks re-derived through ``DatasetBuilder.analyze_block``,
#: per analysis run of a campaign (responsive, firewalled).
CHECK_RESPONSIVE = 3
CHECK_FIREWALLED = 1
#: Probe-log span compared against ``observe_reference`` (the scalar
#: oracle is slow, so long windows are checked on their first two weeks).
OBSERVE_CHECK_S = 14 * 86_400.0


def _digests(outcome: Any) -> dict[str, str]:
    """sha256 of the pickle bytes of every analysis and aggregate product."""
    out = {}
    for run in outcome.runs:
        for spec in run.blocks:
            cidr = spec.block.cidr
            blob = pickle.dumps(run.analyses[cidr], protocol=pickle.HIGHEST_PROTOCOL)
            out[f"{run.ds}/{cidr}"] = hashlib.sha256(blob).hexdigest()
    for i, product in enumerate(outcome.products):
        blob = pickle.dumps(product, protocol=pickle.HIGHEST_PROTOCOL)
        out[f"product/{i}"] = hashlib.sha256(blob).hexdigest()
    return out


def _sample(rng: np.random.Generator, specs: list, k: int) -> list:
    if not specs:
        return []
    picks = rng.choice(len(specs), size=min(k, len(specs)), replace=False)
    return [specs[i] for i in sorted(picks)]


def _same_log(a: Any, b: Any) -> bool:
    fields = ("times", "addresses", "results")
    if any(not np.array_equal(getattr(a, f), getattr(b, f)) for f in fields):
        return False
    if any(getattr(a, f).dtype != getattr(b, f).dtype for f in fields):
        return False
    if (a.sources is None) != (b.sources is None):
        return False
    return a.sources is None or np.array_equal(a.sources, b.sources)


def _reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS mark of this process at its current RSS."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def _peak_rss_mib() -> float:
    """This process's peak RSS since the last reset."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0  # the kernel reports kB
    raise RuntimeError("no VmHWM line in /proc/self/status")


def check_outcome(workload: Any, outcome: Any, seed: int) -> tuple[int, list[str]]:
    """(checks attempted, failure descriptions) for one campaign's outputs.

    Re-derives a seed-chosen sample of blocks through
    ``DatasetBuilder.analyze_block`` (firewalled ones against
    ``unresponsive_analysis()``) and compares pickle bytes; checks the
    vectorized prober against its scalar oracle on the sampled truths.
    """
    from repro.datasets.builder import DatasetBuilder, unresponsive_analysis
    from repro.datasets.catalog import dataset
    from repro.net.prober import probe_order

    world = workload.world
    rng = np.random.default_rng([seed, 0xC4EC])
    attempted = 0
    failures: list[str] = []
    for run in outcome.runs:
        responsive = [s for s in run.blocks if s.responsive_by_design]
        firewalled = [s for s in run.blocks if not s.responsive_by_design]
        live = _sample(rng, responsive, CHECK_RESPONSIVE)
        for spec in live + _sample(rng, firewalled, CHECK_FIREWALLED):
            attempted += 1
            if spec.responsive_by_design:
                want = DatasetBuilder(world).analyze_block(spec, run.ds, run.pipeline)
            else:
                want = unresponsive_analysis()
            if pickle.dumps(run.analyses[spec.block.cidr]) != pickle.dumps(want):
                failures.append(f"{run.ds}/{spec.block.cidr}: differs from analyze_block")

        ds = dataset(run.ds)
        start = ds.start_s(world.epoch)
        duration = min(ds.duration_s, OBSERVE_CHECK_S)
        observers = DatasetBuilder(world).observers
        for spec in live:
            truth = world.truth(spec, start + duration)
            order = probe_order(truth.n_addresses, spec.seed)
            for name in ds.observers:
                attempted += 1
                observer = observers[name]
                loss = world.loss_model(spec, name)
                cursor = int(rng.integers(truth.n_addresses))
                logs = [
                    probe(
                        truth,
                        order,
                        loss,
                        np.random.default_rng([seed, spec.seed % 2**32]),
                        start_s=start,
                        duration_s=duration,
                        start_cursor=cursor,
                    )
                    for probe in (observer.observe, observer.observe_reference)
                ]
                if not _same_log(*logs):
                    failures.append(
                        f"{run.ds}/{spec.block.cidr}/{name}: observe differs from "
                        "observe_reference"
                    )
    return attempted, failures


def _layer_metrics(tracer: Any, walls: list[float], traced: list[float]) -> dict[str, Any]:
    """Per-campaign layer metrics from a tracer's spans and counters."""
    from tracer import LAYERS, self_times

    n = max(len(traced), 1)
    by_layer = self_times(tracer.spans, key=lambda s: s.layer)
    by_name = self_times(tracer.spans, key=lambda s: s.name)
    counts = tracer.counts
    trace_wall = sum(s.duration for s in tracer.spans if s.parent is None) / n

    def self_s(layer: str) -> float:
        return by_layer.get(layer, 0.0) / n

    def count(key: str) -> float:
        return counts.get(key, 0.0) / n

    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_s(layer), "s")
        m[f"{layer}.share"] = (self_s(layer) / trace_wall if trace_wall else 0.0, "fraction")
    m["truth.calls"] = (count("truth.calls"), "count")
    m["truth.cells"] = (count("truth.cells"), "count")
    m["probe.calls"] = (count("probe.calls"), "count")
    m["probe.probes"] = (count("probe.probes"), "count")
    probes = counts.get("probe.probes", 0.0)
    m["probe.ns_per_probe"] = (
        by_layer.get("probe", 0.0) / probes * 1e9 if probes else 0.0, "ns"
    )
    m["repair.probes_in"] = (count("repair.probes_in"), "count")
    m["reconstruct.samples"] = (count("reconstruct.samples"), "count")
    for layer in ("classify", "trend", "detect"):
        m[f"{layer}.rows"] = (count(f"{layer}.rows"), "count")
    m["detect.events"] = (count("detect.events"), "count")
    builder_calls = counts.get("builder.truth_calls", 0.0)
    m["builder.truth_reuse"] = (
        1.0 - counts.get("truth.calls", 0.0) / builder_calls if builder_calls else 0.0,
        "fraction",
    )
    m["cache.get_s"] = (by_name.get("cache.get", 0.0) / n, "s")
    m["cache.put_s"] = (by_name.get("cache.put", 0.0) / n, "s")
    hits, misses = counts.get("cache.hits", 0.0), counts.get("cache.misses", 0.0)
    m["cache.hits"] = (hits / n, "count")
    m["cache.misses"] = (misses / n, "count")
    m["cache.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "fraction")
    m["spill.write_s"] = (by_name.get("spill.write", 0.0) / n, "s")
    m["spill.read_s"] = (by_name.get("spill.read", 0.0) / n, "s")
    m["spill.bytes"] = (count("spill.bytes"), "bytes")
    # the whole ``Executor.map`` call, the job spans it runs included
    # (outermost calls only, should one executor delegate to another)
    maps = {s.span_id: s for s in tracer.spans if s.layer == "dispatch"}
    map_s = sum(s.duration for s in maps.values() if s.parent not in maps)
    m["dispatch.map_s"] = (map_s / n, "s")
    for key in ("maps", "task_bytes", "shm_bytes", "pool_spawns", "fallbacks"):
        unit = "bytes" if key.endswith("bytes") else "count"
        m[f"dispatch.{key}"] = (count(f"dispatch.{key}"), unit)
    m["trace.wall_s"] = (trace_wall, "s")
    m["trace.overhead_s"] = (
        statistics.median(traced) - statistics.median(walls) if traced and walls else 0.0,
        "s",
    )
    m["trace.absent"] = (float(len(tracer.absent)), "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def measure(workload: Any, seconds: float, trace: bool, seed: int) -> dict[str, Any]:
    from repro.runtime import envconfig
    from scoring import score_wfh
    from tracer import Tracer

    ready = time.monotonic()
    gc.collect()
    _reset_peak_rss()  # set-up allocations count only as the starting RSS
    tracer = Tracer()
    walls: list[float] = []
    traced: list[float] = []
    reference: dict[str, str] | None = None
    attempted = 0
    failures: list[str] = []
    outcome: Any = None
    while True:
        # drop the previous campaign's results before the next one runs,
        # so the peak RSS is one campaign's whatever the number of runs
        outcome = None
        gc.collect()
        use_trace = trace and len(traced) < len(walls)
        if use_trace:
            with tracer.installed():
                with tracer.span("engine", "engine"):
                    t0 = time.perf_counter()
                    outcome = workload.campaign()
                    wall = time.perf_counter() - t0
            tracer.run_id += 1
            traced.append(wall)
        else:
            t0 = time.perf_counter()
            outcome = workload.campaign()
            walls.append(time.perf_counter() - t0)
        workload.after()
        digests = _digests(outcome)
        if reference is None:
            reference = digests
        attempted += len(digests)
        failures.extend(
            f"{key}: output differs between campaigns of one run"
            for key, value in digests.items()
            if reference.get(key) != value
        )
        # stop before a campaign that would end past the budget, so runs
        # measure whole campaigns and last about ``seconds``
        elapsed = time.monotonic() - ready
        if elapsed + max(walls + traced) > seconds and (not trace or traced):
            break
    peak_rss_mib = _peak_rss_mib()  # before the checks add allocations of their own

    n, fails = check_outcome(workload, outcome, seed)
    attempted += n
    failures.extend(fails)
    score = score_wfh(outcome.wfh, workload.world.epoch.date()) if outcome.wfh else None
    report: dict[str, Any] = {
        "ready": ready,
        "routed": outcome.routed,
        "walls": walls,
        "traced_walls": traced,
        "attempted": attempted,
        "failures": failures,
        "wfh": None
        if score is None
        else {"recall": score.recall, "precision": score.precision, **vars(score)},
        "settings": {
            **outcome.settings,
            "spill_dir": os.path.relpath(envconfig.raw("REPRO_SPILL_DIR") or "."),
            "repro_env": sorted(k for k in os.environ if k.startswith("REPRO_")),
        },
        "peak_rss_mib": peak_rss_mib,
    }
    if trace:
        report["layers"] = _layer_metrics(tracer, walls, traced)
        report["absent"] = tracer.absent
        spans = Path(f".perfbench/spans-{workload.name}-s{seed}.jsonl")
        tracer.dump(str(spans))
        report["spans_file"] = str(spans)
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "measure"), required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)

    from workloads import make_workload

    workload = make_workload(args.workload, args.seed, Path(args.work), args.scale)
    workload.setup()
    if args.role == "setup":
        report: dict[str, Any] = {"ready": time.monotonic()}
    else:
        report = measure(workload, args.seconds, bool(args.trace), args.seed)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
