"""The repo benchmark: whole-campaign throughput, set-up, memory, accuracy.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload funnel-2w --seed 1 --seconds 15 --trace 0

Each run starts fresh subprocesses (``child.py``) with every ``REPRO_*``
variable removed from the environment, so no shell knob can change a
workload.  One subprocess sets the workload up and runs timed campaigns
for ``--seconds`` seconds, then checks its outputs outside the timed
region; :data:`SETUPS` - 1 more only set up, so ``setup_s`` is a median.
``peak_rss_mib`` is the measuring process's peak RSS over its timed
campaigns (the kernel's mark is reset when set-up ends).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced campaigns and prints the per-layer split instead,
with the tracing overhead.  Human-readable lines come first; the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every output
check passed.

Self-tests: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench"
WORKLOADS = ("funnel-2w", "campaign-h1", "pool-sharded", "warm-rerun")
#: Fresh processes set up per run; ``setup_s`` is their median.
SETUPS = 3
#: The whole run, all children included, ends within this many seconds.
RUN_TIMEOUT_S = 170.0
PAPER_BLOCKS = 5.2e6  # /24 blocks the paper analyses
#: Workloads without a detection window report the accuracy metrics as
#: this constant so every workload emits the same metric names.
NOT_SCORED = 1.0


def clean_env(work: Path) -> dict[str, str]:
    """The parent environment minus every ``REPRO_*`` knob.

    Spill files and temporary files go under the run's work directory,
    so the benchmark writes nothing outside the checkout.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"  # the same str hashes, so set order, in every run
    env["REPRO_SPILL_DIR"] = str(work / "spill")
    env["TMPDIR"] = str(work / "tmp")
    return env


def run_child(
    args: argparse.Namespace, role: str, work: Path, deadline: float
) -> dict[str, Any]:
    """Run one child in its own ``work`` directory to completion; its
    report plus ``spawned`` (monotonic clock, taken before the spawn).
    The child is killed, with its whole process group, at ``deadline``."""
    for sub in ("spill", "tmp"):
        (work / sub).mkdir(parents=True)
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--role", role,
        "--work", str(work),
        "--scale", str(args.scale),
    ]
    spawned = time.monotonic()
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=clean_env(work),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{role} process killed at the {RUN_TIMEOUT_S:.0f}s run limit")
    if proc.returncode != 0:
        sys.stderr.write(err[-4000:])
        raise RuntimeError(f"{role} process exited with code {proc.returncode}")
    report = json.loads(out.strip().splitlines()[-1])
    report["spawned"] = spawned
    return report


def end_to_end(measured: dict[str, Any], setups: list[float]) -> dict:
    walls = measured["walls"]
    attempted = measured["attempted"]
    failed = len(measured["failures"])
    wfh = measured["wfh"]
    metrics = {
        "blocks_per_s": (measured["routed"] / statistics.median(walls), "blocks/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (measured["peak_rss_mib"], "MiB"),
        "pass_frac": (1.0 - failed / attempted, "fraction"),
        "wfh_recall": (wfh["recall"] if wfh else NOT_SCORED, "fraction"),
        "wfh_precision": (wfh["precision"] if wfh else NOT_SCORED, "fraction"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def print_layers(workload: str, layers: dict[str, Any], absent: list[str]) -> None:
    from tracer import LAYERS

    wall = layers["trace.wall_s"]["value"]
    print(f"per-layer split of {workload} (per campaign, traced wall {wall:.3f} s):")
    print(f"  {'layer':<12} {'self_s':>10} {'share':>7}")
    total = 0.0
    for layer in LAYERS:
        share = layers[f"{layer}.share"]["value"]
        total += share
        print(f"  {layer:<12} {share * wall:>10.4f} {share:>7.1%}")
    print(f"  {'sum':<12} {total * wall:>10.4f} {total:>7.1%}")
    overhead = layers["trace.overhead_s"]["value"]
    print(f"tracing overhead: {overhead:+.4f} s per campaign (traced - untraced wall)")
    if workload == "pool-sharded":
        print("worker-side layers run in the pool and are not visible from the coordinator")
    for label in absent:
        print(f"absent entry point (reported as zero calls): {label}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="world-size factor (smoke tests only)"
    )
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_TIMEOUT_S
    work = WORK_ROOT / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        measured = run_child(args, "measure", work / "measure", deadline)
        setups = [measured["ready"] - measured["spawned"]]
        for i in range(1, SETUPS):
            child = run_child(args, "setup", work / f"setup-{i}", deadline)
            setups.append(child["ready"] - child["spawned"])
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = measured["failures"]
    print(f"workload {args.workload}, seed {args.seed}: {measured['routed']} routed blocks, "
          f"{len(measured['walls'])} untraced and {len(measured['traced_walls'])} traced "
          f"campaigns, setups {setups}")
    print("settings: " + json.dumps(measured["settings"], sort_keys=True))
    for line in failures[:20]:
        print(f"MISMATCH {line}")
    print(f"fail_frac: {len(failures) / measured['attempted']:.6f} fraction "
          f"({len(failures)} of {measured['attempted']} checks)")
    if args.trace:
        metrics = measured["layers"]
        print_layers(args.workload, metrics, measured["absent"])
        print(f"spans written to {measured['spans_file']}")
    else:
        metrics = end_to_end(measured, setups)
        if measured["wfh"] is None:
            print("wfh_recall, wfh_precision: not scored on this workload "
                  f"(no detection window); reported as {NOT_SCORED}")
        else:
            print("wfh score: " + json.dumps(measured["wfh"], sort_keys=True))
        for name, m in metrics.items():
            print(f"{name}: {m['value']:.6g} {m['unit']}")
        if args.workload == "funnel-2w":
            hours = PAPER_BLOCKS / metrics["blocks_per_s"]["value"] / 3600.0
            print(f"projected: {hours:.1f} h to analyse the paper's 5.2M blocks at this rate")
    print(json.dumps({
        "correct": not failures,
        "attempted": measured["attempted"],
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
