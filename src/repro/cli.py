"""Command-line entry point: run any paper experiment.

::

    repro list                 # show available experiments
    repro fig1                 # run one experiment, print its report
    repro all                  # run everything (slow at full scale)
    repro export [directory]   # write campaign results as CSV/GeoJSON (S2.9)
    REPRO_SCALE=200 repro fig8 # scale the simulated world down/up
    repro --workers 4 table2   # fan block analysis out over a 4-process pool
    repro --shards 8 fig3      # stream 8 shards, spilling results to disk
    repro --cache .cache fig3  # reuse per-block results across invocations
    repro --metrics fig3       # print per-stage engine instrumentation
    repro --trace out/ fig3    # also write spans.jsonl/metrics.jsonl/run.json
    repro --progress out/ fig3 # append live heartbeats to out/progress.jsonl
    repro report out/          # re-render a saved run from disk (no rerun)
    repro lint                 # statically check repo invariants (REP001-REP008)
    repro lint --format json   # machine-diffable report (CI artifact)
    repro profile fig3         # run one experiment under cProfile
    repro bench                # time kernels vs their oracles into BENCH_kernels.json
"""

from __future__ import annotations

import argparse
import sys

from .experiments import REGISTRY
from .runtime import envconfig

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Inferring Changes in Daily Human Activity from "
            "Internet Response' (IMC 2023)."
        ),
        epilog=envconfig.env_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "experiment",
        help=(
            "experiment name (see 'repro list'), 'list', 'all', 'export', "
            "'report', 'lint' (static invariant checks), 'profile' "
            "(cProfile one experiment), or 'bench' (kernel-vs-oracle "
            "micro-benchmarks); each subcommand has its own --help"
        ),
    )
    parser.add_argument(
        "destination",
        nargs="?",
        default="repro_results",
        help=(
            "output directory for 'export' (default: repro_results); "
            "trace directory to read for 'report'"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "processes for block analysis (sets REPRO_WORKERS; "
            "1 = serial, the default).  N > 1 runs one persistent "
            "process pool — results are byte-identical to the serial run"
        ),
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help=(
            "stream each campaign through N contiguous block shards, "
            "spilling completed shards to a memory-mapped on-disk layout "
            "between them (sets REPRO_SHARDS; 1 = unsharded, the "
            "default).  Bounds coordinator RSS for paper-scale worlds; "
            "results are byte-identical to the unsharded run.  "
            "REPRO_SPILL_DIR picks the spill parent directory"
        ),
    )
    parser.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help=(
            "content-addressed per-block result cache rooted at DIR "
            "(sets REPRO_CACHE); repeated runs over unchanged worlds "
            "reuse stored analyses instead of re-simulating"
        ),
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print per-stage engine instrumentation after the run",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="DIR",
        help=(
            "record hierarchical spans and write DIR/spans.jsonl, "
            "DIR/metrics.jsonl and the DIR/run.json manifest after the run"
        ),
    )
    parser.add_argument(
        "--progress",
        default=None,
        metavar="DIR",
        help=(
            "append live heartbeat records (blocks done, blocks/sec, ETA, "
            "RSS, cache hit-rate) to DIR/progress.jsonl while campaigns "
            "run (sets REPRO_PROGRESS; mid-run ticks are at least 2s apart)"
        ),
    )
    return parser


def _export(destination: str) -> int:
    """Write the covid campaign's results like the paper's website (§2.9)."""
    from pathlib import Path

    from .experiments.common import covid_campaign
    from .export import blocks_csv, gridcell_csv, gridcell_geojson

    out = Path(destination)
    out.mkdir(parents=True, exist_ok=True)
    campaign = covid_campaign()
    aggregator = campaign.aggregator()
    n_rows = gridcell_csv(
        aggregator,
        out / "gridcell_daily.csv",
        first_day=campaign.first_day,
        n_days=campaign.n_days,
    )
    n_cells = gridcell_geojson(aggregator, out / "change_sensitive_map.geojson")
    n_blocks = blocks_csv(list(campaign.records), out / "blocks.csv")
    print(f"wrote {n_rows} gridcell-day rows, {n_cells} map cells, {n_blocks} blocks to {out}/")
    return 0


def _print_metrics() -> None:
    """Print instrumentation for every engine run since the last drain."""
    from .runtime import drain_run_log

    runs = drain_run_log()
    if not runs:
        print("(no engine runs recorded)", file=sys.stderr)
        return
    print("\n--- engine metrics ---", file=sys.stderr)
    for metrics in runs:
        print(metrics.report(), file=sys.stderr)


def _report(directory: str) -> int:
    """Re-render a saved traced run (stage tables + funnel) from disk."""
    from .obs.sinks import load_run, render_report

    try:
        saved = load_run(directory)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(render_report(saved))
    return 0


def _write_trace(directory: str, tracer, experiment: str) -> None:
    """Persist the run's spans, per-run metrics, and manifest."""
    from .obs.metrics import get_registry
    from .obs.sinks import write_run
    from .runtime import peek_run_log

    out = write_run(
        directory,
        tracer=tracer,
        runs=peek_run_log(),
        label=experiment,
        meters=get_registry().snapshot(),
    )
    print(f"trace written to {out}/", file=sys.stderr)


def _dispatch(name: str, args: argparse.Namespace) -> int:
    """Run one experiment / 'all' / 'export'; returns the exit code."""
    if name == "export":
        return _export(args.destination)

    if name == "all":
        failures = []
        for key, module in REGISTRY.items():
            print(f"=== {key} ===")
            try:
                module.main()
            except Exception as exc:  # surface which experiment broke
                failures.append(key)
                print(f"experiment {key} failed: {exc}", file=sys.stderr)
            print()
        if failures:
            print(f"failed experiments: {', '.join(failures)}", file=sys.stderr)
            return 1
        return 0

    module = REGISTRY.get(name)
    if module is None:
        print(f"unknown experiment {name!r}; try 'repro list'", file=sys.stderr)
        return 2
    module.main()
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "lint":
        # lint owns its flags (--format, --update-fingerprint, ...), so it
        # gets the remaining argv before the experiment parser sees it
        from .lint.cli import main as lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "profile":
        from .obs.profiling import main as profile_main

        return profile_main(argv[1:])
    if argv and argv[0] == "bench":
        from .bench import main as bench_main

        return bench_main(argv[1:])
    args = _build_parser().parse_args(argv)
    name = args.experiment

    if args.workers is not None:
        # default_engine() reads this; one env var reaches every
        # experiment without threading an engine through each main().
        envconfig.set_env("REPRO_WORKERS", str(args.workers))
    if args.shards is not None:
        envconfig.set_env("REPRO_SHARDS", str(args.shards))
    if args.cache is not None:
        envconfig.set_env("REPRO_CACHE", args.cache)
    if args.progress is not None:
        envconfig.set_env("REPRO_PROGRESS", args.progress)
    if envconfig.raw("REPRO_PROGRESS"):
        from .obs.progress import default_progress, set_progress

        set_progress(default_progress())

    if name == "list":
        print("available experiments:")
        for key, module in REGISTRY.items():
            doc = (module.__doc__ or "").strip().splitlines()[0]
            print(f"  {key:20s} {doc}")
        return 0

    if name == "report":
        return _report(args.destination)

    tracer = None
    if args.trace is not None:
        from .obs.trace import NOOP, Tracer, set_tracer

        tracer = Tracer()
        set_tracer(tracer)

    try:
        if tracer is not None:
            with tracer.span(
                "run", attrs={"experiment": name, "argv": " ".join(argv or sys.argv[1:])}
            ):
                return _dispatch(name, args)
        return _dispatch(name, args)
    finally:
        if tracer is not None:
            set_tracer(NOOP)
            _write_trace(args.trace, tracer, name)
        if args.metrics:
            _print_metrics()


if __name__ == "__main__":
    raise SystemExit(main())
