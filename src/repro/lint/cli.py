"""The ``repro lint`` subcommand.

Thin argparse front-end over :func:`repro.lint.run_lint`.  The rule
catalogue in ``--help`` (and ``--list-rules``) is generated from the
registry at invocation time, so adding a rule updates the CLI and the
docs' source of truth in one place.

Exit codes: 0 clean, 1 violations, 2 usage/environment error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .driver import build_context, find_root, run_lint
from .registry import all_rules
from .report import render_json, render_text
from .rules.cachekey import write_fingerprint

__all__ = ["build_parser", "main"]


def _rule_epilog() -> str:
    rules = all_rules()
    width = max(len(r.name) for r in rules)
    lines = "\n".join(f"  {r.id}  {r.name:<{width}}  {r.summary}" for r in rules)
    return (
        "rules:\n"
        f"{lines}\n\n"
        "every finding fails the run: there are no suppression comments\n"
        "and no baseline file; fix the code or the rule (docs/dev.md)."
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "Statically check the repository's correctness invariants "
            "(oracle pairing, determinism, picklability, cache-key "
            "completeness, import layering, env boundary)."
        ),
        epilog=_rule_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (json is the machine-diffable CI artifact)",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--rules",
        default=None,
        metavar="IDS",
        help="comma-separated rule IDs to run (default: all)",
    )
    parser.add_argument(
        "--root",
        default=None,
        metavar="DIR",
        help="repository root (default: discovered from cwd / install path)",
    )
    parser.add_argument(
        "--update-fingerprint",
        action="store_true",
        help=(
            "re-record the REP004 cache fingerprint (run this after "
            "bumping CACHE_SCHEMA) and exit"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="include the rule catalogue in the text report",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        print(_rule_epilog())
        return 0

    try:
        root = Path(args.root).resolve() if args.root else find_root()
    except FileNotFoundError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2

    context = build_context(root)

    if args.update_fingerprint:
        path = write_fingerprint(context)
        print(f"cache fingerprint recorded at {path}")
        return 0

    rule_ids = (
        [part.strip() for part in args.rules.split(",") if part.strip()]
        if args.rules
        else None
    )
    try:
        result = run_lint(root, rule_ids=rule_ids, context=context)
    except KeyError as exc:
        print(f"repro lint: {exc.args[0]}", file=sys.stderr)
        return 2

    report = (
        render_json(result)
        if args.format == "json"
        else render_text(result, verbose=args.verbose) + "\n"
    )
    if args.output:
        Path(args.output).write_text(report, encoding="utf-8")
    else:
        sys.stdout.write(report)
    return result.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
