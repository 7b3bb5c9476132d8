"""Render a :class:`~repro.lint.driver.LintResult` as text or JSON.

The text form is for humans at a terminal (one ``path:line: RULE
message`` finding per line, grouped summary at the end); the JSON form
is the machine-diffable artifact CI uploads, so rule output can be
compared across PRs.  Both render the rule table straight from the
registry — the same source ``repro lint --help`` uses — so neither can
drift from the code.
"""

from __future__ import annotations

import json
from typing import Any

from .driver import LintResult

__all__ = ["render_json", "render_text", "rule_table"]

#: 2: the ``suppressed`` and ``baselined`` counts are gone.
REPORT_VERSION = 2


def rule_table(result: LintResult) -> str:
    """One ``ID  name  summary`` line per rule that ran."""
    width = max((len(r.name) for r in result.rules), default=0)
    return "\n".join(
        f"  {rule.id}  {rule.name:<{width}}  {rule.summary}" for rule in result.rules
    )


def render_text(result: LintResult, *, verbose: bool = False) -> str:
    """The human-facing report: findings first, one summary line last."""
    lines = [
        f"{v.path}:{v.line}: {v.rule} {v.message}" for v in result.violations
    ]
    by_rule: dict[str, int] = {}
    for v in result.violations:
        by_rule[v.rule] = by_rule.get(v.rule, 0) + 1
    if result.violations:
        breakdown = ", ".join(f"{rule}={n}" for rule, n in sorted(by_rule.items()))
        summary = (
            f"repro lint: {len(result.violations)} violation"
            f"{'s' if len(result.violations) != 1 else ''} ({breakdown}) "
            f"in {result.n_files} files"
        )
    else:
        summary = f"repro lint: OK ({result.n_files} files, {len(result.rules)} rules)"
    if verbose:
        lines.append("rules:")
        lines.append(rule_table(result))
    lines.append(summary)
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """The machine-diffable report (stable key order, sorted findings)."""
    payload: dict[str, Any] = {
        "version": REPORT_VERSION,
        "rules": [
            {"id": r.id, "name": r.name, "summary": r.summary} for r in result.rules
        ],
        "violations": [
            {"rule": v.rule, "path": v.path, "line": v.line, "message": v.message}
            for v in result.violations
        ],
        "n_files": result.n_files,
        "exit_code": result.exit_code,
    }
    return json.dumps(payload, indent=2) + "\n"
