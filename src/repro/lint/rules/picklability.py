"""REP003 — engine-dispatched job classes must stay picklable.

Everything the campaign engine fans out through ``SerialExecutor`` /
``PoolExecutor`` is pickled to pool workers (and must
round-trip byte-identically for the serial==pool guarantee).  Lambdas, nested
functions, and open file handles are the classic ways a job silently
becomes unpicklable — and the failure only shows up at runtime, on the
parallel path, after a fallback warning.

This rule inspects every class whose name ends in ``Job`` (the repo's
dispatch convention — ``BlockAnalysisJob``, ``_ScanTimeJob``,
``_FbsSampleJob``, ...) and flags attributes that capture:

* a ``lambda`` (dataclass field default, ``field(default=lambda...)``,
  or ``self.x = lambda ...``);
* a function nested inside a method (``def helper(): ...`` then
  ``self.x = helper``);
* an open handle (``self.x = open(...)``);
* a live shared-memory resource: a ``SharedMemory(...)`` handle, a
  ``memoryview(...)``, or a segment buffer (``self.x = seg.buf``).

A job that needs a shared-memory segment must carry only plain data
naming it (its name, shape, dtype) and attach per call: live handles
and buffer views are process-local, pickle either not at all or into
something that no longer aliases the segment, and would tie a task's
lifetime to a mapping its owner may unlink.

``field(default_factory=...)`` is fine — the factory runs at init time
and only its *result* is stored.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING

from ..registry import Violation, register
from .common import iter_class_defs

if TYPE_CHECKING:  # pragma: no cover
    from ..driver import LintContext

SUFFIX = "Job"


def _field_default_violations(cls: ast.ClassDef, path: str) -> list[Violation]:
    out: list[Violation] = []
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and node.value is not None:
            value = node.value
            target = node.target.id if isinstance(node.target, ast.Name) else "?"
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            value = node.value
            t = node.targets[0]
            target = t.id if isinstance(t, ast.Name) else "?"
        else:
            continue
        if isinstance(value, ast.Lambda):
            out.append(
                Violation(
                    rule="REP003",
                    path=path,
                    line=value.lineno,
                    message=(
                        f"job class {cls.name}: field {target!r} defaults to a "
                        "lambda, which cannot be pickled to pool workers"
                    ),
                )
            )
        elif isinstance(value, ast.Call):
            for kw in value.keywords:
                if kw.arg == "default" and isinstance(kw.value, ast.Lambda):
                    out.append(
                        Violation(
                            rule="REP003",
                            path=path,
                            line=kw.value.lineno,
                            message=(
                                f"job class {cls.name}: field {target!r} has a "
                                "lambda default, which cannot be pickled to "
                                "pool workers"
                            ),
                        )
                    )
    return out


def _call_name(call: ast.Call) -> str | None:
    """Trailing name of a call target: ``open`` for both ``open(...)``
    and ``io.open(...)`` — attribute chains match on the last segment."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _method_violations(cls: ast.ClassDef, path: str) -> list[Violation]:
    out: list[Violation] = []
    for method in cls.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nested = {
            n.name
            for n in ast.walk(method)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n is not method
        }
        for node in ast.walk(method):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                value = node.value
                if isinstance(value, ast.Lambda):
                    problem = "a lambda"
                elif isinstance(value, ast.Name) and value.id in nested:
                    problem = f"nested function {value.id!r}"
                elif isinstance(value, ast.Call) and _call_name(value) == "open":
                    problem = "an open file handle"
                elif isinstance(value, ast.Call) and _call_name(value) == "SharedMemory":
                    problem = "a live SharedMemory handle"
                elif isinstance(value, ast.Call) and _call_name(value) == "memoryview":
                    problem = "a memoryview"
                elif isinstance(value, ast.Attribute) and value.attr == "buf":
                    problem = "a shared-memory buffer ('.buf')"
                else:
                    continue
                out.append(
                    Violation(
                        rule="REP003",
                        path=path,
                        line=node.lineno,
                        message=(
                            f"job class {cls.name}: attribute "
                            f"'self.{target.attr}' captures {problem}, which "
                            "cannot be pickled to pool workers"
                        ),
                    )
                )
    return out


@register(
    "REP003",
    "picklability",
    "*Job classes may not capture lambdas, nested functions, open "
    "handles, or live shared-memory resources (SharedMemory handles, "
    "memoryviews, segment buffers) in their attributes — jobs carry "
    "plain data only",
)
def check(ctx: "LintContext") -> list[Violation]:
    violations: list[Violation] = []
    for path, tree in ctx.iter_src():
        for cls in iter_class_defs(tree):
            if not cls.name.endswith(SUFFIX):
                continue
            violations.extend(_field_default_violations(cls, path))
            violations.extend(_method_violations(cls, path))
    return violations
