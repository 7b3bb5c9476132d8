"""REP004 — cache keys cover every input, and key-shaping code bumps CACHE_SCHEMA.

The content-addressed block cache (``repro.runtime.cache``) is only
correct while two properties hold:

1. **field coverage** — a class that contributes its own identity to the
   key (a ``cache_keyer`` job or a ``cache_token`` provider) must fold in
   *every* public field.  A forgotten field means two different
   configurations collide on one cache entry and silently share results.
2. **schema discipline** — any edit to the token-shaping code itself
   (``stable_token``, ``task_keyer``, every ``cache_keyer``/``cache_token``
   method) can move result bits without changing any input field, so it
   must be accompanied by a :data:`repro.runtime.cache.CACHE_SCHEMA`
   bump.  The rule enforces this mechanically: it hashes the
   (docstring-stripped) ASTs of all token-participating functions and
   compares digest + schema against the recorded fingerprint in
   ``src/repro/lint/cache_fingerprint.json``.  Changed code with an
   unchanged schema is a violation; after bumping the schema, run
   ``repro lint --update-fingerprint`` to re-record (the stale
   fingerprint is itself a violation until then, so the file can never
   silently rot).

Field coverage accepts an escape hatch: a method that iterates
``dataclasses.fields`` / ``astuple`` / ``asdict`` covers everything by
construction.
"""

from __future__ import annotations

import ast
import copy
import hashlib
import json
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from ..registry import Violation, register
from .common import class_field_names, iter_class_defs, referenced_names

if TYPE_CHECKING:  # pragma: no cover
    from ..driver import LintContext

FINGERPRINT_VERSION = 1
CACHE_MODULE = "src/repro/runtime/cache.py"
TOKEN_FUNCTIONS = ("stable_token", "task_keyer")
TOKEN_METHODS = ("cache_keyer", "cache_token")
_COVERS_ALL = ("fields", "astuple", "asdict")


def fingerprint_path(root: Path) -> Path:
    return root / "src" / "repro" / "lint" / "cache_fingerprint.json"


def _strip_docstrings(node: ast.AST) -> ast.AST:
    """Copy of ``node`` with every docstring removed (doc edits are free)."""
    node = copy.deepcopy(node)
    for sub in ast.walk(node):
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Module)):
            body = sub.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                del body[0]
                if not body:
                    body.append(ast.Pass())
    return node


def _function_digest(node: ast.AST) -> str:
    return hashlib.sha256(ast.dump(_strip_docstrings(node)).encode()).hexdigest()[:16]


def _iter_token_functions(
    ctx: "LintContext",
) -> "Iterator[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef]]":
    """(qualified name, node) for every token-participating function."""
    cache_tree = ctx.tree(CACHE_MODULE)
    if cache_tree is not None:
        for node in cache_tree.body:
            if isinstance(node, ast.FunctionDef) and node.name in TOKEN_FUNCTIONS:
                yield f"{CACHE_MODULE}::{node.name}", node
    for path, tree in ctx.iter_src():
        for cls in iter_class_defs(tree):
            for method in cls.body:
                if (
                    isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and method.name in TOKEN_METHODS
                ):
                    yield f"{path}::{cls.name}.{method.name}", method


def current_schema(ctx: "LintContext") -> int | None:
    """The CACHE_SCHEMA value assigned in the cache module, if parseable."""
    tree = ctx.tree(CACHE_MODULE)
    if tree is None:
        return None
    for node in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if (
            any(isinstance(t, ast.Name) and t.id == "CACHE_SCHEMA" for t in targets)
            and isinstance(value, ast.Constant)
            and isinstance(value.value, int)
        ):
            return value.value
    return None


def compute_fingerprint(ctx: "LintContext") -> dict:
    """The fingerprint payload for the current tree."""
    functions = {name: _function_digest(node) for name, node in _iter_token_functions(ctx)}
    return {
        "version": FINGERPRINT_VERSION,
        "schema": current_schema(ctx),
        "functions": dict(sorted(functions.items())),
    }


def write_fingerprint(ctx: "LintContext") -> Path:
    path = fingerprint_path(ctx.root)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(compute_fingerprint(ctx), indent=2) + "\n", encoding="utf-8")
    return path


def _fingerprint_violations(ctx: "LintContext") -> list[Violation]:
    current = compute_fingerprint(ctx)
    path = fingerprint_path(ctx.root)
    rel = path.relative_to(ctx.root).as_posix() if path.is_absolute() else str(path)
    if not path.is_file():
        return [
            Violation(
                rule="REP004",
                path=rel,
                line=0,
                message=(
                    "no recorded cache fingerprint; run "
                    "`repro lint --update-fingerprint` and commit the result"
                ),
            )
        ]
    try:
        recorded = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        return [
            Violation(
                rule="REP004",
                path=rel,
                line=0,
                message=f"unreadable cache fingerprint ({exc}); regenerate it",
            )
        ]
    if recorded == current:
        return []
    changed = sorted(
        name
        for name in set(current["functions"]) | set(recorded.get("functions", {}))
        if current["functions"].get(name) != recorded.get("functions", {}).get(name)
    )
    if changed and recorded.get("schema") == current["schema"]:
        return [
            Violation(
                rule="REP004",
                path=rel,
                line=0,
                message=(
                    "token-participating code changed without a CACHE_SCHEMA "
                    f"bump: {', '.join(changed)}; bump "
                    "repro.runtime.cache.CACHE_SCHEMA, then run "
                    "`repro lint --update-fingerprint`"
                ),
            )
        ]
    return [
        Violation(
            rule="REP004",
            path=rel,
            line=0,
            message=(
                "recorded cache fingerprint is stale (schema "
                f"{recorded.get('schema')} -> {current['schema']}); run "
                "`repro lint --update-fingerprint` and commit the result"
            ),
        )
    ]


def _coverage_violations(ctx: "LintContext") -> list[Violation]:
    out: list[Violation] = []
    for path, tree in ctx.iter_src():
        for cls in iter_class_defs(tree):
            methods = {
                m.name: m
                for m in cls.body
                if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            for kind in TOKEN_METHODS:
                method = methods.get(kind)
                if method is None:
                    continue
                fields, _ = class_field_names(cls)
                referenced = referenced_names(method)
                if any(escape in referenced for escape in _COVERS_ALL):
                    continue
                for name in fields:
                    if name.startswith("_"):
                        continue  # derived/private state, not identity
                    if name not in referenced:
                        out.append(
                            Violation(
                                rule="REP004",
                                path=path,
                                line=method.lineno,
                                message=(
                                    f"{cls.name}.{kind} does not cover field "
                                    f"{name!r}; every public field must "
                                    "contribute to the cache token (or the "
                                    "method must use dataclasses.fields/"
                                    "astuple/asdict)"
                                ),
                            )
                        )
    return out


@register(
    "REP004",
    "cache-key-completeness",
    "cache_keyer/cache_token must cover every public field, and token-"
    "shaping code edits require a CACHE_SCHEMA bump (AST fingerprint)",
)
def check(ctx: "LintContext") -> list[Violation]:
    return _fingerprint_violations(ctx) + _coverage_violations(ctx)
