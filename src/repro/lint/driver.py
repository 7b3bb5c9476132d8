"""The lint driver: collect sources, run rules, sort the findings.

The driver parses every Python file under ``src/repro`` (plus the
kernel-equivalence test module, which the oracle-pairing rule inspects)
into one :class:`LintContext` and hands the context to each registered
rule.  Every finding is a hard failure (exit code 1): there is no
suppression comment and no baseline file.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from .project import ProjectContext
from .registry import Rule, Violation, all_rules

__all__ = ["LintContext", "LintResult", "build_context", "find_root", "run_lint"]

#: Files given to the rules besides the ``src/repro`` tree.
EXTRA_FILES = ("tests/test_kernels.py",)


@dataclass
class LintContext:
    """Parsed view of the repository handed to every rule."""

    root: Path
    files: dict[str, ast.Module] = field(default_factory=dict)
    #: paths that failed to parse: path -> SyntaxError message
    broken: dict[str, str] = field(default_factory=dict)
    _project: ProjectContext | None = field(default=None, repr=False)

    @property
    def project(self) -> ProjectContext:
        """Pass-1 whole-program view (import graph + symbol table).

        Built once per context, on first use, so single-file rules pay
        nothing and cross-file rules share one graph.
        """
        if self._project is None:
            self._project = ProjectContext.build(self)
        return self._project

    def tree(self, path: str) -> ast.Module | None:
        return self.files.get(path)

    def iter_src(self, prefix: str = "src/repro") -> Iterator[tuple[str, ast.Module]]:
        """(path, tree) pairs under ``prefix``, sorted for stable output."""
        for path in sorted(self.files):
            if path.startswith(prefix):
                yield path, self.files[path]


@dataclass
class LintResult:
    """Outcome of one lint run."""

    violations: list[Violation]
    rules: list[Rule]
    n_files: int

    @property
    def exit_code(self) -> int:
        return 1 if self.violations else 0


def find_root(start: Path | None = None) -> Path:
    """The repository root: the closest ancestor holding ``src/repro``.

    Falls back to the checkout this package was imported from, so
    ``repro lint`` works from any working directory.
    """
    candidates: list[Path] = []
    if start is not None:
        candidates.extend([start, *start.resolve().parents])
    else:
        cwd = Path.cwd()
        candidates.extend([cwd, *cwd.parents])
    # src/repro/lint/driver.py -> parents[3] is the checkout root
    candidates.append(Path(__file__).resolve().parents[3])
    for cand in candidates:
        if (cand / "src" / "repro").is_dir():
            return cand
    raise FileNotFoundError("cannot locate a repository root containing src/repro")


def build_context(root: Path) -> LintContext:
    """Parse the lintable tree rooted at ``root``."""
    ctx = LintContext(root=root)
    paths = sorted((root / "src" / "repro").rglob("*.py"))
    paths.extend(root / extra for extra in EXTRA_FILES if (root / extra).is_file())
    for path in paths:
        rel = path.relative_to(root).as_posix()
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            ctx.broken[rel] = str(exc)
            continue
        try:
            ctx.files[rel] = ast.parse(text, filename=rel)
        except SyntaxError as exc:
            ctx.broken[rel] = f"syntax error: {exc.msg} (line {exc.lineno})"
    return ctx


def run_lint(
    root: Path | None = None,
    *,
    rule_ids: list[str] | None = None,
    context: LintContext | None = None,
) -> LintResult:
    """Run the registered rules and return their sorted findings."""
    root = find_root() if root is None else root
    ctx = context if context is not None else build_context(root)
    rules = all_rules()
    if rule_ids:
        wanted = set(rule_ids)
        unknown = wanted - {r.id for r in rules}
        if unknown:
            raise KeyError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
        rules = [r for r in rules if r.id in wanted]

    raw: list[Violation] = [
        Violation(rule="PARSE", path=path, line=0, message=msg)
        for path, msg in sorted(ctx.broken.items())
    ]
    for rule in rules:
        raw.extend(rule.check(ctx))

    return LintResult(
        violations=sorted(raw, key=Violation.sort_key),
        rules=rules,
        n_files=len(ctx.files),
    )
