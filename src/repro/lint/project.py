"""Pass 1 of the two-pass analyzer: the whole-program ``ProjectContext``.

Rules that reason across files (REP007's layering and cycle checks)
need a view of the project that no single ``ast.Module`` provides:
which dotted module each file is, what each module imports **at
module level** (the imports that form the architecture graph —
function-level lazy imports are deliberately excluded, they exist
precisely to break import-time edges), and which names each module
defines.  :class:`ProjectContext` is that view,
built once per lint run and handed to every rule through
``LintContext.project``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from .driver import LintContext

__all__ = ["ModuleInfo", "ProjectContext"]


@dataclass(frozen=True)
class ModuleInfo:
    """One module's place in the project graph."""

    name: str
    path: str
    #: repro-internal modules imported at module level, with the line
    #: of the import statement that created each edge.
    imports: tuple[tuple[str, int], ...]
    #: names bound at module top level (defs, classes, assignments,
    #: imported aliases) — the exported-symbol table.
    exports: frozenset[str]

    def imported_modules(self) -> tuple[str, ...]:
        return tuple(target for target, _ in self.imports)


def module_name_for(path: str) -> str | None:
    """Dotted module name for a repo-relative path, or ``None``.

    ``src/repro/runtime/engine.py`` -> ``repro.runtime.engine``;
    a package ``__init__.py`` maps to the package itself.
    """
    if not path.startswith("src/") or not path.endswith(".py"):
        return None
    parts = path[len("src/") : -len(".py")].split("/")
    if parts[-1] == "__init__":
        parts = parts[:-1]
    if not parts:
        return None
    return ".".join(parts)


def _is_type_checking_test(test: ast.expr) -> bool:
    for node in ast.walk(test):
        if isinstance(node, ast.Name) and node.id == "TYPE_CHECKING":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "TYPE_CHECKING":
            return True
    return False


def _iter_top_level(body: list[ast.stmt]) -> Iterator[ast.stmt]:
    """Module-level statements, descending into ``if``/``try`` blocks.

    ``if TYPE_CHECKING:`` bodies are skipped: those imports exist only
    for the type checker and never execute, so they are not
    architecture edges.
    """
    for stmt in body:
        yield stmt
        if isinstance(stmt, ast.If):
            if not _is_type_checking_test(stmt.test):
                yield from _iter_top_level(stmt.body)
            yield from _iter_top_level(stmt.orelse)
        elif isinstance(stmt, ast.Try):
            yield from _iter_top_level(stmt.body)
            for handler in stmt.handlers:
                yield from _iter_top_level(handler.body)
            yield from _iter_top_level(stmt.orelse)
            yield from _iter_top_level(stmt.finalbody)


class ProjectContext:
    """Module import graph + exported-symbol table over ``src/repro``."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}

    # -- construction -------------------------------------------------
    @classmethod
    def build(cls, ctx: "LintContext") -> "ProjectContext":
        project = cls()
        names: dict[str, str] = {}
        for path in ctx.files:
            name = module_name_for(path)
            if name is not None:
                names[path] = name
        known = set(names.values())
        for path, name in names.items():
            tree = ctx.files[path]
            info = ModuleInfo(
                name=name,
                path=path,
                imports=tuple(_module_imports(tree, name, path, known)),
                exports=frozenset(_module_exports(tree)),
            )
            project.modules[name] = info
        return project

    # -- queries ------------------------------------------------------
    def package_of(self, module: str) -> str:
        """Top-level package below ``repro`` (``''`` for root modules).

        ``repro.runtime.engine`` -> ``runtime``; ``repro.cli`` -> ``''``
        (root modules such as the CLI sit above the layer stack).
        """
        parts = module.split(".")
        if len(parts) <= 2:
            return ""
        return parts[1]

    def import_edges(self) -> Iterator[tuple[str, str, int]]:
        """Every (importer, imported, line) module-level edge."""
        for info in self.modules.values():
            for target, line in info.imports:
                yield info.name, target, line

    def cycles(self) -> list[list[str]]:
        """Module-level import cycles (each as a closed name path).

        Iterative DFS over the module graph; self-loops from package
        ``__init__`` re-exports (``from . import x`` making ``repro.x``
        "import itself") are ignored — they are how packages publish
        submodules, not architecture edges.
        """
        graph: dict[str, list[str]] = {
            name: sorted(
                {t for t in info.imported_modules() if t in self.modules and t != name}
            )
            for name, info in self.modules.items()
        }
        WHITE, GRAY, BLACK = 0, 1, 2
        color = dict.fromkeys(graph, WHITE)
        found: list[list[str]] = []
        seen_cycles: set[frozenset[str]] = set()
        for start in sorted(graph):
            if color[start] != WHITE:
                continue
            stack: list[tuple[str, Iterator[str]]] = [(start, iter(graph[start]))]
            trail: list[str] = [start]
            color[start] = GRAY
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    if color[nxt] == GRAY:
                        cycle = trail[trail.index(nxt) :] + [nxt]
                        key = frozenset(cycle)
                        if key not in seen_cycles:
                            seen_cycles.add(key)
                            found.append(cycle)
                    elif color[nxt] == WHITE:
                        color[nxt] = GRAY
                        stack.append((nxt, iter(graph[nxt])))
                        trail.append(nxt)
                        advanced = True
                        break
                if not advanced:
                    color[node] = BLACK
                    stack.pop()
                    trail.pop()
        return found


def _module_imports(
    tree: ast.Module, module: str, path: str, known: set[str]
) -> list[tuple[str, int]]:
    """repro-internal module-level imports of one module, resolved.

    Relative imports resolve against the importing module's package;
    ``from X import name`` resolves to the submodule ``X.name`` when
    that is a known module, else to ``X`` itself.
    """
    package = module if path.endswith("__init__.py") else module.rsplit(".", 1)[0]
    out: list[tuple[str, int]] = []

    def note(target: str, line: int) -> None:
        if target.split(".")[0] == "repro":
            out.append((target, line))

    for stmt in _iter_top_level(tree.body):
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                note(alias.name, stmt.lineno)
        elif isinstance(stmt, ast.ImportFrom):
            if stmt.level:
                parts = package.split(".")
                if stmt.level > len(parts):
                    continue  # beyond the project root; not ours
                base_parts = parts[: len(parts) - stmt.level + 1]
                base = ".".join(base_parts)
                if stmt.module:
                    base = f"{base}.{stmt.module}" if base else stmt.module
            else:
                base = stmt.module or ""
            if not base or base.split(".")[0] != "repro":
                continue
            for alias in stmt.names:
                sub = f"{base}.{alias.name}"
                note(sub if sub in known else base, stmt.lineno)
    return out


def _module_exports(tree: ast.Module) -> set[str]:
    """Names bound at module top level (the exported-symbol table)."""
    names: set[str] = set()
    for stmt in _iter_top_level(tree.body):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
                elif isinstance(target, (ast.Tuple, ast.List)):
                    for elt in target.elts:
                        if isinstance(elt, ast.Name):
                            names.add(elt.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names.add(stmt.target.id)
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name.split(".")[0]
                names.add(bound)
    return names
