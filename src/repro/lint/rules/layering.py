"""REP007 — the architecture DAG is declared here and enforced everywhere.

The layer map below is the checked-in, reviewable statement of which
package may import which.  The intended stack, bottom to top::

    timeseries   obs          (leaves: kernels / telemetry vocabulary)
        \\        |
         net ----+            (simulated internet, emits telemetry)
          \\      |
           core --+           (deterministic per-block pipeline)
            \\     |
             datasets <-> runtime   (campaign specs / execution engine)
                   \\     /
                 experiments        (paper figures and tables)

``obs`` is deliberately a cross-cutting telemetry layer: deterministic
packages may *emit* telemetry (spans, stage timings), so ``core``/
``net`` importing ``obs`` is allowed, while ``obs`` itself may import
nothing — telemetry must never feed back into results.  ``timeseries``
imports nothing at all.  ``lint`` imports nothing from the rest of the
tree (in particular not ``runtime``): the analyzer must be loadable
even while the code it checks is broken, so its only runtime coupling
is the sanitizer's function-level lazy imports.

One module is a **shared leaf**, importable from any layer because it
imports nothing itself and exists to be universal vocabulary:
``repro.runtime.envconfig`` (the REP008 environment resolver).

Root modules (``repro.cli``, ``repro.bench``, ``repro.export``,
``repro/__init__``) sit above the stack and may import anything.

Besides the layer map, this rule fails on any module-level import
*cycle* (package ``__init__`` self re-exports excluded) and on
``from X import name`` statements naming symbols that do not exist in
the target module — drift the interpreter only catches at import time,
on whichever code path happens to hit it first.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING

from ..project import ModuleInfo, ProjectContext, module_name_for
from ..registry import Violation, register

if TYPE_CHECKING:
    from ..driver import LintContext

#: package -> packages it may import from (module-level imports only).
#: ``""`` keys/targets are the root modules (cli, bench, export, ...).
LAYER_MAP: dict[str, frozenset[str]] = {
    "timeseries": frozenset(),
    "obs": frozenset(),
    "net": frozenset({"obs"}),
    "core": frozenset({"timeseries", "net", "obs"}),
    "datasets": frozenset({"timeseries", "net", "obs", "core", "runtime"}),
    "runtime": frozenset({"timeseries", "net", "obs", "core", "datasets"}),
    "experiments": frozenset(
        {"timeseries", "net", "obs", "core", "datasets", "runtime"}
    ),
    "lint": frozenset(),
    "": frozenset(
        {
            "timeseries",
            "net",
            "obs",
            "core",
            "datasets",
            "runtime",
            "experiments",
            "lint",
        }
    ),
}

#: Modules importable from *any* layer: they import nothing from repro
#: (enforced below) and exist to be shared vocabulary.
SHARED_LEAVES: frozenset[str] = frozenset({"repro.runtime.envconfig"})


def _pkg_label(pkg: str) -> str:
    return f"package {pkg!r}" if pkg else "the root modules"


def _check_layers(project: ProjectContext) -> list[Violation]:
    out: list[Violation] = []
    for importer, imported, line in project.import_edges():
        if imported not in project.modules and not any(
            known == imported or known.startswith(imported + ".")
            for known in project.modules
        ):
            continue  # not a module we model (e.g. namespace drift)
        src_pkg = project.package_of(importer)
        dst_pkg = project.package_of(imported)
        if src_pkg == dst_pkg:
            continue
        if imported in SHARED_LEAVES:
            continue
        info = project.modules[importer]
        if src_pkg not in LAYER_MAP:
            out.append(
                Violation(
                    rule="REP007",
                    path=info.path,
                    line=line,
                    message=(
                        f"package {src_pkg!r} is not declared in the layer map; "
                        "register it in repro.lint.rules.layering.LAYER_MAP"
                    ),
                )
            )
            continue
        if dst_pkg not in LAYER_MAP[src_pkg]:
            out.append(
                Violation(
                    rule="REP007",
                    path=info.path,
                    line=line,
                    message=(
                        f"layering violation: {_pkg_label(src_pkg)} may not "
                        f"import {_pkg_label(dst_pkg)} ({importer} -> "
                        f"{imported}); allowed: "
                        f"{sorted(LAYER_MAP[src_pkg]) or 'nothing'}"
                    ),
                )
            )
    return out


def _check_shared_leaves(project: ProjectContext) -> list[Violation]:
    out: list[Violation] = []
    for leaf in sorted(SHARED_LEAVES):
        info = project.modules.get(leaf)
        if info is None:
            continue
        for target, line in info.imports:
            if target == leaf:
                continue
            out.append(
                Violation(
                    rule="REP007",
                    path=info.path,
                    line=line,
                    message=(
                        f"{leaf} is a declared shared leaf and must not "
                        f"import other repro modules (imports {target})"
                    ),
                )
            )
    return out


def _check_cycles(project: ProjectContext) -> list[Violation]:
    out: list[Violation] = []
    for cycle in project.cycles():
        first = min(cycle[:-1])
        info = project.modules[first]
        out.append(
            Violation(
                rule="REP007",
                path=info.path,
                line=0,
                message=(
                    "module-level import cycle: " + " -> ".join(cycle)
                ),
            )
        )
    return out


def _check_import_symbols(ctx: "LintContext", project: ProjectContext) -> list[Violation]:
    """``from repro.x import name`` must name something repro.x defines."""
    out: list[Violation] = []
    for path, tree in ctx.iter_src():
        module = module_name_for(path)
        if module is None or module not in project.modules:
            continue
        is_pkg = path.endswith("__init__.py")
        package = module if is_pkg else module.rsplit(".", 1)[0]
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level:
                parts = package.split(".")
                if node.level > len(parts):
                    continue
                base = ".".join(parts[: len(parts) - node.level + 1])
                if node.module:
                    base = f"{base}.{node.module}" if base else node.module
            else:
                base = node.module or ""
            if not base or base.split(".")[0] != "repro":
                continue
            target: ModuleInfo | None = project.modules.get(base)
            if target is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                if f"{base}.{alias.name}" in project.modules:
                    continue  # a submodule, not a symbol
                if alias.name in target.exports:
                    continue
                out.append(
                    Violation(
                        rule="REP007",
                        path=path,
                        line=node.lineno,
                        message=(
                            f"from {base} import {alias.name}: {base} defines "
                            "no such module-level name"
                        ),
                    )
                )
    return out


@register(
    "REP007",
    "import-layering",
    "module-level imports must follow the declared layer map, form no "
    "cycles, and name symbols that exist",
)
def check(ctx: "LintContext") -> list[Violation]:
    project = ctx.project
    violations = _check_layers(project)
    violations.extend(_check_shared_leaves(project))
    violations.extend(_check_cycles(project))
    violations.extend(_check_import_symbols(ctx, project))
    return violations
