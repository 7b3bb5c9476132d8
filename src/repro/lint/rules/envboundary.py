"""REP008 — every environment knob goes through ``runtime/envconfig.py``.

A measurement campaign's configuration *is* methodology: a knob that
is read straight off ``os.environ`` somewhere deep in the tree is
invisible in ``--help``, untyped, silent on typos, and impossible to
enumerate when writing down what a run actually did.  This rule bans
raw environment access — ``os.environ`` in any form (reads, writes,
``.get``/``.setdefault``/``.pop``, membership tests), ``os.getenv``,
``os.putenv``, ``os.unsetenv``, and their ``from os import ...``
aliases — everywhere except the one central resolver,
``src/repro/runtime/envconfig.py``, where each variable is registered
with a type, a default, and a description.

New knob workflow: add an ``EnvVar`` entry to ``envconfig.REGISTRY``,
then read it via ``envconfig.raw``/``get_int``/``get_bool``/... and
write it via ``envconfig.set_env``/``overriding``.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING

from ..registry import Violation, register
from .common import attribute_chain, import_aliases

if TYPE_CHECKING:
    from ..driver import LintContext

#: The one file allowed to touch the process environment.
RESOLVER_PATH = "src/repro/runtime/envconfig.py"

_BANNED_OS_CALLS = frozenset({"getenv", "putenv", "unsetenv"})


@register(
    "REP008",
    "env-boundary",
    "raw os.environ / os.getenv access is banned outside "
    "runtime/envconfig.py",
)
def check(ctx: "LintContext") -> list[Violation]:
    violations: list[Violation] = []
    for path, tree in ctx.iter_src():
        if path == RESOLVER_PATH:
            continue
        aliases, froms = import_aliases(tree)
        # names bound from `from os import environ/getenv/...`
        local_bans: dict[str, str] = {}
        for name, (module, attr) in froms.items():
            if module == "os" and (attr == "environ" or attr in _BANNED_OS_CALLS):
                local_bans[name] = f"os.{attr}"
        for node in ast.walk(tree):
            chain = attribute_chain(node) if isinstance(node, ast.Attribute) else None
            if chain is not None:
                head = aliases.get(chain[0], chain[0])
                resolved = [head, *chain[1:]]
                if resolved[0] == "os" and len(resolved) == 2:
                    # flagging only the exact two-element chain reports
                    # os.environ.get(...) once, at the inner attribute
                    if resolved[1] == "environ":
                        violations.append(_violation(path, node.lineno, "os.environ"))
                    elif resolved[1] in _BANNED_OS_CALLS:
                        violations.append(
                            _violation(path, node.lineno, f"os.{resolved[1]}")
                        )
            elif isinstance(node, ast.Name) and node.id in local_bans:
                if isinstance(getattr(node, "ctx", None), ast.Load):
                    violations.append(
                        _violation(path, node.lineno, local_bans[node.id])
                    )
    return violations


def _violation(path: str, line: int, what: str) -> Violation:
    return Violation(
        rule="REP008",
        path=path,
        line=line,
        message=(
            f"raw environment access ({what}) outside the central "
            "resolver; register the knob in repro.runtime.envconfig and "
            "use its typed helpers"
        ),
    )
