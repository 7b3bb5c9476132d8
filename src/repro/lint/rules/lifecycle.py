"""REP006 — acquired OS resources must be released on *every* path.

The runtime's safety rules — "the pool's owner shuts it down" (process
pools), "the coordinator writes, the coordinator deletes" (spill
dirs) — only hold when every acquisition is dominated by a release: a
``with`` block, a ``try/finally``, a registered ``weakref.finalize``,
or escape into an object that owns the resource and has a lifecycle
method.  A named shm segment leaked on an exception edge outlives the
process in ``/dev/shm``; a leaked ``ProcessPoolExecutor`` strands
worker processes.

This is a CFG-lite, flow-sensitive check.  For each acquisition of

* ``multiprocessing.shared_memory.SharedMemory(...)``
* ``concurrent.futures.ProcessPoolExecutor(...)``
* ``tempfile.TemporaryDirectory(...)`` / ``tempfile.mkdtemp(...)``
* ``np.load(..., mmap_mode=...)`` (a live mmap handle)

bound to a local name, the rule scans the *continuation* — the
statements that execute after the acquisition on the normal path,
including enclosing ``try`` else/finally blocks — until the resource
is **protected**:

* entered as a ``with`` context (directly, or as the first statement
  of an immediately following ``try``);
* released in a following ``try``'s ``finally`` (or the enclosing
  one's);
* registered with ``weakref.finalize``;
* released directly (``x.close()`` as the next effectful statement);
* ownership transferred: returned/yielded, aliased, or passed to
  another call (``self._segments.append(seg)``, ``_remove_tree(path)``);
* stored on ``self`` — allowed only when the enclosing class has a
  lifecycle method (``close``/``release``/``cleanup``/``shutdown``/
  ``stop``/``terminate``/``__exit__``/``__del__``) or registers a
  ``weakref.finalize`` — otherwise the object can never free it.

Any statement that can raise (contains a call or ``raise``) *before*
protection is an exception-edge leak and is flagged.  Acquisitions
used as a ``with`` context expression or nested inside a larger
expression (``return cls(tempfile.mkdtemp(...))``) are ownership
transfers and trusted; the runtime ResourceSanitizer
(``repro.lint.sanitizer``) is the dynamic oracle for what this static
approximation cannot see.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from ..registry import Violation, register
from .common import attribute_chain, import_aliases

if TYPE_CHECKING:
    from ..driver import LintContext

#: acquisition constructor -> method names that release it.
RELEASE_METHODS: dict[str, frozenset[str]] = {
    "SharedMemory": frozenset({"close", "unlink"}),
    "ProcessPoolExecutor": frozenset({"shutdown"}),
    "TemporaryDirectory": frozenset({"cleanup"}),
    "mkdtemp": frozenset(),
    "np.load": frozenset({"close"}),
}

#: Methods that make a class an owner: storing a resource on ``self``
#: is fine when one of these exists to let go of it again.
LIFECYCLE_METHODS = frozenset(
    {"close", "release", "cleanup", "shutdown", "stop", "terminate", "__exit__", "__del__"}
)

_PROTECT = "protect"
_UNMANAGED = "unmanaged-escape"
_HAZARD = "hazard"
_NEUTRAL = "neutral"


@dataclass(frozen=True)
class _Acquisition:
    """One matched acquisition call and how to release it."""

    ctor: str
    node: ast.Call


def _resolve(chain: list[str], aliases: dict[str, str], froms: dict[str, tuple[str, str]]) -> list[str]:
    head = chain[0]
    if head in aliases:
        return aliases[head].split(".") + chain[1:]
    if head in froms:
        module, attr = froms[head]
        return module.split(".") + [attr] + chain[1:]
    return chain


def _match_acquisition(
    node: ast.Call, aliases: dict[str, str], froms: dict[str, tuple[str, str]]
) -> _Acquisition | None:
    chain = attribute_chain(node.func)
    if chain is None:
        return None
    resolved = _resolve(chain, aliases, froms)
    last = resolved[-1]
    if last in ("SharedMemory", "ProcessPoolExecutor", "TemporaryDirectory", "mkdtemp"):
        return _Acquisition(ctor=last, node=node)
    if last == "load" and resolved[0] == "numpy":
        for kw in node.keywords:
            if kw.arg == "mmap_mode" and not (
                isinstance(kw.value, ast.Constant) and kw.value.value is None
            ):
                return _Acquisition(ctor="np.load", node=node)
    return None


def _references(node: ast.AST, name: str) -> bool:
    return any(isinstance(sub, ast.Name) and sub.id == name for sub in ast.walk(node))


def _has_call_or_raise(stmt: ast.stmt) -> bool:
    for sub in ast.walk(stmt):
        if isinstance(sub, (ast.Call, ast.Raise, ast.Assert, ast.Await)):
            return True
    return False


def _is_finalize_call(node: ast.expr) -> bool:
    chain = attribute_chain(node.func) if isinstance(node, ast.Call) else None
    return bool(chain) and chain[-1] == "finalize"


def _call_args(node: ast.Call) -> Iterator[ast.expr]:
    yield from node.args
    for kw in node.keywords:
        yield kw.value


def _releases_in_block(stmts: list[ast.stmt], name: str, release: frozenset[str]) -> bool:
    """Does this (finally) block release ``name``?

    ``x.close()``-style calls with a known release method, or any call
    taking ``x`` as an argument (``shutil.rmtree(path)``,
    ``_remove_tree(path)``) count.
    """
    for stmt in stmts:
        for sub in ast.walk(stmt):
            if not isinstance(sub, ast.Call):
                continue
            chain = attribute_chain(sub.func)
            if chain and len(chain) >= 2 and chain[0] == name:
                if chain[-1] in release or not release:
                    return True
            if any(_references(arg, name) for arg in _call_args(sub)):
                return True
    return False


def _self_escape_value(stmt: ast.stmt, name: str) -> bool:
    """``self.attr = x`` / ``self.c[k] = x`` / ``self.c.append(x)``?"""
    if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Name) and stmt.value.id == name:
        for target in stmt.targets:
            base = target.value if isinstance(target, ast.Subscript) else target
            chain = attribute_chain(base) if isinstance(base, ast.Attribute) else None
            if chain and chain[0] == "self":
                return True
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
        chain = attribute_chain(stmt.value.func)
        if chain and chain[0] == "self":
            if any(
                isinstance(arg, ast.Name) and arg.id == name
                for arg in _call_args(stmt.value)
            ):
                return True
    return False


def _class_is_owner(cls: ast.ClassDef | None) -> bool:
    if cls is None:
        return False
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if stmt.name in LIFECYCLE_METHODS:
                return True
    for sub in ast.walk(cls):
        if isinstance(sub, ast.Call) and _is_finalize_call(sub):
            return True
    return False


def _first_effective(stmts: list[ast.stmt]) -> ast.stmt | None:
    for stmt in stmts:
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring
        return stmt
    return None


def _classify(
    stmt: ast.stmt, name: str, release: frozenset[str], cls: ast.ClassDef | None
) -> str:
    """One continuation statement's effect on a live resource ``name``."""
    # with x: / with x as y:
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            if _references(item.context_expr, name):
                return _PROTECT  # with x: / with closing(x):
        return _HAZARD if _has_call_or_raise(stmt) else _NEUTRAL
    # try: ... finally: x.release()  /  try: with x: ...
    if isinstance(stmt, ast.Try):
        if stmt.finalbody and _releases_in_block(stmt.finalbody, name, release):
            return _PROTECT
        first = _first_effective(stmt.body)
        if first is not None and _classify(first, name, release, cls) == _PROTECT:
            return _PROTECT
        return _HAZARD if _has_call_or_raise(stmt) else _NEUTRAL
    # weakref.finalize(owner, fn, ..., x, ...)
    finalize_value: ast.expr | None = None
    if isinstance(stmt, ast.Expr):
        finalize_value = stmt.value
    elif isinstance(stmt, ast.Assign):
        finalize_value = stmt.value
    if (
        finalize_value is not None
        and isinstance(finalize_value, ast.Call)
        and _is_finalize_call(finalize_value)
        and any(_references(arg, name) for arg in _call_args(finalize_value))
    ):
        return _PROTECT
    # escape onto self: fine iff the class can let go again
    if _self_escape_value(stmt, name):
        return _PROTECT if _class_is_owner(cls) else _UNMANAGED
    # ownership transfer out of this frame
    if isinstance(stmt, ast.Return) and stmt.value is not None and _references(stmt.value, name):
        return _PROTECT
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, (ast.Yield, ast.YieldFrom)):
        if _references(stmt.value, name):
            return _PROTECT
    if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Name) and stmt.value.id == name:
        return _PROTECT  # aliased; the alias carries the obligation
    # x.close() as the next effectful statement, or handoff f(..., x, ...)
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
        call = stmt.value
        chain = attribute_chain(call.func)
        if chain and chain[0] == name and len(chain) >= 2:
            if chain[-1] in release or not release:
                return _PROTECT
            return _HAZARD  # a use (seg.buf, pool.map) before any release
        if any(_references(arg, name) for arg in _call_args(call)):
            return _PROTECT
    if _has_call_or_raise(stmt) or isinstance(stmt, ast.Raise):
        return _HAZARD
    return _NEUTRAL


@dataclass
class _Finding:
    line: int
    message: str


class _FunctionScanner:
    """Scan one function body, tracking each block's continuation."""

    def __init__(
        self,
        aliases: dict[str, str],
        froms: dict[str, tuple[str, str]],
        cls: ast.ClassDef | None,
    ) -> None:
        self.aliases = aliases
        self.froms = froms
        self.cls = cls
        self.findings: list[_Finding] = []

    def scan(self, body: list[ast.stmt]) -> None:
        self._visit_block(body, [])

    # -- traversal ----------------------------------------------------
    def _visit_block(self, block: list[ast.stmt], continuation: list[ast.stmt]) -> None:
        for i, stmt in enumerate(block):
            rest = block[i + 1 :] + continuation
            self._check_stmt(stmt, rest)
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                self._visit_block(stmt.body, rest)
            elif isinstance(stmt, ast.Try):
                self._visit_block(stmt.body, stmt.orelse + stmt.finalbody + rest)
                for handler in stmt.handlers:
                    self._visit_block(handler.body, stmt.finalbody + rest)
                self._visit_block(stmt.orelse, stmt.finalbody + rest)
                self._visit_block(stmt.finalbody, rest)
            elif isinstance(stmt, ast.If):
                self._visit_block(stmt.body, rest)
                self._visit_block(stmt.orelse, rest)
            elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                self._visit_block(stmt.body, rest)
                self._visit_block(stmt.orelse, rest)
            # nested defs are scanned as functions of their own

    def _check_stmt(self, stmt: ast.stmt, continuation: list[ast.stmt]) -> None:
        for acq, binding in self._acquisitions_in(stmt):
            if binding is None:
                self.findings.append(
                    _Finding(
                        acq.node.lineno,
                        f"{acq.ctor}() acquired and dropped without a handle; "
                        "nothing can ever release it",
                    )
                )
            elif binding == "__self__":
                if not _class_is_owner(self.cls):
                    self.findings.append(
                        _Finding(
                            acq.node.lineno,
                            f"{acq.ctor}() stored on self, but "
                            f"{self.cls.name if self.cls else 'the class'} has no "
                            "lifecycle method (close/release/cleanup/shutdown) "
                            "and registers no weakref.finalize",
                        )
                    )
            else:
                self._check_continuation(acq, binding, continuation)

    def _check_continuation(
        self, acq: _Acquisition, name: str, continuation: list[ast.stmt]
    ) -> None:
        release = RELEASE_METHODS[acq.ctor]
        for stmt in continuation:
            status = _classify(stmt, name, release, self.cls)
            if status == _PROTECT:
                return
            if status == _UNMANAGED:
                self.findings.append(
                    _Finding(
                        acq.node.lineno,
                        f"{acq.ctor}() escapes onto self, but "
                        f"{self.cls.name if self.cls else 'the class'} has no "
                        "lifecycle method (close/release/cleanup/shutdown) "
                        "and registers no weakref.finalize",
                    )
                )
                return
            if status == _HAZARD:
                self.findings.append(
                    _Finding(
                        acq.node.lineno,
                        f"{acq.ctor}() may leak on an exception edge: "
                        f"line {stmt.lineno} can raise before the resource is "
                        "protected by with/try-finally/weakref.finalize",
                    )
                )
                return
        self.findings.append(
            _Finding(
                acq.node.lineno,
                f"{acq.ctor}() is never released on this path; protect it "
                "with with/try-finally/weakref.finalize or transfer "
                "ownership",
            )
        )

    # -- acquisition extraction ---------------------------------------
    def _acquisitions_in(
        self, stmt: ast.stmt
    ) -> Iterator[tuple[_Acquisition, str | None]]:
        """(acquisition, binding) pairs for one statement.

        binding is the local name, ``'__self__'`` for direct storage on
        self, or ``None`` for a dropped bare-expression acquisition.
        Acquisitions nested inside larger expressions (call arguments,
        return values, with-contexts) are ownership transfers and are
        not yielded.
        """
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return  # with ACQ() as x: -- managed by the with itself
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call):
            acq = _match_acquisition(stmt.value, self.aliases, self.froms)
            if acq is not None:
                target = stmt.targets[0] if len(stmt.targets) == 1 else None
                if isinstance(target, ast.Name):
                    yield acq, target.id
                    return
                base = (
                    target.value
                    if isinstance(target, ast.Subscript)
                    else target
                )
                chain = (
                    attribute_chain(base)
                    if isinstance(base, ast.Attribute)
                    else None
                )
                if chain and chain[0] == "self":
                    yield acq, "__self__"
                    return
                return  # tuple targets etc.: out of scope
            return
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.value, ast.Call):
            acq = _match_acquisition(stmt.value, self.aliases, self.froms)
            if acq is not None and isinstance(stmt.target, ast.Name):
                yield acq, stmt.target.id
            return
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            acq = _match_acquisition(stmt.value, self.aliases, self.froms)
            if acq is not None:
                yield acq, None
            return


@register(
    "REP006",
    "resource-lifecycle",
    "shm segments, pools, spill/temp dirs, and mmap handles must be "
    "released on all paths (with / try-finally / weakref.finalize)",
)
def check(ctx: "LintContext") -> list[Violation]:
    violations: list[Violation] = []
    for path, tree in ctx.iter_src():
        aliases, froms = import_aliases(tree)
        # map each function to its enclosing class (one level: methods)
        owner: dict[ast.AST, ast.ClassDef | None] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        owner[sub] = node
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            scanner = _FunctionScanner(aliases, froms, owner.get(node))
            scanner.scan(node.body)
            for finding in scanner.findings:
                violations.append(
                    Violation(
                        rule="REP006",
                        path=path,
                        line=finding.line,
                        message=finding.message,
                    )
                )
    return violations
