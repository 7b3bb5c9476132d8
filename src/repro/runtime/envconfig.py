"""Central registry and resolver for every ``REPRO_*`` environment knob.

Every environment variable the codebase reads or writes is declared
here, once, with its type and a one-line description.  The rest of the
tree never touches ``os.environ`` directly (REP008 enforces this): it
calls :func:`raw` / :func:`peek` / the typed ``get_*`` helpers to read,
and :func:`set_env` / :func:`setdefault_env` / :func:`overriding` to
write.  Routing everything through one module buys three things:

* **Registration** — a typo'd variable name is a ``KeyError`` at the
  call site instead of a silently-ignored knob.
* **Typing** — garbage values warn (``RuntimeWarning``) and fall back
  to the documented default instead of crashing or being ignored.
* **Enumerability** — :func:`env_help` renders the whole catalogue for
  ``repro --help``, so no knob lives only in a docstring.

This module is deliberately a **leaf**: it imports nothing from
``repro`` (REP007 keeps it that way), so every layer — ``obs``,
``runtime``, ``experiments``, the CLI — may import it without creating
an architecture edge.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "EnvVar",
    "REGISTRY",
    "env_help",
    "get_bool",
    "get_int",
    "overriding",
    "peek",
    "raw",
    "set_env",
    "setdefault_env",
]


@dataclass(frozen=True)
class EnvVar:
    """One registered knob: its name, rough type, default, and purpose."""

    name: str
    kind: str
    default: str
    description: str


#: Every environment variable the repo reads, in ``--help`` order.
REGISTRY: tuple[EnvVar, ...] = (
    EnvVar(
        "REPRO_SCALE",
        "int",
        "experiment-specific",
        "world size (number of /24 blocks) for simulated campaigns",
    ),
    EnvVar(
        "REPRO_WORKERS",
        "int",
        "1 (serial)",
        "size of the process pool for block analysis "
        "(CLI --workers)",
    ),
    EnvVar(
        "REPRO_SHARDS",
        "int",
        "1 (unsharded)",
        "contiguous block shards per campaign, spilled between shards "
        "(CLI --shards)",
    ),
    EnvVar(
        "REPRO_CACHE",
        "path",
        "unset (no cache)",
        "root directory of the content-addressed per-block result cache "
        "(CLI --cache)",
    ),
    EnvVar(
        "REPRO_SPILL_DIR",
        "path",
        "system temp dir",
        "parent directory under which sharded runs create their "
        "repro-spill-* directories",
    ),
    EnvVar(
        "REPRO_PROGRESS",
        "path",
        "unset (no heartbeats)",
        "directory receiving live progress.jsonl heartbeats "
        "(CLI --progress)",
    ),
    EnvVar(
        "REPRO_SANITIZE",
        "bool",
        "0",
        "install the runtime ResourceSanitizer: track process pools "
        "and spill dirs; fail on leaks at engine close "
        "and process exit",
    ),
)

_BY_NAME: dict[str, EnvVar] = {var.name: var for var in REGISTRY}

_TRUTHY = frozenset(("1", "true", "yes", "on"))
_FALSY = frozenset(("0", "false", "no", "off"))


def _require(name: str) -> EnvVar:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unregistered environment variable {name!r}; add it to "
            "repro.runtime.envconfig.REGISTRY"
        ) from None


def raw(name: str) -> str:
    """The registered knob's value, stripped; ``''`` when unset."""
    _require(name)
    return os.environ.get(name, "").strip()


def peek(name: str) -> str | None:
    """The knob's exact value, or ``None`` when unset (presence matters)."""
    _require(name)
    return os.environ.get(name)


def _warn_garbage(name: str, value: str, expected: str, fallback: str) -> None:
    warnings.warn(
        f"{name}={value!r} is not {expected}; using {fallback}",
        RuntimeWarning,
        stacklevel=3,
    )


def get_int(name: str, default: int, *, minimum: int | None = None) -> int:
    """Integer knob; garbage warns and falls back to ``default``."""
    value = raw(name)
    if not value:
        return default
    try:
        parsed = int(value)
    except ValueError:
        _warn_garbage(name, value, "an integer", str(default))
        return default
    if minimum is not None and parsed < minimum:
        return minimum
    return parsed


def get_bool(name: str, default: bool) -> bool:
    """Boolean knob (1/true/yes/on vs 0/false/no/off); garbage warns."""
    value = raw(name).lower()
    if not value:
        return default
    if value in _TRUTHY:
        return True
    if value in _FALSY:
        return False
    _warn_garbage(name, value, "a boolean", "the default")
    return default


def set_env(name: str, value: str) -> None:
    """Set a registered knob for the rest of this process (and children)."""
    _require(name)
    os.environ[name] = value


def setdefault_env(name: str, value: str) -> None:
    """Set a registered knob only when the environment did not already."""
    _require(name)
    os.environ.setdefault(name, value)


@contextmanager
def overriding(name: str, value: str | None) -> Iterator[None]:
    """Scoped override of a registered knob; restores the prior state
    (including absence) on exit.  ``None`` unsets for the scope."""
    _require(name)
    prior = os.environ.get(name)
    if value is None:
        os.environ.pop(name, None)
    else:
        os.environ[name] = value
    try:
        yield
    finally:
        if prior is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = prior


def env_help() -> str:
    """The whole catalogue, rendered for ``repro --help``."""
    width = max(len(var.name) for var in REGISTRY)
    lines = ["environment variables:"]
    for var in REGISTRY:
        lines.append(
            f"  {var.name:<{width}}  {var.description} "
            f"[{var.kind}; default: {var.default}]"
        )
    return "\n".join(lines)
