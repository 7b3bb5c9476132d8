"""The shipped lint rules.

Importing this package registers every rule with
:mod:`repro.lint.registry`; a new rule is one module with a
``@register(...)``-decorated checker plus an import line here.
"""

from __future__ import annotations

from . import (  # noqa: F401
    cachekey,
    determinism,
    envboundary,
    layering,
    oracle,
    picklability,
)

__all__ = [
    "cachekey",
    "determinism",
    "envboundary",
    "layering",
    "oracle",
    "picklability",
]
