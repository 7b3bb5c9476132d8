"""``repro lint``: static verification of the repo's correctness invariants.

The runtime test suite proves the pipeline's invariants *today*; this
package proves they cannot silently rot *tomorrow*.  The analyzer runs
in two passes: pass 1 builds a :class:`~repro.lint.project.ProjectContext`
(module import graph + exported-symbol table over all of ``src/repro``),
pass 2 runs six AST-based rules — the newer ones reasoning across
files — checking the properties the reproduction's credibility rests
on:

==========  ====================  =============================================
rule ID     name                  invariant
==========  ====================  =============================================
``REP001``  oracle-pairing        every public ``*_reference``/``*_batch``
                                  kernel twin is co-tested with its base in
                                  ``tests/test_kernels.py``
``REP002``  determinism           no global RNG, wall-clock, or process-salted
                                  ``hash()`` calls in deterministic packages
``REP003``  picklability          engine-dispatched ``*Job`` classes capture no
                                  lambdas, nested functions, or open handles
``REP004``  cache-key-            ``cache_keyer``/``cache_token`` cover every
            completeness          public field; token-shaping code edits
                                  require a ``CACHE_SCHEMA`` bump
``REP007``  import-layering       module-level imports follow the declarative
                                  layer map, form no cycles, and name symbols
                                  that exist (``rules/layering.LAYER_MAP``)
``REP008``  env-boundary          raw ``os.environ``/``os.getenv`` access only
                                  inside ``runtime/envconfig.py``, where every
                                  knob is registered and typed
==========  ====================  =============================================

Resource leaks are not a static rule: :mod:`repro.lint.sanitizer`
tracks every process pool and spill dir from its acquisition to its
release and fails on leaks at process exit.  Every
tier-1 run is armed with it; ``REPRO_SANITIZE=1`` arms a CLI run.

Entry points: the ``repro lint`` CLI subcommand (:mod:`repro.lint.cli`),
or :func:`run_lint` for tests and tooling.
"""

from __future__ import annotations

from .driver import LintContext, LintResult, build_context, find_root, run_lint
from .registry import Rule, Violation, all_rules, get_rule

__all__ = [
    "LintContext",
    "LintResult",
    "Rule",
    "Violation",
    "all_rules",
    "build_context",
    "find_root",
    "get_rule",
    "run_lint",
]
