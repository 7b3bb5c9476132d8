"""``repro lint``: rules, driver mechanics, CLI, and the real tree.

Each rule gets at least one violating and one clean fixture from
``tests/lint_fixtures/``, installed into a synthetic repository under
``tmp_path`` so the checks run against exactly the snippet under test.
The suite also pins the meta-invariants: the real tree lints clean
(there is no baseline or suppression to hide a finding), and deleting
an oracle's equivalence test (or the oracle itself) turns REP001 red.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.lint import (
    Violation,
    all_rules,
    build_context,
    find_root,
    run_lint,
)
from repro.lint.cli import main as lint_main
from repro.lint.registry import register
from repro.lint.report import render_json, render_text
from repro.lint.rules.cachekey import write_fingerprint

FIXTURES = Path(__file__).parent / "lint_fixtures"
REAL_ROOT = find_root(Path(__file__).parent)


def fixture(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def make_tree(tmp_path: Path, files: dict[str, str]) -> Path:
    """Write a synthetic repository and return its root."""
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return tmp_path


def lint_rule(root: Path, rule: str) -> list[Violation]:
    return run_lint(root, rule_ids=[rule]).violations


# ---------------------------------------------------------------------------
# the registry is the single source of truth


RULE_IDS = [
    "REP001",
    "REP002",
    "REP003",
    "REP004",
    "REP007",
    "REP008",
]


def test_registry_ships_the_documented_rules():
    rules = all_rules()
    assert [r.id for r in rules] == RULE_IDS
    assert all(r.summary for r in rules)
    assert len({r.name for r in rules}) == len(rules)


def test_duplicate_rule_id_is_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        register("REP001", "imposter", "second registration of a taken id")(
            lambda ctx: []
        )


# ---------------------------------------------------------------------------
# REP001 oracle pairing


def _rep001_tree(tmp_path, suite_fixture):
    return make_tree(
        tmp_path,
        {
            "src/repro/kernels.py": fixture("rep001_kernels.py"),
            "tests/test_kernels.py": fixture(suite_fixture),
        },
    )


def test_rep001_flags_orphaned_oracle(tmp_path):
    root = _rep001_tree(tmp_path, "rep001_kernel_suite_bad.py")
    violations = lint_rule(root, "REP001")
    assert len(violations) == 1
    assert violations[0].path == "src/repro/kernels.py"
    assert "frobnicate_reference" in violations[0].message


def test_rep001_clean_when_twins_are_co_tested(tmp_path):
    root = _rep001_tree(tmp_path, "rep001_kernel_suite_clean.py")
    assert lint_rule(root, "REP001") == []


def test_rep001_flags_missing_kernel_test_module(tmp_path):
    root = make_tree(
        tmp_path, {"src/repro/kernels.py": fixture("rep001_kernels.py")}
    )
    violations = lint_rule(root, "REP001")
    assert len(violations) == 1
    assert "tests/test_kernels.py is missing" in violations[0].message


# ---------------------------------------------------------------------------
# REP002 determinism


def test_rep002_flags_global_rng_wallclock_and_hash(tmp_path):
    root = make_tree(
        tmp_path, {"src/repro/core/noise.py": fixture("rep002_bad.py")}
    )
    messages = " | ".join(v.message for v in lint_rule(root, "REP002"))
    assert "numpy.random.normal" in messages
    assert "random.choice" in messages
    assert "time.time()" in messages
    assert "datetime.now()" in messages
    assert "hash()" in messages


def test_rep002_accepts_passed_in_generators(tmp_path):
    root = make_tree(
        tmp_path, {"src/repro/core/noise.py": fixture("rep002_clean.py")}
    )
    assert lint_rule(root, "REP002") == []


def test_rep002_ignores_telemetry_packages(tmp_path):
    root = make_tree(
        tmp_path, {"src/repro/obs/clock.py": fixture("rep002_bad.py")}
    )
    assert lint_rule(root, "REP002") == []


# ---------------------------------------------------------------------------
# REP003 picklability


def test_rep003_flags_unpicklable_job_state(tmp_path):
    root = make_tree(
        tmp_path, {"src/repro/runtime/myjobs.py": fixture("rep003_bad.py")}
    )
    violations = lint_rule(root, "REP003")
    messages = " | ".join(v.message for v in violations)
    assert len(violations) == 4
    assert "lambda" in messages
    assert "nested function 'helper'" in messages
    assert "an open file handle" in messages


def test_rep003_clean_job_passes(tmp_path):
    root = make_tree(
        tmp_path, {"src/repro/runtime/myjobs.py": fixture("rep003_clean.py")}
    )
    assert lint_rule(root, "REP003") == []


# ---------------------------------------------------------------------------
# REP004 cache-key completeness + schema fingerprint


def _rep004_run(root):
    # record a fingerprint first so only field-coverage findings remain
    write_fingerprint(build_context(root))
    return lint_rule(root, "REP004")


def test_rep004_flags_missing_field(tmp_path):
    root = make_tree(
        tmp_path, {"src/repro/runtime/specs.py": fixture("rep004_bad.py")}
    )
    violations = _rep004_run(root)
    assert len(violations) == 1
    assert "WindowSpec.cache_key" in violations[0].message
    assert "'threshold'" in violations[0].message


def test_rep004_clean_when_every_field_is_covered(tmp_path):
    root = make_tree(
        tmp_path, {"src/repro/runtime/specs.py": fixture("rep004_clean.py")}
    )
    assert _rep004_run(root) == []


CACHE_V1 = '''
CACHE_SCHEMA = 1


def stable_token(obj):
    return repr(obj)


def task_key(kind, inputs):
    return stable_token((kind, CACHE_SCHEMA, inputs))
'''


def test_rep004_requires_schema_bump_for_token_code_edits(tmp_path):
    root = make_tree(tmp_path, {"src/repro/runtime/cache.py": CACHE_V1})
    violations = lint_rule(root, "REP004")
    assert len(violations) == 1
    assert "no recorded cache fingerprint" in violations[0].message

    write_fingerprint(build_context(root))
    assert lint_rule(root, "REP004") == []

    # edit token-shaping code without bumping the schema: violation
    edited = CACHE_V1.replace("repr(obj)", "repr((type(obj).__name__, obj))")
    make_tree(root, {"src/repro/runtime/cache.py": edited})
    violations = lint_rule(root, "REP004")
    assert len(violations) == 1
    assert "CACHE_SCHEMA bump" in violations[0].message
    assert "stable_token" in violations[0].message

    # bump the schema: the recorded fingerprint is stale until re-recorded
    bumped = edited.replace("CACHE_SCHEMA = 1", "CACHE_SCHEMA = 2")
    make_tree(root, {"src/repro/runtime/cache.py": bumped})
    violations = lint_rule(root, "REP004")
    assert len(violations) == 1
    assert "stale" in violations[0].message

    write_fingerprint(build_context(root))
    assert lint_rule(root, "REP004") == []


def test_rep004_docstring_edits_do_not_change_the_fingerprint(tmp_path):
    root = make_tree(tmp_path, {"src/repro/runtime/cache.py": CACHE_V1})
    write_fingerprint(build_context(root))
    documented = CACHE_V1.replace(
        "def stable_token(obj):",
        'def stable_token(obj):\n    """Canonical string for obj."""',
    )
    make_tree(root, {"src/repro/runtime/cache.py": documented})
    assert lint_rule(root, "REP004") == []


# ---------------------------------------------------------------------------
# REP007 import layering


def _rep007_tree(tmp_path, files):
    base = {"src/repro/runtime/engine.py": fixture("rep007_engine.py")}
    base.update(files)
    return make_tree(tmp_path, base)


def test_rep007_flags_layering_cycles_and_missing_symbols(tmp_path):
    root = _rep007_tree(
        tmp_path,
        {
            "src/repro/timeseries/windows.py": fixture("rep007_bad_timeseries.py"),
            "src/repro/core/cycle_a.py": fixture("rep007_cycle_a.py"),
            "src/repro/core/cycle_b.py": fixture("rep007_cycle_b.py"),
            "src/repro/core/user.py": fixture("rep007_bad_symbol.py"),
        },
    )
    violations = lint_rule(root, "REP007")
    messages = " | ".join(v.message for v in violations)
    assert len(violations) == 3
    assert (
        "package 'timeseries' may not import package 'runtime'" in messages
    )
    assert "module-level import cycle" in messages
    assert "repro.core.cycle_a" in messages and "repro.core.cycle_b" in messages
    assert (
        "from repro.timeseries.windows import not_a_symbol" in messages
    )


def test_rep007_clean_layered_tree_passes(tmp_path):
    root = _rep007_tree(
        tmp_path,
        {
            "src/repro/timeseries/windows.py": fixture("rep007_clean_timeseries.py"),
            "src/repro/core/user.py": fixture("rep007_clean_core.py"),
        },
    )
    assert lint_rule(root, "REP007") == []


def test_rep007_real_tree_has_no_import_cycles():
    """Regression guard: the shipped layer map admits no cycle."""
    context = build_context(REAL_ROOT)
    assert list(context.project.cycles()) == []


# ---------------------------------------------------------------------------
# REP008 env boundary


def test_rep008_flags_every_raw_environment_access(tmp_path):
    root = make_tree(
        tmp_path, {"src/repro/core/config.py": fixture("rep008_bad.py")}
    )
    violations = lint_rule(root, "REP008")
    messages = " | ".join(v.message for v in violations)
    assert len(violations) == 5
    assert "os.environ" in messages
    assert "os.getenv" in messages
    assert "register the knob in repro.runtime.envconfig" in messages


def test_rep008_resolver_module_is_exempt(tmp_path):
    root = make_tree(
        tmp_path, {"src/repro/runtime/envconfig.py": fixture("rep008_bad.py")}
    )
    assert lint_rule(root, "REP008") == []


def test_rep008_resolver_users_pass(tmp_path):
    root = make_tree(
        tmp_path, {"src/repro/core/config.py": fixture("rep008_clean.py")}
    )
    assert lint_rule(root, "REP008") == []


# ---------------------------------------------------------------------------
# driver mechanics: parse errors, rule selection


def test_syntax_errors_surface_as_parse_findings(tmp_path):
    root = make_tree(tmp_path, {"src/repro/broken.py": "def oops(:\n"})
    result = run_lint(root, rule_ids=["REP002"])
    assert [v.rule for v in result.violations] == ["PARSE"]
    assert result.exit_code == 1


def test_unknown_rule_id_raises(tmp_path):
    root = make_tree(tmp_path, {"src/repro/empty.py": ""})
    with pytest.raises(KeyError, match="REP999"):
        run_lint(root, rule_ids=["REP999"])


# ---------------------------------------------------------------------------
# reporting


def test_reports_render_both_formats(tmp_path):
    root = make_tree(
        tmp_path, {"src/repro/core/noise.py": fixture("rep002_bad.py")}
    )
    result = run_lint(root, rule_ids=["REP002"])
    text = render_text(result)
    assert "src/repro/core/noise.py" in text
    assert "REP002" in text.splitlines()[-1]

    payload = json.loads(render_json(result))
    assert payload["exit_code"] == 1
    assert payload["violations"]
    assert {v["rule"] for v in payload["violations"]} == {"REP002"}
    assert [r["id"] for r in payload["rules"]] == ["REP002"]


# ---------------------------------------------------------------------------
# CLI


def test_cli_lists_every_rule_in_help(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in all_rules():
        assert rule.id in out
        assert rule.summary.split()[0] in out


def test_cli_json_artifact_round_trips(tmp_path, capsys):
    out_file = tmp_path / "lint.json"
    code = lint_main(
        ["--root", str(REAL_ROOT), "--format", "json", "--output", str(out_file)]
    )
    payload = json.loads(out_file.read_text())
    assert code == payload["exit_code"] == 0
    assert [r["id"] for r in payload["rules"]] == RULE_IDS


def test_cli_exit_codes(tmp_path, capsys):
    make_tree(tmp_path, {"src/repro/core/noise.py": fixture("rep002_bad.py")})
    assert lint_main(["--root", str(tmp_path), "--rules", "REP002"]) == 1
    assert lint_main(["--root", str(tmp_path), "--rules", "BOGUS"]) == 2
    capsys.readouterr()


def test_repro_cli_delegates_lint(capsys):
    from repro.cli import main as repro_main

    assert repro_main(["lint", "--list-rules"]) == 0
    assert "REP001" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# the real tree


def test_real_tree_lints_clean_with_no_suppressions():
    result = run_lint(REAL_ROOT)
    assert result.violations == []
    assert result.exit_code == 0


def test_real_tree_rep001_notices_a_deleted_equivalence_test(tmp_path):
    """Deleting an oracle's test from the real suite must turn REP001 red."""
    import shutil

    root = tmp_path / "tree"
    (root / "src").parent.mkdir(parents=True, exist_ok=True)
    shutil.copytree(REAL_ROOT / "src" / "repro", root / "src" / "repro")
    tests_dir = root / "tests"
    tests_dir.mkdir()
    real_suite = (REAL_ROOT / "tests" / "test_kernels.py").read_text()
    # sever every reference to the batched periodogram while keeping the
    # kernel pair itself: the equivalence coverage is gone
    assert "periodogram_batch" in real_suite
    pruned = real_suite.replace("periodogram_batch", "periodogram_batch_gone")
    (tests_dir / "test_kernels.py").write_text(pruned)
    violations = lint_rule(root, "REP001")
    assert any("'periodogram_batch'" in v.message for v in violations)
