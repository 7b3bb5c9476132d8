"""Tests for ``repro bench``, the cProfile wrapper, and sink hardening."""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import pytest

from repro.obs.profiling import collapsed_stacks, profile_call, top_table, write_profile


# ---------------------------------------------------------------------------
# repro bench
# ---------------------------------------------------------------------------
class TestBenchCli:
    def test_bench_writes_its_section_and_keeps_the_rest(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        out = tmp_path / "bench.json"
        unrelated = {"cusum": {"vectorized_s": 0.1, "reference_s": 0.2, "speedup": 2.0}}
        out.write_text(json.dumps({"batched": unrelated}))
        assert cli_main(["bench", "--sections", "kernels", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert sorted(doc) == ["batched", "kernels"]
        assert doc["batched"] == unrelated
        assert sorted(doc["kernels"]) == ["cusum", "full_scan_durations", "prober"]
        assert all(stats["speedup"] > 0 for stats in doc["kernels"].values())
        assert "kernels/prober:" in capsys.readouterr().out

    def test_cache_keys_section_asserts_and_times_both_routes(self):
        from repro.bench import measure_cache_keys

        (name, stats), = measure_cache_keys(n_blocks=20).items()
        assert name == "block-analysis:20" and stats["keys"] == 20.0
        assert stats["per_task_s"] > 0 and stats["per_run_s"] > 0

    @pytest.mark.parametrize("name", ["definitely-not-a-section", "engine", "scale"])
    def test_unknown_section_is_an_error(self, name):
        from repro.bench import run_sections

        with pytest.raises(ValueError, match="unknown bench section"):
            run_sections([name])


# ---------------------------------------------------------------------------
# cProfile wrapper
# ---------------------------------------------------------------------------
def _workload():
    total = 0
    for i in range(50_000):
        total += i * i
    return total


class TestProfiling:
    def test_profile_call_returns_result_and_stats(self):
        result, stats = profile_call(_workload)
        assert result == _workload()
        assert stats.stats  # type: ignore[attr-defined]

    def test_top_table_shape_and_no_absolute_paths(self):
        _, stats = profile_call(_workload)
        table = top_table(stats, n=10)
        lines = table.splitlines()
        assert lines[0].split() == ["ncalls", "tottime", "cumtime", "function"]
        assert any("_workload" in line for line in lines)
        assert "/" not in table  # labels are basename:name, machine-neutral

    def test_collapsed_stacks_format_and_determinism(self):
        _, stats = profile_call(_workload)
        first = collapsed_stacks(stats)
        second = collapsed_stacks(stats)
        assert first == second  # same stats, identical rendering
        assert first == sorted(first)
        for line in first:
            stack, count = line.rsplit(" ", 1)
            assert stack
            assert int(count) > 0

    def test_write_profile_artifacts(self, tmp_path):
        _, stats = profile_call(_workload)
        out = write_profile(stats, tmp_path / "prof")
        assert (out / "profile.pstats").is_file()
        assert (out / "profile.collapsed").is_file()

    def test_profile_cli_runs_an_experiment(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main as cli_main

        monkeypatch.setenv("REPRO_SCALE", "16")
        monkeypatch.chdir(tmp_path)
        assert cli_main(["profile", "fig3", "-o", str(tmp_path / "prof")]) == 0
        out = capsys.readouterr().out
        assert "cumtime" in out
        assert (tmp_path / "prof" / "profile.collapsed").is_file()


# ---------------------------------------------------------------------------
# sink hardening (satellite 1)
# ---------------------------------------------------------------------------
class TestSinkHardening:
    def _write(self, directory):
        import repro.obs.sinks as sinks
        from repro.obs.trace import Tracer

        tracer = Tracer()
        with tracer.span("run"):
            pass
        return sinks.write_run(directory, tracer=tracer, runs=[], label="t")

    def test_unwritable_directory_warns_once(self, tmp_path, monkeypatch):
        import repro.obs.sinks as sinks

        monkeypatch.setattr(sinks, "_SINK_WARNED", False)
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the trace dir should be")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            self._write(blocker / "trace")  # mkdir fails: parent is a file
            self._write(blocker / "trace")  # second failure stays silent
        sink_warnings = [w for w in caught if "trace sink" in str(w.message)]
        assert len(sink_warnings) == 1

    def test_manifest_publish_leaves_no_tmp_droppings(self, tmp_path):
        out = self._write(tmp_path / "trace")
        assert (out / "run.json").is_file()
        assert not list(Path(out).glob("*.tmp"))
        json.loads((out / "run.json").read_text())  # valid, complete JSON

    def test_healthy_write_does_not_warn(self, tmp_path, monkeypatch):
        import repro.obs.sinks as sinks

        monkeypatch.setattr(sinks, "_SINK_WARNED", False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            self._write(tmp_path / "trace")
        assert not [w for w in caught if "trace sink" in str(w.message)]
