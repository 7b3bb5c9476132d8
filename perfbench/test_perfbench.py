"""Self-tests of the benchmark: span arithmetic, tracer, scorer, smoke runs.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from datetime import date
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from scoring import score_wfh  # noqa: E402
from tracer import EntryPoint, Span, Tracer, self_times  # noqa: E402


def _span(span_id, layer, start, end, parent=None):
    return Span(span_id, layer, layer, start, end, parent, 0)


def test_self_time_subtracts_child_spans():
    spans = [
        _span(0, "engine", 0.0, 10.0),
        _span(1, "dispatch", 1.0, 9.0, parent=0),
        _span(2, "truth", 2.0, 4.0, parent=1),
        _span(3, "probe", 4.0, 7.0, parent=1),
    ]
    got = self_times(spans)
    assert got == pytest.approx({"engine": 2.0, "dispatch": 3.0, "truth": 2.0, "probe": 3.0})
    assert sum(got.values()) == pytest.approx(10.0)  # self times cover the wall


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(0, "engine", 0.0, 10.0),
        _span(1, "probe", 1.0, 5.0, parent=0),
        _span(2, "probe", 3.0, 6.0, parent=0),
        _span(3, "truth", 8.0, 12.0, parent=0),  # clipped to the parent
    ]
    assert self_times(spans)["engine"] == pytest.approx(10.0 - 5.0 - 2.0)


def test_self_time_sums_spans_of_one_layer():
    spans = [
        _span(0, "spill", 0.0, 1.0),
        _span(1, "spill", 2.0, 2.5),
        _span(2, "spill", 2.1, 2.2, parent=1),  # nested read inside a read
    ]
    assert self_times(spans) == pytest.approx({"spill": 1.5})


class Toy:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n * 2


def test_tracer_records_nested_spans_and_counts():
    original = Toy.__dict__["inner"]
    points = (
        EntryPoint(__name__, "Toy.outer", "engine", "outer"),
        EntryPoint(
            __name__, "Toy.inner", "probe", "inner",
            lambda s, a, r, b: {"probe.calls": 1, "probe.probes": r},
        ),
    )
    tracer = Tracer(points)
    with tracer.installed():
        assert Toy().outer(3) == 7
    assert Toy.__dict__["inner"] is original
    inner, outer = tracer.spans
    assert (inner.name, outer.name) == ("inner", "outer")
    assert inner.parent == outer.span_id and outer.parent is None
    assert dict(tracer.counts) == {"probe.calls": 1, "probe.probes": 6}
    assert tracer.absent == []


def test_forked_child_runs_unpatched():
    original = Toy.__dict__["inner"]
    tracer = Tracer((EntryPoint(__name__, "Toy.inner", "probe", "inner"),))
    with tracer.installed():
        assert Toy.__dict__["inner"] is not original
        pid = os.fork()
        if pid == 0:  # the child: exit 0 only if the program's own method is back
            os._exit(0 if Toy.__dict__["inner"] is original and Toy().inner(2) == 4 else 1)
        _, status = os.waitpid(pid, 0)
        assert Toy.__dict__["inner"] is not original  # the parent stays traced
    assert os.waitstatus_to_exitcode(status) == 0
    assert tracer.spans == []  # the child's call never reached the parent's tracer


def test_tracer_tolerates_missing_entry_points():
    points = (
        EntryPoint("repro.no_such_module", "Thing.run", "probe", "probe"),
        EntryPoint("repro.net.world", "WorldModel.no_such_method", "truth", "truth"),
        EntryPoint("repro.net.world", "NoSuchClass.truth", "truth", "truth"),
    )
    tracer = Tracer(points)
    with tracer.installed():
        pass
    assert tracer.absent == [p.label for p in points]
    assert tracer.spans == [] and not tracer.counts


def test_wfh_score_hand_built_case():
    from repro.net.events import Curfew, Holiday, Outage, WorkFromHome

    epoch = date(2020, 1, 1)  # day 23 = Jan 24, day 53 = Feb 23, day 68 = Mar 9
    wfh = WorkFromHome(start=date(2020, 3, 9))
    holiday = Holiday(first=date(2020, 1, 24), days=8)
    curfew = Curfew(first=date(2020, 2, 23), days=7)
    outage = Outage(start_s=0.0, end_s=3600.0)
    blocks = [
        (SimpleNamespace(events=(wfh, outage)), (70, 100)),  # found; 70 ok, 100 not
        (SimpleNamespace(events=(wfh, holiday)), (23,)),  # missed; 23 ok (holiday)
        (SimpleNamespace(events=(curfew,)), (49, 57, 58)),  # 49, 57 ok; 58 is 5 days off
        (SimpleNamespace(events=()), ()),
    ]
    score = score_wfh(blocks, epoch)
    assert (score.wfh_found, score.wfh_missed) == (1, 1)
    assert (score.days_matched, score.days_unmatched) == (4, 2)
    assert score.recall == pytest.approx(0.5)
    assert score.precision == pytest.approx(4 / 6)


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
        "--seconds", "0.1", "--trace", str(trace), "--scale", "0.05",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in _spec()["workloads"]])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = _spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "funnel-2w", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
