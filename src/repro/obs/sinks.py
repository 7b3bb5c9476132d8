"""Durable telemetry: JSONL span/metrics files plus a run manifest.

One traced run writes three files into its trace directory:

``spans.jsonl``
    One :class:`~repro.obs.trace.SpanRecord` per line, the whole span
    tree (run -> campaign -> block -> stage) in completion order.
``metrics.jsonl``
    One :class:`~repro.runtime.engine.RunMetrics` dict per engine run,
    in run order — everything ``repro --metrics`` prints, durably.
``run.json``
    The manifest: what ran, at what scale, on which code (git describe),
    how long it took, and the merged funnel — enough to reconstruct the
    experiment setup without re-running anything.

:func:`load_run` reads all three back; :func:`render_report` re-renders
the saved stage tables and funnels from disk (``repro report DIR``).
"""

from __future__ import annotations

import json
import os
import subprocess
import tempfile
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable

from .trace import SpanRecord, Tracer

if TYPE_CHECKING:  # runtime.engine imports obs.*; keep the cycle type-only
    from ..runtime.engine import RunMetrics

__all__ = [
    "MANIFEST_FILE",
    "METRICS_FILE",
    "SPANS_FILE",
    "SavedRun",
    "git_describe",
    "load_run",
    "render_report",
    "write_run",
]

SPANS_FILE = "spans.jsonl"
METRICS_FILE = "metrics.jsonl"
MANIFEST_FILE = "run.json"

#: Sink failures warn once per process: a campaign that outlives its
#: trace directory (unmounted disk, cleaned tmpdir) must keep running,
#: and repeating the warning per record would bury the real output.
_SINK_WARNED = False


def _warn_sink_failure(path: Path, exc: OSError) -> None:
    global _SINK_WARNED
    if _SINK_WARNED:
        return
    _SINK_WARNED = True
    warnings.warn(
        f"trace sink {path} unwritable ({exc}); telemetry for this run is incomplete",
        RuntimeWarning,
        stacklevel=3,
    )


def _write_jsonl(path: Path, records: Iterable[dict[str, Any]], *, sort_keys: bool) -> None:
    """Write one JSON object per line, flushing per record.

    Per-record flushes mean a crash mid-write loses at most the line in
    flight, and an external tail sees records as they land.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=sort_keys) + "\n")
            fh.flush()


def git_describe(cwd: str | Path | None = None) -> str | None:
    """``git describe --always --dirty`` of the source tree, or ``None``."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=str(cwd) if cwd is not None else os.path.dirname(__file__),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def _merged_funnel(runs: list["RunMetrics"]) -> dict[str, int]:
    """Key-wise sum of per-run funnels (runs without a funnel contribute 0)."""
    funnel: dict[str, int] = {}
    for metrics in runs:
        for key, n in metrics.funnel.items():
            funnel[key] = funnel.get(key, 0) + n
    return funnel


def write_run(
    directory: str | Path,
    *,
    tracer: Tracer,
    runs: list["RunMetrics"],
    label: str,
    extra: dict[str, Any] | None = None,
) -> Path:
    """Write spans, per-run metrics, and the manifest; returns the dir.

    Best-effort: an unwritable or removed directory warns once per
    process and returns (the campaign's results matter more than its
    telemetry); the manifest is written atomically (tmp + rename) so a
    reader never sees a truncated ``run.json``.
    """
    out = Path(directory)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        _warn_sink_failure(out, exc)
        return out

    try:
        _write_jsonl(
            out / SPANS_FILE,
            (span.as_dict() for span in tracer.finished),
            sort_keys=True,
        )
        # no sort_keys here: funnel/stage dict order is the display order,
        # and a reloaded report must render byte-identically to the live one
        _write_jsonl(
            out / METRICS_FILE,
            (metrics.as_dict() for metrics in runs),
            sort_keys=False,
        )
    except OSError as exc:
        _warn_sink_failure(out, exc)
        return out

    # lazy: obs is imported by core, so a module-level runtime import
    # would re-enter repro.runtime mid-initialisation
    from ..runtime import envconfig

    manifest: dict[str, Any] = {
        "label": label,
        "created_unix": time.time(),
        "trace_id": tracer.trace_id,
        "git": git_describe(),
        "env": {
            "REPRO_SCALE": envconfig.peek("REPRO_SCALE"),
            "REPRO_WORKERS": envconfig.peek("REPRO_WORKERS"),
        },
        "executors": sorted({m.executor for m in runs}),
        "wall_s": sum(m.wall_s for m in runs),
        "n_engine_runs": len(runs),
        "n_spans": len(tracer.finished),
        "funnel": _merged_funnel(runs),
        "runs": [
            {
                "label": m.label,
                "executor": m.executor,
                "n_tasks": m.n_tasks,
                "wall_s": m.wall_s,
                "funnel": dict(m.funnel),
            }
            for m in runs
        ],
    }
    if extra:
        manifest.update(extra)
    try:
        fd, tmp = tempfile.mkstemp(dir=out, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(manifest, fh, indent=2, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, out / MANIFEST_FILE)  # atomic publish
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        _warn_sink_failure(out, exc)
    return out


@dataclass
class SavedRun:
    """A traced run loaded back from disk."""

    directory: Path
    manifest: dict[str, Any]
    spans: list[SpanRecord] = field(default_factory=list)
    runs: list["RunMetrics"] = field(default_factory=list)

    def span_children(self) -> dict[str | None, list[SpanRecord]]:
        """Spans grouped by parent id (``None`` holds the roots)."""
        children: dict[str | None, list[SpanRecord]] = {}
        for span in self.spans:
            children.setdefault(span.parent_id, []).append(span)
        return children


def load_run(directory: str | Path) -> SavedRun:
    """Read a trace directory back into memory.

    The manifest is required; span and metrics files are optional (an
    interrupted run may have written only some of them).
    """
    from ..runtime.engine import RunMetrics  # imported here: engine imports obs

    out = Path(directory)
    manifest_path = out / MANIFEST_FILE
    if not manifest_path.is_file():
        raise FileNotFoundError(f"no {MANIFEST_FILE} in {out}/ — not a trace directory")
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)

    saved = SavedRun(directory=out, manifest=manifest)
    spans_path = out / SPANS_FILE
    if spans_path.is_file():
        with open(spans_path, encoding="utf-8") as fh:
            saved.spans = [SpanRecord.from_dict(json.loads(line)) for line in fh if line.strip()]
    metrics_path = out / METRICS_FILE
    if metrics_path.is_file():
        with open(metrics_path, encoding="utf-8") as fh:
            saved.runs = [RunMetrics.from_dict(json.loads(line)) for line in fh if line.strip()]
    return saved


def render_report(saved: SavedRun) -> str:
    """Re-render a saved run: manifest header, then each stage table.

    The tables come from the reconstructed
    :class:`~repro.runtime.engine.RunMetrics`, so they are identical to
    what ``--metrics`` printed live — no recomputation happens here.
    """
    m = saved.manifest
    env = m.get("env") or {}
    header = [
        f"run {m.get('label')!r}  trace={m.get('trace_id')}",
        "  "
        + "  ".join(
            f"{key}={value}"
            for key, value in (
                ("git", m.get("git") or "?"),
                ("REPRO_SCALE", env.get("REPRO_SCALE") or "-"),
                ("REPRO_WORKERS", env.get("REPRO_WORKERS") or "-"),
                ("wall_s", f"{m.get('wall_s', 0.0):.2f}"),
                ("spans", m.get("n_spans", len(saved.spans))),
            )
        ),
    ]
    if m.get("funnel"):
        header.append(
            "  funnel: " + "  ".join(f"{k}={v}" for k, v in m["funnel"].items())
        )
    blocks = ["\n".join(header)]
    blocks.extend(metrics.report() for metrics in saved.runs)
    return "\n\n".join(blocks)
