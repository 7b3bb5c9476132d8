"""Per-stage instrumentation for the block pipeline.

The paper's Table 1 pipeline is a fixed chain of six stages
(``repair -> combine -> reconstruct -> classify -> trend -> detect``).
:class:`StageContext` is the lightweight recorder each stage reports
into: one :class:`StageRecord` per invocation with wall time, input and
output sizes, and (when a stage did not run) a skip reason.

Records are plain frozen dataclasses so they pickle cheaply and can be
shipped back from worker processes; the runtime engine aggregates them
into per-campaign :class:`~repro.runtime.engine.RunMetrics`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Sequence

from ..obs.resources import thread_cpu_seconds
from ..obs.trace import get_tracer

__all__ = ["PIPELINE_STAGES", "StageContext", "StageMeter", "StageRecord", "StageShare"]

#: Canonical stage order of :meth:`repro.core.pipeline.BlockPipeline.analyze`.
#: Extra ad-hoc stages (the dataset builder's ``truth`` and ``probe``)
#: may appear in a context as well; this tuple is the pipeline's own
#: contract.
PIPELINE_STAGES = ("repair", "combine", "reconstruct", "classify", "trend", "detect")


@dataclass(frozen=True)
class StageRecord:
    """One stage invocation: how long it took and what flowed through it.

    ``cpu_s`` is thread CPU time consumed by the stage body — zero for
    skipped stages, and excluded from byte-identity comparisons (like
    ``wall_s``, it is a measurement, not a result).
    """

    name: str
    wall_s: float = 0.0
    n_in: int = 0
    n_out: int = 0
    skipped: str | None = None  # reason the stage did not run, None = it ran
    cpu_s: float = 0.0

    @property
    def ran(self) -> bool:
        return self.skipped is None


class StageShare(NamedTuple):
    """One block's share of a shared computation's measured cost."""

    wall_s: float
    cpu_s: float


class StageMeter:
    """Wall/CPU cost of one computation shared by blocks.

    Batched stages run once for many blocks; the meter measures the run
    and splits it into per-block :class:`StageShare` entries, so stage
    totals aggregated over blocks stay shaped like the per-block path's
    (where each block is measured directly).
    """

    __slots__ = ("_cpu", "_wall")

    def __init__(self) -> None:
        self._cpu = thread_cpu_seconds()
        self._wall = time.perf_counter()

    def _elapsed(self) -> tuple[float, float]:
        wall = time.perf_counter() - self._wall
        cpu = thread_cpu_seconds() - self._cpu
        return wall, cpu

    def shares(self, n: int) -> StageShare:
        """An even ``1/n`` share for each of ``n`` blocks."""
        wall, cpu = self._elapsed()
        return StageShare(wall_s=wall / n, cpu_s=cpu / n)

    def split(self, weights: Sequence[float]) -> list[StageShare]:
        """Shares in proportion to ``weights`` (even when they sum to 0)."""
        wall, cpu = self._elapsed()
        total = float(sum(weights))
        fractions = (
            [w / total for w in weights] if total > 0 else [1.0 / len(weights)] * len(weights)
        )
        return [StageShare(wall * f, cpu * f) for f in fractions]


class _ActiveStage:
    """Mutable handle a running stage uses to report its output size."""

    __slots__ = ("n_out",)

    def __init__(self, n_out: int = 0) -> None:
        self.n_out = n_out


@dataclass
class StageContext:
    """Collects :class:`StageRecord` entries for one block analysis."""

    records: list[StageRecord] = field(default_factory=list)

    @contextmanager
    def stage(self, name: str, *, n_in: int = 0) -> Iterator[_ActiveStage]:
        """Time a stage body; set ``.n_out`` on the yielded handle.

        When tracing is enabled, every invocation also closes a
        ``stage:<name>`` span under the enclosing block span.
        """
        active = _ActiveStage()
        tracer = get_tracer()
        span_cm = tracer.span(f"stage:{name}") if tracer.enabled else None
        span = span_cm.__enter__() if span_cm is not None else None
        cpu_start = thread_cpu_seconds()
        start = time.perf_counter()
        try:
            yield active
        finally:
            wall_s = time.perf_counter() - start
            cpu_s = thread_cpu_seconds() - cpu_start
            self.records.append(
                StageRecord(
                    name=name,
                    wall_s=wall_s,
                    n_in=n_in,
                    n_out=active.n_out,
                    cpu_s=cpu_s,
                )
            )
            if span_cm is not None:
                span.set(n_in=n_in, n_out=active.n_out)
                span_cm.__exit__(None, None, None)

    def skip(self, name: str, reason: str, *, n_in: int = 0) -> None:
        """Record that a stage was not run and why."""
        self.records.append(StageRecord(name=name, n_in=n_in, skipped=reason))

    def record_batched(
        self,
        name: str,
        *,
        wall_s: float,
        n_in: int = 0,
        n_out: int = 0,
        n_batch: int = 1,
        cpu_s: float = 0.0,
    ) -> None:
        """Record one block's share of a batched stage execution.

        ``wall_s`` is the block's slice of the batch wall time (the batched
        pipeline attributes ``batch_wall / n_batch`` to each member), and
        ``cpu_s`` the analogous CPU share, while ``n_in``/``n_out`` are
        the block's true sizes.  When tracing, the record also emits a
        synthetic ``stage:<name>`` span under the enclosing span so
        per-block span accounting stays intact.
        """
        self.records.append(
            StageRecord(
                name=name,
                wall_s=wall_s,
                n_in=n_in,
                n_out=n_out,
                cpu_s=cpu_s,
            )
        )
        tracer = get_tracer()
        if tracer.enabled:
            tracer.emit(
                f"stage:{name}",
                wall_s=wall_s,
                attrs={"n_in": n_in, "n_out": n_out, "n_batch": n_batch},
            )

    # -- inspection helpers -------------------------------------------------
    def by_name(self, name: str) -> list[StageRecord]:
        return [r for r in self.records if r.name == name]

    def last(self, name: str) -> StageRecord | None:
        for record in reversed(self.records):
            if record.name == name:
                return record
        return None

    @property
    def total_wall_s(self) -> float:
        return sum(r.wall_s for r in self.records)

    def as_dict(self) -> dict[str, dict[str, object]]:
        """Per-stage summary as plain dicts (JSON-friendly).

        Repeated invocations of one stage (e.g. re-runs through the
        composable ``stage_*`` methods) aggregate instead of silently
        keeping only the last record: ``wall_s`` sums over calls,
        ``calls`` counts them, and ``n_in``/``n_out``/``skipped``
        reflect the most recent invocation.
        """
        out: dict[str, dict[str, object]] = {}
        for r in self.records:
            d = out.get(r.name)
            if d is None:
                out[r.name] = {
                    "wall_s": r.wall_s,
                    "cpu_s": r.cpu_s,
                    "n_in": r.n_in,
                    "n_out": r.n_out,
                    "skipped": r.skipped,
                    "calls": 1,
                }
            else:
                d["wall_s"] += r.wall_s
                d["cpu_s"] += r.cpu_s
                d["n_in"] = r.n_in
                d["n_out"] = r.n_out
                d["skipped"] = r.skipped
                d["calls"] += 1
        return out
