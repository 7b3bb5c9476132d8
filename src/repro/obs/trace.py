"""Hierarchical tracing: spans for run -> campaign -> block -> stage.

A :class:`Tracer` records one :class:`SpanRecord` per closed span with a
process-unique id, its parent's id, a wall-clock start timestamp, and a
monotonic duration.  Nesting is ambient: ``tracer.span(...)`` uses the
innermost open span as the parent, so instrumentation points (the
engine, :class:`~repro.core.stages.StageContext`, jobs) never thread
span handles through call signatures — they ask :func:`get_tracer` for
the process-wide tracer, which is the zero-cost :data:`NOOP` singleton
unless a caller (the CLI's ``--trace``, a test) installed a real one.

Cross-process propagation: worker processes cannot append to the parent
tracer, so the engine wraps each task to build a *fragment* tracer whose
``root_parent_id`` is the campaign span; the fragment's finished spans
are shipped back with the result (they are frozen dataclasses, cheap to
pickle) and re-attached via :meth:`Tracer.adopt`.  Span ids are random,
so fragments from any number of workers merge without collisions.
"""

from __future__ import annotations

import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Iterator

__all__ = [
    "NOOP",
    "NoopTracer",
    "SpanRecord",
    "Tracer",
    "annotate",
    "get_tracer",
    "set_tracer",
    "use_tracer",
]


def _new_id() -> str:
    return uuid.uuid4().hex[:16]


@dataclass(frozen=True)
class SpanRecord:
    """One closed span; picklable and JSON-friendly via :meth:`as_dict`."""

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    start_unix: float  # wall-clock epoch seconds at open
    wall_s: float  # monotonic duration
    attrs: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_unix": self.start_unix,
            "wall_s": self.wall_s,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "SpanRecord":
        return cls(
            trace_id=d["trace_id"],
            span_id=d["span_id"],
            parent_id=d.get("parent_id"),
            name=d["name"],
            start_unix=d["start_unix"],
            wall_s=d["wall_s"],
            attrs=dict(d.get("attrs") or {}),
        )


class _OpenSpan:
    """Mutable handle for a span that is still running."""

    __slots__ = ("span_id", "attrs")

    def __init__(self, span_id: str) -> None:
        self.span_id = span_id
        self.attrs: dict[str, Any] = {}

    def set(self, **attrs: Any) -> None:
        """Attach attributes; recorded when the span closes."""
        self.attrs.update(attrs)


class Tracer:
    """Records hierarchical spans for one trace (one process at a time).

    Parameters
    ----------
    trace_id:
        Shared id of every span in the trace; generated when omitted.
    root_parent_id:
        Parent id given to spans opened with no enclosing span — how a
        worker-side fragment attaches under the parent process's tree.
    """

    enabled = True

    def __init__(self, trace_id: str | None = None, root_parent_id: str | None = None) -> None:
        self.trace_id = trace_id or _new_id()
        self.root_parent_id = root_parent_id
        self.finished: list[SpanRecord] = []
        self._stack: list[_OpenSpan] = []
        self._tags: dict[str, Any] = {}

    @contextmanager
    def span(self, name: str, attrs: dict[str, Any] | None = None) -> Iterator[_OpenSpan]:
        """Open a child of the innermost open span (or the fragment root)."""
        parent = self._stack[-1].span_id if self._stack else self.root_parent_id
        open_span = _OpenSpan(_new_id())
        if attrs:
            open_span.attrs.update(attrs)
        self._stack.append(open_span)
        start_unix = time.time()
        start = time.perf_counter()
        try:
            yield open_span
        finally:
            wall_s = time.perf_counter() - start
            self._stack.pop()
            merged = dict(self._tags)
            merged.update(open_span.attrs)
            self.finished.append(
                SpanRecord(
                    trace_id=self.trace_id,
                    span_id=open_span.span_id,
                    parent_id=parent,
                    name=name,
                    start_unix=start_unix,
                    wall_s=wall_s,
                    attrs=merged,
                )
            )

    @contextmanager
    def tagged(self, **tags: Any) -> Iterator[None]:
        """Attach ``tags`` to every span closed inside the block.

        This is how experiment protocols label the campaign spans the
        engine opens on their behalf without threading attrs through.
        """
        saved = dict(self._tags)
        self._tags.update(tags)
        try:
            yield
        finally:
            self._tags = saved

    def annotate(self, **attrs: Any) -> None:
        """Set attributes on the innermost open span (no-op if none)."""
        if self._stack:
            self._stack[-1].set(**attrs)

    def adopt(self, records: Iterable[SpanRecord]) -> None:
        """Attach spans recorded elsewhere (worker fragments) to this trace.

        Adopted spans close into this trace here, so they take the
        active :meth:`tagged` tags the same way a local span would.
        """
        if self._tags:
            records = [replace(r, attrs={**self._tags, **r.attrs}) for r in records]
        self.finished.extend(records)

    def emit(
        self, name: str, *, wall_s: float, attrs: dict[str, Any] | None = None
    ) -> None:
        """Record an already-measured span under the innermost open span.

        Batched stages run one computation for many blocks; each block
        emits its share of the measured wall time as a synthetic span so
        the span tree keeps its per-block shape (and per-stage span sums
        still match the recorded stage totals).
        """
        parent = self._stack[-1].span_id if self._stack else self.root_parent_id
        merged = dict(self._tags)
        if attrs:
            merged.update(attrs)
        self.finished.append(
            SpanRecord(
                trace_id=self.trace_id,
                span_id=_new_id(),
                parent_id=parent,
                name=name,
                start_unix=time.time() - wall_s,
                wall_s=wall_s,
                attrs=merged,
            )
        )

    @property
    def current_span_id(self) -> str | None:
        return self._stack[-1].span_id if self._stack else None


class _NoopSpanContext:
    """Singleton reusable context manager yielding a do-nothing handle."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpanContext":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        pass


_NOOP_SPAN = _NoopSpanContext()


class NoopTracer:
    """The disabled tracer: every operation is a constant-time no-op."""

    enabled = False
    trace_id = ""
    root_parent_id = None
    finished: tuple[SpanRecord, ...] = ()
    current_span_id = None

    def span(self, name: str, attrs: dict[str, Any] | None = None) -> _NoopSpanContext:
        return _NOOP_SPAN

    def tagged(self, **tags: Any) -> _NoopSpanContext:
        return _NOOP_SPAN

    def annotate(self, **attrs: Any) -> None:
        pass

    def adopt(self, records: Iterable[SpanRecord]) -> None:
        pass

    def emit(
        self, name: str, *, wall_s: float, attrs: dict[str, Any] | None = None
    ) -> None:
        pass


#: Process-wide default: tracing is off unless somebody installs a Tracer.
NOOP = NoopTracer()
_TRACER: Tracer | NoopTracer = NOOP


def get_tracer() -> Tracer | NoopTracer:
    """The ambient tracer instrumentation points report into."""
    return _TRACER


def set_tracer(tracer: Tracer | NoopTracer) -> Tracer | NoopTracer:
    """Install ``tracer`` process-wide; returns the previous one."""
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    return previous


@contextmanager
def use_tracer(tracer: Tracer | NoopTracer) -> Iterator[Tracer | NoopTracer]:
    """Scoped :func:`set_tracer` (restores the previous tracer on exit)."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


def annotate(**attrs: Any) -> None:
    """Set attributes on the ambient tracer's innermost open span."""
    _TRACER.annotate(**attrs)
