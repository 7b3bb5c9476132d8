"""Content-addressed per-block result cache for the campaign engine.

Every per-block job in this repo is a pure function of frozen inputs
(world seed and scenario, block spec, analysis window, pipeline
parameters), so its result can be keyed by a stable hash of those inputs
and reused across engine runs and CLI invocations.  fig3/fig5/table3 and
the covid/control campaigns share worlds; with a cache directory they
stop re-simulating them.

Key schema
----------
A key is ``sha256(stable_token((kind, CACHE_SCHEMA, inputs)))`` where
``stable_token`` renders the inputs canonically: primitives by ``repr``,
dates by isoformat, dicts with sorted keys, sets sorted, dataclasses as
``(qualified name, field tokens)``, numpy arrays as (dtype, shape, raw
bytes), and any object exposing ``cache_token()`` by recursing into
that.  The qualified class names mean a renamed or restructured config
class invalidates naturally; bumping :data:`CACHE_SCHEMA` invalidates
everything at once (do this whenever a kernel or pipeline change alters
results without changing any input field).  Objects the tokenizer does
not understand make the task *uncacheable* (its key is ``None``) rather
than wrongly cacheable.

One hash state per run: a job keys every block of a run through
:func:`task_keyer`, which tokenizes the job-invariant inputs (the
world's token alone is ~8.7k characters) once into a ``sha256`` state
and per task only copies it and feeds in the task's token and the
fixed tail.  The bytes hashed are exactly
``stable_token((kind, CACHE_SCHEMA, inputs))`` with the task in its
slot; ``task_keyer`` is the only code that assembles a key.  Schema 4
marks that rewrite of the key code (and ``stable_token``'s per-class
field-name table): no token changes, but every edit to token-shaping
code bumps the schema, with no exception.

Storage
-------
The cache is its directory (``--cache DIR`` / ``REPRO_CACHE``): one
pickle per key under ``DIR/<k[:2]>/<k>.pkl``, written with atomic
renames, so parallel runs and repeated invocations are safe.  The cache
object holds no result, so a sharded run's spilled shards are not
pinned in memory behind it, and every hit is a disk read of exactly the
stored object — the engine guarantees cached, serial, and parallel runs
stay byte-identical.

An entry file is the 32-byte ``sha256`` digest of the pickle followed
by the pickle itself; ``get`` checks the digest before unpickling, so a
flipped byte can never be served as a wrong hit.  An entry that cannot
be read back (a digest mismatch, an entry written without a digest,
truncated bytes, or a class that no longer exists) is a miss: the block
is recomputed and ``put`` atomically replaces the entry.

Sharded runs (``--shards N``) read and write the same paths: a key
hashes the job inputs only, never the shard id, so re-partitioning the
same world stays warm in both directions.
"""

from __future__ import annotations

import dataclasses
import datetime as _dt
import enum
import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import envconfig

__all__ = [
    "AnalysisCache",
    "CACHE_SCHEMA",
    "default_cache",
    "stable_token",
    "task_keyer",
]

#: Bump to invalidate every existing cache entry (result-affecting
#: change that is invisible in the job's input fields).
#: 2: cumsum moving average + extended LOESS fast path changed
#: per-block result bits at the float-rounding level.
#: 3: window-local truth (per-day counter-based truth streams) changed
#: every time-varying block's ground truth.
#: 4: keys hash the job-invariant inputs once per run (``task_keyer``);
#: every token is unchanged, the schema marks the token-code rewrite.
CACHE_SCHEMA = 4

#: Length of the ``sha256`` digest that heads every disk entry.
_DIGEST_BYTES = 32

#: Field names of every dataclass type :func:`stable_token` has met
#: (``dataclasses.fields`` rebuilds its tuple on every call).
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def stable_token(obj: Any) -> str:
    """Canonical string for ``obj``; raises TypeError when unrepresentable.

    Two objects that would make a per-block job behave identically must
    tokenize identically; objects that could differ must not collide.
    """
    if obj is None or isinstance(obj, (bool, int)):
        return repr(obj)
    if isinstance(obj, float):
        return repr(obj)  # repr round-trips float64 exactly
    if isinstance(obj, str):
        return "s" + repr(obj)
    if isinstance(obj, bytes):
        return "b" + hashlib.sha256(obj).hexdigest()
    if isinstance(obj, enum.Enum):
        return f"e({type(obj).__qualname__}:{obj.name})"
    if isinstance(obj, (_dt.datetime, _dt.date, _dt.time)):
        return f"t({obj.isoformat()})"
    if isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        digest = hashlib.sha256(arr.tobytes()).hexdigest()
        return f"a({arr.dtype.str},{arr.shape},{digest})"
    if isinstance(obj, np.generic):
        return stable_token(obj.item())
    token = getattr(obj, "cache_token", None)
    if token is not None and not dataclasses.is_dataclass(obj):
        return f"o({type(obj).__qualname__},{stable_token(token())})"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        names = _FIELD_NAMES.get(type(obj))
        if names is None:
            names = tuple(f.name for f in dataclasses.fields(obj))
            _FIELD_NAMES[type(obj)] = names
        fields = ",".join([f"{name}={stable_token(getattr(obj, name))}" for name in names])
        return f"d({type(obj).__qualname__},{fields})"
    if isinstance(obj, (tuple, list)):
        return "(" + ",".join(stable_token(v) for v in obj) + ")"
    if isinstance(obj, dict):
        items = sorted((stable_token(k), stable_token(v)) for k, v in obj.items())
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(obj, (set, frozenset)):
        return "f{" + ",".join(sorted(stable_token(v) for v in obj)) + "}"
    raise TypeError(f"cannot build a stable cache token for {type(obj)!r}")


def task_keyer(
    kind: str, inputs: dict[str, Any], vary: str
) -> Callable[[Any], str | None]:
    """``key(task)``: the cache key of ``{**inputs, vary: task}`` for ``kind``.

    A key is ``sha256(stable_token((kind, CACHE_SCHEMA, {**inputs, vary:
    task})))``.  That token is the invariant text before the task's slot
    in the dict's sorted order, the task's token, and the invariant text
    after it.  The text before is hashed here, once, into a ``sha256``
    state and the text after is kept as bytes, so a key costs the task's
    token, a state copy and the tail.  When an invariant input cannot be
    tokenized, every task is uncacheable and ``key`` returns None; so
    does a task that cannot be.
    """
    try:
        head = f"({stable_token(kind)},{stable_token(CACHE_SCHEMA)},{{"
        slot = stable_token(vary)
        items = sorted((stable_token(k), stable_token(v)) for k, v in inputs.items())
    except TypeError:
        return _uncacheable
    before = "".join(f"{k}:{v}," for k, v in items if k < slot)
    state = hashlib.sha256(f"{head}{before}{slot}:".encode())
    tail = ("".join(f",{k}:{v}" for k, v in items if k > slot) + "})").encode()

    def key(task: Any) -> str | None:
        try:
            token = stable_token(task)
        except TypeError:
            return None
        digest = state.copy()
        digest.update(token.encode())
        digest.update(tail)
        return digest.hexdigest()

    return key


def _uncacheable(task: Any) -> None:
    """The key of every task of a job whose invariant inputs do not tokenize."""
    return None


class AnalysisCache:
    """On-disk result store rooted at one directory.

    The cache is dumb on purpose: it maps keys to pickled results and
    never interprets them.  Correctness rests entirely on the key —
    see the module docstring for the schema.
    """

    def __init__(self, directory: "str | os.PathLike[str]") -> None:
        self.directory = Path(directory)

    def get(self, key: str) -> tuple[bool, Any]:
        """(hit, value) for the entry stored under ``key``.

        Any failure to read or unpickle the entry is a miss, never an
        error: the caller recomputes and :meth:`put` overwrites it.
        """
        try:
            with open(self._path(key), "rb") as fh:
                blob = fh.read()
            payload = memoryview(blob)[_DIGEST_BYTES:]
            if hashlib.sha256(payload).digest() != blob[:_DIGEST_BYTES]:
                return False, None  # damaged, truncated, or without a digest
            value = pickle.loads(payload)
        except Exception:
            # a missing entry, or an intact one that no longer loads
            # (a module or class that no longer exists)
            return False, None
        return True, value

    def put(self, key: str, value: Any) -> bool:
        """Store a result; True when it is durably on disk."""
        path = self._path(key)
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            blob = hashlib.sha256(payload).digest() + payload
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(blob)
                os.replace(tmp, path)  # atomic: parallel writers race safely
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            return False
        return True

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.pkl"


def default_cache() -> AnalysisCache | None:
    """Cache for callers that did not pick one: ``REPRO_CACHE`` decides.

    Unset or empty means no caching (every run recomputes, as before);
    a directory path enables the cache rooted there.  The CLI's
    ``--cache DIR`` flag sets this variable for the whole run.
    """
    raw = envconfig.raw("REPRO_CACHE")
    if not raw:
        return None
    return AnalysisCache(raw)
