"""Shard planning for out-of-core campaign orchestration.

The paper's campaign is 5.2M /24 blocks; holding every per-block result
in one coordinator process makes scale RSS-bound rather than CPU-bound.
Sharding partitions one engine run's task list into contiguous index
ranges that stream through the :class:`~repro.runtime.engine.CampaignEngine`
as a two-stage pipeline: shard i is queued on the executor before shard
i-1 is collected, stored and spilled to a memory-mappable on-disk
layout (:mod:`repro.runtime.spill`), so at most two shards are live.

Contiguity is the identity-preserving property: concatenating per-shard
result lists in shard order reproduces exactly the slot order of an
unsharded run, so ``--shards 1``, ``--shards N``, and the unsharded
path yield byte-identical experiment outputs the same way
serial and pool dispatch already do.

``REPRO_SHARDS`` (the CLI's ``--shards N``) selects the shard count the
same way ``REPRO_WORKERS`` selects the executor: unset, empty, ``0`` or
``1`` means unsharded; garbage values warn and keep the default instead
of silently changing execution.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import envconfig

__all__ = ["ShardPlan", "resolve_shards"]


@dataclass(frozen=True)
class ShardPlan:
    """Contiguous, balanced partition of ``n_tasks`` into ``n_shards``.

    The first ``n_tasks % n_shards`` shards carry one extra task, so
    shard sizes differ by at most one and every task belongs to exactly
    one shard.  ``n_shards`` never exceeds ``n_tasks`` (an empty shard
    would emit begin/finish heartbeats for work that does not exist).
    """

    n_tasks: int
    n_shards: int

    @classmethod
    def plan(cls, shards: int, n_tasks: int) -> "ShardPlan":
        """Clamp ``shards`` into ``[1, max(n_tasks, 1)]`` and plan."""
        n_tasks = max(int(n_tasks), 0)
        n_shards = max(int(shards), 1)
        if n_tasks > 0:
            n_shards = min(n_shards, n_tasks)
        else:
            n_shards = 1
        return cls(n_tasks=n_tasks, n_shards=n_shards)

    @property
    def ranges(self) -> tuple[tuple[int, int], ...]:
        """Per-shard ``[lo, hi)`` index ranges, in shard order."""
        base, extra = divmod(self.n_tasks, self.n_shards)
        out = []
        lo = 0
        for i in range(self.n_shards):
            hi = lo + base + (1 if i < extra else 0)
            out.append((lo, hi))
            lo = hi
        return tuple(out)

    def shard_of(self, index: int) -> int:
        """Shard id owning task ``index`` (inverse of :attr:`ranges`)."""
        if not 0 <= index < self.n_tasks:
            raise IndexError(f"task index {index} outside [0, {self.n_tasks})")
        base, extra = divmod(self.n_tasks, self.n_shards)
        pivot = extra * (base + 1)
        if index < pivot:
            return index // (base + 1)
        return extra + (index - pivot) // base


def resolve_shards(value: int | None) -> int:
    """Resolve the shard-count setting (``REPRO_SHARDS`` when None).

    Unset or empty means ``1`` — sharding is opt-in because the spill
    round-trip costs disk I/O that tiny worlds do not need.  A value
    that is not an integer, or is negative, also means ``1`` — but
    loudly (``envconfig.get_int`` warns), as ``REPRO_WORKERS`` does.
    """
    if value is not None:
        return max(int(value), 1)
    return max(envconfig.get_int("REPRO_SHARDS", 1, minimum=0), 1)
