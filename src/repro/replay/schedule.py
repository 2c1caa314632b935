"""Chunk schedule construction and validation.

Replay executes chunks in total (timestamp, rthread) order. Equal-timestamp
chunks are mutually unordered by construction (any true conflict forces a
strict timestamp inequality), so the rthread tie-break is safe; validation
checks the per-thread invariants the recorder guarantees.
"""

from __future__ import annotations

from operator import attrgetter

from ..errors import ReplayDivergenceError
from ..mrr.chunk import ChunkEntry, Reason


#: ``ChunkEntry.sort_key`` as one C-level call per chunk.
_SORT_KEY = attrgetter("timestamp", "rthread")


def build_schedule(chunks: list[ChunkEntry]) -> list[ChunkEntry]:
    """Global replay order: sort by (timestamp, rthread), stably."""
    return sorted(chunks, key=_SORT_KEY)


def validate_schedule(chunks: list[ChunkEntry]) -> None:
    """Check recorder invariants; raises on violation.

    - per-thread timestamps strictly increase;
    - kernel-entry chunks have RSW 0 (the kernel drains on entry);
    - a thread's chunk stream ends with an EXIT chunk and contains no
      EXIT chunk elsewhere.
    """
    last_ts: dict[int, int] = {}
    last_reason: dict[int, str] = {}
    exited: set[int] = set()
    for chunk in chunks:
        rthread = chunk.rthread
        if rthread in exited:
            raise ReplayDivergenceError(
                "chunk after EXIT", rthread=rthread)
        previous = last_ts.get(rthread)
        if previous is not None and chunk.timestamp <= previous:
            raise ReplayDivergenceError(
                f"non-monotonic timestamps {previous} -> {chunk.timestamp}",
                rthread=rthread)
        last_ts[rthread] = chunk.timestamp
        last_reason[rthread] = chunk.reason
        if chunk.reason in Reason.KERNEL_ENTRY and chunk.rsw != 0:
            raise ReplayDivergenceError(
                f"kernel-entry chunk with RSW {chunk.rsw}", rthread=rthread)
        if chunk.reason == Reason.EXIT:
            exited.add(rthread)
    for rthread, reason in last_reason.items():
        if reason != Reason.EXIT:
            raise ReplayDivergenceError(
                f"chunk stream ends with {reason!r}, not exit", rthread=rthread)
