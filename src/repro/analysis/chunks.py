"""Chunk-log statistics: sizes, termination reasons, RSW occupancy.

These drive the F4 (chunk sizes), F5 (termination breakdown) and F6 (RSW)
figures. All functions take a plain sequence of
:class:`~repro.mrr.chunk.ChunkEntry`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from ..mrr.chunk import ChunkEntry, Reason
from ..replay.schedule import build_schedule


@dataclass(frozen=True)
class ScheduledChunk:
    """One chunk placed in the global replay schedule.

    ``index`` is the chunk-schedule position (what ``inspect --at`` and
    checkpoints address); ``thread_index`` is the chunk's ordinal within
    its own R-thread (what input events' ``chunk_seq`` counts).
    """

    index: int
    thread_index: int
    chunk: ChunkEntry


def iter_schedule(chunks: Sequence[ChunkEntry]) -> list[ScheduledChunk]:
    """The chunk log in replay order, with both coordinate systems.

    This is the single chunk-walk used by the timeline renderer, the
    happens-before builder and the race detector; the ordering is
    :func:`repro.replay.schedule.build_schedule`'s, so analysis and replay
    share one chunk order.
    """
    ordered = build_schedule(chunks)
    counters: Counter[int] = Counter()
    out = []
    for index, chunk in enumerate(ordered):
        out.append(ScheduledChunk(index, counters[chunk.rthread], chunk))
        counters[chunk.rthread] += 1
    return out


def timestamp_bounds(chunks: Sequence[ChunkEntry]) -> tuple[int, int]:
    """(first, last) chunk timestamp of a non-empty log."""
    first = min(chunk.timestamp for chunk in chunks)
    last = max(chunk.timestamp for chunk in chunks)
    return first, last


def bucket_index(timestamp: int, first: int, span: int, width: int) -> int:
    """Map a timestamp onto a ``width``-column axis starting at ``first``."""
    return min(width - 1, (timestamp - first) * width // max(1, span))


@dataclass(frozen=True)
class ChunkSizeStats:
    count: int
    total_instructions: int
    mean: float
    median: int
    p90: int
    p99: int
    maximum: int

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def chunk_size_stats(chunks: Sequence[ChunkEntry]) -> ChunkSizeStats:
    """Distribution statistics over chunk instruction counts."""
    if not chunks:
        return ChunkSizeStats(0, 0, 0.0, 0, 0, 0, 0)
    sizes = sorted(chunk.icount for chunk in chunks)
    count = len(sizes)

    def pct(fraction: float) -> int:
        return sizes[min(count - 1, int(fraction * count))]

    return ChunkSizeStats(
        count=count,
        total_instructions=sum(sizes),
        mean=sum(sizes) / count,
        median=pct(0.50),
        p90=pct(0.90),
        p99=pct(0.99),
        maximum=sizes[-1],
    )


def size_cdf(chunks: Sequence[ChunkEntry],
             points: Sequence[int] = (1, 10, 100, 1000, 10_000, 100_000),
             ) -> list[tuple[int, float]]:
    """CDF samples: fraction of chunks with icount <= each point."""
    if not chunks:
        return [(point, 0.0) for point in points]
    sizes = sorted(chunk.icount for chunk in chunks)
    count = len(sizes)
    out = []
    index = 0
    for point in sorted(points):
        while index < count and sizes[index] <= point:
            index += 1
        out.append((point, index / count))
    return out


def termination_breakdown(chunks: Sequence[ChunkEntry],
                          group_conflicts: bool = False) -> dict[str, float]:
    """Fraction of chunks ended by each reason (sums to 1)."""
    if not chunks:
        return {}
    counts = Counter(chunk.reason for chunk in chunks)
    if group_conflicts:
        merged = Counter()
        for reason, value in counts.items():
            merged["conflict" if reason in Reason.CONFLICTS else reason] += value
        counts = merged
    total = sum(counts.values())
    return {reason: value / total for reason, value in sorted(counts.items())}


@dataclass(frozen=True)
class RSWStats:
    chunks: int
    nonzero: int
    fraction_nonzero: float
    mean_nonzero: float
    maximum: int
    histogram: dict[int, int]

    def as_dict(self) -> dict:
        out = dict(self.__dict__)
        out["histogram"] = dict(self.histogram)
        return out


def rsw_stats(chunks: Sequence[ChunkEntry]) -> RSWStats:
    """Reordered-store-window occupancy across a chunk log."""
    histogram = Counter(chunk.rsw for chunk in chunks)
    nonzero = [chunk.rsw for chunk in chunks if chunk.rsw > 0]
    return RSWStats(
        chunks=len(chunks),
        nonzero=len(nonzero),
        fraction_nonzero=len(nonzero) / len(chunks) if chunks else 0.0,
        mean_nonzero=sum(nonzero) / len(nonzero) if nonzero else 0.0,
        maximum=max(nonzero, default=0),
        histogram=dict(sorted(histogram.items())),
    )


def per_thread_chunks(chunks: Sequence[ChunkEntry]) -> dict[int, int]:
    return dict(sorted(Counter(chunk.rthread for chunk in chunks).items()))
