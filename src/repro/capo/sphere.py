"""The replay sphere: the unit of recording.

A sphere groups the R-threads recorded (and later replayed) together and
tracks per-thread chunk counts (the positions the input log's events are
anchored to), which the recorders advance as they write each chunk.
Cross-thread ordering — including kernel-mediated communication such as
futex wakeups and spawn — is carried entirely by the globally synchronized
chunk timestamps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import RecordingError


@dataclass
class ReplaySphere:
    """Sphere-wide recording state."""

    rthreads: set[int] = field(default_factory=set)
    chunk_counts: dict[int, int] = field(default_factory=dict)

    def register(self, rthread: int) -> None:
        if rthread in self.rthreads:
            raise RecordingError(f"rthread {rthread} already registered")
        self.rthreads.add(rthread)
        self.chunk_counts[rthread] = 0

    def chunk_count(self, rthread: int) -> int:
        return self.chunk_counts[rthread]
