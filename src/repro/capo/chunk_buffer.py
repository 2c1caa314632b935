"""The per-core chunk buffer (CBUF).

The recorder writes packed chunk entries here
(:meth:`MemoryRaceRecorder.terminate`); when the buffer fills, it raises
the overflow interrupt, :meth:`ChunkBuffer.drain`, and the RSM drains the
entries to the log. CBUF sizing is
an overhead knob (ablation A2): small buffers interrupt often, large ones
cost on-chip memory.
"""

from __future__ import annotations

from typing import Callable

from ..mrr.chunk import ChunkEntry


class ChunkBuffer:
    """Bounded entry buffer with an overflow-drain callback."""

    def __init__(self, capacity: int,
                 on_drain: Callable[[list[ChunkEntry]], None]):
        if capacity < 1:
            raise ValueError("CBUF capacity must be >= 1")
        self.capacity = capacity
        self._on_drain = on_drain
        self._entries: list[ChunkEntry] = []
        self.drains = 0

    def __len__(self) -> int:
        return len(self._entries)

    def drain(self) -> int:
        """Hand buffered entries to the RSM; returns how many."""
        if not self._entries:
            return 0
        batch = self._entries
        self._entries = []
        self.drains += 1
        self._on_drain(batch)
        return len(batch)
