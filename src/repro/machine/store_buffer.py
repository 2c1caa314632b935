"""Per-core TSO store buffer.

Stores retire into a FIFO and become globally visible only when drained.
Loads of the same core forward from the youngest covering entry; a partially
overlapping entry that cannot satisfy the load forces a full drain, the way
a real pipeline stalls on a failed store-to-load forward.

The buffer is the root cause of the RSW (reordered-store-window) machinery
in QuickRec: a chunk can terminate while some of its stores still sit here.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

MASK32 = 0xFFFFFFFF

RESOLVE_MISS = "miss"
RESOLVE_HIT = "hit"
RESOLVE_CONFLICT = "conflict"

# Preallocated results for the allocation-heavy resolve() paths.
_RESOLVED_MISS = (RESOLVE_MISS, None)
_RESOLVED_CONFLICT = (RESOLVE_CONFLICT, None)


@dataclass(slots=True)
class PendingStore:
    """One buffered store: ``size`` is 1 or 4 bytes. Never mutated once
    buffered; not frozen, because a frozen dataclass pays an
    ``object.__setattr__`` per field on every store."""

    addr: int
    size: int
    value: int

    def covers(self, addr: int, size: int) -> bool:
        return self.addr <= addr and addr + size <= self.addr + self.size

    def overlaps(self, addr: int, size: int) -> bool:
        return self.addr < addr + size and addr < self.addr + self.size

    def extract(self, addr: int, size: int) -> int:
        """Extract the loaded bytes from this (covering) entry's value."""
        shift = 8 * (addr - self.addr)
        mask = (1 << (8 * size)) - 1
        return (self.value >> shift) & mask


class StoreBuffer:
    """A bounded FIFO of :class:`PendingStore` entries."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("store buffer capacity must be >= 1")
        self.capacity = capacity
        self._entries: deque[PendingStore] = deque()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._entries

    def push(self, addr: int, size: int, value: int) -> None:
        """Append a store. The caller must make room first if full (the
        record port drains one entry before pushing into a full buffer)."""
        self._entries.append(PendingStore(addr, size, value & MASK32))

    def pop_oldest(self) -> PendingStore:
        """Remove and return the entry next in drain order."""
        if not self._entries:
            raise IndexError("store buffer empty")
        return self._entries.popleft()

    def resolve(self, addr: int, size: int) -> tuple[str, int | None]:
        """Attempt store-to-load forwarding for a load of ``size`` bytes.

        Returns one of:
            (``"hit"``, value)     — youngest overlapping entry covers the load;
            (``"miss"``, None)     — no overlap, read memory;
            (``"conflict"``, None) — partial overlap, drain then read memory.
        """
        entries = self._entries
        if not entries:
            return _RESOLVED_MISS
        for entry in reversed(entries):
            if entry.covers(addr, size):
                return RESOLVE_HIT, entry.extract(addr, size)
            if entry.overlaps(addr, size):
                return _RESOLVED_CONFLICT
        return _RESOLVED_MISS

    def entries(self) -> tuple[PendingStore, ...]:
        """Snapshot of buffered stores, oldest first (for inspection/tests)."""
        return tuple(self._entries)

    def clear(self) -> None:
        self._entries.clear()
