"""Withheld stores: the replay-side image of the TSO store buffer.

A replayed chunk withholds its stores only where its log says the store
buffer kept some: a chunk with logged RSW ``k`` > 0, or one that starts
while its thread still withholds stores from an earlier chunk. There every
store first lands in the thread's withheld FIFO. At the chunk boundary all
but the youngest ``k`` entries commit to shared memory — exactly the set
that had drained by that boundary during recording, because both
structures are FIFO. Atomic instructions and fences commit everything (the
recorder drained the store buffer at those points). A failed store-to-load
forward commits the FIFO through the youngest store the load overlaps:
the recorder had drained at least that far, either at the load or by an
earlier drain tick that left the load no overlap to find, and the younger
entries may still have been buffered when the chunk ended.

Every other chunk runs *write-through* (``ReplayPort.write_through``): its
stores write memory at once and its loads read memory. That is exact. No
other thread runs between the chunk's start and its boundary, and RSW 0
commits every store of the chunk there in FIFO order; a forwarded load
returns the youngest store that covers it, and a stalled one reads memory
after the FIFO commits through the stores it overlaps, which are the bytes
memory holds when the stores are written in program order.

Within a chunk the FIFO is unbounded (hundreds of entries on compute-heavy
workloads), so forwarding does not scan it. Beside the FIFO each thread
keeps a per-word index: the entries of every aligned 4-byte word, oldest
first. The engine faults misaligned word accesses before they reach the
port, so every entry and every load lies inside one aligned word, and only
the entries of the load's own word can cover or overlap it.
"""

from __future__ import annotations

from collections import deque

from ..errors import LogFormatError, MemoryAccessError, ReplayDivergenceError
from ..machine.memory import PhysicalMemory, misaligned, outside_memory
from ..machine.store_buffer import (
    _RESOLVED_CONFLICT,
    _RESOLVED_MISS,
    RESOLVE_CONFLICT,
    RESOLVE_HIT,
    PendingStore,
)

MASK32 = 0xFFFFFFFF


class WithheldStores:
    """Unbounded FIFO of not-yet-visible stores for one replay thread."""

    def __init__(self, memory: PhysicalMemory):
        self._memory = memory
        self._data = memory._data
        self._size = memory.size
        # Commit order, oldest first.
        self._entries: deque[PendingStore] = deque()
        # Aligned word address -> the entries inside that word, oldest
        # first. A word with no withheld store has no bucket. Buckets are
        # lists, not deques: they almost always hold one entry, and a
        # one-entry deque takes over ten times the memory of such a list.
        self._by_word: dict[int, list[PendingStore]] = {}
        # Loads that found a partial overlap and committed withheld stores
        # (the ``replay.pending_store_stalls`` metric). Kept here, not on
        # the port, which an observability layer may wrap.
        self.stalls = 0

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, addr: int, size: int, value: int) -> None:
        entry = PendingStore(addr, size, value & MASK32)
        self._entries.append(entry)
        word = addr & ~3
        bucket = self._by_word.get(word)
        if bucket is None:
            self._by_word[word] = [entry]
        else:
            bucket.append(entry)

    def commit_all(self) -> None:
        entries = self._entries
        if entries:
            # PhysicalMemory.write_word/write_byte inline: same checks,
            # same faults, entry by entry.
            data = self._data
            memory_size = self._size
            for entry in entries:
                addr = entry.addr
                if entry.size == 4:
                    if addr & 3:
                        raise misaligned("write", addr)
                    if addr < 0 or addr + 4 > memory_size:
                        raise outside_memory(addr, 4, memory_size)
                    data[addr:addr + 4] = entry.value.to_bytes(4, "little")
                else:
                    if addr < 0 or addr + 1 > memory_size:
                        raise outside_memory(addr, 1, memory_size)
                    data[addr] = entry.value & 0xFF
            entries.clear()
            self._by_word.clear()

    def commit_keep_last(self, keep: int) -> None:
        """Commit the oldest entries, keeping the youngest ``keep``."""
        entries = self._entries
        excess = len(entries) - keep
        if excess <= 0:
            if excess:
                raise ReplayDivergenceError(
                    f"RSW {keep} exceeds {len(entries)} withheld stores")
        elif not keep:
            self.commit_all()
        else:
            by_word = self._by_word
            data = self._data
            memory_size = self._size
            for _ in range(excess):
                entry = entries.popleft()
                # The global oldest entry is also the oldest of its word.
                addr = entry.addr
                word = addr & ~3
                bucket = by_word[word]
                del bucket[0]
                if not bucket:
                    del by_word[word]
                if entry.size == 4:
                    if addr & 3:
                        raise misaligned("write", addr)
                    if addr < 0 or addr + 4 > memory_size:
                        raise outside_memory(addr, 4, memory_size)
                    data[addr:addr + 4] = entry.value.to_bytes(4, "little")
                else:
                    if addr < 0 or addr + 1 > memory_size:
                        raise outside_memory(addr, 1, memory_size)
                    data[addr] = entry.value & 0xFF

    def commit_through(self, last: PendingStore) -> None:
        """Commit the oldest entries up to and including ``last``."""
        entries = self._entries
        for count, entry in enumerate(entries, 1):
            if entry is last:
                self.commit_keep_last(len(entries) - count)
                return
        raise ValueError("store not withheld")

    def snapshot(self) -> list[tuple[int, int, int]]:
        """FIFO contents, oldest first, as (addr, size, value) triples."""
        return [(entry.addr, entry.size, entry.value)
                for entry in self._entries]

    def restore(self, entries: list) -> None:
        """Replace the FIFO with a prior :meth:`snapshot`.

        ``entries`` comes from a checkpoint header, so each one is checked
        to be a store the engine could have withheld; anything else raises
        :class:`LogFormatError` and leaves the FIFO unchanged.
        """
        if not isinstance(entries, (list, tuple)):
            raise LogFormatError(
                f"withheld stores must be a list, got {type(entries).__name__}")
        checked = [self._checked_entry(entry) for entry in entries]
        # Cleared in place: a port holds references to both.
        self._entries.clear()
        self._by_word.clear()
        for addr, size, value in checked:
            self.push(addr, size, value)

    def _checked_entry(self, entry) -> tuple[int, int, int]:
        if not isinstance(entry, (list, tuple)) or len(entry) != 3 \
                or any(type(field) is not int for field in entry):
            raise LogFormatError(
                f"withheld store {entry!r} is not three ints "
                "(addr, size, value)")
        addr, size, value = entry
        if size not in (1, 4):
            raise LogFormatError(f"withheld store size {size} is not 1 or 4")
        if size == 4 and addr & 3:
            raise LogFormatError(f"withheld word store at {addr:#x} is "
                                 "misaligned")
        if addr < 0 or addr + size > self._memory.size:
            raise LogFormatError(
                f"withheld store [{addr:#x}, +{size}) outside memory of "
                f"{self._memory.size:#x} bytes")
        if not 0 <= value < 1 << (8 * size):
            raise LogFormatError(
                f"withheld store value {value:#x} does not fit in {size} "
                "bytes")
        return addr, size, value

    def resolve(self, addr: int, size: int) -> tuple[str, int | None]:
        """Store-to-load forwarding, mirroring the store buffer's rules."""
        bucket = self._by_word.get(addr & ~3)
        if bucket is None:
            return _RESOLVED_MISS
        for entry in reversed(bucket):
            if entry.covers(addr, size):
                return RESOLVE_HIT, entry.extract(addr, size)
            if entry.overlaps(addr, size):
                return _RESOLVED_CONFLICT
        return _RESOLVED_MISS

    def peek(self, addr: int, size: int) -> int:
        """The value a load of ``size`` bytes at ``addr`` would return now,
        without committing anything.

        Where :meth:`resolve` reports a conflict, a real load commits the
        FIFO through the youngest overlapping entry first; only this word's
        entries can touch the loaded bytes, so overlaying them in FIFO order
        onto committed memory gives the same value.
        """
        if size == 4 and addr & 3:
            raise MemoryAccessError(f"misaligned word read at {addr:#x}")
        status, value = self.resolve(addr, size)
        if status == RESOLVE_HIT:
            return value  # type: ignore[return-value]
        loaded = bytearray(self._memory.read(addr, size))
        if status == RESOLVE_CONFLICT:
            for entry in self._by_word[addr & ~3]:
                for offset in range(entry.size):
                    index = entry.addr + offset - addr
                    if 0 <= index < size:
                        loaded[index] = (entry.value >> (8 * offset)) & 0xFF
        return int.from_bytes(loaded, "little")


class ReplayPort:
    """Engine memory port: withheld FIFO in front of shared replay memory.

    Loads and stores are flat bodies. Through the FIFO, a load runs the
    per-word forwarding lookup with its cover, extract and overlap tests
    (``WithheldStores.resolve``), counts a stall and commits the FIFO
    through the youngest overlapping entry on a partial overlap, then does
    the aligned access on the memory's bytearray
    (``PhysicalMemory.read_word``/``read_byte``: same checks, same
    ``MemoryAccessError`` messages), in the order those methods ran; a
    store is ``WithheldStores.push`` inline.

    ``write_through``, which ``Replayer.step_chunk`` sets at every chunk
    start, skips the FIFO: a load reads memory without the lookup, and a
    store writes memory at once with the checks of ``commit_all``. A store
    that commit would fault on is withheld instead, and the rest of the
    chunk runs through the FIFO, so the boundary commit raises its fault.
    ``tests/replay/test_replay_port.py`` runs the port in lockstep against
    the method chain ``tests/reference.py`` keeps, which always withholds.
    """

    def __init__(self, memory: PhysicalMemory, withheld: WithheldStores):
        self._memory = memory
        self._withheld = withheld
        self._entries = withheld._entries
        self._by_word = withheld._by_word
        self._data = memory._data
        self._size = memory.size
        self.write_through = False

    def load(self, addr: int, size: int) -> int:
        if not self.write_through:
            bucket = self._by_word.get(addr & ~3)
            if bucket is not None:
                for entry in reversed(bucket):
                    start = entry.addr
                    end = start + entry.size
                    if start <= addr and addr + size <= end:
                        return ((entry.value >> (8 * (addr - start)))
                                & ((1 << (8 * size)) - 1))
                    if start < addr + size and addr < end:
                        # Recording had drained the store buffer at
                        # least through this entry.
                        withheld = self._withheld
                        withheld.stalls += 1
                        withheld.commit_through(entry)
                        break
        memory_size = self._size
        if size == 4:
            if addr & 3:
                raise misaligned("read", addr)
            if addr < 0 or addr + 4 > memory_size:
                raise outside_memory(addr, 4, memory_size)
            return int.from_bytes(self._data[addr:addr + 4], "little")
        if addr < 0 or addr + 1 > memory_size:
            raise outside_memory(addr, 1, memory_size)
        return self._data[addr]

    def store(self, addr: int, size: int, value: int) -> None:
        if self.write_through:
            if size == 4:
                if not addr & 3 and 0 <= addr <= self._size - 4:
                    self._data[addr:addr + 4] = (value & MASK32).to_bytes(
                        4, "little")
                    return
            elif 0 <= addr < self._size:
                self._data[addr] = value & 0xFF
                return
            # The boundary commit faults on this store, as it would had
            # the whole chunk run through the FIFO.
            self.write_through = False
        entry = PendingStore(addr, size, value & MASK32)
        self._entries.append(entry)
        word = addr & ~3
        bucket = self._by_word.get(word)
        if bucket is None:
            self._by_word[word] = [entry]
        else:
            bucket.append(entry)

    def fence(self) -> None:
        self._withheld.commit_all()

    def atomic_load(self, addr: int, size: int) -> int:
        # The engine fences before atomics, so the FIFO is already empty.
        if size == 4:
            return self._memory.read_word(addr)
        return self._memory.read_byte(addr)

    def atomic_store(self, addr: int, size: int, value: int) -> None:
        if size == 4:
            self._memory.write_word(addr, value)
        else:
            self._memory.write_byte(addr, value)
