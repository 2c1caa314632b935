"""Withheld stores: the replay-side image of the TSO store buffer.

During replay every store first lands in its thread's withheld FIFO. At a
chunk boundary with logged RSW ``k``, all but the youngest ``k`` entries
commit to shared memory — exactly the set that had drained by that boundary
during recording, because both structures are FIFO. Atomic instructions and
fences commit everything (the recorder drained the store buffer at those
points), as does a failed store-to-load forward (the recorder's pipeline
drained there too).

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
from ..machine.memory import PhysicalMemory
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
        # Commit order, oldest first.
        self._entries: deque[PendingStore] = deque()
        # Aligned word address -> the entries inside that word, oldest
        # first. A word with no withheld store has no bucket. Buckets are
        # lists, not deques: they almost always hold one entry, and a
        # one-entry deque takes over ten times the memory of such a list.
        self._by_word: dict[int, list[PendingStore]] = {}
        # Loads that found a partial overlap and committed the FIFO (the
        # ``replay.pending_store_stalls`` metric). Kept here, not on the
        # port, which an observability layer may wrap.
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

    def _write(self, entry: PendingStore) -> None:
        if entry.size == 4:
            self._memory.write_word(entry.addr, entry.value)
        else:
            self._memory.write_byte(entry.addr, entry.value)

    def _commit_one(self) -> None:
        entry = self._entries.popleft()
        # The global oldest entry is also the oldest of its word.
        word = entry.addr & ~3
        bucket = self._by_word[word]
        del bucket[0]
        if not bucket:
            del self._by_word[word]
        self._write(entry)

    def commit_all(self) -> None:
        entries = self._entries
        if entries:
            for entry in entries:
                self._write(entry)
            entries.clear()
            self._by_word.clear()

    def commit_keep_last(self, keep: int) -> None:
        """Commit the oldest entries, keeping the youngest ``keep``."""
        excess = len(self._entries) - keep
        if excess <= 0:
            if excess:
                raise ReplayDivergenceError(
                    f"RSW {keep} exceeds {len(self._entries)} withheld stores")
        elif not keep:
            self.commit_all()
        else:
            for _ in range(excess):
                self._commit_one()

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
        self._entries = deque()
        self._by_word = {}
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
        whole FIFO first; only this word's entries can touch the loaded
        bytes, so overlaying them in FIFO order onto committed memory gives
        the same value.
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
    """Engine memory port: withheld FIFO in front of shared replay memory."""

    def __init__(self, memory: PhysicalMemory, withheld: WithheldStores):
        self._memory = memory
        self._withheld = withheld

    def load(self, addr: int, size: int) -> int:
        status, value = self._withheld.resolve(addr, size)
        if status == RESOLVE_HIT:
            return value  # type: ignore[return-value]
        if status == RESOLVE_CONFLICT:
            # Recording drained the store buffer at this exact point.
            self._withheld.stalls += 1
            self._withheld.commit_all()
        if size == 4:
            return self._memory.read_word(addr)
        return self._memory.read_byte(addr)

    def store(self, addr: int, size: int, value: int) -> None:
        self._withheld.push(addr, size, value)

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
