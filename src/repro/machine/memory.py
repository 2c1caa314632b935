"""Flat byte-addressable physical memory.

The memory always holds the globally visible ("coherent") state: store
buffers hold stores that are not yet visible, and the caches track MESI
states only — data is never duplicated into them. That functional shortcut
keeps the simulator simple while preserving exactly the visibility semantics
TSO requires: a load sees its own core's store buffer first, then memory.
"""

from __future__ import annotations

import hashlib

from ..errors import MemoryAccessError

MASK32 = 0xFFFFFFFF


def misaligned(op: str, addr: int) -> MemoryAccessError:
    """The fault of a misaligned word ``op`` ("read" or "write")."""
    return MemoryAccessError(f"misaligned word {op} at {addr:#x}")


def outside_memory(addr: int, size: int, memory_size: int) -> MemoryAccessError:
    """The fault of an access ``[addr, addr + size)`` past either end."""
    return MemoryAccessError(f"access [{addr:#x}, +{size}) outside memory "
                             f"of {memory_size:#x} bytes")


class PhysicalMemory:
    """``size`` bytes of zero-initialized RAM with aligned word access."""

    def __init__(self, size: int):
        if size <= 0:
            raise MemoryAccessError(f"memory size must be positive, got {size}")
        self._data = bytearray(size)
        self.size = size

    def _check(self, addr: int, size: int) -> None:
        if addr < 0 or addr + size > self.size:
            raise outside_memory(addr, size, self.size)

    def read_word(self, addr: int) -> int:
        """Read an aligned little-endian 32-bit word."""
        if addr & 3:
            raise misaligned("read", addr)
        self._check(addr, 4)
        return int.from_bytes(self._data[addr:addr + 4], "little")

    def write_word(self, addr: int, value: int) -> None:
        """Write an aligned little-endian 32-bit word."""
        if addr & 3:
            raise misaligned("write", addr)
        self._check(addr, 4)
        self._data[addr:addr + 4] = (value & MASK32).to_bytes(4, "little")

    def read_byte(self, addr: int) -> int:
        self._check(addr, 1)
        return self._data[addr]

    def write_byte(self, addr: int, value: int) -> None:
        self._check(addr, 1)
        self._data[addr] = value & 0xFF

    def read(self, addr: int, size: int) -> bytes:
        """Read an arbitrary byte range (used by the kernel, not cores)."""
        self._check(addr, size)
        return bytes(self._data[addr:addr + size])

    def write(self, addr: int, data: bytes) -> None:
        """Write an arbitrary byte range (used by the kernel/loader)."""
        self._check(addr, len(data))
        self._data[addr:addr + len(data)] = data

    def load_blob(self, base: int, blob: bytes) -> None:
        """Load a program data segment at ``base``."""
        self.write(base, blob)

    def digest(self) -> str:
        """SHA-256 over the full memory contents, for replay verification."""
        return hashlib.sha256(self._data).hexdigest()

    def digest_range(self, addr: int, size: int) -> str:
        """SHA-256 over a byte range (e.g. just the data segment)."""
        return hashlib.sha256(self.read(addr, size)).hexdigest()

    def snapshot(self) -> bytes:
        return bytes(self._data)

    def view(self) -> memoryview:
        """The live contents, uncopied: they change as memory is written."""
        return memoryview(self._data)
