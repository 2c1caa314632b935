"""Deterministic input-data generation.

Workload inputs come from a fixed LCG so that a workload name + scale fully
determines its input bytes — recordings embed no data files, and two
machines produce identical programs.
"""

from __future__ import annotations

import struct

_LCG_A = 6364136223846793005
_LCG_C = 1442695040888963407
_MASK64 = (1 << 64) - 1


def lcg_stream(seed: int):
    """Infinite deterministic 32-bit value stream."""
    state = (seed * 2654435761 + 1) & _MASK64
    while True:
        state = (state * _LCG_A + _LCG_C) & _MASK64
        yield (state >> 32) & 0xFFFFFFFF


def words(seed: int, count: int, modulus: int | None = None) -> list[int]:
    """``count`` deterministic 32-bit words (optionally reduced mod m)."""
    stream = lcg_stream(seed)
    out = []
    for _ in range(count):
        value = next(stream)
        if modulus:
            value %= modulus
        out.append(value)
    return out


def words_to_bytes(values: list[int]) -> bytes:
    """Little-endian packing, the format the READ syscall delivers."""
    return struct.pack(f"<{len(values)}I", *values)
