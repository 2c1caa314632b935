"""LEB128 varints with a hard 64-bit cap.

The v1 input log (``QRIL``) packs every field as a varint, and the
compact sections' headers (:mod:`repro.mrr.columnar`) carry their counts
and lengths as varints; all are unsigned 64-bit values. The decoder
therefore refuses continuation chains longer than :data:`MAX_VARINT_BYTES`
(ten bytes carry 70 payload bits — the canonical u64 LEB128 bound): a
malformed or adversarial stream previously decoded into arbitrarily large
Python ints after an arbitrarily long loop. The encoder enforces the same
bound so every encodable value round-trips.
"""

from __future__ import annotations

from ..errors import LogFormatError

#: Longest legal encoding: 10 × 7 payload bits ≥ 64 bits.
MAX_VARINT_BYTES = 10

#: Largest value ten continuation bytes can carry (70 payload bits, so
#: every u64 field fits).
MAX_VARINT_VALUE = (1 << (7 * MAX_VARINT_BYTES)) - 1


def write_varint(value: int) -> bytes:
    """Encode ``value`` as an LEB128 varint (u64 range enforced)."""
    if value < 0:
        raise LogFormatError("varint requires non-negative value")
    if value > MAX_VARINT_VALUE:
        raise LogFormatError(
            f"varint value {value} exceeds {MAX_VARINT_BYTES} bytes")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def read_varint(blob: bytes, offset: int,
                what: str = "varint") -> tuple[int, int]:
    """Decode one varint at ``offset``; returns ``(value, new_offset)``.

    Raises :class:`LogFormatError` on truncation and on continuation
    chains longer than :data:`MAX_VARINT_BYTES` — the unbounded-decode
    guard (``what`` names the stream for the error message).
    """
    result = 0
    shift = 0
    start = offset
    while True:
        if offset >= len(blob):
            raise LogFormatError(f"truncated {what}")
        if offset - start >= MAX_VARINT_BYTES:
            raise LogFormatError(
                f"{what} continuation chain exceeds "
                f"{MAX_VARINT_BYTES} bytes (corrupt stream)")
        byte = blob[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
