"""The columnar layout both compact log sections share.

A section is a short header — 4-byte magic, version byte, flags byte,
then varint fields the section defines (its entry counts and the body's
inflated length) — and a zlib body. In the body each log field is one
fixed-width stdlib :class:`array.array` column (little-endian), with
near-monotone fields stored as deltas by the caller. Every column is
byte-plane transposed (``raw[i::width]``), and the planes are laid out by
significance: every column's low byte plane first, then every column's
second plane, and so on. The high planes of small values are therefore
one long zero run that deflates to a few bytes, which keeps even a
five-event log smaller than its row-packed form. Variable-length payload
bytes, if any, follow the planes. This is the trace layout rr uses:
fixed-layout frames behind a general-purpose compressor.

Decoding inverts each step in bulk: :func:`inflate` never produces more
than the inflated length the header declares, and :func:`unpack` restores
the columns by slice assignment. Callers check codes, signs and indices
over whole columns before building any entry.

The program image section (``program.qrp``, see
:mod:`repro.capo.recording`) shares only the header and :func:`inflate`:
its body is one deflated JSON document, not columns.
"""

from __future__ import annotations

import sys
import zlib
from array import array
from collections import Counter
from itertools import accumulate, chain, pairwise
from operator import sub
from typing import Iterable, Iterator, Sequence

from ..errors import LogFormatError
from .varint import read_varint, write_varint

LEVEL = 6
#: Bytes before a header's varint fields: magic, version, flags.
FIXED_HEADER = 6
#: Largest count or length a header field may declare.
MAX_FIELD = 0xFFFFFFFF
_WIDEST = 8
_SWAP = sys.byteorder == "big"


def header(magic: bytes, version: int, flags: int, *fields: int) -> bytes:
    return magic + bytes((version, flags)) + b"".join(map(write_varint,
                                                          fields))


def read_fields(blob: bytes, count: int, what: str) -> tuple[list[int], int]:
    """The ``count`` varint fields after a header's fixed bytes, and the
    offset of the body behind them."""
    offset = FIXED_HEADER
    fields = []
    for _ in range(count):
        value, offset = read_varint(blob, offset, what=f"{what} header")
        if value > MAX_FIELD:
            raise LogFormatError(f"{what} header field {value} out of range")
        fields.append(value)
    return fields, offset


def column(typecode: str, values: Iterable[int], what: str) -> array:
    """``values`` as a column; a value that does not fit raises
    :class:`LogFormatError` naming the field."""
    try:
        return array(typecode, values)
    except (OverflowError, TypeError) as exc:
        raise LogFormatError(f"{what} out of range for the log: {exc}") \
            from exc


def width(typecodes: str) -> int:
    """Bytes one row of columns with these typecodes occupies."""
    return sum(array(code).itemsize for code in typecodes)


def deflate(columns: Sequence[array], tail: bytes = b"") -> tuple[bytes, int]:
    """Deflate ``columns`` as significance-ordered byte planes, then
    ``tail``, one plane at a time. Returns the zlib body and its inflated
    length."""
    raws = []
    for col in columns:
        if _SWAP:
            col = array(col.typecode, col)
            col.byteswap()
        raws.append(col.tobytes())
    compressor = zlib.compressobj(LEVEL)
    body = [compressor.compress(raw[plane::col.itemsize])
            for plane in range(_WIDEST)
            for col, raw in zip(columns, raws) if col.itemsize > plane]
    body += (compressor.compress(tail), compressor.flush())
    return b"".join(body), sum(map(len, raws)) + len(tail)


def inflate(body: bytes, size: int, what: str) -> bytes:
    """Inflate ``body`` to exactly ``size`` bytes, producing at most one
    byte more however the stream is forged."""
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(body, size + 1)
    except zlib.error as exc:
        raise LogFormatError(f"corrupt {what} body: {exc}") from exc
    if len(raw) > size:
        raise LogFormatError(f"{what} body inflates past its declared "
                             f"{size} bytes")
    if not inflater.eof:
        raise LogFormatError(f"truncated {what} body")
    if inflater.unused_data:
        raise LogFormatError(f"trailing bytes after {what} body")
    if len(raw) != size:
        raise LogFormatError(f"{what} body inflates to {len(raw)} bytes, "
                             f"header declares {size}")
    return raw


def unpack(raw: bytes, layout: Sequence[tuple[str, int]]) \
        -> tuple[list[array], bytes]:
    """Invert :func:`deflate`: the columns ``layout`` names as
    ``(typecode, length)`` pairs, and the tail bytes after them. The
    caller has checked that ``raw`` holds that many rows."""
    columns = [array(code) for code, _length in layout]
    bufs = [bytearray(col.itemsize * length)
            for col, (_code, length) in zip(columns, layout)]
    offset = 0
    for plane in range(_WIDEST):
        for col, buf, (_code, length) in zip(columns, bufs, layout):
            if col.itemsize > plane:
                buf[plane::col.itemsize] = raw[offset:offset + length]
                offset += length
    for col, buf in zip(columns, bufs):
        col.frombytes(buf)
        if _SWAP:
            col.byteswap()
    return columns, raw[offset:]


def _groups(keys: Sequence[int]) -> tuple[list[int], list[int]]:
    """Stream positions sorted stably by key, so each key's positions are
    consecutive and stay in stream order, and the bounds of each key's
    run in that order."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    counts = Counter(keys)
    return order, list(accumulate((counts[key] for key in sorted(counts)),
                                  initial=0))


def deltas(values: Sequence[int]) -> Iterator[int]:
    """Each value minus the one before it (the first minus 0)."""
    return map(sub, values, chain((0,), values))


def deltas_by(keys: Sequence[int], values: Sequence[int]) -> Iterator[int]:
    """Each value minus the previous value with the same key (the key's
    first minus 0), in the order of :func:`_groups`."""
    order, bounds = _groups(keys)
    grouped = [values[index] for index in order]
    return chain.from_iterable(deltas(grouped[start:end])
                               for start, end in pairwise(bounds))


def sums_by(keys: Sequence[int], coded: Sequence[int]) -> list[int]:
    """Invert :func:`deltas_by`: values back in stream order."""
    order, bounds = _groups(keys)
    grouped = list(chain.from_iterable(accumulate(coded[start:end])
                                       for start, end in pairwise(bounds)))
    inverse = sorted(range(len(order)), key=order.__getitem__)
    return [grouped[index] for index in inverse]
