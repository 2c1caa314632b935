"""Binary serialization of the input-event log (``input.bin``).

Two stream versions share the ``QRIL`` magic; :func:`decode_events`
negotiates by the header's version byte.

**v3** — what :func:`encode_events` writes: the columnar layout shared
with the compact chunk log (:mod:`repro.mrr.columnar`)::

    header   magic "QRIL", version u8, flags u8, varint event count,
             varint copy count, varint pool count, varint inflated length
    body     zlib of the byte planes of the columns
               per event: rthread u32, seq i64 (delta against the
               previous event), chunk_seq i64 (per-rthread delta, see
               :func:`~repro.mrr.columnar.deltas_by`), kind code u8,
               sysno u64, value u64, nondet code u8, copy count u32
               per copy:  address u64, pool index u32
               per pool entry: length u32
             then the pool's payload bytes

Copy payloads are deduplicated through a content-keyed pool (a repeated
syscall buffer is stored once and referenced by index).

**v1** — row-oriented: a header followed by varint-packed events with copy
payloads inline. :func:`encode_events_v1` is frozen: it is the stable byte
stream the differential fingerprints hash and the reference size the F3
figure reports, and :func:`decode_events` still reads it, so bundles
written before v3 load.
"""

from __future__ import annotations

import struct
from itertools import accumulate, compress, pairwise
from typing import Sequence

from ..errors import LogFormatError
from ..mrr import columnar
from ..mrr.varint import read_varint, write_varint
from .events import (
    InputEvent,
    KINDS,
    KIND_CODES,
    KIND_NAMES,
    NONDET_CODES,
    NONDET_KINDS,
)

MAGIC = b"QRIL"
VERSION_V1 = 1
VERSION = 3
_HEADER = struct.Struct("<4sBBHI")
_EVENT_COLUMNS = "IqqBQQBI"
_COPY_COLUMNS = "QI"
_POOL_COLUMN = "I"


def _varint(value: int) -> bytes:
    return write_varint(value)


def _read_varint(blob: bytes, offset: int) -> tuple[int, int]:
    return read_varint(blob, offset, what="varint in input log")


def encode_events(events: Sequence[InputEvent]) -> bytes:
    """Serialize events to the columnar v3 stream."""
    col = columnar.column
    threads = col("I", [event.rthread for event in events], "rthread")
    ncopies = col("I", [len(event.copies) for event in events], "copy count")
    pool: dict[bytes, int] = {}
    addrs: list[int] = []
    indices: list[int] = []
    for event in compress(events, ncopies):
        for addr, data in event.copies:
            addrs.append(addr)
            indices.append(pool.setdefault(data, len(pool)))
    columns = (
        threads,
        col("q", columnar.deltas([event.seq for event in events]), "seq"),
        col("q", columnar.deltas_by(
            threads, [event.chunk_seq for event in events]), "chunk_seq"),
        col("B", [KIND_CODES[event.kind] for event in events], "kind"),
        col("Q", [event.sysno for event in events], "sysno"),
        col("Q", [event.value for event in events], "value"),
        col("B", [NONDET_CODES[event.nondet_kind] for event in events],
            "nondet kind"),
        ncopies,
        col("Q", addrs, "copy address"),
        col("I", indices, "pool index"),
        col("I", [len(data) for data in pool], "payload length"),
    )
    body, size = columnar.deflate(columns, b"".join(pool))
    return columnar.header(MAGIC, VERSION, 0, len(events), len(addrs),
                           len(pool), size) + body


def encode_events_v1(events: Sequence[InputEvent]) -> bytes:
    """Serialize events to the frozen v1 stream."""
    out = bytearray(_HEADER.pack(MAGIC, VERSION_V1, 0, 0, len(events)))
    for event in events:
        out += _varint(event.rthread)
        out += _varint(event.seq)
        out += _varint(event.chunk_seq)
        out += _varint(KIND_CODES[event.kind])
        out += _varint(event.sysno)
        out += _varint(event.value)
        out += _varint(NONDET_CODES[event.nondet_kind])
        out += _varint(len(event.copies))
        for addr, data in event.copies:
            out += _varint(addr)
            out += _varint(len(data))
            out += data
    return bytes(out)


def decode_events(blob: bytes) -> list[InputEvent]:
    """Parse either stream version back into events (stream order)."""
    if len(blob) < columnar.FIXED_HEADER:
        raise LogFormatError("input log truncated before header")
    if blob[:4] != MAGIC:
        raise LogFormatError(f"bad input log magic {blob[:4]!r}")
    version = blob[4]
    if version == VERSION:
        return _decode_events_v3(blob)
    if version == VERSION_V1:
        return _decode_events_v1(blob)
    raise LogFormatError(f"unsupported input log version {version}")


def _decode_events_v1(blob: bytes) -> list[InputEvent]:
    if len(blob) < _HEADER.size:
        raise LogFormatError("input log truncated before header")
    count = _HEADER.unpack_from(blob)[-1]
    events: list[InputEvent] = []
    offset = _HEADER.size
    for _ in range(count):
        rthread, offset = _read_varint(blob, offset)
        seq, offset = _read_varint(blob, offset)
        chunk_seq, offset = _read_varint(blob, offset)
        kind_code, offset = _read_varint(blob, offset)
        sysno, offset = _read_varint(blob, offset)
        value, offset = _read_varint(blob, offset)
        nondet_code, offset = _read_varint(blob, offset)
        copy_count, offset = _read_varint(blob, offset)
        copies = []
        for _ in range(copy_count):
            addr, offset = _read_varint(blob, offset)
            length, offset = _read_varint(blob, offset)
            if offset + length > len(blob):
                raise LogFormatError("truncated copy payload")
            copies.append((addr, blob[offset:offset + length]))
            offset += length
        kind = KIND_NAMES.get(kind_code)
        if kind is None:
            raise LogFormatError(f"unknown event kind code {kind_code}")
        if nondet_code >= len(NONDET_KINDS):
            raise LogFormatError(f"unknown nondet kind code {nondet_code}")
        events.append(InputEvent(rthread=rthread, seq=seq, chunk_seq=chunk_seq,
                                 kind=kind, sysno=sysno, value=value,
                                 nondet_kind=NONDET_KINDS[nondet_code],
                                 copies=tuple(copies)))
    if offset != len(blob):
        raise LogFormatError("trailing bytes in input log")
    return events


def _decode_events_v3(blob: bytes) -> list[InputEvent]:
    if blob[5]:
        raise LogFormatError(f"unknown input log flags {blob[5]:#x}")
    (count, ncopy, npool, size), offset = \
        columnar.read_fields(blob, 4, "input log")
    fixed = (count * columnar.width(_EVENT_COLUMNS)
             + ncopy * columnar.width(_COPY_COLUMNS)
             + npool * columnar.width(_POOL_COLUMN))
    if size < fixed:
        raise LogFormatError(
            f"input log declares {size} bytes, its counts need {fixed}")
    raw = columnar.inflate(blob[offset:], size, "input log")
    layout = ([(code, count) for code in _EVENT_COLUMNS]
              + [(code, ncopy) for code in _COPY_COLUMNS]
              + [(_POOL_COLUMN, npool)])
    (threads, seq_deltas, chunk_deltas, kinds, sysnos, values, nondets,
     ncopies, addrs, indices, lengths), payload = \
        columnar.unpack(raw, layout)

    if count and max(kinds) >= len(KINDS):
        raise LogFormatError(f"unknown event kind code {max(kinds)}")
    if count and max(nondets) >= len(NONDET_KINDS):
        raise LogFormatError(f"unknown nondet kind code {max(nondets)}")
    if sum(ncopies) != ncopy:
        raise LogFormatError(
            f"events carry {sum(ncopies)} copies, header declares {ncopy}")
    if ncopy and max(indices) >= npool:
        raise LogFormatError(
            f"copy payload index {max(indices)} outside pool")
    if sum(lengths) != len(payload):
        raise LogFormatError("copy payload pool length mismatch")
    seqs = list(accumulate(seq_deltas))
    chunk_seqs = columnar.sums_by(threads, chunk_deltas)
    if count and min(min(seqs), min(chunk_seqs)) < 0:
        raise LogFormatError("negative sequence number in input log")

    pool = [payload[start:end]
            for start, end in pairwise(accumulate(lengths, initial=0))]
    copies: list[tuple] = [()] * count
    cursor = 0
    for index in compress(range(count), ncopies):
        end = cursor + ncopies[index]
        copies[index] = tuple(zip(addrs[cursor:end],
                                  map(pool.__getitem__, indices[cursor:end])))
        cursor = end
    return list(map(InputEvent, threads, seqs, chunk_seqs,
                    map(KINDS.__getitem__, kinds), sysnos, values,
                    map(NONDET_KINDS.__getitem__, nondets), copies))
