"""Binary encoding of chunk log entries and checkpoint sections.

The packed chunk stream (magic ``QRCL``, version 1) mirrors the
prototype's 128-bit entry::

    byte 0      rthread        (u8)
    byte 1      reason code    (u8)
    bytes 2-3   RSW            (u16)
    bytes 4-7   timestamp      (u32)
    bytes 8-11  icount         (u32)
    bytes 12-15 memops         (u32)

A stream is a 12-byte header (magic ``QRCL``, version, flags, count)
followed by the entries. When the debug load-hash flag is set, each entry
carries an extra 8 bytes. It is the ``chunks.bin`` section and the bytes
the determinism digests hash, so it stays byte-for-byte frozen; the
compact form of the same log is :mod:`repro.mrr.compression`.

The checkpoint section (magic ``QRCK``, version 2) carries periodic
snapshots of the deterministic replay-visible machine state, keyed by
chunk-schedule position. Payloads are opaque at this layer (see
:mod:`repro.replay.checkpoint` for their contents). The section cuts each
payload into 4 KiB pages counted from the payload's end and stores only
the pages that differ from the previous record's payload (the first
record is diffed against zeros), zlib-compressed — consecutive snapshots
share almost all of their physical memory image, so a record is a handful
of pages. Every record carries the SHA-256 of its *raw* payload, verified
on decode, which is also the seam digest parallel replay validates
against.
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..errors import LogFormatError
from .chunk import ChunkEntry, Reason

MAGIC = b"QRCL"
VERSION = 1
ENTRY_BYTES = 16
_HEADER = struct.Struct("<4sBBHI")
_ENTRY = struct.Struct("<BBHIII")
_HASH = struct.Struct("<Q")

FLAG_LOAD_HASH = 0x01


def encode_chunks(entries: Sequence[ChunkEntry],
                  with_load_hash: bool = False) -> bytes:
    """Serialize entries to the packed stream."""
    flags = FLAG_LOAD_HASH if with_load_hash else 0
    out = bytearray(_HEADER.pack(MAGIC, VERSION, flags, 0, len(entries)))
    for entry in entries:
        if entry.rthread > 0xFF:
            raise LogFormatError(f"rthread {entry.rthread} exceeds u8")
        if entry.rsw > 0xFFFF:
            raise LogFormatError(f"rsw {entry.rsw} exceeds u16")
        out += _ENTRY.pack(entry.rthread, Reason.CODES[entry.reason],
                           entry.rsw, entry.timestamp & 0xFFFFFFFF,
                           entry.icount, entry.memops)
        if with_load_hash:
            out += _HASH.pack(entry.load_hash or 0)
    return bytes(out)


def decode_chunks(blob: bytes) -> list[ChunkEntry]:
    """Parse a packed stream back into entries (in stream order)."""
    if len(blob) < _HEADER.size:
        raise LogFormatError("chunk stream truncated before header")
    magic, version, flags, _reserved, count = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise LogFormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise LogFormatError(f"unsupported chunk stream version {version}")
    with_hash = bool(flags & FLAG_LOAD_HASH)
    stride = ENTRY_BYTES + (_HASH.size if with_hash else 0)
    expected = _HEADER.size + count * stride
    if len(blob) != expected:
        raise LogFormatError(f"chunk stream length {len(blob)} != expected {expected}")
    entries: list[ChunkEntry] = []
    offset = _HEADER.size
    for _ in range(count):
        rthread, reason_code, rsw, timestamp, icount, memops = \
            _ENTRY.unpack_from(blob, offset)
        offset += ENTRY_BYTES
        load_hash = None
        if with_hash:
            (load_hash,) = _HASH.unpack_from(blob, offset)
            offset += _HASH.size
        reason = Reason.NAMES.get(reason_code)
        if reason is None:
            raise LogFormatError(f"unknown reason code {reason_code}")
        entries.append(ChunkEntry(rthread, timestamp, icount, memops, rsw,
                                  reason, load_hash))
    return entries


def encoded_size(entries: Iterable[ChunkEntry],
                 with_load_hash: bool = False) -> int:
    """Size in bytes of the packed stream without building it."""
    count = sum(1 for _ in entries)
    stride = ENTRY_BYTES + (_HASH.size if with_load_hash else 0)
    return _HEADER.size + count * stride


# -- checkpoint section -------------------------------------------------------

CHECKPOINT_MAGIC = b"QRCK"
CHECKPOINT_VERSION = 2
#: Delta granularity: payloads are diffed in pages of this many bytes.
CHECKPOINT_PAGE = 4096
_CKPT_HEADER = struct.Struct("<4sBBHI")
#: position, raw length, changed-page count, body length, SHA-256.
_CKPT_ENTRY = struct.Struct("<IIII32s")
_ZERO_PAGE = bytes(CHECKPOINT_PAGE)


@dataclass(frozen=True)
class CheckpointRecord:
    """One embedded checkpoint: raw replay-state payload at a schedule
    position, plus the payload's SHA-256 (the seam digest)."""

    position: int
    digest: str
    payload: bytes

    @classmethod
    def for_payload(cls, position: int, payload: bytes) -> "CheckpointRecord":
        return cls(position=position, payload=payload,
                   digest=hashlib.sha256(payload).hexdigest())


def _page_lengths(raw_len: int) -> list[int]:
    """Length of each page of a ``raw_len``-byte payload, page 0 being the
    payload's last :data:`CHECKPOINT_PAGE` bytes; only the last page (the
    payload's head) can be short."""
    full, head = divmod(raw_len, CHECKPOINT_PAGE)
    return [CHECKPOINT_PAGE] * full + ([head] if head else [])


def _split_pages(payload: bytes) -> list[bytes]:
    """``payload`` cut into pages counted from its end (see
    :func:`_page_lengths`), so a header that grows at the front shifts
    no page boundary of the memory image behind it."""
    pages = []
    end = len(payload)
    for length in _page_lengths(end):
        pages.append(payload[end - length:end])
        end -= length
    return pages


def encode_checkpoints(records: Sequence[CheckpointRecord]) -> bytes:
    """Serialize checkpoint records (sorted by position) to the page-delta
    section: each record stores only the pages that differ from the
    previous record's payload."""
    ordered = sorted(records, key=lambda record: record.position)
    out = bytearray(_CKPT_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                                      0, 0, len(ordered)))
    previous: list[bytes] = []
    for record in ordered:
        pages = _split_pages(record.payload)
        # A page the previous record lacks (every page of the first
        # record) is diffed against zeros.
        changed = [index for index, page in enumerate(pages)
                   if page != (previous[index] if index < len(previous)
                               else _ZERO_PAGE[:len(page)])]
        body = zlib.compress(b"".join(pages[index] for index in changed), 6) \
            if changed else b""
        out += _CKPT_ENTRY.pack(record.position, len(record.payload),
                                len(changed), len(body),
                                bytes.fromhex(record.digest))
        out += struct.pack(f"<{len(changed)}I", *changed)
        out += body
        previous = pages
    return bytes(out)


def _inflate_pages(body: bytes, expected: int, position: int) -> bytes:
    """Decompress a record body that must hold exactly ``expected`` bytes."""
    if not expected:
        if body:
            raise LogFormatError(
                f"checkpoint at position {position} stores no pages but has "
                f"a {len(body)}-byte body")
        return b""
    decompressor = zlib.decompressobj()
    try:
        data = decompressor.decompress(body, expected)
        if not decompressor.eof and decompressor.unconsumed_tail:
            # Output is full; anything more than the stream's end is excess.
            data += decompressor.decompress(decompressor.unconsumed_tail, 1)
    except zlib.error as exc:
        raise LogFormatError(
            f"corrupt checkpoint pages at position {position}: "
            f"{exc}") from exc
    if len(data) != expected or not decompressor.eof \
            or decompressor.unused_data:
        raise LogFormatError(
            f"checkpoint pages at position {position} do not inflate to "
            f"exactly {expected} bytes")
    return data


def decode_checkpoints(blob: bytes,
                       max_payload: int | None = None,
                       count: int | None = None,
                       ) -> list[CheckpointRecord]:
    """Parse a checkpoint section; verifies every payload digest.

    Unchanged pages are rebuilt from the length a record declares, so a
    few forged bytes could otherwise declare gigabytes of zeros:
    ``max_payload`` (None: unbounded) rejects any record declaring a
    longer payload before anything is built from it, and ``count`` (None:
    unchecked), the number of records expected, rejects a section
    declaring any other number before its first record, which bounds the
    rebuilt total by ``count * max_payload``. Positions must strictly
    increase.
    """
    if len(blob) < _CKPT_HEADER.size:
        raise LogFormatError("checkpoint section truncated before header")
    magic, version, _flags, _reserved, declared = \
        _CKPT_HEADER.unpack_from(blob, 0)
    if magic != CHECKPOINT_MAGIC:
        raise LogFormatError(f"bad checkpoint section magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise LogFormatError(f"unsupported checkpoint section version {version}")
    if count is not None and declared != count:
        raise LogFormatError(
            f"checkpoint section declares {declared} records, "
            f"expected {count}")
    records: list[CheckpointRecord] = []
    offset = _CKPT_HEADER.size
    previous: list[bytes] = []
    for _ in range(declared):
        if offset + _CKPT_ENTRY.size > len(blob):
            raise LogFormatError("checkpoint section truncated in entry header")
        position, raw_len, changed_count, body_len, digest_bytes = \
            _CKPT_ENTRY.unpack_from(blob, offset)
        offset += _CKPT_ENTRY.size
        if records and position <= records[-1].position:
            raise LogFormatError(
                f"checkpoint position {position} does not follow "
                f"{records[-1].position}")
        if max_payload is not None and raw_len > max_payload:
            raise LogFormatError(
                f"checkpoint at position {position} declares a {raw_len}-byte "
                f"payload, over the {max_payload}-byte bound")
        lengths = _page_lengths(raw_len)
        if changed_count > len(lengths):
            raise LogFormatError(
                f"checkpoint at position {position} changes {changed_count} "
                f"pages of {len(lengths)}")
        if offset + 4 * changed_count + body_len > len(blob):
            raise LogFormatError("checkpoint section truncated in pages")
        changed = struct.unpack_from(f"<{changed_count}I", blob, offset)
        offset += 4 * changed_count
        last = -1
        for index in changed:
            if not last < index < len(lengths):
                raise LogFormatError(
                    f"checkpoint at position {position}: page index {index} "
                    f"out of order or outside its {len(lengths)} pages")
            last = index
        data = _inflate_pages(blob[offset:offset + body_len],
                              sum(lengths[index] for index in changed),
                              position)
        offset += body_len
        pages = previous[:len(lengths)]
        pages += [_ZERO_PAGE[:length] for length in lengths[len(pages):]]
        cursor = 0
        for index in changed:
            pages[index] = data[cursor:cursor + lengths[index]]
            cursor += lengths[index]
        # Every page but a payload's head is full, so the previous
        # record's head is the only page that can be reused at the
        # wrong length.
        seam = len(previous) - 1
        if 0 <= seam < len(lengths) and len(pages[seam]) != lengths[seam]:
            raise LogFormatError(
                f"checkpoint at position {position}: unchanged page {seam} "
                f"is {len(pages[seam])} bytes in the previous record, "
                f"expected {lengths[seam]}")
        payload = b"".join(reversed(pages))
        digest = digest_bytes.hex()
        if hashlib.sha256(payload).hexdigest() != digest:
            raise LogFormatError(
                f"checkpoint digest mismatch at position {position}")
        records.append(CheckpointRecord(position=position, digest=digest,
                                        payload=payload))
        previous = pages
    if offset != len(blob):
        raise LogFormatError(
            f"checkpoint section has {len(blob) - offset} trailing bytes")
    return records
