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

The checkpoint section (magic ``QRCK``, version 4) carries periodic
snapshots of the deterministic replay-visible machine state, keyed by
chunk-schedule position. Payloads are opaque at this layer (see
:mod:`repro.replay.checkpoint` for their contents). A payload is cut into
4 KiB pages counted from its end, and a record stores only the pages that
differ from the previous record's page at the same index (the first
record is diffed against zeros): consecutive snapshots share almost all
of their physical memory image, so a record is a handful of pages. In
memory a :class:`CheckpointRecord` is the tuple of its pages, sharing
every unchanged page with the previous record.

Each stored page is its own zlib stream whose preset dictionary is the
page it replaces: the previous record's page at the same index, or zeros
of the page's length where there is none. A rewritten page is mostly the
page before it, so the compressor finds most of it in its history.
Version 3 deflated all of a record's stored pages as one stream without
a dictionary; it is still read.

Each record carries one digest: the SHA-256 of its pages' SHA-256s,
concatenated in page order (version 2 hashed the joined payload; its
bytes are otherwise version 3's). Decoding hashes only the pages a
record stores and verifies the digest without joining the payload; it is
also the seam digest parallel replay validates against.
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from ..errors import LogFormatError
from .chunk import ChunkEntry, Reason
from .columnar import LEVEL

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
CHECKPOINT_VERSION = 4
#: The one earlier version still read: one stream per record, no dictionary.
_CHECKPOINT_V3 = 3
#: Delta granularity: payloads are cut into pages of this many bytes.
CHECKPOINT_PAGE = 4096
_CKPT_HEADER = struct.Struct("<4sBBHI")
#: position, raw length, changed-page count, body length, record digest.
_CKPT_ENTRY = struct.Struct("<IIII32s")
#: The one object every all-zero page of every record shares.
_ZERO_PAGE = bytes(CHECKPOINT_PAGE)
_ZERO_DIGEST = hashlib.sha256(_ZERO_PAGE).digest()
#: FDICT, the zlib header bit of a stream deflated with a preset dictionary.
_FDICT = 0x20


def paged_digest(page_digests: Iterable[bytes]) -> str:
    """A record digest: the SHA-256 of its page digests, concatenated in
    page order. Equal payloads, and only those, digest equally."""
    return hashlib.sha256(b"".join(page_digests)).hexdigest()


def _page_lengths(raw_len: int) -> list[int]:
    """Length of each page of a ``raw_len``-byte payload, page 0 being the
    payload's last :data:`CHECKPOINT_PAGE` bytes; only the last page (the
    payload's head) can be short."""
    full, head = divmod(raw_len, CHECKPOINT_PAGE)
    return [CHECKPOINT_PAGE] * full + ([head] if head else [])


def payload_pages(*parts) -> Iterator[bytes]:
    """The payload ``b"".join(parts)`` cut into pages counted from its end
    (see :func:`_page_lengths`), so a header that grows at the front
    shifts no page boundary of the memory image behind it.

    The payload is never joined whole: the last part is cut in place, one
    copy per page, and only the parts before it are joined with its first
    ``len % CHECKPOINT_PAGE`` bytes.
    """
    with memoryview(parts[-1]) as body:
        end = len(body)
        while end >= CHECKPOINT_PAGE:
            yield body[end - CHECKPOINT_PAGE:end].tobytes()
            end -= CHECKPOINT_PAGE
        head = b"".join((*parts[:-1], body[:end]))
    for end in range(len(head), 0, -CHECKPOINT_PAGE):
        yield head[max(0, end - CHECKPOINT_PAGE):end]


@dataclass(frozen=True)
class CheckpointRecord:
    """One embedded checkpoint: a replay-state payload at a schedule
    position, held as its pages (:func:`payload_pages`) with one SHA-256
    per page, and the record digest over them (:func:`paged_digest`),
    which is also the seam digest.

    Records share pages: a record built against the previous one shares
    every page that did not change with it, digest included, and all-zero
    pages share one object. Consecutive checkpoints differ in a handful of
    pages, so a run's records cost little more memory than one image.
    """

    position: int
    digest: str
    pages: tuple[bytes, ...] = field(repr=False)
    page_digests: tuple[bytes, ...] = field(repr=False, compare=False)

    @classmethod
    def for_payload(cls, position: int, *parts,
                    previous: "CheckpointRecord | None" = None,
                    ) -> "CheckpointRecord":
        """The record of the payload ``b"".join(parts)``, cut by
        :func:`payload_pages`. A page equal to ``previous``'s page at the
        same index is that page; only the other pages are hashed."""
        before = previous.pages if previous is not None else ()
        pages: list[bytes] = []
        digests: list[bytes] = []
        for index, page in enumerate(payload_pages(*parts)):
            if index < len(before) and page == before[index]:
                page, digest = before[index], previous.page_digests[index]
            elif page == _ZERO_PAGE:
                page, digest = _ZERO_PAGE, _ZERO_DIGEST
            else:
                digest = hashlib.sha256(page).digest()
            pages.append(page)
            digests.append(digest)
        return cls(position=position, digest=paged_digest(digests),
                   pages=tuple(pages), page_digests=tuple(digests))

    @property
    def size(self) -> int:
        """Length of the payload in bytes."""
        return sum(map(len, self.pages))

    def prefix(self, size: int) -> bytes:
        """The payload's first ``size`` bytes (all of it, if shorter),
        joined from only the head pages that hold them."""
        head = []
        held = 0
        for page in reversed(self.pages):
            if held >= size:
                break
            head.append(page)
            held += len(page)
        return b"".join(head)[:size]


def encode_checkpoints(records: Sequence[CheckpointRecord]) -> bytes:
    """Serialize checkpoint records (sorted by position; each position a
    u32, at most once) to the page-delta section: each record stores only
    the pages that differ from the previous record's page at the same
    index, each deflated against that page (against zeros for every page
    of the first record and for pages the previous record lacks)."""
    ordered = sorted(records, key=lambda record: record.position)
    out = bytearray(_CKPT_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                                      0, 0, len(ordered)))
    previous: tuple[bytes, ...] = ()
    for number, record in enumerate(ordered):
        if number and record.position == ordered[number - 1].position:
            raise LogFormatError(
                f"two checkpoints at position {record.position}")
        if not 0 <= record.position <= 0xFFFFFFFF:
            raise LogFormatError(
                f"checkpoint position {record.position} outside u32")
        pages = record.pages
        changed = []
        streams = []
        for index, page in enumerate(pages):
            before = previous[index] if index < len(previous) \
                else _ZERO_PAGE[:len(page)]
            # Shared pages, nearly all of them, compare by identity alone.
            if page is not before and page != before:
                changed.append(index)
                compressor = zlib.compressobj(LEVEL, zdict=before)
                streams.append(compressor.compress(page))
                streams.append(compressor.flush())
        body = b"".join(streams)
        out += _CKPT_ENTRY.pack(record.position, record.size,
                                len(changed), len(body),
                                bytes.fromhex(record.digest))
        out += struct.pack(f"<{len(changed)}I", *changed)
        out += body
        previous = pages
    return bytes(out)


def _inflate_stream(decompressor, data: bytes,
                    lengths: list[int]) -> tuple[list[bytes], bytes] | None:
    """Inflate pages of exactly ``lengths`` from the zlib stream at the
    start of ``data``, each straight into its own bytes object; the
    pages and the bytes after the stream, or None unless the stream
    holds exactly those pages."""
    pages: list[bytes] = []
    for length in lengths:
        page = decompressor.decompress(data, length)
        data = decompressor.unconsumed_tail
        if len(page) != length:
            return None
        pages.append(page)
    if not decompressor.eof:
        # Every page is full; output before the stream's end is excess.
        if decompressor.decompress(data, 1) or not decompressor.eof:
            return None
    return pages, decompressor.unused_data


def _inflate_pages(body: bytes, lengths: list[int], position: int,
                   replaced: list[bytes] | None) -> list[bytes]:
    """Decompress a record body that must hold exactly pages of the given
    ``lengths``: one stream per page, deflated against the page it
    replaces (version 4, ``replaced`` holding those pages), or one stream
    for them all (version 3, ``replaced`` None)."""
    if not lengths:
        if body:
            raise LogFormatError(
                f"checkpoint at position {position} stores no pages but has "
                f"a {len(body)}-byte body")
        return []
    streams = [(None, lengths)] if replaced is None \
        else [(before, [length]) for length, before in zip(lengths, replaced)]
    pages: list[bytes] = []
    pending = body
    try:
        for zdict, stream_lengths in streams:
            if zdict is None:
                decompressor = zlib.decompressobj()
            elif len(pending) < 2 or not pending[1] & _FDICT:
                raise LogFormatError(
                    f"checkpoint at position {position} stores a page not "
                    f"deflated against the page it replaces")
            else:
                decompressor = zlib.decompressobj(zdict=zdict)
            inflated = _inflate_stream(decompressor, pending, stream_lengths)
            if inflated is None:
                break
            stream_pages, pending = inflated
            pages += stream_pages
    except zlib.error as exc:
        raise LogFormatError(
            f"corrupt checkpoint pages at position {position}: "
            f"{exc}") from exc
    if len(pages) != len(lengths) or pending:
        raise LogFormatError(
            f"checkpoint pages at position {position} do not inflate to "
            f"exactly {sum(lengths)} bytes")
    return pages


def decode_checkpoints(blob: bytes,
                       max_payload: int | None = None,
                       count: int | None = None,
                       ) -> list[CheckpointRecord]:
    """Parse a checkpoint section; verifies every record digest.

    Each record shares its unchanged pages, and their digests, with the
    previous record, so only stored pages are hashed and no payload is
    ever joined. Unchanged pages are rebuilt from the length a record
    declares, so a few forged bytes could otherwise declare gigabytes of
    zeros: ``max_payload`` (None: unbounded) rejects any record declaring
    a longer payload before anything is built from it, and ``count``
    (None: unchecked), the number of records expected, rejects a section
    declaring any other number before its first record. Positions must
    strictly increase.
    """
    if len(blob) < _CKPT_HEADER.size:
        raise LogFormatError("checkpoint section truncated before header")
    magic, version, _flags, _reserved, declared = \
        _CKPT_HEADER.unpack_from(blob, 0)
    if magic != CHECKPOINT_MAGIC:
        raise LogFormatError(f"bad checkpoint section magic {magic!r}")
    if version not in (CHECKPOINT_VERSION, _CHECKPOINT_V3):
        raise LogFormatError(f"unsupported checkpoint section version {version}")
    if count is not None and declared != count:
        raise LogFormatError(
            f"checkpoint section declares {declared} records, "
            f"expected {count}")
    records: list[CheckpointRecord] = []
    offset = _CKPT_HEADER.size
    previous: tuple[bytes, ...] = ()
    previous_digests: tuple[bytes, ...] = ()
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
        pages = list(previous[:len(lengths)])
        digests = list(previous_digests[:len(lengths)])
        for length in lengths[len(pages):]:
            zeros = _ZERO_PAGE[:length]
            pages.append(zeros)
            digests.append(_ZERO_DIGEST if length == CHECKPOINT_PAGE
                           else hashlib.sha256(zeros).digest())
        inflated = _inflate_pages(
            blob[offset:offset + body_len],
            [lengths[index] for index in changed], position,
            [pages[index] for index in changed]
            if version == CHECKPOINT_VERSION else None)
        offset += body_len
        for index, page in zip(changed, inflated):
            pages[index] = page
            digests[index] = hashlib.sha256(page).digest()
        # Every page but a payload's head is full, so the previous
        # record's head is the only page that can be reused at the
        # wrong length.
        seam = len(previous) - 1
        if 0 <= seam < len(lengths) and len(pages[seam]) != lengths[seam]:
            raise LogFormatError(
                f"checkpoint at position {position}: unchanged page {seam} "
                f"is {len(pages[seam])} bytes in the previous record, "
                f"expected {lengths[seam]}")
        digest = digest_bytes.hex()
        if paged_digest(digests) != digest:
            raise LogFormatError(
                f"checkpoint digest mismatch at position {position}")
        previous, previous_digests = tuple(pages), tuple(digests)
        records.append(CheckpointRecord(position=position, digest=digest,
                                        pages=previous,
                                        page_digests=previous_digests))
    if offset != len(blob):
        raise LogFormatError(
            f"checkpoint section has {len(blob) - offset} trailing bytes")
    return records
