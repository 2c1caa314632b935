"""The compact chunk log (``chunks.qrz``).

The packed v1 stream (:mod:`repro.mrr.logfmt`) spends 16 bytes on every
entry, most of them on timestamps and counts that barely change within a
thread. The compact form stores the same entries, in stream order, in
the shared columnar layout (:mod:`repro.mrr.columnar`)::

    header   magic "QRCZ", version u8, flags u8,
             varint entry count, varint inflated length
    body     zlib of the byte planes of the columns
               rthread u32, reason code u8, rsw u32,
               timestamp i64 (per-rthread delta, see
               :func:`~repro.mrr.columnar.deltas_by`),
               icount u64, memops u64,
               load hash u64 (only with FLAG_LOAD_HASH)

Byte 4 held layout flags 0–3 in the retired QRCZ layouts, so this layout
is version 4 and an old stream is refused by its header. The F3 figure
reports this size as the chunk log's compressed form.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import LogFormatError
from . import columnar
from .chunk import ChunkEntry, Reason

_MAGIC = b"QRCZ"
VERSION = 4
FLAG_LOAD_HASH = 0x01
_COLUMNS = "IBIqQQ"
_HASH_COLUMN = "Q"


def compress_chunks(entries: Sequence[ChunkEntry]) -> bytes:
    """Encode ``entries`` (in stream order) to the compact layout."""
    col = columnar.column
    codes = Reason.CODES
    threads = col("I", [entry.rthread for entry in entries], "rthread")
    with_hash = any(entry.load_hash is not None for entry in entries)
    columns = [
        threads,
        col("B", [codes[entry.reason] for entry in entries], "reason"),
        col("I", [entry.rsw for entry in entries], "rsw"),
        col("q", columnar.deltas_by(
            threads, [entry.timestamp for entry in entries]), "timestamp"),
        col("Q", [entry.icount for entry in entries], "icount"),
        col("Q", [entry.memops for entry in entries], "memops"),
    ]
    if with_hash:
        columns.append(col(_HASH_COLUMN, [entry.load_hash or 0
                                          for entry in entries],
                           "load hash"))
    body, size = columnar.deflate(columns)
    return columnar.header(_MAGIC, VERSION,
                           FLAG_LOAD_HASH if with_hash else 0,
                           len(entries), size) + body


def decompress_chunks(blob: bytes) -> list[ChunkEntry]:
    """Invert :func:`compress_chunks`; entries return in stream order."""
    what = "compressed chunk log"
    if blob[:4] != _MAGIC:
        raise LogFormatError(f"bad {what} magic")
    if len(blob) < columnar.FIXED_HEADER:
        raise LogFormatError(f"truncated {what} header")
    version, flags = blob[4], blob[5]
    if version != VERSION:
        raise LogFormatError(f"unsupported {what} version {version}")
    if flags & ~FLAG_LOAD_HASH:
        raise LogFormatError(f"unknown {what} flags {flags:#x}")
    (count, size), offset = columnar.read_fields(blob, 2, what)
    layout = _COLUMNS + (_HASH_COLUMN if flags & FLAG_LOAD_HASH else "")
    if size != count * columnar.width(layout):
        raise LogFormatError(f"{what} declares {size} bytes for {count} "
                             f"entries")
    raw = columnar.inflate(blob[offset:], size, what)
    (threads, codes, rsws, ts_deltas, icounts, memops, *hashes), _tail = \
        columnar.unpack(raw, [(code, count) for code in layout])
    if count and max(codes) >= len(Reason.ALL):
        raise LogFormatError(f"unknown reason code {max(codes)}")
    timestamps = columnar.sums_by(threads, ts_deltas)
    if count and min(timestamps) < 0:
        raise LogFormatError(f"negative timestamp in {what}")
    return list(map(ChunkEntry, threads, timestamps, icounts, memops, rsws,
                    map(Reason.ALL.__getitem__, codes), *hashes))
