import zlib
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LogFormatError
from repro.mrr import columnar
from repro.mrr.chunk import ChunkEntry, Reason
from repro.mrr.compression import compress_chunks, decompress_chunks
from repro.mrr.logfmt import encode_chunks

def make_log(threads=3, per_thread=50, with_load_hash=False):
    entries = []
    ts = 0
    for index in range(threads * per_thread):
        ts += 1 + (index % 3)
        entries.append(ChunkEntry(
            rthread=1 + index % threads,
            timestamp=ts,
            icount=100 + index % 7,
            memops=0,
            rsw=index % 2,
            reason=Reason.ALL[index % len(Reason.ALL)],
            load_hash=index * 0x9E3779B1 if with_load_hash else None,
        ))
    return entries


def forge(count, raw, flags=0, declared=None, version=4):
    """A compact chunk log whose header and inflated body are chosen
    freely."""
    size = len(raw) if declared is None else declared
    return columnar.header(b"QRCZ", version, flags, count, size) \
        + zlib.compress(raw)


def reheader(blob, count=None, size=None):
    """``blob`` with its declared entry count or inflated length forged."""
    (real_count, real_size), offset = columnar.read_fields(blob, 2, "test")
    return columnar.header(b"QRCZ", blob[4], blob[5],
                           real_count if count is None else count,
                           real_size if size is None else size) \
        + blob[offset:]


def test_round_trip_preserves_stream_order():
    # CBUFs drain per core, so the log interleaves threads out of
    # timestamp order; the compact form keeps that order exactly.
    entries = make_log()
    entries[3], entries[40] = entries[40], entries[3]
    assert decompress_chunks(compress_chunks(entries)) == entries


def test_compression_beats_raw_format():
    entries = make_log(threads=4, per_thread=200)
    raw = len(encode_chunks(entries))
    assert len(compress_chunks(entries)) < raw / 3


def test_empty_log():
    assert decompress_chunks(compress_chunks([])) == []


def test_bad_magic_rejected():
    with pytest.raises(LogFormatError):
        decompress_chunks(b"XXXX\x00")


def test_out_of_order_stream_entries_handled():
    # A migrating thread's entries can drain out of timestamp order; the
    # per-thread timestamp delta goes negative and must survive.
    entries = [
        ChunkEntry(1, 10, 1, 0, 0, Reason.RAW),
        ChunkEntry(1, 5, 1, 0, 0, Reason.EXIT),
    ]
    decoded = decompress_chunks(compress_chunks(entries))
    assert [entry.timestamp for entry in decoded] == [10, 5]


def test_large_values_round_trip():
    entries = [ChunkEntry(1, 2**31, 2**30, 1000, 60_000, Reason.SIZE,
                          load_hash=0),
               ChunkEntry(70_000, 2**40, 2**63, 2**64 - 1, 2**20,
                          Reason.RAW, load_hash=2**64 - 1)]
    assert decompress_chunks(compress_chunks(entries)) == entries


def test_unencodable_value_is_a_log_format_error():
    with pytest.raises(LogFormatError, match="icount"):
        compress_chunks([ChunkEntry(1, 1, 2**64, 0, 0, Reason.RAW)])


def test_load_hashes_round_trip():
    entries = make_log(threads=2, per_thread=5, with_load_hash=True)
    assert decompress_chunks(compress_chunks(entries)) == entries


# -- hostile input: every malformed stream is a LogFormatError ---------------

def test_truncated_header_raises_logformat_not_indexerror():
    with pytest.raises(LogFormatError):
        decompress_chunks(compress_chunks([])[:4])


def test_corrupt_zlib_payload_raises_logformat_not_zlib_error():
    blob = bytearray(compress_chunks(make_log()))
    blob[12] ^= 0xFF
    with pytest.raises(LogFormatError):
        decompress_chunks(bytes(blob))


@pytest.mark.parametrize("with_load_hash", [True, False])
def test_every_truncation_offset_raises_logformat(with_load_hash):
    blob = compress_chunks(make_log(threads=2, per_thread=6,
                                    with_load_hash=with_load_hash))
    for cut in range(len(blob)):
        with pytest.raises(LogFormatError):
            decompress_chunks(blob[:cut])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), with_load_hash=st.booleans())
def test_corrupted_byte_never_escapes_logformat(data, with_load_hash):
    # Flipping any single byte of a valid blob must either still decode
    # (the corruption landed in a value) or raise LogFormatError — never a
    # raw IndexError/zlib.error/ValueError.
    blob = bytearray(compress_chunks(make_log(
        threads=2, per_thread=4, with_load_hash=with_load_hash)))
    position = data.draw(st.integers(0, len(blob) - 1))
    replacement = data.draw(
        st.integers(0, 255).filter(lambda b: b != blob[position]))
    blob[position] = replacement
    try:
        decompress_chunks(bytes(blob))
    except LogFormatError:
        pass


def test_trailing_bytes_rejected():
    with pytest.raises(LogFormatError, match="trailing"):
        decompress_chunks(compress_chunks(make_log()) + b"\x00")


@pytest.mark.parametrize("count", [0, 9, 11, 2**32 - 1, 2**32, 2**64])
def test_forged_entry_count_rejected(count):
    blob = compress_chunks(make_log(threads=2, per_thread=5))
    with pytest.raises(LogFormatError):
        decompress_chunks(reheader(blob, count=count))


@pytest.mark.parametrize("delta", [-1, 1, 1 << 20])
def test_forged_inflated_length_rejected(delta):
    blob = compress_chunks(make_log(threads=2, per_thread=5))
    (_count, size), _offset = columnar.read_fields(blob, 2, "test")
    with pytest.raises(LogFormatError, match="declares"):
        decompress_chunks(reheader(blob, size=size + delta))


def test_count_and_length_forged_together_rejected():
    # a consistent header over a body that inflates short
    blob = compress_chunks(make_log(threads=2, per_thread=5))
    with pytest.raises(LogFormatError, match="inflates to"):
        decompress_chunks(reheader(blob, count=11, size=11 * 33))


def test_body_inflating_past_declared_size_stops_at_the_bound():
    # One entry declares 33 bytes; the body inflates to 16 MiB. The
    # decoder must stop one byte past the declared size, not inflate it.
    import tracemalloc

    blob = forge(1, bytes(16 << 20), declared=33)
    tracemalloc.start()
    try:
        with pytest.raises(LogFormatError, match="past its declared"):
            decompress_chunks(blob)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def one_entry(reason=0, timestamp=0):
    """A one-entry compact log with the given raw column values."""
    columns = [array("I", [1]), array("B", [reason]), array("I", [0]),
               array("q", [timestamp]), array("Q", [1]), array("Q", [0])]
    body, size = columnar.deflate(columns)
    return columnar.header(b"QRCZ", 4, 0, 1, size) + body


def test_unknown_reason_code_rejected():
    assert decompress_chunks(one_entry()) == \
        [ChunkEntry(1, 0, 1, 0, 0, Reason.ALL[0])]
    with pytest.raises(LogFormatError, match="reason code"):
        decompress_chunks(one_entry(reason=len(Reason.ALL)))


def test_negative_timestamp_rejected():
    with pytest.raises(LogFormatError, match="negative"):
        decompress_chunks(one_entry(timestamp=-5))


def test_unknown_flags_rejected():
    with pytest.raises(LogFormatError, match="flags"):
        decompress_chunks(forge(0, b"", flags=0x80))


def test_v2_unknown_version_rejected():
    # Byte 4 held layout flags 0-3 in the retired QRCZ layouts (v1/v2,
    # with or without zlib): every such stream is refused by its header.
    for old in range(4):
        with pytest.raises(LogFormatError, match="version"):
            decompress_chunks(b"QRCZ" + bytes([old]) + bytes(16))


def test_unbounded_varint_rejected():
    # an old-layout stream whose first varint never ends: refused at the
    # header, before anything reads the body
    with pytest.raises(LogFormatError):
        decompress_chunks(b"QRCZ\x00" + b"\x80" * 64 + b"\x01")


# -- the compact layout (``v2`` is the compact slot of the F3 sizes) ---------

def test_v2_round_trip_equals_sorted_original():
    # a log already in (timestamp, rthread) order comes back unchanged
    entries = sorted(make_log(), key=lambda e: e.sort_key)
    assert decompress_chunks(compress_chunks(entries)) == entries


def test_v2_not_larger_than_v1():
    entries = make_log(threads=4, per_thread=200)
    assert len(compress_chunks(entries)) <= len(encode_chunks(entries))


def test_v2_empty_log():
    blob = compress_chunks([])
    assert len(blob) == columnar.FIXED_HEADER + 2 + len(zlib.compress(b""))
    assert decompress_chunks(blob) == []


@pytest.mark.parametrize("with_load_hash", [True, False])
def test_v2_every_truncation_offset_raises_logformat(with_load_hash):
    blob = compress_chunks(make_log(threads=3, per_thread=4,
                                    with_load_hash=with_load_hash))
    _fields, offset = columnar.read_fields(blob, 2, "test")
    for cut in range(offset, len(blob)):
        with pytest.raises(LogFormatError, match="truncated|corrupt"):
            decompress_chunks(blob[:cut])
