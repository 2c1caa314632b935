import pytest

from repro.errors import LogFormatError
from repro.mrr.chunk import ChunkEntry, Reason
from repro.mrr.compression import compress_chunks, decompress_chunks
from repro.mrr.logfmt import (
    ENTRY_BYTES,
    decode_chunks,
    encode_chunks,
    encoded_size,
)


def sample_entries():
    return [
        ChunkEntry(1, 10, 500, 0, 0, Reason.RAW),
        ChunkEntry(2, 11, 3, 4, 2, Reason.WAW),
        ChunkEntry(1, 12, 0, 0, 0, Reason.SYSCALL),
        ChunkEntry(3, 99, 70_000, 0, 1, Reason.SIZE),
    ]


def test_round_trip():
    entries = sample_entries()
    assert decode_chunks(encode_chunks(entries)) == entries


def test_round_trip_with_load_hash():
    entries = [ChunkEntry(1, 10, 5, 0, 0, Reason.RAW, load_hash=0xDEADBEEF)]
    decoded = decode_chunks(encode_chunks(entries, with_load_hash=True))
    assert decoded[0].load_hash == 0xDEADBEEF


def test_entry_is_16_bytes():
    assert ENTRY_BYTES == 16
    blob = encode_chunks(sample_entries())
    assert len(blob) == 12 + 4 * 16


def test_packed_stream_bytes_are_frozen():
    # chunks.bin and the determinism digests hash these exact bytes
    assert encode_chunks(sample_entries()).hex() == (
        "5152434c0100000004000000010000000a000000f4010000000000000202"
        "02000b0000000300000004000000010500000c0000000000000000000000"
        "03030100630000007011010000000000")


def test_encoded_size_matches():
    entries = sample_entries()
    assert encoded_size(entries) == len(encode_chunks(entries))


def test_empty_stream():
    assert decode_chunks(encode_chunks([])) == []


def test_bad_magic_rejected():
    blob = bytearray(encode_chunks(sample_entries()))
    blob[0] = ord("X")
    with pytest.raises(LogFormatError):
        decode_chunks(bytes(blob))


def test_truncated_stream_rejected():
    blob = encode_chunks(sample_entries())
    with pytest.raises(LogFormatError):
        decode_chunks(blob[:-1])


def test_truncated_header_rejected():
    with pytest.raises(LogFormatError):
        decode_chunks(b"QR")


def test_rthread_width_enforced():
    with pytest.raises(LogFormatError):
        encode_chunks([ChunkEntry(300, 1, 1, 0, 0, Reason.RAW)])


def test_rsw_width_enforced():
    with pytest.raises(LogFormatError):
        encode_chunks([ChunkEntry(1, 1, 1, 0, 70_000, Reason.RAW)])


def test_unknown_reason_code_rejected():
    blob = bytearray(encode_chunks([ChunkEntry(1, 1, 1, 0, 0, Reason.RAW)]))
    blob[12 + 1] = 250  # reason byte of the first entry
    with pytest.raises(LogFormatError):
        decode_chunks(bytes(blob))


# -- the compact form of the chunk log (``v2`` is its F3 slot) -------------

def test_v2_round_trip_preserves_entry_order():
    entries = sample_entries()
    assert decompress_chunks(compress_chunks(entries)) == entries


def test_v2_round_trip_with_load_hash():
    entries = [ChunkEntry(1, 10, 5, 0, 0, Reason.RAW, load_hash=0xDEADBEEF),
               ChunkEntry(2, 11, 7, 3, 1, Reason.WAW, load_hash=0x1234)]
    decoded = decompress_chunks(compress_chunks(entries))
    assert decoded == entries
    assert decoded[0].load_hash == 0xDEADBEEF


def test_v2_empty_stream():
    assert decompress_chunks(compress_chunks([])) == []


def test_v2_smaller_than_v1_on_regular_logs():
    ts = 0
    entries = []
    for index in range(600):
        ts += 2 + index % 3
        entries.append(ChunkEntry(1 + index % 4, ts, 4000 + index % 9,
                                  1000 + index % 5, index % 2,
                                  Reason.ALL[index % len(Reason.ALL)]))
    v1 = len(encode_chunks(entries))
    v2 = len(compress_chunks(entries))
    assert v2 < v1 / 2


def test_v2_truncation_rejected_at_every_offset():
    blob = compress_chunks(sample_entries())
    for cut in range(len(blob)):
        with pytest.raises(LogFormatError):
            decompress_chunks(blob[:cut])


def test_v2_trailing_garbage_rejected():
    with pytest.raises(LogFormatError):
        decompress_chunks(compress_chunks(sample_entries()) + b"\x00")


def test_unknown_version_rejected():
    # the retired columnar chunk stream was version 2 of this magic
    blob = bytearray(encode_chunks(sample_entries()))
    blob[4] = 2
    with pytest.raises(LogFormatError,
                       match="unsupported chunk stream version 2"):
        decode_chunks(bytes(blob))
