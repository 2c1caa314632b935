"""The QRCK checkpoint section: page-delta encoding, digests, forged
sections."""

import hashlib
import struct
import zlib

import pytest

from repro.errors import LogFormatError
from repro.mrr.logfmt import (
    CHECKPOINT_PAGE,
    CheckpointRecord,
    decode_checkpoints,
    encode_checkpoints,
)

SECTION = struct.Struct("<4sBBHI")
ENTRY = struct.Struct("<IIII32s")
PAGE = CHECKPOINT_PAGE


def record(position, payload):
    return CheckpointRecord.for_payload(position, payload)


def test_for_payload_computes_sha256():
    rec = record(5, b"hello")
    assert rec.digest == hashlib.sha256(b"hello").hexdigest()


def test_empty_section_round_trips():
    assert decode_checkpoints(encode_checkpoints([])) == []


def test_round_trip_preserves_records():
    records = [record(10, b"a" * 100), record(20, b"a" * 90 + b"b" * 10),
               record(30, b"c" * 120)]
    assert decode_checkpoints(encode_checkpoints(records)) == records


def test_encode_sorts_by_position():
    records = [record(30, b"x"), record(10, b"y"), record(20, b"z")]
    decoded = decode_checkpoints(encode_checkpoints(records))
    assert [r.position for r in decoded] == [10, 20, 30]


def chained(size, seed=b"seed"):
    """``size`` sha256-chained bytes: incompressible on their own."""
    blocks = []
    while len(blocks) * 32 < size:
        seed = hashlib.sha256(seed).digest()
        blocks.append(seed)
    return b"".join(blocks)[:size]


def test_delta_encoding_shrinks_similar_payloads():
    # 64 KiB of incompressible bytes, so any saving on the second record
    # must come from the page delta: one changed byte stores one page
    base = chained(16 * PAGE)
    nearly = base[:-1] + b"\x00"
    single = len(encode_checkpoints([record(1, base)]))
    double = len(encode_checkpoints([record(1, base), record(2, nearly)]))
    assert double - single < PAGE + 128


def test_header_growth_shifts_no_page():
    # pages are counted from the payload's end: a header that grows at
    # the front changes only the head page, however long the payload
    memory = chained(8 * PAGE)
    first = record(1, b"h" * 100 + memory)
    second = record(2, b"h" * 120 + memory)
    blob = encode_checkpoints([first, second])
    assert len(blob) - len(encode_checkpoints([first])) < 256
    assert decode_checkpoints(blob) == [first, second]


def test_unchanged_record_stores_no_pages():
    payload = chained(3 * PAGE + 17)
    blob = encode_checkpoints([record(1, payload), record(2, payload)])
    _pos, raw_len, changed, body_len, _digest = ENTRY.unpack_from(
        blob, len(blob) - ENTRY.size)
    assert (raw_len, changed, body_len) == (len(payload), 0, 0)


def test_truncated_header_rejected():
    with pytest.raises(LogFormatError):
        decode_checkpoints(b"QRC")


def test_bad_magic_rejected():
    blob = bytearray(encode_checkpoints([record(1, b"x")]))
    blob[:4] = b"NOPE"
    with pytest.raises(LogFormatError):
        decode_checkpoints(bytes(blob))


def test_truncated_payload_rejected():
    blob = encode_checkpoints([record(1, b"x" * 500)])
    with pytest.raises(LogFormatError):
        decode_checkpoints(blob[:-3])


def test_trailing_bytes_rejected():
    blob = encode_checkpoints([record(1, b"x")])
    with pytest.raises(LogFormatError):
        decode_checkpoints(blob + b"junk")


def test_corrupt_payload_fails_digest_check():
    blob = bytearray(encode_checkpoints([record(1, b"w" * 1000)]))
    # flip a bit inside the stored digest so the payload no longer matches
    digest_offset = SECTION.size + struct.calcsize("<IIII")
    blob[digest_offset] ^= 0xFF
    with pytest.raises(LogFormatError, match="digest mismatch"):
        decode_checkpoints(bytes(blob))


# -- forged sections ----------------------------------------------------------

def forge(records):
    """A section of ``(position, raw_len, indices, body, digest)`` records,
    each field written as given."""
    out = bytearray(SECTION.pack(b"QRCK", 2, 0, 0, len(records)))
    for position, raw_len, indices, body, digest in records:
        out += ENTRY.pack(position, raw_len, len(indices), len(body), digest)
        out += struct.pack(f"<{len(indices)}I", *indices)
        out += body
    return bytes(out)


def honest(payload, indices):
    """Fields of a record of ``payload`` (diffed against zeros) storing
    the given pages."""
    pages = [payload[max(0, end - PAGE):end]
             for end in range(len(payload), 0, -PAGE)]
    body = zlib.compress(b"".join(pages[i] for i in indices))
    return [1, len(payload), list(indices), body,
            hashlib.sha256(payload).digest()]


def test_forge_helper_builds_a_valid_section():
    payload = b"a" * (2 * PAGE + 5)
    assert decode_checkpoints(forge([honest(payload, [0, 1, 2])])) == \
        [record(1, payload)]


@pytest.mark.parametrize("indices, match", [
    ([0, 3], "outside"),
    ([1, 0], "out of order"),
    ([1, 1], "out of order"),
])
def test_bad_page_indices_rejected(indices, match):
    payload = b"a" * (2 * PAGE + 5)  # pages 0, 1 and a 5-byte head 2
    fields = honest(payload, [0, 1])
    fields[2] = indices
    with pytest.raises(LogFormatError, match=match):
        decode_checkpoints(forge([fields]))


def test_more_changed_pages_than_the_record_has_rejected():
    fields = honest(b"a" * PAGE, [0])
    fields[2] = [0, 1]
    with pytest.raises(LogFormatError, match="changes 2 pages of 1"):
        decode_checkpoints(forge([fields]))


@pytest.mark.parametrize("body", [
    zlib.compress(b"a" * (PAGE - 1)),          # too short
    zlib.compress(b"a" * (PAGE + 1)),          # too long
    zlib.compress(b"a" * PAGE) + b"junk",      # trailing bytes
    zlib.compress(b"a" * PAGE)[:-3],           # truncated stream
    b"not zlib at all",
])
def test_body_not_exactly_the_changed_pages_rejected(body):
    fields = honest(b"a" * PAGE, [0])
    fields[3] = body
    with pytest.raises(LogFormatError):
        decode_checkpoints(forge([fields]))


def test_body_on_a_record_without_pages_rejected():
    fields = honest(bytes(PAGE), [])
    fields[3] = zlib.compress(b"")
    with pytest.raises(LogFormatError, match="no pages"):
        decode_checkpoints(forge([fields]))


@pytest.mark.parametrize("raw_len", [PAGE - 1, PAGE + 1, 2 * PAGE])
def test_raw_length_mismatch_rejected(raw_len):
    fields = honest(b"a" * PAGE, [0])
    fields[1] = raw_len
    with pytest.raises(LogFormatError):
        decode_checkpoints(forge([fields]))


def test_reused_head_page_of_wrong_length_rejected():
    # the second record keeps page 1 but, being longer, needs it full:
    # the previous record's 5-byte head cannot stand in for it
    first = b"a" * (PAGE + 5)
    second = b"a" * (3 * PAGE)
    fields = honest(second, [2])
    fields[0] = 2
    with pytest.raises(LogFormatError, match="unchanged page 1"):
        decode_checkpoints(forge([honest(first, [0, 1]), fields]))


def test_version_1_section_rejected():
    blob = bytearray(encode_checkpoints([record(1, b"x" * 100)]))
    blob[4] = 1
    with pytest.raises(LogFormatError, match="version 1"):
        decode_checkpoints(bytes(blob))


def test_truncation_at_every_byte_rejected():
    # cuts inside the section header, every record-header field, the
    # page indices and the body of both records
    blob = encode_checkpoints([record(1, chained(2 * PAGE + 9)),
                               record(2, chained(2 * PAGE + 9)[:-1] + b"!")])
    for cut in range(len(blob)):
        with pytest.raises(LogFormatError):
            decode_checkpoints(blob[:cut])


def test_huge_declared_lengths_rejected_before_use():
    fields = honest(b"a" * PAGE, [0])
    blob = forge([fields])
    count_offset = SECTION.size + 8
    body_offset = SECTION.size + 12
    for offset in (count_offset, body_offset):
        forged = bytearray(blob)
        forged[offset:offset + 4] = struct.pack("<I", 0xFFFFFFFF)
        with pytest.raises(LogFormatError):
            decode_checkpoints(bytes(forged))


def test_declared_payload_over_the_bound_rejected():
    payload = b"a" * (2 * PAGE + 5)
    blob = forge([honest(payload, [0, 1, 2])])
    assert decode_checkpoints(blob, max_payload=len(payload)) == \
        [record(1, payload)]
    with pytest.raises(LogFormatError, match="over the"):
        decode_checkpoints(blob, max_payload=len(payload) - 1)
