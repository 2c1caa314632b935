"""The QRCK checkpoint section: page-delta encoding, paged digests, page
sharing, forged sections of version 3 and 4, and the frozen version 3
writer's sections."""

import hashlib
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import session, workloads
from repro.errors import LogFormatError
from repro.mrr.logfmt import (
    CHECKPOINT_PAGE,
    CheckpointRecord,
    decode_checkpoints,
    encode_checkpoints,
)
from repro.replay.checkpoint import build_checkpoints
from tests.reference import encode_checkpoints_v3

SECTION = struct.Struct("<4sBBHI")
ENTRY = struct.Struct("<IIII32s")
PAGE = CHECKPOINT_PAGE


def record(position, payload):
    return CheckpointRecord.for_payload(position, payload)


def pages_from_end(payload):
    return [payload[max(0, end - PAGE):end]
            for end in range(len(payload), 0, -PAGE)]


def paged_sha256(payload):
    """The v3 record digest: SHA-256 over the pages' SHA-256s."""
    return hashlib.sha256(b"".join(
        hashlib.sha256(page).digest() for page in pages_from_end(payload)
    )).digest()


def test_for_payload_computes_sha256():
    rec = record(5, b"hello")
    assert rec.pages == (b"hello",)
    assert rec.page_digests == (hashlib.sha256(b"hello").digest(),)
    assert rec.digest == hashlib.sha256(
        hashlib.sha256(b"hello").digest()).hexdigest()
    payload = b"h" * 10 + bytes(PAGE) + b"t" * PAGE
    rec = record(6, payload)
    assert rec.pages == (b"t" * PAGE, bytes(PAGE), b"h" * 10)
    assert rec.digest == paged_sha256(payload).hex()
    assert rec.size == len(payload)
    assert b"".join(reversed(rec.pages)) == payload
    assert rec.prefix(12) == payload[:12]


def test_for_payload_joins_no_parts_but_cuts_the_same_pages():
    header = b"h" * (PAGE + 7)
    memory = bytearray(chained(3 * PAGE + 5))
    whole = record(1, header + memory)
    parts = CheckpointRecord.for_payload(1, header, memoryview(memory))
    assert parts == whole
    assert parts.page_digests == whole.page_digests


def test_records_share_unchanged_pages():
    memory = bytearray(chained(8 * PAGE)) + bytearray(8 * PAGE)
    first = CheckpointRecord.for_payload(1, b"head", memory)
    memory[3] ^= 1  # the image's first page is page 15 from the end
    second = CheckpointRecord.for_payload(2, b"header", memory,
                                          previous=first)
    assert second.pages[15] != first.pages[15]
    for index in range(15):
        assert second.pages[index] is first.pages[index]
        assert second.page_digests[index] is first.page_digests[index]
    # all-zero pages share one object, within and across records
    assert first.pages[0] is first.pages[7] is second.pages[0]

    decoded = decode_checkpoints(encode_checkpoints([first, second]))
    assert decoded == [first, second]
    for index in range(15):
        assert decoded[1].pages[index] is decoded[0].pages[index]
    assert decoded[0].pages[0] is decoded[0].pages[7]


@pytest.mark.parametrize("index", [0, 5, 9])
def test_paged_digest_changes_with_any_page(index):
    payload = bytearray(chained(9 * PAGE + 3))
    before = record(1, bytes(payload)).digest
    payload[len(payload) - index * PAGE - 1] ^= 0x80
    assert record(1, bytes(payload)).digest != before


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

def forge(records, version=3):
    """A section of ``(position, raw_len, indices, body, digest)`` records,
    each field written as given."""
    out = bytearray(SECTION.pack(b"QRCK", version, 0, 0, len(records)))
    for position, raw_len, indices, body, digest in records:
        out += ENTRY.pack(position, raw_len, len(indices), len(body), digest)
        out += struct.pack(f"<{len(indices)}I", *indices)
        out += body
    return bytes(out)


def honest(payload, indices):
    """Fields of a record of ``payload`` (diffed against zeros) storing
    the given pages."""
    pages = pages_from_end(payload)
    body = zlib.compress(b"".join(pages[i] for i in indices))
    return [1, len(payload), list(indices), body, paged_sha256(payload)]


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


def test_version_2_section_rejected():
    # version 2 stored the same page bodies under a SHA-256 of the joined
    # payload; its digests cannot verify as version 3's
    payload = b"a" * (2 * PAGE + 5)
    fields = honest(payload, [0, 1, 2])
    fields[4] = hashlib.sha256(payload).digest()
    with pytest.raises(LogFormatError, match="version 2"):
        decode_checkpoints(forge([fields], version=2))


def test_forged_page_of_the_right_length_fails_the_digest():
    payload = b"a" * (2 * PAGE + 5)
    fields = honest(payload, [0, 1, 2])
    forged = b"a" * PAGE + b"b" + b"a" * (PAGE - 1) + b"a" * 5
    fields[3] = zlib.compress(forged)
    with pytest.raises(LogFormatError, match="digest mismatch"):
        decode_checkpoints(forge([fields]))


def test_forged_page_in_a_later_record_fails_its_digest():
    # the later record stores only page 1 and shares pages 0 and 2
    first = chained(3 * PAGE)
    second = first[:PAGE] + b"!" * PAGE + first[2 * PAGE:]

    def later(page):
        return [2, len(second), [1], zlib.compress(page),
                paged_sha256(second)]

    assert decode_checkpoints(forge([honest(first, [0, 1, 2]),
                                     later(b"!" * PAGE)])) == \
        [record(1, first), record(2, second)]
    with pytest.raises(LogFormatError, match="mismatch at position 2"):
        decode_checkpoints(forge([honest(first, [0, 1, 2]),
                                  later(b"?" * PAGE)]))


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


def test_record_count_other_than_expected_rejected():
    blob = encode_checkpoints([record(1, b"x" * 100), record(2, b"y" * 100)])
    assert len(decode_checkpoints(blob, count=2)) == 2
    for count in (0, 1, 3):
        with pytest.raises(LogFormatError, match="declares 2 records"):
            decode_checkpoints(blob, count=count)


@pytest.mark.parametrize("payloads", [(b"x", b"x"), (b"x", b"y")])
def test_writer_refuses_repeated_positions(payloads):
    # the reader refuses a position that does not follow the last, so a
    # section the writer made must never hold one twice
    records = [record(5, payload) for payload in payloads]
    with pytest.raises(LogFormatError, match="two checkpoints at position 5"):
        encode_checkpoints(records)


@pytest.mark.parametrize("position", [-1, 1 << 32])
def test_writer_refuses_positions_outside_u32(position):
    with pytest.raises(LogFormatError, match="outside u32"):
        encode_checkpoints([record(position, b"x")])


@pytest.mark.parametrize("positions", [(5, 5), (5, 4)])
def test_positions_must_strictly_increase(positions):
    fields = [honest(b"a" * PAGE, [0]), honest(b"b" * PAGE, [0])]
    fields[0][0], fields[1][0] = positions
    with pytest.raises(LogFormatError, match="does not follow"):
        decode_checkpoints(forge(fields))


def test_forged_record_count_rebuilds_nothing():
    # 1,000 record headers that store no pages would each rebuild a
    # 4 MiB payload of zeros; against an expected count of one the
    # section must be refused before the first is built.
    import tracemalloc

    size = 4 << 20
    digest = hashlib.sha256(bytes(size)).digest()
    blob = forge([[position, size, [], b"", digest]
                  for position in range(1, 1001)])
    tracemalloc.start()
    try:
        with pytest.raises(LogFormatError, match="declares 1000 records"):
            decode_checkpoints(blob, max_payload=size, count=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# -- version 4: each page deflated against the page it replaces --------------

def deflate(page, zdict=None):
    compressor = zlib.compressobj(6) if zdict is None \
        else zlib.compressobj(6, zdict=zdict)
    return compressor.compress(page) + compressor.flush()


def honest_v4(payload, indices, before=None):
    """Fields of a version 4 record of ``payload`` storing the given
    pages, each deflated against ``before``'s page at its index, or
    zeros where there is none."""
    pages = pages_from_end(payload)
    old = pages_from_end(before) if before is not None else []
    body = b"".join(
        deflate(pages[i], old[i] if i < len(old) else bytes(len(pages[i])))
        for i in indices)
    return [1, len(payload), list(indices), body, paged_sha256(payload)]


def test_writer_makes_version_4():
    payload = chained(2 * PAGE + 5)
    blob = encode_checkpoints([record(1, payload)])
    assert blob[4] == 4
    assert blob == forge([honest_v4(payload, [0, 1, 2])], version=4)


def test_pages_are_deflated_against_the_page_they_replace():
    first = chained(3 * PAGE + 9)
    second = first[:PAGE] + b"!" + first[PAGE + 1:-4] + b"tail"
    fields = honest_v4(second, [0, 2], before=first)
    fields[0] = 2
    blob = encode_checkpoints([record(1, first), record(2, second)])
    assert blob == forge([honest_v4(first, [0, 1, 2, 3]), fields], version=4)
    # two incompressible pages that changed a few bytes cost a few dozen
    # bytes each, where version 3 stored them whole
    assert len(blob) - len(encode_checkpoints([record(1, first)])) < 256
    v3 = encode_checkpoints_v3([record(1, first), record(2, second)])
    assert len(v3) - len(encode_checkpoints_v3([record(1, first)])) > 2 * PAGE


def v4_case(body=None):
    """A two-page version 4 record, its body replaced if given."""
    fields = honest_v4(b"ab" * PAGE, [0, 1])
    if body is not None:
        fields[3] = body
    return forge([fields], version=4)


def test_v4_forge_helper_builds_a_valid_section():
    assert decode_checkpoints(v4_case()) == [record(1, b"ab" * PAGE)]


PAGE_AB = b"ab" * (PAGE // 2)
ZEROS = bytes(PAGE)


@pytest.mark.parametrize("body, match", [
    # deflated without its dictionary: it would inflate alike
    pytest.param(deflate(PAGE_AB) * 2, "not deflated against",
                 id="no-dictionary"),
    pytest.param(deflate(PAGE_AB, ZEROS) + deflate(PAGE_AB),
                 "not deflated against", id="second-without-dictionary"),
    # against the wrong dictionary
    pytest.param(deflate(PAGE_AB, b"z" * PAGE) * 2, "corrupt",
                 id="wrong-dictionary"),
    pytest.param(deflate(PAGE_AB, ZEROS) + deflate(PAGE_AB, ZEROS[:-1]),
                 "corrupt", id="second-against-short-zeros"),
    # a page stream that inflates past its page, or stops short
    pytest.param(deflate(PAGE_AB + b"a", ZEROS) + deflate(PAGE_AB, ZEROS),
                 "do not inflate", id="past-the-page"),
    pytest.param(deflate(PAGE_AB[:-1], ZEROS) + deflate(PAGE_AB, ZEROS),
                 "do not inflate", id="short-of-the-page"),
    pytest.param(deflate(PAGE_AB * 2, ZEROS), "do not inflate",
                 id="both-pages-in-one-stream"),
    # bytes after the last page's stream
    pytest.param(deflate(PAGE_AB, ZEROS) * 2 + b"junk", "do not inflate",
                 id="trailing-junk"),
    pytest.param(deflate(PAGE_AB, ZEROS) * 3, "do not inflate",
                 id="trailing-stream"),
    # a truncated body: inside the second stream, or without it
    pytest.param((deflate(PAGE_AB, ZEROS) * 2)[:-3], "do not inflate",
                 id="truncated-stream"),
    pytest.param(deflate(PAGE_AB, ZEROS), "not deflated against",
                 id="missing-stream"),
    pytest.param(deflate(PAGE_AB, ZEROS) + b"\x78", "not deflated against",
                 id="one-byte-stream"),
])
def test_v4_body_not_exactly_the_pages_against_their_dictionaries(body,
                                                                   match):
    with pytest.raises(LogFormatError, match=match):
        decode_checkpoints(v4_case(body))


def test_v4_page_against_the_previous_page_not_zeros():
    # the second record's page must be deflated against the first
    # record's page at its index; against zeros it cannot inflate
    first, second = b"a" * PAGE, b"a" * (PAGE - 1) + b"b"
    later = [2, PAGE, [0], deflate(second, bytes(PAGE)), paged_sha256(second)]
    with pytest.raises(LogFormatError, match="corrupt"):
        decode_checkpoints(forge([honest_v4(first, [0]), later], version=4))
    later[3] = deflate(second, first)
    assert decode_checkpoints(forge([honest_v4(first, [0]), later],
                                    version=4)) == \
        [record(1, first), record(2, second)]


# -- the frozen version 3 writer -----------------------------------------------

def assert_same_records(decoded, records):
    assert decoded == records
    assert [r.page_digests for r in decoded] == \
        [r.page_digests for r in records]


def test_v3_writer_sections_decode_to_the_same_records():
    memory = bytearray(chained(6 * PAGE))
    records = []
    for step in range(4):
        memory[step * 1000] ^= 0xFF
        records.append(CheckpointRecord.for_payload(
            step + 1, b"h" * (40 * step), memory,
            previous=records[-1] if records else None))
    blob = encode_checkpoints_v3(records)
    assert blob[4] == 3
    assert_same_records(decode_checkpoints(blob), records)
    assert decode_checkpoints(encode_checkpoints(records)) == records


def test_v3_writer_sections_of_a_real_recording_decode_alike():
    program, inputs = workloads.build("radix", scale=1)
    recording = session.record(program, seed=1, input_files=inputs).recording
    records = build_checkpoints(recording,
                                every=max(1, len(recording.chunks) // 8))
    assert len(records) >= 4
    v3 = encode_checkpoints_v3(records)
    v4 = encode_checkpoints(records)
    assert_same_records(decode_checkpoints(v3), records)
    assert_same_records(decode_checkpoints(v4), records)
    assert len(v4) < len(v3)


# -- round trips over page-change sequences --------------------------------------

#: One step from a record's pages to the next record's: rewrite bytes of
#: a page, grow or shrink the head page, add or drop a whole page, or
#: keep every page.
steps = st.one_of(
    st.tuples(st.just("write"), st.integers(0, 1 << 16),
              st.binary(min_size=1, max_size=24)),
    st.tuples(st.just("head"), st.integers(-PAGE, PAGE)),
    st.tuples(st.just("add"), st.binary(max_size=8)),
    st.tuples(st.just("drop")),
    st.tuples(st.just("keep")),
)


def apply_step(payload: bytes, step) -> bytes:
    kind = step[0]
    if kind == "write":
        _, where, data = step
        if not payload:
            return data
        start = where % len(payload)
        return payload[:start] + data[:len(payload) - start] + \
            payload[start + len(data):]
    if kind == "head":
        # the payload's first bytes are its head page: grow or shrink it
        delta = step[1]
        if delta >= 0:
            return bytes([delta % 251]) * delta + payload
        return payload[-delta:]
    if kind == "add":
        fill = step[1] or b"\x00"
        return (fill * PAGE)[:PAGE] + payload
    if kind == "drop":
        return payload[PAGE:]
    return payload


@given(start=st.integers(0, 4 * PAGE + 100),
       sequence=st.lists(steps, min_size=1, max_size=8))
@settings(max_examples=80, deadline=None)
def test_page_change_sequences_round_trip_in_both_versions(start, sequence):
    payload = chained(start)
    payloads = [payload]
    for step in sequence:
        payload = apply_step(payload, step)
        payloads.append(payload)
    records = []
    for position, payload in enumerate(payloads, 1):
        records.append(CheckpointRecord.for_payload(
            position, payload, previous=records[-1] if records else None))

    blob = encode_checkpoints(records)
    assert_same_records(decode_checkpoints(blob), records)
    assert encode_checkpoints(decode_checkpoints(blob)) == blob
    assert_same_records(decode_checkpoints(encode_checkpoints_v3(records)),
                        records)
    # every stored page inflates from the page it replaces
    offset = SECTION.size
    previous = []
    for payload in payloads:
        _pos, _raw, changed, body_len, _digest = ENTRY.unpack_from(blob,
                                                                   offset)
        offset += ENTRY.size
        indices = struct.unpack_from(f"<{changed}I", blob, offset)
        offset += 4 * changed
        body = blob[offset:offset + body_len]
        offset += body_len
        pages = pages_from_end(payload)
        for index in indices:
            before = previous[index] if index < len(previous) \
                else bytes(len(pages[index]))
            decompressor = zlib.decompressobj(zdict=before)
            assert decompressor.decompress(body) == pages[index]
            body = decompressor.unused_data
        assert body == b""
        previous = pages
    assert offset == len(blob)
