"""The page-delta checkpoint section over arbitrary payload sequences.

Payloads are modelled like replay states: a variable-length header in
front of a memory image. Headers drift across page boundaries, images
have lengths that are not a multiple of the page, payloads may be short
or empty, and each record edits a few random bytes of the image.
"""

import hashlib
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mrr.logfmt import (
    CHECKPOINT_PAGE as PAGE,
    CheckpointRecord,
    decode_checkpoints,
    encode_checkpoints,
)

SECTION = struct.Struct("<4sBBHI")
ENTRY = struct.Struct("<IIII32s")
#: Bound on a record's own bytes besides its stored pages: the entry
#: header.
RECORD_OVERHEAD = ENTRY.size
#: Bound on what one stored page adds besides its bytes: its index (4),
#: its zlib stream's header, dictionary id and checksum (10) and
#: deflate's worst-case expansion of 4 KiB, one stored-block header (5).
PAGE_OVERHEAD = 19

header_lengths = st.one_of(
    st.integers(0, 64),
    st.integers(PAGE - 24, PAGE + 24),
    st.integers(2 * PAGE - 8, 2 * PAGE + 8),
)
memory_lengths = st.one_of(
    st.just(0),
    st.integers(1, 64),
    st.integers(PAGE - 3, PAGE + 3),
    st.integers(0, 5 * PAGE),
)
edits = st.lists(st.tuples(st.integers(0, 1 << 32),
                           st.binary(min_size=1, max_size=16)), max_size=4)


@st.composite
def payload_sequences(draw) -> list[bytes]:
    memory = bytearray(draw(memory_lengths))
    payloads = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.integers(0, 7)) == 0:
            size = draw(memory_lengths)
            memory = memory[:size] + bytes(max(0, size - len(memory)))
        for where, data in draw(edits):
            if memory:
                start = where % len(memory)
                data = data[:len(memory) - start]
                memory[start:start + len(data)] = data
        fill = draw(st.binary(min_size=1, max_size=8))
        length = draw(header_lengths)
        header = (fill * (length // len(fill) + 1))[:length]
        payloads.append(header + bytes(memory))
    return payloads


def pages_from_end(payload: bytes) -> list[bytes]:
    return [payload[max(0, end - PAGE):end]
            for end in range(len(payload), 0, -PAGE)]


def changed_pages(previous: bytes | None, payload: bytes) -> list[int]:
    """The pages a record must store: those differing from the previous
    payload's page at the same distance from the end, or from zeros where
    there is none."""
    before = pages_from_end(previous) if previous is not None else []
    return [index for index, page in enumerate(pages_from_end(payload))
            if page != (before[index] if index < len(before)
                        else bytes(len(page)))]


def paged_sha256(payload: bytes) -> str:
    return hashlib.sha256(b"".join(
        hashlib.sha256(page).digest() for page in pages_from_end(payload)
    )).hexdigest()


def stored_indices(blob: bytes) -> list[list[int]]:
    (_magic, _version, _flags, _reserved, count) = SECTION.unpack_from(blob)
    offset = SECTION.size
    out = []
    for _ in range(count):
        _pos, _raw, changed, body_len, _digest = ENTRY.unpack_from(blob,
                                                                   offset)
        offset += ENTRY.size
        out.append(list(struct.unpack_from(f"<{changed}I", blob, offset)))
        offset += 4 * changed + body_len
    assert offset == len(blob)
    return out


@given(payloads=payload_sequences())
@settings(max_examples=120, deadline=None)
def test_page_delta_round_trip(payloads):
    records = [CheckpointRecord.for_payload(10 * i + 1, payload)
               for i, payload in enumerate(payloads)]
    blob = encode_checkpoints(records)

    decoded = decode_checkpoints(blob)
    assert decoded == records
    assert [r.digest for r in decoded] == [paged_sha256(p) for p in payloads]
    assert encode_checkpoints(decoded) == blob

    # exactly the changed pages are stored, and they bound the size
    expected = [changed_pages(payloads[i - 1] if i else None, payload)
                for i, payload in enumerate(payloads)]
    assert stored_indices(blob) == expected
    bound = SECTION.size
    for payload, changed in zip(payloads, expected):
        pages = pages_from_end(payload)
        bound += RECORD_OVERHEAD + sum(len(pages[index]) + PAGE_OVERHEAD
                                       for index in changed)
    assert len(blob) <= bound


@given(payloads=payload_sequences())
@settings(max_examples=120, deadline=None)
def test_paged_digests_equal_exactly_when_payloads_are(payloads):
    records = [CheckpointRecord.for_payload(1, payload)
               for payload in payloads]
    for a, first in zip(payloads, records):
        for b, second in zip(payloads, records):
            assert (first.digest == second.digest) == (a == b)
    # a record built against its predecessor digests the same as one
    # built alone, and shares exactly the pages the predecessor has
    chained = []
    for payload in payloads:
        chained.append(CheckpointRecord.for_payload(
            1, payload, previous=chained[-1] if chained else None))
    assert [r.digest for r in chained] == [r.digest for r in records]
    for before, after in zip(chained, chained[1:]):
        for index, page in enumerate(after.pages):
            if index < len(before.pages) and page == before.pages[index]:
                assert page is before.pages[index]
