"""Serialization round-trips for arbitrary well-formed logs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capo.events import InputEvent, KINDS, NONDET_KINDS
from repro.capo.input_log import decode_events, encode_events, encode_events_v1
from repro.mrr.chunk import ChunkEntry, Reason
from repro.mrr.compression import compress_chunks, decompress_chunks
from repro.mrr.logfmt import decode_chunks, encode_chunks

u16 = st.integers(min_value=0, max_value=0xFFFF)
u32 = st.integers(min_value=0, max_value=0xFFFFFFFF)
u8 = st.integers(min_value=0, max_value=0xFF)

chunk_strategy = st.builds(
    ChunkEntry,
    rthread=u8,
    timestamp=u32,
    icount=u32,
    memops=u32,
    rsw=u16,
    reason=st.sampled_from(Reason.ALL),
)

copies_strategy = st.lists(
    st.tuples(u32, st.binary(max_size=64)), max_size=3).map(tuple)

event_strategy = st.builds(
    InputEvent,
    rthread=u8,
    seq=u32,
    chunk_seq=u32,
    kind=st.sampled_from(KINDS),
    sysno=st.integers(min_value=0, max_value=64),
    value=u32,
    nondet_kind=st.sampled_from(NONDET_KINDS),
    copies=copies_strategy,
)


@given(entries=st.lists(chunk_strategy, max_size=60))
@settings(max_examples=80, deadline=None)
def test_packed_chunk_round_trip(entries):
    assert decode_chunks(encode_chunks(entries)) == entries


@given(entries=st.lists(chunk_strategy, max_size=60),
       hashes=st.lists(st.integers(min_value=0, max_value=2**64 - 1),
                       max_size=60))
@settings(max_examples=40, deadline=None)
def test_packed_chunk_round_trip_with_hashes(entries, hashes):
    import dataclasses

    entries = [dataclasses.replace(entry, load_hash=hashes[i % max(1, len(hashes))]
                                   if hashes else 0)
               for i, entry in enumerate(entries)]
    decoded = decode_chunks(encode_chunks(entries, with_load_hash=True))
    assert decoded == entries


@given(entries=st.lists(chunk_strategy, max_size=80))
@settings(max_examples=60, deadline=None)
def test_compressed_chunk_round_trip(entries):
    # stream order comes back exactly, whatever the timestamps do
    assert decompress_chunks(compress_chunks(entries)) == entries


@given(events=st.lists(event_strategy, max_size=40))
@settings(max_examples=80, deadline=None)
def test_input_log_round_trip(events):
    assert decode_events(encode_events(events)) == events


# -- the compact (columnar) codecs, ``v2`` in the F3 size keys -------------

from repro.errors import LogFormatError  # noqa: E402
shared_payloads = st.sampled_from(
    [b"", b"\x00", b"page" * 64, bytes(range(48))])

dup_copies_strategy = st.lists(
    st.tuples(u32, st.one_of(shared_payloads, st.binary(max_size=64))),
    max_size=3).map(tuple)

event_strategy_v2 = st.builds(
    InputEvent,
    rthread=u8,
    seq=st.integers(min_value=0, max_value=2**40),
    chunk_seq=st.integers(min_value=0, max_value=2**40),
    kind=st.sampled_from(KINDS),
    sysno=st.integers(min_value=0, max_value=64),
    value=st.integers(min_value=0, max_value=2**64 - 1),
    nondet_kind=st.sampled_from(NONDET_KINDS),
    copies=dup_copies_strategy,
)


@given(events=st.lists(event_strategy_v2, max_size=40))
@settings(max_examples=80, deadline=None)
def test_input_log_v2_round_trip(events):
    assert decode_events(encode_events(events)) == events


@given(events=st.lists(event_strategy_v2, max_size=30))
@settings(max_examples=60, deadline=None)
def test_input_log_cross_version_agreement(events):
    # both formats decode to the same event list from the same source
    assert decode_events(encode_events_v1(events)) == \
        decode_events(encode_events(events))


@given(entries=st.lists(chunk_strategy, max_size=60))
@settings(max_examples=60, deadline=None)
def test_packed_chunk_v2_round_trip(entries):
    assert decompress_chunks(compress_chunks(entries)) == entries


@given(entries=st.lists(chunk_strategy, max_size=40))
@settings(max_examples=40, deadline=None)
def test_packed_chunk_cross_version_agreement(entries):
    assert decode_chunks(encode_chunks(entries)) == \
        decompress_chunks(compress_chunks(entries))


@given(entries=st.lists(chunk_strategy, max_size=60), data=st.data())
@settings(max_examples=40, deadline=None)
def test_compressed_chunk_v2_round_trip(entries, data):
    # load hashes: present on every entry or on none
    if data.draw(st.booleans()):
        for entry in entries:
            entry.load_hash = data.draw(st.integers(0, 2**64 - 1))
    assert decompress_chunks(compress_chunks(entries)) == entries


@given(events=st.lists(event_strategy_v2, max_size=12), data=st.data())
@settings(max_examples=80, deadline=None)
def test_input_log_v2_truncation_always_rejected(events, data):
    blob = encode_events(events)
    cut = data.draw(st.integers(0, len(blob) - 1))
    try:
        decode_events(blob[:cut])
    except LogFormatError:
        return
    raise AssertionError("truncated input log decoded successfully")


@given(events=st.lists(event_strategy_v2, max_size=12), data=st.data())
@settings(max_examples=120, deadline=None)
def test_input_log_v2_corruption_never_escapes_logformat(events, data):
    # a flipped byte either still decodes (landed in a value) or raises
    # LogFormatError — never zlib.error / IndexError / ValueError
    blob = bytearray(encode_events(events))
    position = data.draw(st.integers(0, len(blob) - 1))
    replacement = data.draw(
        st.integers(0, 255).filter(lambda b: b != blob[position]))
    blob[position] = replacement
    try:
        decode_events(bytes(blob))
    except LogFormatError:
        pass


@given(entries=st.lists(chunk_strategy, max_size=12), data=st.data())
@settings(max_examples=120, deadline=None)
def test_packed_chunk_v2_corruption_never_escapes_logformat(entries, data):
    blob = bytearray(compress_chunks(entries))
    position = data.draw(st.integers(0, len(blob) - 1))
    replacement = data.draw(
        st.integers(0, 255).filter(lambda b: b != blob[position]))
    blob[position] = replacement
    try:
        decompress_chunks(bytes(blob))
    except LogFormatError:
        pass
