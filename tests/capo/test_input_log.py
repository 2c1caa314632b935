from array import array

import pytest

from repro.capo.events import (
    EV_EXIT,
    EV_NONDET,
    EV_SIGNAL,
    EV_SIGRETURN,
    EV_SYSCALL,
    InputEvent,
)
from repro.capo.input_log import decode_events, encode_events, encode_events_v1
from repro.errors import LogFormatError
from repro.mrr import columnar


def sample_events():
    return [
        InputEvent(1, 1, 0, EV_SYSCALL, sysno=3, value=128,
                   copies=((0x2000, b"hello world!"),)),
        InputEvent(2, 2, 1, EV_NONDET, nondet_kind="rdtsc", value=0xABCDEF),
        InputEvent(2, 3, 1, EV_SIGNAL, value=10),
        InputEvent(2, 4, 2, EV_SIGRETURN),
        InputEvent(1, 5, 3, EV_EXIT, value=0),
    ]


def test_round_trip():
    events = sample_events()
    assert decode_events(encode_events(events)) == events


def test_empty_log():
    assert decode_events(encode_events([])) == []


def test_multiple_copies_round_trip():
    event = InputEvent(1, 1, 0, EV_SYSCALL, sysno=3, value=8,
                       copies=((0, b"ab"), (100, b""), (200, b"c" * 300)))
    assert decode_events(encode_events([event])) == [event]


def test_large_values_round_trip():
    event = InputEvent(255, 2**40, 2**20, EV_SYSCALL, sysno=9,
                       value=0xFFFFFFFF)
    assert decode_events(encode_events([event])) == [event]


def test_bad_magic_rejected():
    blob = bytearray(encode_events(sample_events()))
    blob[0] = ord("Z")
    with pytest.raises(LogFormatError):
        decode_events(bytes(blob))


def test_truncated_rejected():
    blob = encode_events(sample_events())
    with pytest.raises(LogFormatError):
        decode_events(blob[:-3])


def test_trailing_garbage_rejected():
    blob = encode_events(sample_events())
    with pytest.raises(LogFormatError):
        decode_events(blob + b"\x00")


def test_header_too_short_rejected():
    with pytest.raises(LogFormatError):
        decode_events(b"QRIL")


def test_v1_bytes_are_frozen():
    # the differential fingerprints hash these exact bytes
    assert encode_events_v1(sample_events()).hex() == (
        "5152494c010000000500000001010000038001000180400c68656c6c6f20776f"
        "726c64210202010100ef9baf05010002030102000a0000020402030000000001"
        "05030400000000")


def test_v1_stream_still_decodes():
    events = sample_events()
    assert decode_events(encode_events_v1(events)) == events


# -- the compact (columnar) format, ``v2`` in the F3 size keys ---------------

def test_v2_round_trip():
    events = sample_events()
    assert decode_events(encode_events(events)) == events


def test_v2_empty_log():
    blob = encode_events([])
    assert blob[4] == 3
    assert decode_events(blob) == []


def test_v2_header_differs_from_v1_and_negotiates():
    events = sample_events()
    v1 = encode_events_v1(events)
    v3 = encode_events(events)
    assert v1 != v3
    assert v1[4] == 1 and v3[4] == 3
    assert decode_events(v1) == decode_events(v3) == events


def test_v2_duplicate_payloads_pooled():
    payload = b"the same page of data" * 40
    events = [
        InputEvent(1, seq, seq, EV_SYSCALL, sysno=3, value=len(payload),
                   copies=((0x1000 * seq, payload),))
        for seq in range(1, 17)
    ]
    v1 = encode_events_v1(events)
    v3 = encode_events(events)
    # 16 copies of the payload collapse to one pool entry
    assert columnar.read_fields(v3, 4, "test")[0][2] == 1
    assert len(v3) < len(v1) / 4
    assert decode_events(v3) == events


def test_v2_unknown_version_rejected():
    # the retired v2 layout, and any version never written
    for version in (2, 9):
        blob = bytearray(encode_events(sample_events()))
        blob[4] = version
        with pytest.raises(LogFormatError,
                           match=f"unsupported input log version {version}"):
            decode_events(bytes(blob))


def test_v2_truncation_rejected_at_every_offset():
    blob = encode_events(sample_events())
    for cut in range(len(blob)):
        with pytest.raises(LogFormatError):
            decode_events(blob[:cut])


def test_v2_trailing_garbage_rejected():
    blob = encode_events(sample_events())
    with pytest.raises(LogFormatError):
        decode_events(blob + b"\x00")


def test_unbounded_varint_rejected():
    # regression: a 0x80 run used to spin the decoder past any length
    # bound instead of failing fast at MAX_VARINT_BYTES
    blob = encode_events_v1([])[:5] + b"\x80" * 64 + b"\x01"
    with pytest.raises(LogFormatError):
        decode_events(blob)


# -- hostile v3 streams: every malformed one is a LogFormatError -------------

EVENT_COLUMNS = ("rthread", "I"), ("seq", "q"), ("chunk_seq", "q"), \
    ("kind", "B"), ("sysno", "Q"), ("value", "Q"), ("nondet", "B"), \
    ("ncopies", "I")
EVENT_BYTES = 42


def forge(count=1, ncopy=0, npool=0, declared=None, flags=0, tail=b"",
          copies=((), ()), lengths=(), **fields):
    """A v3 stream of ``count`` events whose columns hold ``fields``
    (0 elsewhere), with ``copies`` as (addresses, indices) columns and
    ``lengths`` then ``tail`` as the pool."""
    columns = [array(code, [fields.get(name, 0)] * count)
               for name, code in EVENT_COLUMNS]
    columns += [array("Q", copies[0]), array("I", copies[1]),
                array("I", lengths)]
    body, size = columnar.deflate(columns, tail)
    return columnar.header(b"QRIL", 3, flags, count, ncopy, npool,
                           size if declared is None else declared) + body


def test_forged_body_baseline_decodes():
    assert decode_events(forge()) == [InputEvent(0, 0, 0, EV_SYSCALL)]


@pytest.mark.parametrize("field,value,message", [
    ("kind", 5, "event kind code 5"),
    ("nondet", 4, "nondet kind code 4"),
    ("seq", -1, "negative sequence"),
    ("chunk_seq", -1, "negative sequence"),
    ("ncopies", 1, "copies, header declares 0"),
])
def test_bad_column_values_rejected(field, value, message):
    with pytest.raises(LogFormatError, match=message):
        decode_events(forge(**{field: value}))


def test_pool_index_out_of_range_rejected():
    with pytest.raises(LogFormatError, match="outside pool"):
        decode_events(forge(ncopies=1, ncopy=1, npool=1, copies=([0], [1]),
                            lengths=[2], tail=b"ab"))
    assert decode_events(forge(ncopies=1, ncopy=1, npool=1,
                               copies=([0], [0]), lengths=[2],
                               tail=b"ab"))[0].copies == ((0, b"ab"),)


def test_pool_length_mismatch_rejected():
    with pytest.raises(LogFormatError, match="pool length"):
        decode_events(forge(npool=1, lengths=[5], tail=b"ab"))


@pytest.mark.parametrize("count,ncopy,npool", [
    (2, 0, 0), (0, 0, 0), (1, 1, 0), (1, 0, 1), (2**32 - 1, 0, 0),
    (2**32, 0, 0), (2**60, 0, 0)])
def test_forged_counts_rejected(count, ncopy, npool):
    (_c, _n, _p, size), offset = columnar.read_fields(forge(), 4, "test")
    blob = columnar.header(b"QRIL", 3, 0, count, ncopy, npool, size) \
        + forge()[offset:]
    with pytest.raises(LogFormatError):
        decode_events(blob)


@pytest.mark.parametrize("declared", [0, EVENT_BYTES - 1, EVENT_BYTES + 1,
                                      2**32 - 1, 2**32])
def test_forged_declared_length_rejected(declared):
    with pytest.raises(LogFormatError):
        decode_events(forge(declared=declared))


def test_unknown_flags_rejected():
    with pytest.raises(LogFormatError, match="flags"):
        decode_events(forge(flags=1))


def test_flipped_bits_never_escape_logformat():
    blob = encode_events(sample_events())
    for position in range(len(blob)):
        for bit in (0x01, 0x80):
            flipped = bytearray(blob)
            flipped[position] ^= bit
            try:
                decode_events(bytes(flipped))
            except LogFormatError:
                pass


def test_body_inflating_past_declared_size_stops_at_the_bound():
    import tracemalloc

    # one event declares 42 bytes; the body inflates to 16 MiB
    blob = forge(tail=bytes(16 << 20), declared=EVENT_BYTES)
    tracemalloc.start()
    try:
        with pytest.raises(LogFormatError, match="past its declared"):
            decode_events(blob)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
