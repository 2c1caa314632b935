"""The shared capped-varint codec both log formats build on."""

import pytest

from repro.errors import LogFormatError
from repro.mrr.varint import (
    MAX_VARINT_BYTES,
    MAX_VARINT_VALUE,
    read_varint,
    write_varint,
)


@pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**32, 2**64 - 1,
                                   MAX_VARINT_VALUE])
def test_round_trip(value):
    blob = write_varint(value)
    assert len(blob) <= MAX_VARINT_BYTES
    decoded, offset = read_varint(blob, 0)
    assert (decoded, offset) == (value, len(blob))


def test_negative_rejected():
    with pytest.raises(LogFormatError):
        write_varint(-1)


def test_too_large_rejected():
    with pytest.raises(LogFormatError):
        write_varint(MAX_VARINT_VALUE + 1)


def test_truncated_chain_rejected():
    with pytest.raises(LogFormatError):
        read_varint(b"\x80\x80", 0)


def test_unbounded_continuation_rejected():
    # the cap: 10 continuation bytes and still no terminator is an error,
    # not an invitation to walk the rest of the buffer
    with pytest.raises(LogFormatError):
        read_varint(b"\x80" * (MAX_VARINT_BYTES + 1) + b"\x01", 0)


def test_max_length_chain_accepted():
    blob = write_varint(MAX_VARINT_VALUE)
    assert len(blob) == MAX_VARINT_BYTES
    assert read_varint(blob, 0)[0] == MAX_VARINT_VALUE

