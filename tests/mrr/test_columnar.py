import zlib
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LogFormatError
from repro.mrr import columnar


def deltas_by_loop(keys, values):
    """The per-key delta coding, one entry at a time: each key's values in
    stream order, keys in ascending order."""
    last = {}
    coded = {}
    for key, value in zip(keys, values):
        coded.setdefault(key, []).append(value - last.get(key, 0))
        last[key] = value
    return [delta for key in sorted(coded) for delta in coded[key]]


keyed_values = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 2**40)), max_size=60)


@settings(max_examples=150, deadline=None)
@given(pairs=keyed_values)
def test_deltas_by_matches_the_loop_and_sums_by_inverts_it(pairs):
    keys = [key for key, _ in pairs]
    values = [value for _, value in pairs]
    coded = list(columnar.deltas_by(keys, values))
    assert coded == deltas_by_loop(keys, values)
    assert columnar.sums_by(array("I", keys), array("q", coded)) == values


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_deflate_unpack_round_trip(data):
    codes = data.draw(st.lists(st.sampled_from("BIqQ"), max_size=5))
    columns = []
    for code in codes:
        bits = array(code).itemsize * 8
        low, high = ((-(1 << (bits - 1)), (1 << (bits - 1)) - 1)
                     if code.islower() else (0, (1 << bits) - 1))
        columns.append(array(code, data.draw(st.lists(
            st.integers(low, high), max_size=20))))
    tail = data.draw(st.binary(max_size=20))
    body, size = columnar.deflate(columns, tail)
    raw = columnar.inflate(body, size, "test")
    back, rest = columnar.unpack(raw, [(c.typecode, len(c)) for c in columns])
    assert back == columns
    assert rest == tail


def test_planes_are_ordered_by_significance():
    body, size = columnar.deflate([array("H", [0x0102]), array("B", [3])])
    assert zlib.decompress(body) == b"\x02\x03\x01"
    assert size == 3


@pytest.mark.parametrize("raw,declared,message", [
    (b"abcd", 3, "past its declared"),
    (b"abcd", 5, "inflates to 4"),
    (b"", 0, None),
])
def test_inflate_enforces_the_declared_length(raw, declared, message):
    body = zlib.compress(raw)
    if message is None:
        assert columnar.inflate(body, declared, "test") == raw
        return
    with pytest.raises(LogFormatError, match=message):
        columnar.inflate(body, declared, "test")


def test_header_fields_are_bounded():
    blob = columnar.header(b"TEST", 1, 0, 7, columnar.MAX_FIELD + 1)
    with pytest.raises(LogFormatError, match="out of range"):
        columnar.read_fields(blob, 2, "test")
    with pytest.raises(LogFormatError, match="truncated"):
        columnar.read_fields(blob[:7], 2, "test")
