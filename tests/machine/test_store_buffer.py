import pytest

from repro.machine.store_buffer import (
    PendingStore,
    RESOLVE_CONFLICT,
    RESOLVE_HIT,
    RESOLVE_MISS,
    StoreBuffer,
)


def test_fifo_drain_order():
    sb = StoreBuffer(4)
    sb.push(0, 4, 1)
    sb.push(4, 4, 2)
    assert sb.pop_oldest().value == 1
    assert sb.pop_oldest().value == 2


def test_full_at_capacity():
    """``full`` flips at capacity; making room is the record port's job
    (see test_machine::test_store_buffer_full_forces_oldest_drain)."""
    sb = StoreBuffer(2)
    sb.push(0, 4, 1)
    assert not sb.full
    sb.push(4, 4, 2)
    assert sb.full
    sb.pop_oldest()
    assert not sb.full


def test_pop_empty_raises():
    with pytest.raises(IndexError):
        StoreBuffer(1).pop_oldest()


def test_forwarding_hits_youngest_cover():
    sb = StoreBuffer(4)
    sb.push(0, 4, 0xAAAAAAAA)
    sb.push(0, 4, 0xBBBBBBBB)
    status, value = sb.resolve(0, 4)
    assert status == RESOLVE_HIT
    assert value == 0xBBBBBBBB


def test_forwarding_byte_from_word():
    sb = StoreBuffer(4)
    sb.push(0, 4, 0x11223344)
    status, value = sb.resolve(1, 1)
    assert status == RESOLVE_HIT
    assert value == 0x33


def test_word_load_over_byte_store_conflicts():
    sb = StoreBuffer(4)
    sb.push(1, 1, 0xFF)
    status, value = sb.resolve(0, 4)
    assert status == RESOLVE_CONFLICT
    assert value is None


def test_no_overlap_misses():
    sb = StoreBuffer(4)
    sb.push(0, 4, 1)
    status, _value = sb.resolve(8, 4)
    assert status == RESOLVE_MISS


def test_younger_cover_wins_over_older_partial():
    sb = StoreBuffer(4)
    sb.push(1, 1, 0x55)         # older, partial for a word load at 0
    sb.push(0, 4, 0x11223344)   # younger, covers
    status, value = sb.resolve(0, 4)
    assert status == RESOLVE_HIT
    assert value == 0x11223344


def test_values_masked_to_32_bits():
    sb = StoreBuffer(2)
    sb.push(0, 4, 1 << 40)
    assert sb.pop_oldest().value == 0


def test_entries_snapshot_order():
    sb = StoreBuffer(4)
    sb.push(0, 4, 1)
    sb.push(4, 4, 2)
    addrs = [entry.addr for entry in sb.entries()]
    assert addrs == [0, 4]


def test_clear():
    sb = StoreBuffer(4)
    sb.push(0, 4, 1)
    sb.clear()
    assert sb.empty and len(sb) == 0


def test_pending_store_cover_and_overlap():
    entry = PendingStore(4, 4, 0xDDCCBBAA)
    assert entry.covers(4, 4)
    assert entry.covers(6, 1)
    assert not entry.covers(2, 4)
    assert entry.overlaps(6, 4)
    assert not entry.overlaps(8, 4)
    assert entry.extract(5, 1) == 0xBB


def test_capacity_validation():
    with pytest.raises(ValueError):
        StoreBuffer(0)
