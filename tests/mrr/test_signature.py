import pytest

from repro.mrr.hashing import H3Hasher, shared_hasher
from repro.mrr.signature import BloomSignature


def test_insert_then_test_never_false_negative():
    sig = BloomSignature(256, 2)
    lines = list(range(0, 64 * 40, 64))
    for line in lines:
        sig.insert(line)
    for line in lines:
        assert sig.test(line)


def test_empty_signature_tests_negative():
    sig = BloomSignature(256, 2)
    assert not sig.test(0)
    assert sig.empty


def test_clear_resets_everything():
    sig = BloomSignature(256, 2)
    sig.insert(64)
    sig.clear()
    assert sig.empty
    assert sig.bits_set == 0
    assert sig.inserts == 0
    assert not sig.test(64)


def test_bits_set_tracks_popcount():
    sig = BloomSignature(256, 2)
    sig.insert(64)
    assert 1 <= sig.bits_set <= 2
    before = sig.bits_set
    sig.insert(64)  # same key adds no bits
    assert sig.bits_set == before


def test_saturation_fraction():
    sig = BloomSignature(64, 1)
    assert sig.saturation == 0.0
    for line in range(0, 64 * 200, 64):
        sig.insert(line)
    assert 0.5 < sig.saturation <= 1.0


def test_false_positive_rate_estimate_monotone():
    sig = BloomSignature(128, 2)
    previous = sig.false_positive_rate()
    for line in range(0, 64 * 50, 64):
        sig.insert(line)
        rate = sig.false_positive_rate()
        assert rate >= previous
        previous = rate


def test_contains_operator():
    sig = BloomSignature(256, 2)
    sig.insert(128)
    assert 128 in sig


def test_false_positives_possible_but_bounded_when_sparse():
    sig = BloomSignature(1024, 2)
    sig.insert(64)
    false_hits = sum(1 for line in range(64 * 100, 64 * 600, 64)
                     if sig.test(line))
    assert false_hits < 10  # nearly-empty filter barely aliases


def test_validation():
    with pytest.raises(ValueError):
        BloomSignature(100, 2)


def test_hasher_mask_matches_indices():
    hasher = H3Hasher(256, 2)
    for key in range(0, 64 * 30, 64):
        expected = 0
        for index in hasher.indices(key):
            expected |= 1 << index
        assert hasher.mask(key) == expected
        assert hasher.mask(key) == expected  # memoized path agrees


def test_mask_fast_path_equals_index_reference():
    """One-OR insert / one-AND test decide identically to per-index
    bit twiddling."""
    sig = BloomSignature(512, 2)
    hasher = sig._hasher
    reference_word = 0
    keys = list(range(0, 64 * 25, 64))
    for key in keys:
        sig.insert(key)
        for index in hasher.indices(key):
            reference_word |= 1 << index
    assert sig._word == reference_word
    for probe in range(0, 64 * 200, 64):
        expected = all(reference_word >> i & 1
                       for i in hasher.indices(probe))
        assert sig.test(probe) == expected


def test_shared_hasher_is_memoized_per_geometry():
    assert shared_hasher(256, 2) is shared_hasher(256, 2)
    assert shared_hasher(256, 2) is not shared_hasher(128, 2)
    # Signatures with equal geometry share one hasher (and its caches).
    assert BloomSignature(256, 2)._hasher is BloomSignature(256, 2)._hasher
