"""Bloom-filter address signatures.

A signature summarizes the set of cache-line addresses a chunk has read (or
written). Membership tests can return false positives — which only cause
extra chunk terminations, never missed conflicts — and never false
negatives, which is the property replay soundness rests on.
"""

from __future__ import annotations

from .hashing import H3Hasher, shared_hasher


class BloomSignature:
    """A ``bits``-wide Bloom filter with ``hashes`` H3 hash functions."""

    def __init__(self, bits: int, hashes: int, hasher: H3Hasher | None = None):
        if bits & (bits - 1) or bits <= 0:
            raise ValueError("signature bits must be a power of two")
        self.bits = bits
        self.hashes = hashes
        self._hasher = hasher or shared_hasher(bits, hashes)
        self._word = 0
        self.bits_set = 0
        self.inserts = 0

    def insert(self, key: int) -> None:
        mask = self._hasher.mask(key)
        word = self._word
        merged = word | mask
        if merged != word:
            self.bits_set += (merged ^ word).bit_count()
            self._word = merged
        self.inserts += 1

    def test(self, key: int) -> bool:
        word = self._word
        if not word:
            return False
        mask = self._hasher.mask(key)
        return word & mask == mask

    def clear(self) -> None:
        self._word = 0
        self.bits_set = 0
        self.inserts = 0

    @property
    def empty(self) -> bool:
        return self._word == 0

    @property
    def saturation(self) -> float:
        """Fraction of filter bits set (the false-positive-rate driver)."""
        return self.bits_set / self.bits

    def false_positive_rate(self) -> float:
        """Estimated probability a random absent key tests positive."""
        return self.saturation ** self.hashes

    def __contains__(self, key: int) -> bool:
        return self.test(key)
