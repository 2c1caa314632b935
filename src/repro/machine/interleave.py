"""Deterministic interleaving policies.

The simulator advances one core at a time; the interleaver picks which.
Given the same seed, an interleaver reproduces the same choices, so a whole
recorded run is a pure function of (program, config, seeds) — which is what
lets the test suite demand that *replay from the logs alone* (no seeds)
reproduces the run.

Different policies stress the recorder differently: ``random`` maximizes
fine-grained races, ``bursty`` creates longer chunks with abrupt conflict
storms, ``rr`` is the most cache-friendly. Each hands ``Kernel.run`` its
choices a run at a time and keeps ``choose`` as the single-choice API.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import cycle, islice, repeat
from typing import Iterable, Protocol, Sequence

from ..errors import ConfigError


class Interleaver(Protocol):
    """Chooses which core steps next among those with runnable work.

    ``choice_run(candidates, budget)`` returns the next at most ``budget``
    (at least one) choices among ``candidates``, the ascending ids of the
    cores with runnable work, without taking them; ``consume(used)`` then
    takes the first ``used`` of them, at least one. Taking ``used``
    choices this way leaves the interleaver as ``used`` calls of its
    ``choose(candidates)`` would — also for a single candidate, where
    ``rr`` and ``bursty`` update their state as ``choose`` does.
    """

    def choice_run(self, candidates: Sequence[int],
                   budget: int) -> Iterable[int]: ...

    def consume(self, used: int) -> None: ...


#: 32-bit words drawn per ``getrandbits`` call by :class:`RandomInterleaver`.
BULK_WORDS = 1024
#: Words a :meth:`RandomInterleaver.choice_run` looks ahead at.
RUN_WORDS = 128
#: Marks a rejected draw in a choice run (core ids are below 255).
_REJECT = 0xFF


class RandomInterleaver:
    """Uniformly random choice each step.

    Each choice among ``n`` candidates is ``Random.randrange(n)``'s
    rejection sampling (CPython's ``_randbelow_with_getrandbits``): draw
    ``k = n.bit_length()`` bits, retry while the draw is ``>= n``, so
    recordings stay bit-identical to randrange-based runs. A ``k``-bit
    draw is one Mersenne Twister word shifted right by ``32 - k``, and
    ``getrandbits(32*m)`` holds the next ``m`` words from the least
    significant end (both pinned by tests/kernel/test_run_loop.py), so the
    words are drawn :data:`BULK_WORDS` at a time into a buffer.

    :meth:`choose` takes one choice; :meth:`choice_run` and
    :meth:`consume` hand ``Kernel.run`` many at once. Both read the same
    buffer, so they interleave into one stream.
    """

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)
        # Drawn words not yet consumed (little-endian 32-bit words from
        # word index ``_next`` on) and the reject marks of the last run.
        self._block = b""
        self._next = 0
        self._marks = b""
        self._tables: dict[tuple[int, ...], bytes] = {}

    def _ensure(self, words: int) -> None:
        """Draw in bulk until ``words`` unconsumed words are buffered."""
        while len(self._block) // 4 - self._next < words:
            self._block = self._block[4 * self._next:] + \
                self._rng.getrandbits(32 * BULK_WORDS).to_bytes(
                    4 * BULK_WORDS, "little")
            self._next = 0

    def _word(self) -> int:
        self._ensure(1)
        offset = 4 * self._next
        self._next += 1
        return int.from_bytes(self._block[offset:offset + 4], "little")

    def choose(self, candidates: Sequence[int]) -> int:
        n = len(candidates)
        if n == 1:
            return candidates[0]
        shift = 32 - n.bit_length()
        r = self._word() >> shift
        while r >= n:
            r = self._word() >> shift
        return candidates[r]

    def choice_run(self, candidates: Sequence[int],
                   budget: int) -> Iterable[int]:
        """The core ids that the next draws choose among ``candidates``
        (1 to 64 cores with ids below 255), at most ``budget`` of them: as
        many as the next :data:`RUN_WORDS` buffered words yield, rejected
        draws dropped. One candidate draws nothing, so its run is
        ``budget`` repeats of it.

        Nothing is consumed: the caller reports how many choices it used
        with :meth:`consume` before asking for another run or calling
        :meth:`choose`. With ``n <= 64`` a draw needs ``k <= 7`` bits, the
        top bits of each word's most significant byte, so one
        ``bytes.translate`` maps a run of those bytes to core ids (or the
        reject mark) and ``bytes.replace`` drops the rejects.
        """
        if len(candidates) == 1:
            return repeat(candidates[0], budget)
        key = tuple(candidates)
        table = self._tables.get(key)
        if table is None:
            if len(self._tables) >= 4096:
                self._tables.clear()
            table = self._tables[key] = _choice_table(key)
        words = RUN_WORDS
        while True:
            self._ensure(words)
            first = 4 * self._next + 3
            marks = self._block[first:first + 4 * words:4].translate(table)
            run = marks.replace(b"\xff", b"")
            if run:
                self._marks = marks
                return run[:budget]
            # Every draw rejected: look further ahead.
            words *= 2

    def consume(self, used: int) -> None:
        """Advance past the words that produced the first ``used`` choices
        of the last :meth:`choice_run` (a rejected word after the last
        used choice stays unconsumed: the next choice may have other
        candidates). A one-candidate run drew no words."""
        marks = self._marks
        if not marks:
            return
        # The shortest prefix of the run's words holding ``used`` accepted
        # draws: accepted-before(p) = p - count of rejects in marks[:p].
        lo, hi = used, len(marks)
        while lo < hi:
            mid = (lo + hi) // 2
            if mid - marks.count(_REJECT, 0, mid) < used:
                lo = mid + 1
            else:
                hi = mid
        self._next += lo
        self._marks = b""


def _choice_table(candidates: tuple[int, ...]) -> bytes:
    """``bytes.translate`` table from a word's top byte to the core id its
    draw chooses among ``candidates``, or the reject mark."""
    n = len(candidates)
    if not 2 <= n <= 64 or max(candidates) >= _REJECT:
        raise ValueError("choice runs need 2 to 64 candidate cores, "
                         "ids below 255")
    shift = 8 - n.bit_length()
    return bytes(candidates[top >> shift] if top >> shift < n else _REJECT
                 for top in range(256))


class RoundRobinInterleaver:
    """Strict rotation over whichever cores are currently runnable."""

    def __init__(self, seed: int = 0):
        self._last = -1
        self._rotation: Sequence[int] = ()

    def choose(self, candidates: Sequence[int]) -> int:
        for candidate in candidates:
            if candidate > self._last:
                self._last = candidate
                return candidate
        self._last = candidates[0]
        return candidates[0]

    def choice_run(self, candidates: Sequence[int],
                   budget: int) -> Iterable[int]:
        """``budget`` choices: the rotation of the ascending
        ``candidates`` that starts after the last core chosen, repeated."""
        start = bisect_right(candidates, self._last) % len(candidates)
        rotation = self._rotation = candidates[start:] + candidates[:start]
        return islice(cycle(rotation), budget)

    def consume(self, used: int) -> None:
        self._last = self._rotation[(used - 1) % len(self._rotation)]


class BurstyInterleaver:
    """Stays on one core for a random burst, then switches.

    Produces long conflict-free runs punctuated by communication bursts —
    the access pattern where chunking pays off most.
    """

    def __init__(self, seed: int = 0, min_burst: int = 20, max_burst: int = 400):
        if min_burst < 1 or max_burst < min_burst:
            raise ConfigError("need 1 <= min_burst <= max_burst")
        self._rng = random.Random(seed)
        self._min = min_burst
        self._max = max_burst
        self._current: int | None = None
        self._remaining = 0

    def choose(self, candidates: Sequence[int]) -> int:
        if self._current in candidates and self._remaining > 0:
            self._remaining -= 1
            return self._current
        self._current = candidates[self._rng.randrange(len(candidates))]
        self._remaining = self._rng.randint(self._min, self._max) - 1
        return self._current

    def choice_run(self, candidates: Sequence[int],
                   budget: int) -> Iterable[int]:
        """The rest of the current burst, at most ``budget`` choices. A new
        burst is drawn where :meth:`choose` would draw it, at the run's
        first choice, so the run's first choice must be taken."""
        if self._current not in candidates or self._remaining <= 0:
            self._current = candidates[self._rng.randrange(len(candidates))]
            # The whole burst: consume takes the first choice too.
            self._remaining = self._rng.randint(self._min, self._max)
        return repeat(self._current, min(self._remaining, budget))

    def consume(self, used: int) -> None:
        self._remaining -= used


_POLICIES = {
    "random": RandomInterleaver,
    "rr": RoundRobinInterleaver,
    "bursty": BurstyInterleaver,
}


def make_interleaver(policy: str = "random", seed: int = 0) -> Interleaver:
    """Build an interleaver by policy name (``random``, ``rr``, ``bursty``)."""
    if policy not in _POLICIES:
        raise ConfigError(f"unknown interleaving policy {policy!r}; "
                          f"choose from {sorted(_POLICIES)}")
    return _POLICIES[policy](seed)
