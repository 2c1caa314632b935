from repro.config import CacheConfig
from repro.machine.bus import SnoopBus
from repro.machine.cache import EXCLUSIVE, MESICache, MODIFIED, SHARED


def make_bus(cores=2):
    bus = SnoopBus(cores)
    caches = [MESICache(CacheConfig()) for _ in range(cores)]
    for core_id, cache in enumerate(caches):
        bus.attach_cache(core_id, cache)
    return bus, caches


def test_read_with_no_sharers_fills_exclusive():
    bus, _caches = make_bus()
    assert bus.transaction(0, 0, is_write=False) == (EXCLUSIVE, False)


def test_read_with_sharer_fills_shared_and_downgrades():
    bus, caches = make_bus()
    caches[1].fill(0, MODIFIED)
    fill_state, flushed = bus.transaction(0, 0, is_write=False)
    assert fill_state == SHARED
    assert caches[1].state(0) == SHARED
    assert flushed is False  # flush only tracked for writes


def test_write_invalidates_others():
    bus, caches = make_bus()
    caches[1].fill(0, SHARED)
    assert bus.transaction(0, 0, is_write=True) == (MODIFIED, False)
    assert caches[1].state(0) is None


def test_write_flushes_remote_modified():
    bus, caches = make_bus()
    caches[1].fill(0, MODIFIED)
    assert bus.transaction(0, 0, is_write=True) == (MODIFIED, True)
    assert bus.stats.flushes == 1


def test_requester_cache_not_snooped():
    bus, caches = make_bus()
    caches[0].fill(0, MODIFIED)
    bus.transaction(0, 0, is_write=True)
    assert caches[0].state(0) == MODIFIED


def test_stats_classify_transactions():
    bus, _caches = make_bus()
    bus.transaction(0, 0, is_write=False)
    bus.transaction(0, 64, is_write=True)
    bus.transaction(0, 64, is_write=True, upgrade=True)
    assert bus.stats.reads == 1
    assert bus.stats.read_exclusives == 1
    assert bus.stats.upgrades == 1
    assert bus.stats.transactions == 3


def test_sequence_monotone():
    bus, _caches = make_bus()
    first = bus.stats.transactions
    bus.transaction(0, 0, is_write=False)
    bus.transaction(1, 64, is_write=False)
    assert bus.stats.transactions == first + 2


class RecordingSnooper:
    """Logs every snoop into a list shared across cores."""

    def __init__(self, core_id, log):
        self.core_id = core_id
        self.log = log

    def snoop(self, line, is_write):
        self.log.append((self.core_id, line, is_write))


def test_present_snoopers_are_called():
    # An untracked line is present everywhere, so every other core's
    # recorder is snooped, in ascending core id, with or without a copy.
    bus, caches = make_bus(cores=3)
    caches[2].fill(0, SHARED)
    log = []
    for core_id in range(3):
        bus.attach_snooper(core_id, RecordingSnooper(core_id, log))
    bus.transaction(0, 0, is_write=True)
    assert log == [(1, 0, True), (2, 0, True)]
    # The write left core 0 the only present core: its recorder is the
    # one a later read by core 1 reaches.
    log.clear()
    bus.transaction(1, 0, is_write=False)
    assert log == [(0, 0, False)]


def test_requester_snooper_skipped():
    bus, _caches = make_bus()

    class Boom:
        def snoop(self, line, is_write):
            raise AssertionError("requester must not snoop itself")

    bus.attach_snooper(0, Boom())
    log = []
    bus.attach_snooper(1, RecordingSnooper(1, log))
    bus.transaction(0, 0, is_write=True)
    assert log == [(1, 0, True)]
