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
    result = bus.transaction(0, 0, is_write=False)
    assert result.fill_state == EXCLUSIVE


def test_read_with_sharer_fills_shared_and_downgrades():
    bus, caches = make_bus()
    caches[1].fill(0, MODIFIED)
    result = bus.transaction(0, 0, is_write=False)
    assert result.fill_state == SHARED
    assert caches[1].state(0) == SHARED
    assert result.flushed is False  # flush only tracked for writes


def test_write_invalidates_others():
    bus, caches = make_bus()
    caches[1].fill(0, SHARED)
    result = bus.transaction(0, 0, is_write=True)
    assert result.fill_state == MODIFIED
    assert caches[1].state(0) is None


def test_write_flushes_remote_modified():
    bus, caches = make_bus()
    caches[1].fill(0, MODIFIED)
    result = bus.transaction(0, 0, is_write=True)
    assert result.flushed is True
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


def test_snoopers_collect_victim_timestamps():
    bus, _caches = make_bus(cores=3)

    class FakeSnooper:
        def __init__(self, ts):
            self.ts = ts

        def snoop(self, line, is_write):
            return self.ts

    bus.attach_snooper(1, FakeSnooper(5))
    bus.attach_snooper(2, FakeSnooper(9))
    result = bus.transaction(0, 0, is_write=True)
    assert sorted(result.victim_timestamps) == [5, 9]


def test_requester_snooper_skipped():
    bus, _caches = make_bus()

    class Boom:
        def snoop(self, line, is_write):
            raise AssertionError("requester must not snoop itself")

    bus.attach_snooper(0, Boom())
    result = bus.transaction(0, 0, is_write=True)
    assert result.victim_timestamps == []
