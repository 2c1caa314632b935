from repro.config import MachineConfig, MRRConfig
from repro.isa.assembler import assemble
from repro.machine.cache import EXCLUSIVE, MODIFIED, SHARED
from repro.machine.machine import Machine
from repro.mrr.chunk import Reason
from tests.conftest import wire_recorder


def make_bus(cores=2):
    """A machine's fabric, its cores and their caches."""
    machine = Machine(MachineConfig(num_cores=cores, memory_bytes=1 << 12))
    machine.load_program(assemble("main:\n    syscall\n"))
    return (machine.bus, machine.cores,
            [core.cache for core in machine.cores])


def test_read_with_no_sharers_fills_exclusive():
    bus, cores, caches = make_bus()
    bus.transaction(cores[0], 0, is_write=False)
    assert caches[0].state(0) == EXCLUSIVE


def test_read_with_sharer_fills_shared_and_downgrades():
    bus, cores, caches = make_bus()
    caches[1].fill(0, MODIFIED)
    bus.transaction(cores[0], 0, is_write=False)
    assert caches[0].state(0) == SHARED
    assert caches[1].state(0) == SHARED
    assert bus.stats.flushes == 0  # flush only tracked for writes


def test_write_invalidates_others():
    bus, cores, caches = make_bus()
    caches[1].fill(0, SHARED)
    bus.transaction(cores[0], 0, is_write=True)
    assert caches[0].state(0) == MODIFIED
    assert caches[1].state(0) is None
    assert bus.stats.flushes == 0


def test_write_flushes_remote_modified():
    bus, cores, caches = make_bus()
    caches[1].fill(0, MODIFIED)
    bus.transaction(cores[0], 0, is_write=True)
    assert caches[0].state(0) == MODIFIED
    assert bus.stats.flushes == 1


def test_requester_cache_not_snooped():
    bus, cores, caches = make_bus()
    caches[0].fill(0, SHARED)
    bus.transaction(cores[0], 0, is_write=True, upgrade=True)
    assert caches[0].state(0) == MODIFIED
    assert caches[0].stats.invalidations_received == 0


def test_requester_is_charged_for_the_miss_flush_and_victim():
    machine = Machine(MachineConfig(num_cores=2, memory_bytes=1 << 12))
    bus, (core, other) = machine.bus, machine.cores
    cost = machine.cost
    bus.transaction(core, 0, is_write=False)
    assert core.cycles == cost.l1_miss
    bus.transaction(core, 0, is_write=True, upgrade=True)
    assert core.cycles == cost.l1_miss + cost.upgrade
    other.cache.fill(64, MODIFIED)
    before = core.cycles
    bus.transaction(core, 64, is_write=True)
    assert core.cycles - before == cost.l1_miss + cost.writeback
    assert other.cycles == 0
    # Fill every way of line 0's set: the last fill evicts the Modified
    # line 0 (LRU) and pays its writeback.
    stride = core.cache.config.sets * core.cache.config.line_bytes
    for way in range(1, core.cache.config.ways + 1):
        before = core.cycles
        bus.transaction(core, way * stride, is_write=False)
    assert core.cycles - before == cost.l1_miss + cost.writeback
    assert core.cache.state(0) is None


def test_stats_classify_transactions():
    bus, cores, _caches = make_bus()
    bus.transaction(cores[0], 0, is_write=False)
    bus.transaction(cores[0], 64, is_write=True)
    bus.transaction(cores[0], 64, is_write=True, upgrade=True)
    assert bus.stats.reads == 1
    assert bus.stats.read_exclusives == 1
    assert bus.stats.upgrades == 1
    assert bus.stats.transactions == 3


def test_sequence_monotone():
    bus, cores, _caches = make_bus()
    first = bus.stats.transactions
    bus.transaction(cores[0], 0, is_write=False)
    bus.transaction(cores[1], 64, is_write=False)
    assert bus.stats.transactions == first + 2


def recorders_holding(cores, line):
    """A recorder per core, recording rthread core_id + 1 with ``line``
    in its write set; chunks land in the returned list as they end."""
    chunks = []
    recorders = [wire_recorder(core, MRRConfig(), chunks) for core in cores]
    for core_id, recorder in enumerate(recorders):
        recorder.set_thread(core_id + 1)
        recorder.on_store_drain(line)
    return recorders, chunks


def test_present_snoopers_are_called():
    # Every other core's recorder is tested, in ascending core id, with
    # or without a copy.
    bus, cores, caches = make_bus(cores=3)
    caches[2].fill(0, SHARED)
    recorders, chunks = recorders_holding(cores, 0)
    bus.transaction(cores[0], 0, is_write=True)
    assert [(c.rthread, c.reason) for c in chunks] == [
        (2, Reason.WAW), (3, Reason.WAW)]
    # The write left core 0 the only present core, yet a later read by
    # core 1 tests core 2's recorder too: every MRR on the bus sees every
    # transaction, and core 2's signature holds the line again.
    chunks.clear()
    for recorder in recorders[1:]:
        recorder.on_store_drain(0)
    bus.transaction(cores[1], 0, is_write=False)
    assert [(c.rthread, c.reason) for c in chunks] == [
        (1, Reason.RAW), (3, Reason.RAW)]


def test_requester_snooper_skipped():
    bus, cores, _caches = make_bus()
    recorders, chunks = recorders_holding(cores, 0)
    bus.transaction(cores[0], 0, is_write=True)
    assert [c.rthread for c in chunks] == [2]
    assert recorders[0].write_sig._word  # the requester's chunk stays open
