import pytest

from repro.errors import LogFormatError, MemoryAccessError, ReplayDivergenceError
from repro.machine.memory import PhysicalMemory
from repro.machine.store_buffer import (
    _RESOLVED_CONFLICT,
    _RESOLVED_MISS,
    RESOLVE_HIT,
    PendingStore,
)
from repro.replay.pending import ReplayPort, WithheldStores


@pytest.fixture
def memory():
    return PhysicalMemory(256)


def test_stores_withheld_until_commit(memory):
    withheld = WithheldStores(memory)
    withheld.push(0, 4, 7)
    assert memory.read_word(0) == 0
    withheld.commit_all()
    assert memory.read_word(0) == 7
    assert len(withheld) == 0


def test_commit_keep_last_commits_oldest(memory):
    withheld = WithheldStores(memory)
    withheld.push(0, 4, 1)
    withheld.push(4, 4, 2)
    withheld.push(8, 4, 3)
    withheld.commit_keep_last(1)
    assert memory.read_word(0) == 1
    assert memory.read_word(4) == 2
    assert memory.read_word(8) == 0  # youngest still withheld
    assert len(withheld) == 1


def test_commit_keep_last_overflow_is_divergence(memory):
    withheld = WithheldStores(memory)
    with pytest.raises(ReplayDivergenceError):
        withheld.commit_keep_last(1)


def test_forwarding_matches_store_buffer_semantics(memory):
    withheld = WithheldStores(memory)
    withheld.push(0, 4, 0x11223344)
    assert withheld.resolve(0, 4) == ("hit", 0x11223344)
    assert withheld.resolve(2, 1) == ("hit", 0x22)
    assert withheld.resolve(8, 4) == ("miss", None)
    withheld.push(1, 1, 0xFF)
    assert withheld.resolve(0, 4) == ("conflict", None)


def test_port_load_forwards(memory):
    withheld = WithheldStores(memory)
    port = ReplayPort(memory, withheld)
    port.store(0, 4, 42)
    assert port.load(0, 4) == 42
    assert memory.read_word(0) == 0  # still not visible


def test_port_load_conflict_commits_all(memory):
    withheld = WithheldStores(memory)
    port = ReplayPort(memory, withheld)
    port.store(1, 1, 0xAB)
    assert port.load(0, 4) == 0xAB00
    assert len(withheld) == 0


def test_port_fence_commits(memory):
    withheld = WithheldStores(memory)
    port = ReplayPort(memory, withheld)
    port.store(0, 4, 5)
    port.fence()
    assert memory.read_word(0) == 5


def test_port_atomics_direct(memory):
    withheld = WithheldStores(memory)
    port = ReplayPort(memory, withheld)
    port.atomic_store(0, 4, 9)
    assert port.atomic_load(0, 4) == 9
    assert memory.read_word(0) == 9


def test_port_byte_paths(memory):
    withheld = WithheldStores(memory)
    port = ReplayPort(memory, withheld)
    port.store(3, 1, 0x7F)
    assert port.load(3, 1) == 0x7F
    withheld.commit_all()
    assert memory.read_byte(3) == 0x7F


def test_resolve_returns_store_buffer_constants(memory):
    withheld = WithheldStores(memory)
    assert withheld.resolve(0, 4) is _RESOLVED_MISS
    withheld.push(0, 4, 1)
    withheld.push(1, 1, 2)
    assert withheld.resolve(0, 4) is _RESOLVED_CONFLICT
    assert withheld.resolve(4, 4) is _RESOLVED_MISS
    assert withheld.resolve(1, 1) == (RESOLVE_HIT, 2)


def test_forwarding_sees_only_the_loads_word(memory):
    withheld = WithheldStores(memory)
    withheld.push(4, 4, 0xAABBCCDD)
    for addr in range(0, 64, 4):
        withheld.push(addr + 8, 4, addr)
    withheld.push(3, 1, 0x11)
    # byte stores just below and the words around do not touch word 4
    assert withheld.resolve(4, 4) == (RESOLVE_HIT, 0xAABBCCDD)
    assert withheld.resolve(7, 1) == (RESOLVE_HIT, 0xAA)
    assert withheld.resolve(0, 4) is _RESOLVED_CONFLICT
    assert withheld.resolve(3, 1) == (RESOLVE_HIT, 0x11)


def test_commit_prunes_the_index(memory):
    withheld = WithheldStores(memory)
    withheld.push(0, 4, 1)
    withheld.push(4, 4, 2)
    withheld.push(1, 1, 3)
    withheld.commit_keep_last(1)
    assert withheld._by_word == {0: [PendingStore(1, 1, 3)]}
    withheld.commit_all()
    assert withheld._by_word == {}
    assert memory.read_word(0) == 0x0301


# -- peek: the value a load would return, with no side effect -----------------

def test_peek_hit_and_miss(memory):
    withheld = WithheldStores(memory)
    memory.write_word(8, 0x55)
    withheld.push(0, 4, 0x11223344)
    assert withheld.peek(0, 4) == 0x11223344
    assert withheld.peek(1, 1) == 0x33
    assert withheld.peek(8, 4) == 0x55
    assert len(withheld) == 1


def test_peek_conflict_overlays_withheld_bytes_without_commit(memory):
    withheld = WithheldStores(memory)
    memory.write_word(0, 0xA0B0C0D0)
    withheld.push(0, 4, 0x11223344)
    withheld.push(2, 1, 0xEE)
    withheld.push(8, 4, 9)
    assert withheld.resolve(0, 4) is _RESOLVED_CONFLICT
    assert withheld.peek(0, 4) == 0x11EE3344
    # nothing committed: memory, FIFO and index are untouched
    assert memory.read_word(0) == 0xA0B0C0D0
    assert withheld.snapshot() == [(0, 4, 0x11223344), (2, 1, 0xEE),
                                   (8, 4, 9)]
    withheld.commit_keep_last(3)
    # and the value matches what a real load returns after its drain
    port = ReplayPort(memory, withheld)
    assert port.load(0, 4) == 0x11EE3344


def test_peek_conflict_with_only_byte_entries(memory):
    withheld = WithheldStores(memory)
    memory.write_word(4, 0x44332211)
    withheld.push(5, 1, 0xAA)
    withheld.push(5, 1, 0xBB)
    withheld.push(7, 1, 0xCC)
    assert withheld.peek(4, 4) == 0xCC33BB11


def test_peek_rejects_misaligned_word(memory):
    with pytest.raises(MemoryAccessError):
        WithheldStores(memory).peek(2, 4)


def test_peek_leaves_port_state_alone(memory):
    """A word store and a byte store into the same word, then a look at
    the word: the next boundary must still see both stores withheld."""
    withheld = WithheldStores(memory)
    port = ReplayPort(memory, withheld)
    port.store(0, 4, 0x01020304)
    port.store(1, 1, 0xFF)
    assert withheld.peek(0, 4) == 0x0102FF04
    withheld.commit_keep_last(2)
    assert withheld.stalls == 0


def test_port_forwards_each_byte_of_a_withheld_word(memory):
    withheld = WithheldStores(memory)
    port = ReplayPort(memory, withheld)
    port.store(4, 4, 0x12345678)
    assert [port.load(addr, 1) for addr in range(4, 8)] == \
        [0x78, 0x56, 0x34, 0x12]
    port.store(6, 1, 0xAB)
    assert port.load(6, 1) == 0xAB and port.load(7, 1) == 0x12
    assert withheld.stalls == 0 and memory.read_word(4) == 0


def test_conflicting_load_counts_a_stall(memory):
    withheld = WithheldStores(memory)
    port = ReplayPort(memory, withheld)
    port.store(0, 1, 0xAA)
    assert port.load(0, 1) == 0xAA
    assert withheld.stalls == 0
    assert port.load(0, 4) == 0xAA
    assert withheld.stalls == 1 and len(withheld) == 0


# -- restore: snapshots from a checkpoint header are validated ----------------

def test_restore_rebuilds_the_index(memory):
    withheld = WithheldStores(memory)
    withheld.restore([[0, 4, 7], [1, 1, 0xFF], [12, 4, 3]])
    assert withheld.resolve(0, 4) is _RESOLVED_CONFLICT
    assert withheld.resolve(12, 4) == (RESOLVE_HIT, 3)
    assert sorted(withheld._by_word) == [0, 12]
    withheld.restore([])
    assert len(withheld) == 0 and withheld._by_word == {}


def test_restore_keeps_the_ports_view(memory):
    """The port holds the FIFO and its index: a restore after the port
    is built must refill those, not replace them."""
    withheld = WithheldStores(memory)
    port = ReplayPort(memory, withheld)
    port.store(8, 4, 5)
    withheld.restore([[0, 4, 7]])
    assert port.load(0, 4) == 7
    assert port.load(8, 4) == 0
    port.store(4, 1, 9)
    assert withheld.snapshot() == [(0, 4, 7), (4, 1, 9)]


@pytest.mark.parametrize("entries", [
    [[0, 4]],                       # too few fields
    [[0, 4, 1, 2]],                 # too many fields
    [0],                            # not a triple at all
    [["0", 4, 1]],                  # non-int field
    [[0, 4, 1.0]],
    [[0, True, 1]],
    [[0, 2, 1]],                    # size neither 1 nor 4
    [[0, 0, 1]],
    [[2, 4, 1]],                    # misaligned word
    [[-1, 1, 1]],                   # outside memory
    [[256, 1, 1]],
    [[252, 4, 1], [256, 4, 1]],
    [[3, 1, 0x100]],                # value wider than the store
    [[0, 4, 1 << 32]],
    [[0, 4, -1]],
    {"0": [0, 4, 1]},               # not a list
])
def test_restore_rejects_malformed_entries(memory, entries):
    withheld = WithheldStores(memory)
    withheld.push(8, 4, 5)
    with pytest.raises(LogFormatError):
        withheld.restore(entries)
    assert withheld.snapshot() == [(8, 4, 5)]
    assert withheld.resolve(8, 4) == (RESOLVE_HIT, 5)
