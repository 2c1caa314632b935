"""The word-indexed withheld-store FIFO vs a plain FIFO model.

Random sequences of pushes (bursts of up to a few dozen stores over a
handful of adjacent words, pushed directly or stored through a
:class:`ReplayPort`), forwards, peeks, port loads, boundary commits, full
commits and snapshot/restore round trips drive a :class:`WithheldStores`
and a list-and-bytearray model side by side. After every operation:
forwarding and loads agree with the byte-level reference, committed
memory agrees with the model, and the per-word buckets, merged back in
FIFO order, are exactly the global FIFO.

A boundary commit keeps a share of the current FIFO, so it usually
splits some word's bucket between committed and withheld entries: the
case where the index must drop each bucket's oldest entries only.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ReplayDivergenceError
from repro.machine.memory import PhysicalMemory
from repro.replay.pending import ReplayPort, WithheldStores

from .test_property_store_buffer import reference_resolve

WORDS = 4
MEMORY_BYTES = 4 * WORDS


@st.composite
def accesses(draw):
    """An (addr, size) pair inside one of the aligned words."""
    word = 4 * draw(st.integers(min_value=0, max_value=WORDS - 1))
    if draw(st.booleans()):
        return word, 4
    return word + draw(st.integers(min_value=0, max_value=3)), 1


@st.composite
def stores(draw):
    addr, size = draw(accesses())
    value = draw(st.integers(min_value=0, max_value=(1 << (8 * size)) - 1))
    return addr, size, value


operations = st.one_of(
    st.tuples(st.just("push"), st.lists(stores(), min_size=1, max_size=40)),
    # A chunk: stores through the port, then its boundary commit.
    st.tuples(st.just("chunk"), st.lists(stores(), min_size=2, max_size=20),
              st.integers(min_value=1, max_value=100)),
    st.tuples(st.just("load"), accesses()),
    st.tuples(st.just("resolve"), accesses()),
    st.tuples(st.just("peek"), accesses()),
    # Keep this percentage of the FIFO (over 100 asks for more: raises).
    st.tuples(st.just("keep"), st.integers(min_value=0, max_value=110)),
    st.tuples(st.just("commit_all")),
    st.tuples(st.just("restore")),
)


def model_commit(fifo, memory, count):
    for addr, size, value in fifo[:count]:
        memory[addr:addr + size] = value.to_bytes(size, "little")
    del fifo[:count]


def model_load(fifo, memory, addr, size):
    """What a load returns: a forward, or memory after a full drain."""
    status, value = reference_resolve(fifo, addr, size)
    if status == "hit":
        return value
    drained = bytearray(memory)
    model_commit(list(fifo), drained, len(fifo))
    return int.from_bytes(drained[addr:addr + size], "little")


def assert_index_consistent(withheld):
    """The per-word buckets are the global FIFO split by word, entry for
    entry (one assertion, so every index fault fails in one place)."""
    expected: dict[int, list[int]] = {}
    for entry in withheld._entries:
        expected.setdefault(entry.addr & ~3, []).append(id(entry))
    assert {word: [id(entry) for entry in bucket]
            for word, bucket in withheld._by_word.items()} == expected


@given(ops=st.lists(operations, max_size=25))
@settings(max_examples=100, deadline=None, report_multiple_bugs=False)
# Word 0's bucket holds the first and the third store; keeping one store
# commits its head and withholds its tail.
@example(ops=[("chunk", [(0, 4, 1), (4, 4, 2), (0, 4, 3)], 34)])
def test_indexed_fifo_matches_model(ops):
    memory = PhysicalMemory(MEMORY_BYTES)
    withheld = WithheldStores(memory)
    port = ReplayPort(memory, withheld)
    fifo: list[tuple[int, int, int]] = []
    model = bytearray(MEMORY_BYTES)
    for op, *args in ops:
        if op in ("push", "chunk"):
            put = withheld.push if op == "push" else port.store
            for store in args[0]:
                put(*store)
                fifo.append(store)
        elif op == "load":
            addr, size = args[0]
            expected = model_load(fifo, model, addr, size)
            if reference_resolve(fifo, addr, size)[0] == "conflict":
                model_commit(fifo, model, len(fifo))
            assert port.load(addr, size) == expected
        elif op == "resolve":
            addr, size = args[0]
            assert withheld.resolve(addr, size) == \
                reference_resolve(fifo, addr, size)
        elif op == "peek":
            addr, size = args[0]
            assert withheld.peek(addr, size) == \
                model_load(fifo, model, addr, size)
        if op in ("keep", "chunk"):
            percent = args[-1]
            keep = len(fifo) * percent // 100 + (percent > 100)
            if keep > len(fifo):
                with pytest.raises(ReplayDivergenceError):
                    withheld.commit_keep_last(keep)
            else:
                withheld.commit_keep_last(keep)
                model_commit(fifo, model, len(fifo) - keep)
        elif op == "commit_all":
            withheld.commit_all()
            model_commit(fifo, model, len(fifo))
        elif op == "restore":
            restored = WithheldStores(memory)
            restored.restore(withheld.snapshot())
            withheld = restored
            port = ReplayPort(memory, withheld)
        assert withheld.snapshot() == fifo
        assert memory.snapshot() == bytes(model)
        assert_index_consistent(withheld)
