"""The word-indexed withheld-store FIFO vs a plain FIFO model.

Random sequences of pushes (bursts of up to a few hundred stores over a
handful of adjacent words), forwards, peeks, boundary commits, full
commits and snapshot/restore round trips drive a :class:`WithheldStores`
and a list-and-bytearray model side by side. After every operation:
forwarding agrees with the byte-level reference, committed memory agrees
with the model, and the per-word buckets, merged back in FIFO order, are
exactly the global FIFO.
"""

import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st

from repro.errors import ReplayDivergenceError
from repro.machine.memory import PhysicalMemory
from repro.replay.pending import WithheldStores

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
    st.tuples(st.just("push"), st.lists(stores(), min_size=1, max_size=300)),
    st.tuples(st.just("resolve"), accesses()),
    st.tuples(st.just("peek"), accesses()),
    st.tuples(st.just("keep"), st.integers(min_value=0, max_value=400)),
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
    buckets = {word: iter(bucket)
               for word, bucket in withheld._by_word.items()}
    assert all(withheld._by_word.values()), "empty bucket kept"
    for entry in withheld._entries:
        assert next(buckets[entry.addr & ~3]) is entry
    for word, rest in buckets.items():
        assert next(rest, None) is None, f"bucket {word} holds extra entries"


@given(ops=st.lists(operations, max_size=25))
@settings(max_examples=100, deadline=None)
def test_indexed_fifo_matches_model(ops):
    memory = PhysicalMemory(MEMORY_BYTES)
    withheld = WithheldStores(memory)
    fifo: list[tuple[int, int, int]] = []
    model = bytearray(MEMORY_BYTES)
    depth = 0
    for op, *args in ops:
        if op == "push":
            for store in args[0]:
                withheld.push(*store)
                fifo.append(store)
        elif op == "resolve":
            addr, size = args[0]
            assert withheld.resolve(addr, size) == \
                reference_resolve(fifo, addr, size)
        elif op == "peek":
            addr, size = args[0]
            assert withheld.peek(addr, size) == \
                model_load(fifo, model, addr, size)
        elif op == "keep":
            keep = args[0]
            if keep > len(fifo):
                with pytest.raises(ReplayDivergenceError):
                    withheld.commit_keep_last(keep)
            else:
                withheld.commit_keep_last(keep)
                model_commit(fifo, model, len(fifo) - keep)
        elif op == "commit_all":
            withheld.commit_all()
            model_commit(fifo, model, len(fifo))
        else:
            restored = WithheldStores(memory)
            restored.restore(withheld.snapshot())
            withheld = restored
        assert withheld.snapshot() == fifo
        assert memory.snapshot() == bytes(model)
        assert_index_consistent(withheld)
        depth = max(depth, len(fifo))
    # steer generation toward deep FIFOs, where the index matters
    target(float(depth), label="max FIFO depth")
