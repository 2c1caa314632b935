"""Write-through replay against the FIFO-always path.

A chunk logged with RSW 0 that starts while its thread withholds no store
replays write-through: its stores write memory at once and its loads read
memory. Every other chunk withholds its stores in the thread's FIFO. The
FIFO-always path is :func:`tests.reference.install_replay_port_reference`,
the method chain, which ignores that per-chunk decision and withholds every
store. Replaying one recording each way must give the same result digest,
and after every chunk the same memory and the same withheld FIFO in every
thread; a replay that faults must fault alike, type and message.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import session, workloads
from repro.config import MachineConfig, MRRConfig, SimConfig, StoreBufferConfig
from repro.errors import MemoryAccessError, ReproError
from repro.isa.builder import KernelBuilder
from repro.replay.checkpoint import (
    base_replayer,
    build_checkpoints,
    decode_state,
    restore_replayer,
)
from repro.replay.pending import WithheldStores
from repro.replay.schedule import build_schedule
from repro.workloads.fuzz import build_program
from tests.property.test_property_roundtrip import thread_strategy
from tests.reference import install_replay_port_reference

BENCH_PROGRAMS = ("locks", "fft", "sigping", "radix")
#: A small memory keeps the per-chunk memory digest cheap.
SMALL_MEMORY = MachineConfig(memory_bytes=1 << 18)
#: Short chunks and a store buffer that drains rarely: many chunks end with
#: stores still buffered (RSW > 0), so threads switch between write-through
#: and FIFO chunks.
BUFFERED_CONFIG = SimConfig(
    machine=dataclasses.replace(
        SMALL_MEMORY, store_buffer=StoreBufferConfig(drain_period=200)),
    mrr=MRRConfig(max_chunk_instructions=16))


def _record(name, seed, config):
    program, inputs = workloads.build(name, scale=1)
    return session.record(program, seed=seed, config=config,
                          input_files=inputs).recording


def _replay(make_replayer, *, fifo_always):
    """Step the replayer ``make_replayer()`` builds to the end: the result
    digest (None on a fault), the memory digest and every thread's FIFO
    after each chunk, which chunks ran write-through, and the fault as
    (type, message)."""
    trail, through = [], []
    digest = fault = None
    with pytest.MonkeyPatch.context() as patch:
        if fifo_always:
            install_replay_port_reference(patch)
        try:
            replayer = make_replayer()
            while (chunk := replayer.step_chunk()) is not None:
                through.append(
                    replayer.threads[chunk.rthread].replay_port.write_through)
                trail.append((replayer.memory.digest(),
                              {rthread: ctx.withheld.snapshot()
                               for rthread, ctx in replayer.threads.items()}))
            digest = replayer.result().digest()
        except ReproError as exc:
            fault = (type(exc).__name__, str(exc))
    return digest, trail, through, fault


def _assert_alike(make_replayer):
    """Replay both ways; returns the write-through run's digest, fault and
    per-chunk write-through flags."""
    digest, trail, through, fault = _replay(make_replayer, fifo_always=False)
    ref_digest, ref_trail, _, ref_fault = _replay(make_replayer,
                                                  fifo_always=True)
    assert (digest, fault) == (ref_digest, ref_fault)
    assert trail == ref_trail
    return digest, fault, through


def _thread_modes(recording, through):
    """Per thread, the write-through flag of each of its chunks."""
    modes: dict[int, list[bool]] = {}
    for chunk, flag in zip(build_schedule(recording.chunks), through):
        modes.setdefault(chunk.rthread, []).append(flag)
    return modes


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", BENCH_PROGRAMS)
def test_bench_programs_replay_alike(name, seed):
    recording = _record(name, seed, SimConfig(machine=SMALL_MEMORY))
    digest, fault, through = _assert_alike(
        lambda: base_replayer(recording))
    assert fault is None and digest is not None
    assert len(through) == len(recording.chunks) and any(through)


def test_threads_switch_between_the_paths():
    recording = _record("locks", 1, BUFFERED_CONFIG)
    digest, fault, through = _assert_alike(lambda: base_replayer(recording))
    assert fault is None and digest is not None
    modes = _thread_modes(recording, through)
    assert len(modes) > 1
    for flags in modes.values():
        assert any(was and not now for was, now in zip(flags, flags[1:]))
        assert any(now and not was for was, now in zip(flags, flags[1:]))


def test_checkpoint_restored_with_a_non_empty_fifo():
    recording = _record("locks", 1, BUFFERED_CONFIG)
    records = build_checkpoints(recording, every=50)
    with pytest.MonkeyPatch.context() as patch:
        install_replay_port_reference(patch)
        assert build_checkpoints(recording, every=50) == records
    states = [decode_state(record) for record in records]
    state = next(state for state in states
                 if any(thread["withheld"]
                        for thread in state.header["threads"].values()))
    digest, fault, through = _assert_alike(
        lambda: restore_replayer(recording, state))
    assert fault is None
    assert digest == session.replay_recording(recording).digest()
    # A thread restored with stores withheld starts through the FIFO.
    assert not all(through)


def _boundary_counts(recording):
    """Withheld stores of each chunk's thread at its boundary, before the
    boundary commits, on the FIFO-always path."""
    counts = []
    commit = WithheldStores.commit_keep_last

    def counting(self, keep):
        counts.append(len(self))
        commit(self, keep)

    with pytest.MonkeyPatch.context() as patch:
        install_replay_port_reference(patch)
        patch.setattr(WithheldStores, "commit_keep_last", counting)
        base_replayer(recording).run()
    return counts


@given(
    threads_ops=st.lists(thread_strategy, min_size=1, max_size=3),
    repeats=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    drain_period=st.sampled_from([3, 200]),
    forge=st.one_of(st.none(), st.tuples(st.integers(0, 10**6),
                                          st.integers(0, 10**6))),
)
@settings(max_examples=40, deadline=None)
def test_fuzz_programs_replay_alike(threads_ops, repeats, seed, drain_period,
                                    forge):
    """``forge`` sets one chunk's RSW to a value within the stores its
    thread withholds at that boundary, so the chunk may switch paths and
    the replay may diverge later."""
    program = build_program(threads_ops, repeats)
    config = dataclasses.replace(
        BUFFERED_CONFIG, machine=dataclasses.replace(
            BUFFERED_CONFIG.machine,
            store_buffer=StoreBufferConfig(drain_period=drain_period)))
    recording = session.record(program, seed=seed, config=config).recording
    if forge is not None:
        index, rsw = forge
        counts = _boundary_counts(recording)
        chunks = list(recording.chunks)
        index %= len(chunks)
        target = build_schedule(chunks)[index]
        position = next(position for position, chunk in enumerate(chunks)
                        if chunk is target)
        chunks[position] = dataclasses.replace(
            target, rsw=rsw % (counts[index] + 1))
        recording = recording.replace(chunks=chunks)
    _assert_alike(lambda: base_replayer(recording))


def _store_through_pointer(load_back):
    """One thread loads a pointer and stores through it, in one chunk that
    ends at its exit with RSW 0; ``load_back`` loads the stored word back
    through the pointer, which forwards from the withheld store."""
    b = KernelBuilder()
    b.word("cell", 0)
    b.word("ptr", 0)
    b.label("main")
    b.ins("load", "r1", "[ptr]")
    b.ins("store", "[cell]", 3)
    b.ins("store", "[r1]", 0x5A)
    if load_back:
        b.ins("load", "r2", "[r1]")
        b.ins("store", "[cell]", "r2")
    else:
        b.ins("store", "[cell]", 4)
    b.exit(0)
    return b.build("pointer")


@pytest.mark.parametrize("load_back", [False, True])
def test_out_of_range_store_faults_alike(load_back):
    program = _store_through_pointer(load_back)
    ptr = program.symbol("ptr") - program.data_base
    data = bytearray(program.data)
    data[ptr:ptr + 4] = program.symbol("cell").to_bytes(4, "little")
    recording = session.record(dataclasses.replace(program, data=bytes(data)),
                               seed=1).recording
    assert all(chunk.rsw == 0 for chunk in recording.chunks)
    # Forge the program image: the pointer now leads past the end of
    # memory, where the store cannot commit.
    outside = recording.config.machine.memory_bytes + 64
    data[ptr:ptr + 4] = outside.to_bytes(4, "little")
    forged = recording.replace(
        program=dataclasses.replace(recording.program, data=bytes(data)))
    digest, fault, through = _assert_alike(lambda: base_replayer(forged))
    assert digest is None and fault[0] == MemoryAccessError.__name__
    assert f"{outside:#x}" in fault[1]
