"""The flat replay memory path against the method chain it inlines.

``ReplayPort.load`` runs the per-word forwarding lookup, the stall count
and the aligned memory access as one body, ``ReplayPort.store`` pushes
inline, and the withheld commits write the memory's bytearray directly.
:func:`tests.reference.install_replay_port_reference` restores the chain
of ``WithheldStores`` and ``PhysicalMemory`` methods those bodies replaced,
and withholds every store: it ignores the per-chunk write-through decision
(``tests/replay/test_write_through.py`` compares the two paths chunk by
chunk). Replaying one recording each way must give the same digest, the
same withheld FIFOs after every chunk, the same stalls in every chunk the
flat path replayed through the FIFO, and the same fault, type and message;
for the bench programs, for fuzz programs with and without a forged RSW,
and for a program built to stall.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import session, workloads
from repro.config import MachineConfig, SimConfig
from repro.errors import ReproError
from repro.isa.builder import KernelBuilder
from repro.replay.checkpoint import base_replayer
from repro.workloads.fuzz import build_program
from tests.property.test_property_roundtrip import thread_strategy
from tests.reference import install_replay_port_reference
from tests.replay.test_write_through import BUFFERED_CONFIG

BENCH_PROGRAMS = ("locks", "fft", "sigping", "radix")


def _replay(recording, *, reference):
    """Replay ``recording`` through the flat or the method path: the
    digest (None on a fault); after each chunk the withheld FIFOs, whether
    the chunk ran write-through and the stalls it counted; and the fault
    as (type, message)."""
    trail = []
    digest = fault = None
    with pytest.MonkeyPatch.context() as patch:
        if reference:
            install_replay_port_reference(patch)
        try:
            replayer = base_replayer(recording)
            stalls = 0
            while (chunk := replayer.step_chunk()) is not None:
                threads = replayer.threads
                total = sum(ctx.withheld.stalls for ctx in threads.values())
                trail.append(({rthread: ctx.withheld.snapshot()
                               for rthread, ctx in threads.items()},
                              threads[chunk.rthread].replay_port.write_through,
                              total - stalls))
                stalls = total
            digest = replayer.result().digest()
        except ReproError as exc:
            fault = (type(exc).__name__, str(exc))
    return digest, trail, fault


def _assert_lockstep(recording):
    digest, trail, fault = _replay(recording, reference=False)
    ref_digest, ref_trail, ref_fault = _replay(recording, reference=True)
    assert (digest, fault) == (ref_digest, ref_fault)
    assert [fifos for fifos, _, _ in trail] == \
        [fifos for fifos, _, _ in ref_trail]
    # A write-through chunk never waits for the FIFO; the method chain
    # withholds every store, so it may stall there.
    assert [stalls for _, through, stalls in trail if not through] == \
        [stalls for (_, through, _), (_, _, stalls) in zip(trail, ref_trail)
         if not through]
    return digest, trail, fault


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", BENCH_PROGRAMS)
def test_bench_programs_replay_alike(name, seed):
    program, inputs = workloads.build(name, scale=1)
    recording = session.record(program, seed=seed,
                               input_files=inputs).recording
    digest, trail, fault = _assert_lockstep(recording)
    assert fault is None and digest is not None
    assert len(trail) == len(recording.chunks)


@given(
    threads_ops=st.lists(thread_strategy, min_size=1, max_size=3),
    repeats=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    forge=st.one_of(st.none(), st.tuples(st.integers(0, 10**6),
                                          st.integers(-3, 3))),
)
@settings(max_examples=60, deadline=None)
def test_fuzz_programs_replay_alike(threads_ops, repeats, seed, forge):
    """``forge`` shifts one chunk's RSW, so the withheld commits keep a
    different count or refuse to, and replay diverges or faults."""
    program = build_program(threads_ops, repeats)
    config = SimConfig(machine=MachineConfig(memory_bytes=1 << 18))
    recording = session.record(program, seed=seed, config=config).recording
    if forge is not None:
        index, shift = forge
        chunks = list(recording.chunks)
        index %= len(chunks)
        chunks[index] = dataclasses.replace(
            chunks[index], rsw=max(0, chunks[index].rsw + shift))
        recording = recording.replace(chunks=chunks)
    _assert_lockstep(recording)


def _byte_stores_then_word_loads():
    """One thread stores a byte into a word and loads the whole word back,
    over and over: each load overlaps the withheld byte without covering
    it. Under ``BUFFERED_CONFIG`` some chunks end between the two, with
    the byte still buffered; the next chunk starts with it withheld, so
    replay runs that chunk through the FIFO, counts a stall and commits."""
    b = KernelBuilder()
    b.word("cell", 0x11223344)
    b.word("out", 0)
    b.label("main")
    with b.for_range("r6", 0, 40):
        b.ins("storeb", "[cell + 1]", 0xAB)
        b.ins("load", "r7", "[cell]")
    b.ins("store", "[out]", "r7")
    b.write(1, "out", 4)
    b.exit(0)
    return b.build("stall")


def test_partial_overlap_stalls_alike():
    from repro.telemetry import Telemetry

    recording = session.record(_byte_stores_then_word_loads(), seed=1,
                               config=BUFFERED_CONFIG).recording
    assert any(chunk.rsw for chunk in recording.chunks)
    digest, trail, fault = _assert_lockstep(recording)
    assert fault is None and digest is not None
    assert any(stalls for _fifos, through, stalls in trail if not through)
    telemetry = Telemetry()
    result = session.replay_recording(recording, telemetry=telemetry)
    assert result.outputs["stdout"] == (0x1122AB44).to_bytes(4, "little")
    assert telemetry.snapshot()["replay.pending_store_stalls"] > 0
