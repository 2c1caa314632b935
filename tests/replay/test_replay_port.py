"""The flat replay memory path against the method chain it inlines.

``ReplayPort.load`` runs the per-word forwarding lookup, the stall count
and the aligned memory access as one body, ``ReplayPort.store`` pushes
inline, and the withheld commits write the memory's bytearray directly.
:func:`tests.reference.install_replay_port_reference` restores the chain
of ``WithheldStores`` and ``PhysicalMemory`` methods those bodies replaced.
Replaying one recording each way must give the same digest, the same
withheld FIFOs and stall counts after every chunk, and the same fault,
type and message; for the bench programs, for fuzz programs with and
without a forged RSW, and for a program built to stall.
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

BENCH_PROGRAMS = ("locks", "fft", "sigping", "radix")


def _replay(recording, *, reference):
    """Replay ``recording`` through the flat or the method path: the
    digest (None on a fault), each chunk's withheld FIFOs and stall
    counts, and the fault as (type, message)."""
    trail = []
    digest = fault = None
    with pytest.MonkeyPatch.context() as patch:
        if reference:
            install_replay_port_reference(patch)
        try:
            replayer = base_replayer(recording)
            while replayer.step_chunk() is not None:
                trail.append({rthread: (ctx.withheld.snapshot(),
                                        ctx.withheld.stalls)
                              for rthread, ctx in replayer.threads.items()})
            digest = replayer.result().digest()
        except ReproError as exc:
            fault = (type(exc).__name__, str(exc))
    return digest, trail, fault


def _assert_lockstep(recording):
    flat = _replay(recording, reference=False)
    assert flat == _replay(recording, reference=True)
    return flat


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


def _byte_store_then_word_load():
    """One thread stores a byte into a word and loads the whole word
    back in the same chunk: the load overlaps the withheld byte without
    covering it, so replay counts a stall and commits the FIFO."""
    b = KernelBuilder()
    b.word("cell", 0x11223344)
    b.word("out", 0)
    b.label("main")
    b.ins("storeb", "[cell + 1]", 0xAB)
    b.ins("load", "r7", "[cell]")
    b.ins("store", "[out]", "r7")
    b.write(1, "out", 4)
    b.exit(0)
    return b.build("stall")


def test_partial_overlap_stalls_alike():
    from repro.telemetry import Telemetry

    recording = session.record(_byte_store_then_word_load(),
                               seed=1).recording
    digest, trail, fault = _assert_lockstep(recording)
    assert fault is None and digest is not None
    assert any(stalls for chunk in trail for _fifo, stalls in chunk.values())
    telemetry = Telemetry()
    result = session.replay_recording(recording, telemetry=telemetry)
    assert result.outputs["stdout"] == (0x1122AB44).to_bytes(4, "little")
    assert telemetry.snapshot()["replay.pending_store_stalls"] > 0
