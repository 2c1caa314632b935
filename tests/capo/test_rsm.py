"""RSM behaviour observed through full-system recordings."""

import pytest

from repro import session
from repro.capo.events import EV_EXIT, EV_SYSCALL
from repro.capo.rsm import MODE_FULL, MODE_HW, ReplaySphereManager
from repro.errors import RecordingError
from repro.isa.builder import KernelBuilder
from repro.machine.machine import Machine
from repro.config import SimConfig
from repro.mrr.chunk import Reason


def simple_program():
    b = KernelBuilder()
    b.asciz("msg", "out")
    b.label("main")
    with b.for_range("r6", 0, 50):
        b.ins("nop")
    b.write(1, "msg", 3)
    b.exit(5)
    return b.build("rsm-test")


def test_unknown_mode_rejected():
    machine = Machine()
    machine.load_program(simple_program())
    with pytest.raises(RecordingError):
        ReplaySphereManager(machine, SimConfig(), mode="half")


def test_full_mode_logs_events_and_chunks():
    outcome = session.simulate(simple_program(), mode=MODE_FULL)
    stats = outcome.rsm_stats
    assert stats["chunks"] > 0
    assert stats["input_events"] == 2  # write + exit
    assert outcome.recording is not None


def test_hw_mode_logs_chunks_but_no_events():
    outcome = session.simulate(simple_program(), mode=MODE_HW)
    stats = outcome.rsm_stats
    assert stats["chunks"] > 0
    assert stats["input_events"] == 0
    assert stats["cycles_software"] == 0
    assert outcome.recording is None


def test_event_order_and_kinds():
    outcome = session.record(simple_program())
    events = outcome.recording.events
    assert [event.kind for event in events] == [EV_SYSCALL, EV_EXIT]
    assert events[0].seq < events[1].seq
    assert events[1].value == 5  # exit code


def test_event_chunk_seq_anchors_to_thread_chunks():
    outcome = session.record(simple_program())
    recording = outcome.recording
    for event in recording.events:
        thread_chunks = recording.chunks_of(event.rthread)
        assert 0 < event.chunk_seq <= len(thread_chunks)


def test_every_thread_stream_ends_with_exit_chunk():
    outcome = session.record(simple_program())
    recording = outcome.recording
    for rthread in recording.rthreads():
        chunks = recording.chunks_of(rthread)
        assert chunks[-1].reason == Reason.EXIT
        assert all(chunk.reason != Reason.EXIT for chunk in chunks[:-1])


def test_chunk_timestamps_unique_and_thread_monotone():
    outcome = session.record(simple_program())
    chunks = outcome.recording.chunks
    timestamps = [chunk.timestamp for chunk in chunks]
    assert len(set(timestamps)) == len(timestamps)
    per_thread: dict[int, int] = {}
    for chunk in sorted(chunks, key=lambda c: c.sort_key):
        last = per_thread.get(chunk.rthread)
        assert last is None or chunk.timestamp > last
        per_thread[chunk.rthread] = chunk.timestamp


def test_cycle_breakdown_components_populate():
    outcome = session.record(simple_program())
    stats = outcome.rsm_stats
    assert stats["cycles_interpose"] > 0
    assert stats["cycles_input_log"] > 0
    assert stats["cycles_software"] >= (
        stats["cycles_interpose"] + stats["cycles_input_log"])


def test_input_payload_bytes_counted():
    b = KernelBuilder()
    b.asciz("path", "f")
    b.space("buf", 64)
    b.label("main")
    b.syscall(10, "path")            # open
    b.ins("mov", "r10", "rax")
    b.syscall(3, "r10", "buf", 64)   # read 64 bytes
    b.exit(0)
    outcome = session.record(b.build("io"), input_files={"f": b"z" * 64})
    assert outcome.rsm_stats["input_payload_bytes"] == 64


def test_finalize_flushes_all_cbufs():
    outcome = session.record(simple_program())
    # every chunk logged by the recorders must land in the chunk log
    assert len(outcome.recording.chunks) == outcome.rsm_stats["chunks"]


def test_payload_dedup_counts_repeated_content():
    # two reads of the same file content copy in identical payloads; the
    # pool stores the content once and counts the repeat as dedup bytes
    b = KernelBuilder()
    b.asciz("path", "f")
    b.space("buf", 64)
    b.label("main")
    for _ in range(2):
        b.syscall(10, "path")            # open
        b.ins("mov", "r10", "rax")
        b.syscall(3, "r10", "buf", 64)   # read 64 bytes
    b.exit(0)
    outcome = session.record(b.build("io2"), input_files={"f": b"z" * 64})
    assert outcome.rsm_stats["input_payload_bytes"] == 128
    assert outcome.rsm_stats["input_payload_dedup_bytes"] == 64
    copies = [event.copies[0][1] for event in outcome.recording.events
              if event.copies]
    assert len(copies) == 2 and copies[0] is copies[1]
