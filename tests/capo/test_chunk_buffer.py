"""The CBUF as the recorder fills it: entries written at termination,
the overflow drain when it fills, the manual drain at finalize."""

import pytest

from repro.capo.chunk_buffer import ChunkBuffer
from repro.config import MachineConfig, MRRConfig
from repro.isa.assembler import assemble
from repro.machine.machine import Machine
from repro.mrr.chunk import Reason
from tests.conftest import wire_recorder


def recorder_on(capacity, drained):
    """A recorder on a one-core machine recording rthread 1, its CBUF of
    ``capacity`` entries draining whole batches into ``drained``."""
    machine = Machine(MachineConfig(num_cores=1, memory_bytes=1 << 12))
    machine.load_program(assemble("main:\n    syscall\n"))
    recorder = wire_recorder(machine.cores[0], MRRConfig(), [],
                             capacity=capacity)
    recorder.cbuf._on_drain = drained.append
    recorder.set_thread(1)
    return recorder


def test_overflow_triggers_drain():
    drained = []
    recorder = recorder_on(3, drained)
    timestamps = [recorder.terminate(Reason.SIZE) for _ in range(3)]
    assert len(drained) == 1
    assert [e.timestamp for e in drained[0]] == timestamps
    assert len(recorder.cbuf) == 0
    assert recorder.cbuf.drains == 1


def test_manual_drain_flushes_partial():
    drained = []
    recorder = recorder_on(10, drained)
    timestamp = recorder.terminate(Reason.SIZE)
    assert recorder.cbuf.drain() == 1
    assert drained[0][0].timestamp == timestamp


def test_drain_empty_is_noop():
    drained = []
    cbuf = ChunkBuffer(4, drained.append)
    assert cbuf.drain() == 0
    assert drained == []
    assert cbuf.drains == 0


def test_every_written_entry_is_counted():
    recorder = recorder_on(2, [])
    for _ in range(5):
        recorder.terminate(Reason.SIZE)
    assert recorder._stats.chunks == 5
    assert recorder._chunk_counts[1] == 5
    assert recorder.cbuf.drains == 2 and len(recorder.cbuf) == 1


def test_capacity_validated():
    with pytest.raises(ValueError):
        ChunkBuffer(0, lambda batch: None)
