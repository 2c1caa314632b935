"""Recorder behaviour on a real two-core machine (no kernel)."""

import pytest

from repro.config import MachineConfig, MRRConfig, StoreBufferConfig, TsoMode
from repro.errors import RecordingError
from repro.isa.assembler import assemble
from repro.machine.machine import Machine
from repro.mrr.chunk import Reason
from tests.conftest import wire_recorder


def make_recorded_machine(source: str, mrr: MRRConfig | None = None,
                          sb: StoreBufferConfig | None = None):
    config = MachineConfig(num_cores=2, memory_bytes=1 << 16,
                           store_buffer=sb or StoreBufferConfig())
    machine = Machine(config)
    machine.load_program(assemble(source))
    # Each chunk reaches ``logs`` through its core's one-entry CBUF as it
    # terminates, so the list is in termination order.
    logs: list = []
    recorders = [wire_recorder(core, mrr or MRRConfig(), logs)
                 for core in machine.cores]
    return machine, recorders, logs


TWO_THREAD = """
.data
v: .word 0
.text
main:
    mov r1, 5
    store [v], r1
    syscall
reader:
    load r2, [v]
    syscall
"""


def run_core(machine, core_id, steps):
    for _ in range(steps):
        machine.step_core(core_id)


def test_remote_read_of_written_line_terminates_raw():
    machine, recorders, logs = make_recorded_machine(TWO_THREAD)
    recorders[0].set_thread(1)
    recorders[1].set_thread(2)
    run_core(machine, 0, 2)
    machine.cores[0].drain_all()  # write signature filled at drain
    machine.cores[1].engine.pc = machine.program.symbol("reader")
    run_core(machine, 1, 1)
    raw = [entry for entry in logs if entry.reason == Reason.RAW]
    assert len(raw) == 1
    assert raw[0].rthread == 1


def test_read_read_sharing_is_not_a_conflict():
    source = """
.data
v: .word 7
.text
main:
    load r1, [v]
    syscall
reader:
    load r2, [v]
    syscall
"""
    machine, recorders, logs = make_recorded_machine(source)
    recorders[0].set_thread(1)
    recorders[1].set_thread(2)
    run_core(machine, 0, 1)
    machine.cores[1].engine.pc = machine.program.symbol("reader")
    run_core(machine, 1, 1)
    assert not logs


def test_remote_write_over_read_terminates_war():
    source = """
.data
v: .word 7
.text
main:
    load r1, [v]
    syscall
writer:
    mov r2, 9
    store [v], r2
    syscall
"""
    machine, recorders, logs = make_recorded_machine(source)
    recorders[0].set_thread(1)
    recorders[1].set_thread(2)
    run_core(machine, 0, 1)
    machine.cores[1].engine.pc = machine.program.symbol("writer")
    run_core(machine, 1, 2)
    machine.cores[1].drain_all()   # drain issues the invalidating txn
    war = [entry for entry in logs if entry.reason == Reason.WAR]
    assert len(war) == 1 and war[0].rthread == 1


def test_waw_conflict():
    source = """
.data
v: .word 0
.text
main:
    mov r1, 1
    store [v], r1
    syscall
writer:
    mov r2, 2
    store [v], r2
    syscall
"""
    machine, recorders, logs = make_recorded_machine(source)
    recorders[0].set_thread(1)
    recorders[1].set_thread(2)
    run_core(machine, 0, 2)
    machine.cores[0].drain_all()
    machine.cores[1].engine.pc = machine.program.symbol("writer")
    run_core(machine, 1, 2)
    machine.cores[1].drain_all()
    waw = [entry for entry in logs if entry.reason == Reason.WAW]
    assert len(waw) == 1 and waw[0].rthread == 1


def test_timestamps_strictly_increase_globally():
    machine, recorders, logs = make_recorded_machine(TWO_THREAD)
    recorders[0].set_thread(1)
    recorders[1].set_thread(2)
    ts1 = recorders[0].terminate(Reason.PREEMPT)
    ts2 = recorders[1].terminate(Reason.PREEMPT)
    ts3 = recorders[0].terminate(Reason.PREEMPT)
    assert ts1 < ts2 < ts3


def test_victim_timestamp_precedes_requester_chunk():
    machine, recorders, logs = make_recorded_machine(TWO_THREAD)
    recorders[0].set_thread(1)
    recorders[1].set_thread(2)
    run_core(machine, 0, 2)
    machine.cores[0].drain_all()
    machine.cores[1].engine.pc = machine.program.symbol("reader")
    run_core(machine, 1, 1)          # terminates rthread 1's chunk
    ts_reader = recorders[1].terminate(Reason.PREEMPT)
    assert logs[0].timestamp < ts_reader


def test_size_cap_terminates_chunk():
    source = ".text\nmain:\n    nop\n    jmp main\n"
    machine, recorders, logs = make_recorded_machine(
        source, mrr=MRRConfig(max_chunk_instructions=10))
    recorders[0].set_thread(1)
    run_core(machine, 0, 25)
    size_chunks = [entry for entry in logs if entry.reason == Reason.SIZE]
    assert len(size_chunks) == 2
    assert all(entry.icount == 10 for entry in size_chunks)


def test_saturation_terminates_chunk():
    # Touch many distinct lines with a tiny signature.
    lines = 64
    source = (".data\narr: .space 8192\n.text\nmain:\n"
              "    mov r1, 0\nloop:\n"
              "    shl r2, r1, 6\n"
              "    load r3, [arr + r2]\n"
              "    add r1, r1, 1\n"
              "    cmp r1, 64\n"
              "    jne loop\n    syscall\n")
    machine, recorders, logs = make_recorded_machine(
        source, mrr=MRRConfig(signature_bits=64, saturation_threshold=0.5))
    recorders[0].set_thread(1)
    run_core(machine, 0, 64 * 5)
    assert any(entry.reason == Reason.SATURATION for entry in logs)


def test_rsw_counts_pending_stores():
    machine, recorders, logs = make_recorded_machine(
        TWO_THREAD, sb=StoreBufferConfig(entries=8, drain_period=100_000))
    recorders[0].set_thread(1)
    run_core(machine, 0, 2)          # store still buffered
    recorders[0].terminate(Reason.SIZE)
    assert logs[-1].rsw == 1


def test_drain_tso_mode_flushes_before_logging():
    machine, recorders, logs = make_recorded_machine(
        TWO_THREAD, mrr=MRRConfig(tso_mode=TsoMode.DRAIN),
        sb=StoreBufferConfig(entries=8, drain_period=100_000))
    recorders[0].set_thread(1)
    run_core(machine, 0, 2)
    recorders[0].terminate(Reason.SIZE)
    assert logs[-1].rsw == 0
    assert machine.cores[0].store_buffer.empty


def test_mid_instruction_memops_logged():
    source = """
.data
src: .space 64
dst: .space 64
.text
main:
    mov rcx, 8
    mov rsi, src
    mov rdi, dst
    rep_movs
    syscall
"""
    machine, recorders, logs = make_recorded_machine(TWO_THREAD)
    machine.load_program(assemble(source))
    for core in machine.cores:
        core.set_program(machine.program)
    recorders[0].set_thread(1)
    run_core(machine, 0, 3 + 3)      # 3 movs + 3 iterations of 8
    recorders[0].terminate(Reason.PREEMPT)
    assert logs[-1].memops == 6      # 3 iterations x (load + store)
    assert logs[-1].icount == 3      # rep_movs itself not yet retired


def test_inactive_recorder_ignores_snoops():
    machine, recorders, logs = make_recorded_machine(TWO_THREAD)
    # no set_thread anywhere
    assert recorders[0].snoop(0, True) is None
    with pytest.raises(RecordingError):
        recorders[0].terminate(Reason.SIZE)


def test_set_thread_twice_rejected():
    machine, recorders, _logs = make_recorded_machine(TWO_THREAD)
    recorders[0].set_thread(1)
    with pytest.raises(RecordingError):
        recorders[0].set_thread(2)


def test_clear_thread_resets_signatures():
    machine, recorders, _logs = make_recorded_machine(TWO_THREAD)
    recorders[0].set_thread(1)
    recorders[0].on_load(0)
    recorders[0].clear_thread()
    assert recorders[0].read_sig.empty
    assert not recorders[0].active


def test_kernel_copy_joins_write_set():
    machine, recorders, logs = make_recorded_machine(TWO_THREAD)
    recorders[0].set_thread(1)
    recorders[1].set_thread(2)
    addr = machine.program.symbol("v")
    machine.coherent_copy(machine.cores[0], addr, b"\x01\x02\x03\x04")
    # reader on core 1 must now conflict with rthread 1's write set
    machine.cores[1].engine.pc = machine.program.symbol("reader")
    run_core(machine, 1, 1)
    assert any(entry.reason == Reason.RAW and entry.rthread == 1
               for entry in logs)
