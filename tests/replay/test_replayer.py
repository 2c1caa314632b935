"""Replayer behaviour: fidelity on crafted programs and divergence
detection on corrupted logs."""

import dataclasses

import pytest

from repro import session
from repro.capo.events import EV_SYSCALL
from repro.errors import MachineFault, ReplayDivergenceError
from repro.isa.builder import KernelBuilder, SYS_SIGACTION, SYS_KILL, SYS_GETTID, SYS_SIGRETURN
from repro.machine.decode import region_table
from repro.mrr.chunk import Reason
from repro.replay.replayer import Replayer


def racy_program():
    b = KernelBuilder()
    b.word("shared", 0)
    b.word("out", 0)
    b.space("stack", 2048)
    b.label("main")
    b.ins("mov", "r9", "stack")
    b.ins("add", "r9", "r9", 2032)
    b.spawn("worker", "r9", 0)
    with b.for_range("r6", 0, 60):
        b.ins("load", "r7", "[shared]")
        b.ins("add", "r7", "r7", 1)
        b.ins("store", "[shared]", "r7")
    w = b.label("join")
    b.ins("pause")
    b.ins("load", "r7", "[out]")
    b.ins("test", "r7", "r7")
    b.ins("je", w)
    b.exit(0)
    b.label("worker")
    with b.for_range("r6", 0, 60):
        b.ins("load", "r7", "[shared]")
        b.ins("add", "r7", "r7", 2)
        b.ins("store", "[shared]", "r7")
    b.ins("store", "[out]", 1)
    b.exit(0)
    return b.build("racy")


@pytest.fixture(scope="module")
def recorded():
    return session.record(racy_program(), seed=11)


def test_replay_matches_recording(recorded):
    result = session.replay_recording(recorded.recording)
    assert session.verify(recorded, result).ok


def test_replay_stats_populated(recorded):
    result = session.replay_recording(recorded.recording)
    assert result.stats.chunks == len(recorded.recording.chunks)
    assert result.stats.events == len(recorded.recording.events)
    assert result.stats.units > 0


def test_replay_is_idempotent(recorded):
    first = session.replay_recording(recorded.recording)
    second = session.replay_recording(recorded.recording)
    assert first.final_memory_digest == second.final_memory_digest


def _mutate(recording, **changes):
    return recording.replace(**changes)


def test_dropped_chunk_detected(recorded):
    recording = recorded.recording
    broken = _mutate(recording, chunks=recording.chunks[:-1])
    with pytest.raises(ReplayDivergenceError):
        Replayer(broken).run()


def test_corrupted_icount_detected(recorded):
    recording = recorded.recording
    chunks = list(recording.chunks)
    victim = max(range(len(chunks)), key=lambda i: chunks[i].icount)
    chunks[victim] = dataclasses.replace(chunks[victim],
                                         icount=chunks[victim].icount + 1)
    with pytest.raises(ReplayDivergenceError):
        Replayer(_mutate(recording, chunks=chunks)).run()


def test_corrupted_rsw_detected(recorded):
    recording = recorded.recording
    chunks = list(recording.chunks)
    index = next(i for i, c in enumerate(chunks)
                 if c.reason in Reason.CONFLICTS)
    chunks[index] = dataclasses.replace(chunks[index], rsw=60_000 & 0xFFFF)
    with pytest.raises(ReplayDivergenceError):
        Replayer(_mutate(recording, chunks=chunks)).run()


def test_dropped_event_detected(recorded):
    recording = recorded.recording
    broken = _mutate(recording, events=recording.events[:-1])
    with pytest.raises(ReplayDivergenceError):
        Replayer(broken).run()


def test_event_kind_mismatch_detected(recorded):
    recording = recorded.recording
    events = list(recording.events)
    index = next(i for i, e in enumerate(events) if e.kind == EV_SYSCALL)
    events[index] = dataclasses.replace(events[index], kind="signal", sysno=0,
                                        copies=())
    with pytest.raises(ReplayDivergenceError):
        Replayer(_mutate(recording, events=events)).run()


def test_wrong_syscall_retval_changes_behaviour_or_state(recorded):
    """Retval corruption must never silently verify."""
    recording = recorded.recording
    events = list(recording.events)
    index = next(i for i, e in enumerate(events)
                 if e.kind == EV_SYSCALL and e.sysno == 4)  # spawn retval
    events[index] = dataclasses.replace(events[index], value=55)
    broken = _mutate(recording, events=events)
    with pytest.raises(ReplayDivergenceError):
        Replayer(broken).run()


def test_swapped_thread_chunks_detected(recorded):
    recording = recorded.recording
    chunks = list(recording.chunks)
    # give one of thread 2's chunks to thread 1
    index = next(i for i, c in enumerate(chunks)
                 if c.rthread == 2 and c.reason in Reason.CONFLICTS)
    chunks[index] = dataclasses.replace(chunks[index], rthread=1)
    with pytest.raises(ReplayDivergenceError):
        Replayer(_mutate(recording, chunks=chunks)).run()


def test_load_hash_divergence_pinpoints_chunk():
    from repro.config import MRRConfig, SimConfig

    config = SimConfig(mrr=MRRConfig(log_load_hash=True))
    outcome = session.record(racy_program(), seed=4, config=config)
    recording = outcome.recording
    assert any(chunk.load_hash for chunk in recording.chunks)
    result = session.replay_recording(recording)
    assert session.verify(outcome, result).ok
    # now flip one recorded hash: replay must stop at that exact chunk
    chunks = list(recording.chunks)
    victim = max(range(len(chunks)), key=lambda i: chunks[i].icount)
    chunks[victim] = dataclasses.replace(
        chunks[victim], load_hash=(chunks[victim].load_hash or 0) ^ 1)
    broken = _mutate(recording, chunks=chunks)
    with pytest.raises(ReplayDivergenceError) as err:
        Replayer(broken).run()
    assert "hash" in str(err.value)


def test_signal_replay_with_handlers():
    b = KernelBuilder()
    b.word("hits", 0)
    b.label("main")
    b.syscall(SYS_SIGACTION, 10, "handler")
    b.syscall(SYS_GETTID)
    b.ins("mov", "r11", "rax")
    with b.for_range("r6", 0, 5):
        b.ins("push", "r6")
        b.syscall(SYS_KILL, "r11", 10)
        b.ins("pop", "r6")
    b.exit(0)
    b.label("handler")
    b.ins("load", "r7", "[hits]")
    b.ins("add", "r7", "r7", 1)
    b.ins("store", "[hits]", "r7")
    b.syscall(SYS_SIGRETURN)
    outcome, result, report = session.record_and_replay(b.build("sig"), seed=2)
    assert report.ok
    assert result.stats.signals == 5


def test_exit_codes_collected(recorded):
    result = session.replay_recording(recorded.recording)
    assert result.exit_codes == recorded.exit_codes


# -- compiled regions: faults and divergences match stepping ------------------

def _replay_both_ways(recording, monkeypatch):
    """Replay ``recording`` with compiled regions on every chunk, then
    with the decode cache off; returns each run's (exception, replayer
    state)."""
    results = []
    for decode_cache in (True, False):
        with monkeypatch.context() as patch:
            patch.setattr("repro.replay.replayer.BLOCK_MIN_CHUNK", 0)
            replayer = Replayer(recording, decode_cache=decode_cache)
            try:
                replayer.run()
            except Exception as exc:  # noqa: BLE001 - identity is the point
                error = exc
            else:
                error = None
        state = ({rthread: (ctx.engine.snapshot_arch(),
                            ctx.withheld.snapshot())
                  for rthread, ctx in replayer.threads.items()},
                 replayer.memory.digest(), replayer.stats.as_dict())
        results.append((error, state))
    return results


def _compiled(entry) -> bool:
    """Has the region of this region-table entry compiled?"""
    return entry is not None and entry[1].__name__.startswith(
        ("block_", "region_"))


def _block_around(program, pc):
    """The leader of the compiled block whose units include ``pc`` past
    its first (None: none ran)."""
    for leader, entry in enumerate(region_table(program)):
        if _compiled(entry) and leader < pc < leader + entry[0]:
            return leader
    return None


def _faulting_region_calls(monkeypatch):
    """Make replay record, for each region call that raises, the pc it
    was entered at and the units it retired before the fault."""
    from repro.replay import replayer as replayer_module

    faults = []

    def recording_table(program):
        table = region_table(program)

        def enter(e, port, budget):
            pc, retired = e.pc, e.retired
            try:
                return table[pc][1](e, port, budget)
            except MachineFault:
                faults.append((pc, e.retired - retired))
                raise
        return [entry and (entry[0], enter) for entry in table]
    monkeypatch.setattr(replayer_module, "region_table", recording_table)
    return faults


def _misaligning_program(kind):
    """Loops over a word whose address is ``buf + (tid - 1) * i`` in
    iteration ``i``: aligned as recorded, misaligned from the second
    iteration on once the gettid result is forged. The loop is one region
    of two blocks (its test and its body), so the fault meets the body
    after the region has run a whole body and test."""
    b = KernelBuilder()
    b.word("buf", 5, 6, 7, 8)
    b.label("main")
    b.syscall(SYS_GETTID)
    b.ins("mov", "r11", "rax")
    with b.for_range("r6", 0, 8):
        b.ins("mov", "r1", "r11")
        b.ins("sub", "r1", "r1", 1)
        b.ins("mul", "r1", "r1", "r6")
        b.ins("add", "r1", "r1", "buf")
        b.ins("load", "r2", "[buf + 4]")
        b.ins("add", "r3", "r3", "r2")
        b.ins("cmp", "r3", 40)
        if kind == "load":
            b.ins("load", "r4", "[r1]")
        else:
            b.ins("store", "[r1]", "r3")
        b.ins("add", "r5", "r5", 1)
    b.exit(0)
    return b.build(f"misaligned-{kind}")


@pytest.mark.parametrize("kind", ["load", "store"])
def test_fault_inside_block_matches_stepping(kind, monkeypatch):
    recording = session.record(_misaligning_program(kind), seed=1).recording
    events = list(recording.events)
    index = next(i for i, e in enumerate(events)
                 if e.kind == EV_SYSCALL and e.sysno == SYS_GETTID)
    assert events[index].value == 1
    events[index] = dataclasses.replace(events[index], value=2)
    forged = _mutate(recording, events=events)
    faults = _faulting_region_calls(monkeypatch)
    (fast_error, fast_state), (slow_error, slow_state) = \
        _replay_both_ways(forged, monkeypatch)
    assert type(fast_error) is type(slow_error) is MachineFault
    assert f"misaligned word {kind} at" in str(fast_error)
    assert str(fast_error) == str(slow_error)
    assert fast_state == slow_state
    # The fault hit a unit in the middle of a compiled block, after the
    # region call had retired at least one whole block before that one.
    leader = _block_around(forged.program, fast_error.pc)
    assert leader is not None
    [(entered, retired)] = faults
    assert retired > fast_error.pc - leader
    assert region_table(forged.program)[entered][1].__name__.startswith(
        "region_")


def test_inflated_icount_into_syscall_matches_stepping(recorded, monkeypatch):
    recording = recorded.recording
    chunks = list(recording.chunks)
    victim = max((i for i, c in enumerate(chunks)
                  if c.reason == Reason.SYSCALL),
                 key=lambda i: chunks[i].icount)
    chunks[victim] = dataclasses.replace(chunks[victim],
                                         icount=chunks[victim].icount + 3)
    (fast_error, fast_state), (slow_error, slow_state) = \
        _replay_both_ways(_mutate(recording, chunks=chunks), monkeypatch)
    assert type(fast_error) is type(slow_error) is ReplayDivergenceError
    assert "trap (syscall) inside a chunk" in str(fast_error)
    assert str(fast_error) == str(slow_error)
    assert fast_error.icount == slow_error.icount
    assert fast_state == slow_state


def test_race_report_identical_with_blocks_and_without(monkeypatch):
    """The shadow port reads ``engine.pc`` on every access, so a region
    must publish each unit's pc before its memory access."""
    from repro import workloads
    from repro.forensics import detect_races

    program, inputs = workloads.build("racer", scale=1)
    recording = session.record(program, seed=11,
                               input_files=inputs).recording
    reports = []
    for decode_cache in (True, False):
        with monkeypatch.context() as patch:
            patch.setattr("repro.replay.replayer.BLOCK_MIN_CHUNK", 0)
            report = detect_races(recording, max_races_per_address=10**9,
                                  decode_cache=decode_cache)
        reports.append((report.as_dict(), report.syscall_args))
    assert reports[0][0]["races"]
    assert reports[0] == reports[1]
    assert any(_compiled(entry)
               for entry in region_table(recording.program))


def test_malformed_register_operand_stays_out_of_blocks(monkeypatch):
    """Operands come from the bundle's program image and are pasted into
    generated source: a register "number" that is not a valid int, or a
    scale that is not an int, must keep its instruction out of every region
    and out of the generated unit functions. It runs its interpretive
    handler instead and fails exactly as the interpretive engine does."""
    import os

    from repro.isa.instructions import Instr
    from repro.isa.operands import Imm, Mem, Reg
    from repro.isa.program import Program
    from repro.machine.core import Engine
    from repro.machine.decode import decoded_program
    from repro.machine.memory import PhysicalMemory
    from tests.conftest import DirectPort

    hostile = "0] or __import__('os').getpid() or regs[0"
    program = Program(instructions=(
        Instr("mov", (Reg(1), Imm(5))),
        Instr("mov", (Reg(hostile), Imm(1))),
        Instr("mov", (Reg(2), Imm(7))),
        Instr("load", (Reg(3), Mem(base=16))),
        Instr("lea", (Reg(4), Mem(base=1, index=1, scale=4.0))),
        Instr("syscall"),
    ))
    table = region_table(program)
    assert [entry and entry[0] for entry in table] == \
        [1, None, 1, None, None, None]

    def generated_code_ran():
        raise AssertionError("a hostile operand reached generated code")
    monkeypatch.setattr(os, "getpid", generated_code_ran)
    units = decoded_program(program)
    for pc in (1, 3, 4):
        errors = []
        for decode_cache in (True, False):
            engine = Engine(program, decode_cache=decode_cache)
            engine.pc = pc
            with pytest.raises(Exception) as info:
                engine.step(DirectPort(PhysicalMemory(1 << 12)))
            errors.append(info.value)
        assert type(errors[0]) is type(errors[1])
        assert type(errors[0]) in (TypeError, IndexError)
        assert str(errors[0]) == str(errors[1])
        assert units[pc].__name__ == "interpret"
    engine = Engine(program)
    engine.step(DirectPort(PhysicalMemory(1 << 12)))
    assert engine.regs[1] == 5 and units[0].__name__ == "unit_0"
