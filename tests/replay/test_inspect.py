"""Time-travel inspector behaviour."""

import pytest

from repro import session
from repro.errors import ReproError
from repro.isa.builder import KernelBuilder
from repro.mrr.chunk import Reason
from repro.replay.checkpoint import capture_state, state_digest
from repro.replay.inspect import ReplayInspector


def make_recording():
    b = KernelBuilder()
    b.word("shared", 0)
    b.space("stack", 2048)
    b.label("main")
    b.ins("mov", "r9", "stack")
    b.ins("add", "r9", "r9", 2032)
    b.spawn("worker", "r9", 0)
    with b.for_range("r6", 0, 40):
        b.ins("mov", "r7", 1)
        b.ins("xadd", "[shared]", "r7")
    spin = b.label("spin")
    b.ins("pause")
    b.ins("load", "r7", "[shared]")
    b.ins("cmp", "r7", 80)
    b.ins("jne", spin)
    b.exit(0)
    b.label("worker")
    with b.for_range("r6", 0, 40):
        b.ins("mov", "r7", 1)
        b.ins("xadd", "[shared]", "r7")
    b.exit(0)
    return session.record(b.build("inspectme"), seed=6)


@pytest.fixture(scope="module")
def recorded():
    return make_recording()


def test_stepping_moves_position(recorded):
    inspector = ReplayInspector(recorded.recording)
    assert inspector.position == 0
    chunks = inspector.step(5)
    assert len(chunks) == 5
    assert inspector.position == 5
    assert not inspector.finished


def test_step_past_end_is_graceful(recorded):
    inspector = ReplayInspector(recorded.recording)
    replayed = inspector.step(10_000_000)
    assert len(replayed) == inspector.total_chunks
    assert inspector.finished
    assert inspector.step(1) == []
    assert inspector.next_chunk() is None


def test_negative_step_rejected(recorded):
    with pytest.raises(ReproError):
        ReplayInspector(recorded.recording).step(-1)


def test_run_to_end_matches_direct_replay(recorded):
    inspector = ReplayInspector(recorded.recording)
    result = inspector.run_to_end()
    assert session.verify(recorded, result).ok


def test_next_chunk_is_schedule_head(recorded):
    inspector = ReplayInspector(recorded.recording)
    first = inspector.next_chunk()
    assert inspector.step(1) == [first]


def test_run_until_predicate(recorded):
    inspector = ReplayInspector(recorded.recording)
    chunk = inspector.run_until(lambda c: c.reason == Reason.EXIT)
    assert chunk is not None and chunk.reason == Reason.EXIT


def test_run_to_timestamp(recorded):
    inspector = ReplayInspector(recorded.recording)
    chunk = inspector.run_to_timestamp(20)
    assert chunk.timestamp >= 20
    # nothing before it was skipped
    assert inspector.position <= inspector.total_chunks


def test_run_to_index(recorded):
    inspector = ReplayInspector(recorded.recording)
    inspector.run_to_index(7)
    assert inspector.position == 7
    inspector.run_to_index(3)  # already past: no-op
    assert inspector.position == 7


def test_watch_word_finds_first_change(recorded):
    inspector = ReplayInspector(recorded.recording)
    hit = inspector.watch_word(inspector.resolve("shared"))
    assert hit is not None
    assert hit.old_value == 0
    assert hit.new_value > 0
    # re-running a fresh inspector to the same index reproduces the hit
    again = ReplayInspector(recorded.recording)
    again.run_to_index(hit.chunk_index)
    assert again.read_word("shared") == hit.old_value
    again.step(1)
    assert again.read_word("shared") == hit.new_value


def test_watch_word_none_when_stable(recorded):
    inspector = ReplayInspector(recorded.recording)
    # a word in the thread stack area that nobody writes... use the last
    # word of the (zero) data segment padding: watch an address past all
    # writes: the symbol region start of stack (never written at word 0)
    addr = recorded.recording.program.symbol("stack")
    hit = inspector.watch_word(addr)
    assert hit is None
    assert inspector.finished


def test_thread_views_and_words(recorded):
    inspector = ReplayInspector(recorded.recording)
    inspector.run_to_index(inspector.total_chunks // 2)
    for rthread in inspector.threads():
        view = inspector.thread_view(rthread)
        assert view.rthread == rthread
        assert len(view.regs) == 16
        assert view.completed_chunks >= 0
    value = inspector.thread_word(1, "shared")
    assert 0 <= value <= 80


def test_thread_word_does_not_change_replay_state(recorded):
    """Reading a word that only partly overlaps a withheld store must not
    commit the thread's FIFO: the next boundary would then find fewer
    withheld stores than its RSW and raise a spurious divergence."""
    inspector = ReplayInspector(recorded.recording)
    inspector.run_to_index(inspector.total_chunks // 2)
    replayer = inspector._replayer
    withheld = replayer.threads[1].withheld
    address = inspector.resolve("shared")
    committed = inspector.read_word("shared")
    withheld.push(address, 4, 0x01020304)
    withheld.push(address + 1, 1, 0xFF)
    pending = len(withheld)
    before = state_digest(capture_state(replayer))
    assert inspector.thread_word(1, "shared") == 0x0102FF04
    assert state_digest(capture_state(replayer)) == before
    assert inspector.read_word("shared") == committed
    # a boundary that keeps every withheld store is still consistent
    withheld.commit_keep_last(pending)


def test_unknown_thread_rejected(recorded):
    inspector = ReplayInspector(recorded.recording)
    with pytest.raises(ReproError):
        inspector.thread_view(99)


def test_resolve_symbol_and_address(recorded):
    inspector = ReplayInspector(recorded.recording)
    base = recorded.recording.program.symbol("shared")
    assert inspector.resolve("shared") == base
    assert inspector.resolve("shared", 2) == base + 8
    assert inspector.resolve(base, 1) == base + 4


def test_disassemble_at_marks_pc(recorded):
    inspector = ReplayInspector(recorded.recording)
    inspector.step(3)
    text = inspector.disassemble_at(1)
    assert "->" in text


def test_final_word_value(recorded):
    inspector = ReplayInspector(recorded.recording)
    inspector.run_to_end()
    assert inspector.read_word("shared") == 80


def test_outputs_accumulate(recorded):
    inspector = ReplayInspector(recorded.recording)
    assert inspector.outputs_so_far() == {}
    inspector.run_to_end()
    assert inspector.outputs_so_far() == recorded.outputs
