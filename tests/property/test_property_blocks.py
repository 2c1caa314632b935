"""Compiled regions vs the interpretive path.

Replay runs each region of a chunk (a basic block, or a loop of blocks)
as one generated function (``repro.machine.decode.region_table``). Three
properties pin it to the interpretive oracle, an engine with the decode
cache off:

- on single-threaded programs over every block mnemonic, running one
  block wherever one starts leaves the state that stepping its units
  leaves, and faults identically;
- on looping programs, entering a region at a random budget retires
  exactly the units that entering its blocks one by one under the fit
  rule retires, leaves the same state, and faults identically;
- hypothesis records racy fuzz programs and replays each one twice in
  lockstep: once with regions on every chunk (``BLOCK_MIN_CHUNK``
  patched to 0, so short fuzz chunks use them too) and once with the
  decode cache off. After every chunk each thread's architectural state,
  its withheld stores and the memory image must agree, and so must the
  final result.
"""

from contextlib import contextmanager

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import session
from repro.config import KernelConfig, MachineConfig, SimConfig
from repro.machine.core import OUTCOME_OK
from repro.isa.assembler import assemble
from repro.machine.decode import region_table
from repro.replay import replayer as replayer_module
from repro.replay.replayer import Replayer
from repro.workloads.fuzz import build_program

from tests.property.test_property_decode import (
    _MEMORY_BYTES,
    _block,
    _make,
    _programs,
    _state,
)
from tests.property.test_property_roundtrip import thread_strategy


@contextmanager
def _blocks_on_every_chunk():
    saved = replayer_module.BLOCK_MIN_CHUNK
    replayer_module.BLOCK_MIN_CHUNK = 0
    try:
        yield
    finally:
        replayer_module.BLOCK_MIN_CHUNK = saved


def _replay_state(replayer):
    return ({rthread: (ctx.engine.snapshot_arch(), ctx.withheld.snapshot())
             for rthread, ctx in replayer.threads.items()},
            replayer.memory.digest(), replayer.stats.as_dict())


def _compiled(entry) -> bool:
    """Has the region of this region-table entry compiled?"""
    return entry is not None and entry[1].__name__.startswith(
        ("block_", "region_"))


def _run_unit(run):
    """``run()``'s outcome, or the exception it raised."""
    try:
        return run(), None
    except Exception as exc:  # noqa: BLE001 - fault identity is the point
        return None, exc


@given(program=_programs())
@settings(max_examples=60, deadline=None)
def test_blocks_match_interpretive_stepping(program):
    fast, fast_port = _make(program, decode_cache=True)
    slow, slow_port = _make(program, decode_cache=False)
    entries = region_table(program)
    for _ in range(5000):
        block = entries[fast.pc] if fast.pc < len(entries) else None
        if block is None:
            fast_out, fast_exc = _run_unit(lambda: fast.step(fast_port))
            slow_out, slow_exc = _run_unit(lambda: slow.step(slow_port))
        else:
            # A budget of the block's own units runs just that block.
            fast_out, fast_exc = _run_unit(
                lambda: block[1](fast, fast_port, block[0]))
            slow_out, slow_exc = _run_unit(
                lambda: [slow.step(slow_port) for _ in range(block[0])])
            if fast_exc is None:
                assert fast_out == block[0]
                assert set(slow_out) == {OUTCOME_OK}
                fast_out = slow_out = OUTCOME_OK
        assert type(fast_exc) is type(slow_exc), (fast_exc, slow_exc)
        assert str(fast_exc) == str(slow_exc)
        assert fast_out == slow_out
        assert _state(fast) == _state(slow)
        if fast_exc is not None or fast_out != OUTCOME_OK:
            break
    else:
        raise AssertionError("program did not stop within the unit budget")
    assert (fast_port.memory.read(0, _MEMORY_BYTES)
            == slow_port.memory.read(0, _MEMORY_BYTES))


@st.composite
def _looping_programs(draw):
    """Fuzz blocks inside a loop that counts ``r7`` down from ``count``
    (the blocks never write ``r7`` or ``r8``). An optional probe loads
    ``[buf + r8*1]`` with ``r8`` = 1 once ``r7 < limit``, else 0: the load
    is misaligned, so it faults, from the drawn iteration on."""
    blocks = draw(st.lists(_block(), min_size=1, max_size=8))
    lines = []
    for n, block in enumerate(blocks):
        lines.extend(line.format(n=n) for line in block)
    count = draw(st.integers(1, 12))
    if draw(st.booleans()):
        limit = draw(st.integers(1, count + 1))
        at = draw(st.integers(0, len(lines)))
        lines[at:at] = [f"sub r8, r7, {limit}", "shr r8, r8, 31",
                        "load r1, [buf + r8*1]"]
    body = "\n".join(line if line.endswith(":") else "    " + line
                     for line in lines)
    source = (".data\nbuf:\n"
              + "".join(f"    .word {17 * (i + 1)}\n" for i in range(16))
              + "buf2: .space 64\n"
              + f".text\nmain:\n    mov r7, {count}\n    jmp top\ntop:\n"
              + body + "\n    sub r7, r7, 1\n    cmp r7, 0\n    jne top\n"
              + "    syscall\n")
    return assemble(source, name="loop")


def _enter_blocks_one_by_one(engine, port, entries, leaders, budget):
    """Step whole blocks of the region with ``leaders`` while the next
    one fits ``budget`` (the fit rule); returns the units retired."""
    units = 0
    while engine.pc in leaders:
        block = entries[engine.pc][0]
        if units + block > budget:
            break
        for _ in range(block):
            assert engine.step(port) == OUTCOME_OK
        units += block
    return units


@given(program=_looping_programs(),
       budgets=st.lists(st.integers(0, 400), min_size=1, max_size=8))
@settings(max_examples=80, deadline=None)
def test_region_stops_at_budget_like_block_by_block_entry(program, budgets):
    fast, fast_port = _make(program, decode_cache=True)
    slow, slow_port = _make(program, decode_cache=False)
    entries = region_table(program)
    for step in range(5000):
        entry = entries[fast.pc] if fast.pc < len(entries) else None
        budget = budgets[step % len(budgets)]
        if entry is None or entry[0] > budget:
            fast_out, fast_exc = _run_unit(lambda: fast.step(fast_port))
            slow_out, slow_exc = _run_unit(lambda: slow.step(slow_port))
        else:
            leaders = {pc for pc, other in enumerate(entries)
                       if other is not None and other[1] is entry[1]}
            fast_out, fast_exc = _run_unit(
                lambda: entry[1](fast, fast_port, budget))
            slow_out, slow_exc = _run_unit(lambda: _enter_blocks_one_by_one(
                slow, slow_port, entries, leaders, budget))
            if fast_exc is None:
                assert 0 < fast_out <= budget
                assert fast_out == slow_out
                fast_out = slow_out = OUTCOME_OK
        assert type(fast_exc) is type(slow_exc), (fast_exc, slow_exc)
        assert str(fast_exc) == str(slow_exc)
        assert fast_out == slow_out
        assert _state(fast) == _state(slow)
        if fast_exc is not None or fast_out != OUTCOME_OK:
            break
    else:
        raise AssertionError("program did not stop within the step budget")
    assert (fast_port.memory.read(0, _MEMORY_BYTES)
            == slow_port.memory.read(0, _MEMORY_BYTES))


@given(threads_ops=st.lists(thread_strategy, min_size=2, max_size=3),
       repeats=st.integers(1, 3),
       seed=st.integers(0, 2**16),
       quantum=st.integers(80, 2000))
@settings(max_examples=40, deadline=None)
# A drain tick drains thread 2's byte store before its word load, which
# then finds no overlap, so the younger word store stays buffered (RSW 1).
# Replay must not commit that store at the load.
@example(threads_ops=[[("xadd", 0, 1)],
                      [("store", 0, 0), ("xadd", 0, 1), ("cmpxchg", 0, 0, 0),
                       ("time",), ("xadd", 0, 1), ("xadd", 0, 1),
                       ("cmpxchg", 0, 0, 0), ("yield",), ("storeb", 0, 0),
                       ("store", 1, 0), ("load", 0)]],
         repeats=1, seed=950, quantum=80)
def test_block_replay_matches_interpretive_replay_per_chunk(
        threads_ops, repeats, seed, quantum):
    program = build_program(threads_ops, repeats)
    config = SimConfig(
        machine=MachineConfig(num_cores=2, memory_bytes=1 << 18),
        kernel=KernelConfig(quantum_instructions=quantum))
    recording = session.record(program, seed=seed, config=config).recording
    slow = Replayer(recording, decode_cache=False)
    fast = Replayer(recording)
    assert all(ctx.regions is None for ctx in slow.threads.values())
    with _blocks_on_every_chunk():
        while not fast.finished:
            fast.step_chunk()
            slow.step_chunk()
            assert _replay_state(fast) == _replay_state(slow), \
                f"state differs after chunk {fast.position - 1}"
    assert fast.result().digest() == slow.result().digest()
    assert any(_compiled(entry) for entry in region_table(recording.program))
