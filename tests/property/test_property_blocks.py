"""Translation blocks vs the interpretive path.

Replay runs each basic block of a chunk as one generated function
(``repro.machine.decode.block_table``). Two properties pin it to the
interpretive oracle, an engine with the decode cache off:

- on single-threaded programs over every block mnemonic, running a block
  wherever one starts leaves the state that stepping its units leaves,
  and faults identically;
- hypothesis records racy fuzz programs and replays each one twice in
  lockstep: once with blocks on every chunk (``BLOCK_MIN_CHUNK`` patched
  to 0, so short fuzz chunks use them too) and once with the decode cache
  off. After every chunk each thread's architectural state, its withheld
  stores and the memory image must agree, and so must the final result.
"""

from contextlib import contextmanager

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import session
from repro.config import KernelConfig, MachineConfig, SimConfig
from repro.machine import core
from repro.machine.core import OUTCOME_OK
from repro.machine.decode import block_table
from repro.replay import replayer as replayer_module
from repro.replay.replayer import Replayer
from repro.workloads.fuzz import build_program

from tests.property.test_property_decode import (
    _MEMORY_BYTES,
    _make,
    _programs,
    _state,
)
from tests.property.test_property_roundtrip import thread_strategy


@contextmanager
def _interpretive():
    """Engines built inside run without the decode cache (and blocks)."""
    saved = core.DECODE_CACHE_DEFAULT
    core.DECODE_CACHE_DEFAULT = False
    try:
        yield
    finally:
        core.DECODE_CACHE_DEFAULT = saved


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


def _compiled_blocks(program) -> int:
    return sum(1 for entry in block_table(program)
               if entry is not None and entry[1].__name__.startswith("block_"))


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
    entries = block_table(program)
    for _ in range(5000):
        block = entries[fast.pc] if fast.pc < len(entries) else None
        if block is None:
            fast_out, fast_exc = _run_unit(lambda: fast.step(fast_port))
            slow_out, slow_exc = _run_unit(lambda: slow.step(slow_port))
        else:
            fast_out, fast_exc = _run_unit(lambda: block[1](fast, fast_port))
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


@given(threads_ops=st.lists(thread_strategy, min_size=2, max_size=3),
       repeats=st.integers(1, 3),
       seed=st.integers(0, 2**16),
       quantum=st.integers(80, 2000))
@settings(max_examples=40, deadline=None)
def test_block_replay_matches_interpretive_replay_per_chunk(
        threads_ops, repeats, seed, quantum):
    program = build_program(threads_ops, repeats)
    config = SimConfig(
        machine=MachineConfig(num_cores=2, memory_bytes=1 << 18),
        kernel=KernelConfig(quantum_instructions=quantum))
    recording = session.record(program, seed=seed, config=config).recording
    with _interpretive():
        slow = Replayer(recording)
    fast = Replayer(recording)
    assert all(ctx.blocks is None for ctx in slow.threads.values())
    with _blocks_on_every_chunk():
        while not fast.finished:
            fast.step_chunk()
            with _interpretive():
                slow.step_chunk()
            assert _replay_state(fast) == _replay_state(slow), \
                f"state differs after chunk {fast.position - 1}"
    assert fast.result().digest() == slow.result().digest()
    assert _compiled_blocks(recording.program) > 0
