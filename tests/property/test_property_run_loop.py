"""Lockstep: the one run loop against the stepped reference loop.

``Kernel.run`` takes each interleaver's choices a run at a time and runs
every engine through its unit table; ``tests/reference.py`` keeps the loop
of ``choose`` and ``Machine.step_core`` per unit. Over hypothesis-drawn
racy programs, every policy, both engines and 1 to 4 cores (one core is
the single-candidate run), both loops must leave the same chunk log, input
events, kernel/RSM/machine stats (per-core cycles included) and memory.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import session
from repro.config import (
    KernelConfig,
    MachineConfig,
    SimConfig,
    StoreBufferConfig,
)
from repro.mrr.logfmt import encode_chunks
from repro.workloads.fuzz import build_program
from tests.property.test_property_roundtrip import thread_strategy
from tests.reference import install_run_reference


def _everything(outcome):
    return (outcome.final_memory_digest, outcome.units,
            encode_chunks(outcome.recording.chunks),
            list(outcome.recording.events), outcome.kernel_stats,
            outcome.rsm_stats, outcome.machine_stats)


@given(
    threads_ops=st.lists(thread_strategy, min_size=2, max_size=3),
    repeats=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    policy=st.sampled_from(["random", "rr", "bursty"]),
    decode_cache=st.booleans(),
    cores=st.sampled_from([1, 2, 4]),
    quantum=st.integers(80, 2000),
    drain_period=st.integers(1, 40),
)
@settings(max_examples=100, deadline=None)
def test_one_loop_records_what_the_stepped_loop_records(
        threads_ops, repeats, seed, policy, decode_cache, cores, quantum,
        drain_period):
    program = build_program(threads_ops, repeats)
    config = SimConfig(
        machine=MachineConfig(
            num_cores=cores,
            memory_bytes=1 << 18,
            store_buffer=StoreBufferConfig(drain_period=drain_period),
        ),
        kernel=KernelConfig(quantum_instructions=quantum),
    )
    runs = []
    for stepped in (False, True):
        with pytest.MonkeyPatch.context() as patch:
            if stepped:
                install_run_reference(patch)
            runs.append(_everything(session.record(
                program, seed=seed, policy=policy, config=config,
                decode_cache=decode_cache)))
    assert runs[0] == runs[1]
