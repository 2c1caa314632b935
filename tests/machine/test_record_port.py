"""The flat record memory path against the method path it inlines.

``_RecordPort``, ``Core.drain_one``, the fabric's transaction (its cache
snoops, signature tests and the requester's fill) and the recorder's
signature hooks each run as one flat body. The reference (:func:`tests.reference.
install_memory_reference`) is built from the methods those bodies inline: ``StoreBuffer.resolve``/``push``/``pop_oldest``, ``MESICache.
classify_read``/``classify_write``/``fill``/``snoop_remote_*``,
``PhysicalMemory.read_word``/``write_word`` and the byte forms, and
``BloomSignature.insert``/``test``. A recording made through the reference
must equal the one made through the flat path, access by access: digest,
chunk log, machine stats and the signatures at every chunk boundary; for
the bench programs and for fuzz programs.
"""

import dataclasses
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import session, workloads
from repro.config import (
    DEFAULT_CONFIG,
    COHERENCE_DIRECTORY,
    COHERENCE_SNOOP,
    CacheConfig,
    MachineConfig,
    StoreBufferConfig,
)
from repro.errors import MemoryAccessError
from repro.isa.assembler import assemble
from repro.machine.machine import Machine
from repro.mrr.chunk import Reason
from repro.mrr.recorder import MemoryRaceRecorder
from repro.session import digest_of
from repro.telemetry import Telemetry
from repro.workloads.fuzz import build_program
from tests.conftest import wire_recorder
from tests.property.test_property_roundtrip import thread_strategy
from tests.reference import install_memory_reference

BENCH_PROGRAMS = ("locks", "fft", "sigping", "radix")


# -- recordings -------------------------------------------------------------------

def _config(coherence, small=False, narrow=False):
    """The default machine, or a small one: a single two-way cache set
    (LRU evictions) and 64-bit signatures saturating at 10% (SATURATION
    cuts and Bloom false positives). ``narrow``: the default machine with
    64-bit signatures, which alias lines on cores outside the presence
    set — the recorder tests the snooping bus makes and the directory
    does not forward."""
    config = DEFAULT_CONFIG
    machine = dataclasses.replace(config.machine, coherence=coherence)
    mrr = config.mrr
    if small:
        machine = dataclasses.replace(
            machine, cache=CacheConfig(sets=1, ways=2))
        mrr = dataclasses.replace(mrr, signature_bits=64,
                                  saturation_threshold=0.1)
    elif narrow:
        mrr = dataclasses.replace(mrr, signature_bits=64)
    return dataclasses.replace(config, machine=machine, mrr=mrr)


def _record(monkeypatch, name, seed, config, *, reference,
            telemetry=None):
    """Record ``name`` at scale 1 through the flat or the method path.

    Returns the outcome and the signatures (words, popcounts, insert
    counts) of every chunk as it terminated."""
    program, inputs = workloads.build(name, scale=1)
    return _record_program(monkeypatch, program, seed, config,
                           reference=reference, input_files=inputs,
                           telemetry=telemetry)


def _record_program(monkeypatch, program, seed, config, *, reference,
                    **kwargs):
    """:func:`_record` for any program; ``kwargs`` go to
    ``session.record``."""
    signatures = []
    terminate = MemoryRaceRecorder.terminate

    def logging_terminate(self, reason):
        read_sig, write_sig = self.read_sig, self.write_sig
        signatures.append((self.rthread, reason, read_sig._word,
                           read_sig.bits_set, read_sig.inserts,
                           write_sig._word, write_sig.bits_set,
                           write_sig.inserts))
        return terminate(self, reason)

    with monkeypatch.context() as patch:
        if reference:
            install_memory_reference(patch)
        patch.setattr(MemoryRaceRecorder, "terminate", logging_terminate)
        outcome = session.record(program, seed=seed, config=config,
                                 **kwargs)
    return outcome, signatures


def _fingerprint(outcome, signatures):
    return (digest_of(outcome),
            json.dumps(outcome.machine_stats, sort_keys=True),
            outcome.kernel_stats, outcome.rsm_stats,
            hashlib.sha256(repr(signatures).encode()).hexdigest(),
            len(signatures))


@pytest.mark.parametrize("name", BENCH_PROGRAMS)
@pytest.mark.parametrize("coherence", [COHERENCE_SNOOP, COHERENCE_DIRECTORY])
@pytest.mark.parametrize("narrow", [True, False])
def test_flat_path_records_what_the_method_path_records(
        monkeypatch, name, coherence, narrow):
    config = _config(coherence, narrow=narrow)
    for seed in (1, 2, 3):
        flat = _record(monkeypatch, name, seed, config, reference=False)
        method = _record(monkeypatch, name, seed, config, reference=True)
        assert _fingerprint(*flat) == _fingerprint(*method), f"seed {seed}"


@pytest.mark.parametrize("name", BENCH_PROGRAMS)
@pytest.mark.parametrize("coherence", [COHERENCE_SNOOP, COHERENCE_DIRECTORY])
def test_small_caches_and_signatures_record_alike(monkeypatch, name,
                                                  coherence):
    """Evictions and saturation cuts: LRU order and the saturation gate
    change the recording, so both paths must keep them alike."""
    config = _config(coherence, small=True)
    flat = _record(monkeypatch, name, 1, config, reference=False)
    method = _record(monkeypatch, name, 1, config, reference=True)
    assert _fingerprint(*flat) == _fingerprint(*method)
    outcome, signatures = flat
    assert any(core["cache"]["evictions"]
               for core in outcome.machine_stats["cores"])
    if name in ("fft", "radix"):  # the others' chunks stay below 10%
        assert any(entry[1] == Reason.SATURATION for entry in signatures)


def test_telemetry_counts_the_same_bloom_false_positives(monkeypatch):
    """16-bit signatures with saturation off fill up and false-positive;
    the telemetry's exact shadow sets must count the same ones."""
    mrr = dataclasses.replace(DEFAULT_CONFIG.mrr, signature_bits=16,
                              saturation_threshold=1.0)
    config = dataclasses.replace(DEFAULT_CONFIG, mrr=mrr)
    counts = []
    for reference in (False, True):
        telemetry = Telemetry()
        outcome, signatures = _record(monkeypatch, "radix", 1, config,
                                      reference=reference,
                                      telemetry=telemetry)
        metrics = telemetry.metrics.snapshot()
        counts.append((_fingerprint(outcome, signatures),
                       metrics["mrr.bloom_false_positives"],
                       metrics["mrr.snoop_terminations"],
                       metrics["machine.store_drains"]))
    assert counts[0] == counts[1]
    assert counts[0][1] > 0


@given(
    threads_ops=st.lists(thread_strategy, min_size=2, max_size=3),
    repeats=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    policy=st.sampled_from(["random", "rr", "bursty"]),
    cores=st.sampled_from([1, 2, 4]),
    sb_entries=st.integers(1, 12),
    coherence=st.sampled_from([COHERENCE_SNOOP, COHERENCE_DIRECTORY]),
    small=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_fuzz_programs_record_alike(threads_ops, repeats, seed, policy,
                                    cores, sb_entries, coherence, small):
    """Fuzz programs (races, atomics, fences, syscalls) on any core count
    and store-buffer depth, with the small caches and signatures too."""
    base = _config(coherence, small)
    config = dataclasses.replace(base, machine=dataclasses.replace(
        base.machine, num_cores=cores, memory_bytes=1 << 18,
        store_buffer=StoreBufferConfig(entries=sb_entries)))
    program = build_program(threads_ops, repeats)
    # No function-scoped fixture under hypothesis: MonkeyPatch.context is
    # a classmethod, so the class serves as _record_program's patcher.
    runs = [_record_program(pytest.MonkeyPatch, program, seed, config,
                            reference=reference, policy=policy)
            for reference in (False, True)]
    assert _fingerprint(*runs[0]) == _fingerprint(*runs[1])


# -- single accesses ---------------------------------------------------------------

MEMORY_BYTES = 1 << 16

TWO_THREADS = """
.data
v: .word 0
.text
main:
    syscall
"""


def _machine(cache=CacheConfig()):
    """A two-core machine with a recorder per core, each recording a
    thread; chunks reach the returned list as they terminate."""
    machine = Machine(MachineConfig(num_cores=2, memory_bytes=MEMORY_BYTES,
                                    cache=cache))
    machine.load_program(assemble(TWO_THREADS))
    chunks = []
    for core in machine.cores:
        wire_recorder(core, DEFAULT_CONFIG.mrr, chunks).set_thread(
            core.core_id + 1)
    return machine, chunks


def _state(machine):
    return (machine.stats_dict(), machine.memory.digest(),
            [core.store_buffer.entries() for core in machine.cores],
            # In LRU order: a missed touch shows before any eviction does.
            [list(core.cache.cached_lines().items())
             for core in machine.cores],
            [(core.recorder.read_sig._word, core.recorder.write_sig._word,
              core.recorder.gate) for core in machine.cores],
            machine.buffered_stores)


def _outcome(call):
    try:
        return ("ok", call())
    except MemoryAccessError as fault:
        return (type(fault), str(fault))


def _lockstep(monkeypatch, script, cache=CacheConfig()):
    """Run ``script(port, machine)`` on core 0 of a flat and of a method
    machine; every returned value, fault and the machine state after it
    must agree."""
    runs = []
    for reference in (False, True):
        with monkeypatch.context() as patch:
            if reference:
                install_memory_reference(patch)
            machine, chunks = _machine(cache)
            results = script(machine.cores[0].port, machine)
            runs.append((results, _state(machine), chunks))
    assert runs[0] == runs[1]
    return runs[0][0]


def test_forwarding_and_partial_overlap_drain(monkeypatch):
    def script(port, machine):
        base = 0x400
        out = []
        port.store(base, 4, 0x11223344)
        out.append(port.load(base + 1, 1))       # covered: forwarded
        port.store(base + 5, 1, 0xAB)
        out.append(port.load(base + 4, 4))       # partial: drain, then read
        out.append(len(machine.cores[0].store_buffer))
        out.append(port.load(base, 4))
        machine.cores[1].port.store(base, 4, 7)
        machine.cores[1].drain_all()              # remote write: WAR cut
        out.append(port.load(base, 4))
        return out

    results = _lockstep(monkeypatch, script)
    assert results[:3] == [0x33, 0xAB00, 0]


def test_store_buffer_overflow_and_fence_drain_alike(monkeypatch):
    def script(port, machine):
        for k in range(machine.config.store_buffer.entries + 3):
            port.store(0x800 + 4 * k, 4, k)
        port.fence()
        value = port.atomic_load(0x800, 4)
        port.atomic_store(0x800, 4, value + 1)
        return [port.load(0x800 + 4 * k, 4) for k in range(4)]

    assert _lockstep(monkeypatch, script)[0] == 1


def test_hits_touch_lru_order_alike(monkeypatch):
    """One two-way set: every kind of hit moves its line to the MRU end,
    so the next miss evicts the other line."""
    a, b, c = 0x400, 0x440, 0x480

    def script(port, machine):
        out = []
        for hit in (lambda: port.load(a, 4),
                    lambda: port.atomic_load(a, 4),
                    lambda: (port.store(a, 4, 9),
                             machine.cores[0].drain_one())):
            port.load(a, 4)
            port.load(b, 4)
            hit()
            port.load(c, 4)              # evicts b, the LRU line
            out.append(list(machine.cores[0].cache.cached_lines()))
            machine.cores[0].cache.flush_all()
        return out

    assert _lockstep(monkeypatch, script,
                     CacheConfig(sets=1, ways=2)) == [[a, c]] * 3


@pytest.mark.parametrize("addr,size", [
    (0x402, 4),                  # misaligned word
    (MEMORY_BYTES, 4),           # past the end
    (MEMORY_BYTES, 1),
    (-4, 4),                     # before the start
    (-1, 1),
])
def test_faults_raise_alike_with_the_same_cache_stats(monkeypatch, addr,
                                                       size):
    def load(port, machine):
        return [_outcome(lambda: port.load(addr, size)), _state(machine)]

    def drain(port, machine):
        port.store(addr, size, 5)
        return [_outcome(machine.cores[0].drain_one), _state(machine)]

    def atomic(port, machine):
        return [_outcome(lambda: port.atomic_load(addr, size)),
                _outcome(lambda: port.atomic_store(addr, size, 1)),
                _state(machine)]

    for script in (load, drain, atomic):
        results = _lockstep(monkeypatch, script)
        assert results[0][0] is MemoryAccessError
