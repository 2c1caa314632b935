"""The one-body coherence miss and chunk cut against the chain they inline.

A miss runs one fabric body, :meth:`SnoopBus.transaction`: it snoops the
present caches, tests the other recorders' signatures inline (the test
:meth:`MemoryRaceRecorder.snoop` makes; the directory tests the present
ones), terminates a recorder's chunk on a hit, then fills and charges the
requester. Every cut runs one recorder body,
:meth:`MemoryRaceRecorder.terminate`, which writes its entry into its
core's CBUF itself and raises the overflow drain when the CBUF fills.
:func:`tests.reference.install_miss_reference` puts back the chain those
bodies replaced, ``Machine.bus_transaction`` →
``SnoopBus.transaction`` → ``snoop`` → ``terminate`` → the RSM's ``sink``
→ ``ReplaySphere.note_chunk``/``ChunkBuffer.append``. A recording made
either way must leave the same trace: digest, chunk log, RSM, bus and
kernel statistics, the CBUF drains and their batch sizes, per-core cycles
and cache statistics, both signatures at every chunk end, the flight
ring's contents, and with telemetry on the metrics and trace events.
"""

import dataclasses
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import session, workloads
from repro.capo.chunk_buffer import ChunkBuffer
from repro.config import (
    DEFAULT_CONFIG,
    COHERENCE_DIRECTORY,
    COHERENCE_SNOOP,
    CacheConfig,
    CapoConfig,
    StoreBufferConfig,
    TsoMode,
)
from repro.kernel.kernel import Kernel
from repro.mrr.chunk import Reason
from repro.mrr.recorder import MemoryRaceRecorder
from repro.session import digest_of
from repro.telemetry import Telemetry
from repro.workloads.fuzz import build_program
from tests.kernel.test_trap_path import _first_difference
from tests.property.test_property_roundtrip import thread_strategy
from tests.reference import install_miss_reference

BENCH_PROGRAMS = ("locks", "fft", "sigping", "radix")


def _config(coherence=COHERENCE_SNOOP, tso_mode=TsoMode.RSW,
            small_caches=False, **mrr):
    """The default configuration on ``coherence``. DRAIN runs with short
    chunks and small signatures: at the default sizes every cut is a
    conflict or a kernel entry, so DRAIN would record what RSW does.
    ``small_caches``: one two-way set, so fills evict dirty victims."""
    if tso_mode == TsoMode.DRAIN:
        mrr = {"max_chunk_instructions": 300, "signature_bits": 128, **mrr}
    machine = dataclasses.replace(DEFAULT_CONFIG.machine,
                                  coherence=coherence)
    if small_caches:
        machine = dataclasses.replace(machine,
                                      cache=CacheConfig(sets=1, ways=2))
    return dataclasses.replace(
        DEFAULT_CONFIG,
        machine=machine,
        mrr=dataclasses.replace(DEFAULT_CONFIG.mrr, tso_mode=tso_mode,
                                **mrr))


def _trace(program, *, reference, telemetry=None, **kwargs):
    """Record ``program`` through the flat or the chained miss path and
    return everything the run leaves behind, comparable with ``==``."""
    kernels = []
    signatures = []
    batches = []
    with pytest.MonkeyPatch.context() as patch:
        if reference:
            install_miss_reference(patch)
        run = Kernel.run
        terminate = MemoryRaceRecorder.terminate
        drain = ChunkBuffer.drain

        def capturing_run(self, *args, **run_kwargs):
            kernels.append(self)
            return run(self, *args, **run_kwargs)

        def logging_terminate(self, reason):
            read_sig, write_sig = self.read_sig, self.write_sig
            signatures.append((self.core.core_id, self.rthread, reason,
                               read_sig._word, read_sig.bits_set,
                               read_sig.inserts, write_sig._word,
                               write_sig.bits_set, write_sig.inserts))
            return terminate(self, reason)

        def logging_drain(self):
            size = drain(self)
            batches.append(size)
            return size

        patch.setattr(Kernel, "run", capturing_run)
        patch.setattr(MemoryRaceRecorder, "terminate", logging_terminate)
        patch.setattr(ChunkBuffer, "drain", logging_drain)
        outcome = session.record(program, telemetry=telemetry, **kwargs)
    kernel = kernels[0]
    machine, rsm = kernel.machine, kernel.rsm
    state = (digest_of(outcome),
             list(outcome.recording.chunks),
             list(outcome.recording.events),
             rsm.stats.as_dict(),
             machine.bus.stats.as_dict(),
             kernel.stats.as_dict(),
             [recorder.cbuf.drains for recorder in rsm.recorders],
             batches,
             json.dumps(machine.stats_dict(), sort_keys=True),
             hashlib.sha256(repr(signatures).encode()).hexdigest(),
             len(signatures))
    ring = rsm.flight
    if ring is not None:
        state += ((ring.chunks_seen, ring.evictions,
                   ring.max_chunks_retained,
                   [list(epoch) for epoch in ring._epochs],
                   list(ring._open)),)
    if telemetry is not None:
        state += (telemetry.metrics.snapshot(),
                  list(telemetry.tracer.events))
    return state


def _lockstep(program, *, telemetry=None, **kwargs):
    """The flat and the chained trace of one recording, asserted equal."""
    flat = _trace(program, reference=False, telemetry=telemetry, **kwargs)
    reference = _trace(program, reference=True,
                       telemetry=Telemetry() if telemetry else None,
                       **kwargs)
    if flat != reference:
        pytest.fail("flat and chained traces differ at "
                    + _first_difference(flat, reference), pytrace=False)
    return flat


@pytest.mark.parametrize("name", BENCH_PROGRAMS)
@pytest.mark.parametrize("coherence", [COHERENCE_SNOOP, COHERENCE_DIRECTORY])
@pytest.mark.parametrize("narrow", [True, False])
@pytest.mark.parametrize("tso_mode", [TsoMode.RSW, TsoMode.DRAIN])
def test_bench_programs_miss_and_cut_alike(name, coherence, narrow,
                                           tso_mode):
    """``narrow``: 64-bit signatures, which alias lines on cores outside
    the presence set — the recorder tests the snooping bus makes and the
    directory does not forward."""
    program, inputs = workloads.build(name, scale=1)
    config = _config(coherence, tso_mode,
                     **({"signature_bits": 64} if narrow else {}))
    for seed in (1, 2, 3):
        state = _lockstep(program, seed=seed, config=config,
                          input_files=inputs)
        chunks, rsm_stats, bus_stats = state[1], state[3], state[4]
        assert rsm_stats["chunks"] == len(chunks) > 0
        assert bus_stats["transactions"] > 0
        if tso_mode == TsoMode.DRAIN:
            # A cut outside a transaction drains first; a conflict cut
            # happens inside the requester's transaction and must not.
            assert all(chunk.rsw == 0 for chunk in chunks
                       if chunk.reason not in Reason.CONFLICTS)


def test_drain_mode_keeps_conflict_cuts_undrained():
    """Some conflict cut in DRAIN mode logs stores still buffered: the
    victim of a signature hit did not drain inside the transaction."""
    program, inputs = workloads.build("radix", scale=1)
    state = _lockstep(program, seed=1, input_files=inputs,
                      config=_config(tso_mode=TsoMode.DRAIN))
    chunks = state[1]
    assert any(chunk.rsw for chunk in chunks
               if chunk.reason in Reason.CONFLICTS)
    assert any(chunk.reason in (Reason.SIZE, Reason.SATURATION)
               for chunk in chunks)


@pytest.mark.parametrize("name", BENCH_PROGRAMS)
@pytest.mark.parametrize("coherence", [COHERENCE_SNOOP, COHERENCE_DIRECTORY])
def test_small_caches_evict_alike(name, coherence):
    """Fills that evict a dirty victim charge its writeback."""
    program, inputs = workloads.build(name, scale=1)
    state = _lockstep(program, seed=1, input_files=inputs,
                      config=_config(coherence, small_caches=True))
    cores = json.loads(state[8])["cores"]
    assert any(core["cache"]["evictions"] for core in cores)


def test_telemetry_counts_the_same_bloom_false_positives():
    """16-bit signatures with saturation off fill up and false-positive;
    the metrics and trace events must come out the same."""
    program, inputs = workloads.build("radix", scale=1)
    config = _config(signature_bits=16, saturation_threshold=1.0)
    state = _lockstep(program, seed=1, input_files=inputs, config=config,
                      telemetry=Telemetry())
    metrics = state[-2]
    assert metrics["mrr.bloom_false_positives"] > 0
    assert metrics["mrr.snoop_terminations"] > 0
    assert metrics["machine.bus_reads"] > 0


def test_flight_ring_receives_the_same_chunks():
    program, inputs = workloads.build("locks", scale=1)
    config = dataclasses.replace(
        _config(COHERENCE_DIRECTORY),
        capo=CapoConfig(flight_window=2, flight_epoch_chunks=64))
    state = _lockstep(program, seed=2, input_files=inputs, config=config)
    ring = state[-1]
    assert ring[0] == state[3]["chunks"] and ring[1] > 0


def test_small_cbufs_drain_alike():
    """Two-entry CBUFs overflow every other chunk."""
    program, inputs = workloads.build("locks", scale=1)
    state = _lockstep(program, seed=3, input_files=inputs,
                      config=_config(cbuf_entries=2))
    assert state[3]["cbuf_drains"] > state[3]["chunks"] // 3


@given(
    threads_ops=st.lists(thread_strategy, min_size=2, max_size=3),
    repeats=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    policy=st.sampled_from(["random", "rr", "bursty"]),
    cores=st.sampled_from([1, 2, 4]),
    sb_entries=st.integers(1, 12),
    coherence=st.sampled_from([COHERENCE_SNOOP, COHERENCE_DIRECTORY]),
    tso_mode=st.sampled_from([TsoMode.RSW, TsoMode.DRAIN]),
    small_caches=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_fuzz_programs_miss_and_cut_alike(threads_ops, repeats, seed, policy,
                                          cores, sb_entries, coherence,
                                          tso_mode, small_caches):
    base = _config(coherence, tso_mode, small_caches, cbuf_entries=4)
    config = dataclasses.replace(base, machine=dataclasses.replace(
        base.machine, num_cores=cores, memory_bytes=1 << 18,
        store_buffer=StoreBufferConfig(entries=sb_entries)))
    _lockstep(build_program(threads_ops, repeats), seed=seed, policy=policy,
              config=config)
