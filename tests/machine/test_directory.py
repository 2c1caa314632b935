"""Directory coherence: exact-sharer tracking, lockstep equivalence.

The :class:`DirectoryBus` keeps the exact per-line cache-holder set next
to the conservative presence summary, notifies caches point-to-point and
forwards the recorder test to the present cores. Its contract is
*bit-identity* with the reference snooping fabric, which tests every
recorder, for as long as no Bloom signature aliases a line on a core
outside its presence set:

- **lockstep**: driving both fabrics with the identical transaction
  sequence (on independent machines) must yield identical flush
  decisions, identical cache contents/states after every step, identical
  recorder notifications while signatures hold only their true members,
  and the sharer set must stay a subset of presence and a superset of
  the true holder set;
- **end-to-end**: recording any workload under ``coherence="directory"``
  produces exactly the snooping run's digest (chunks, logs, memory,
  cycles), at small and large core counts, and replays clean.

Plus the accounting: identical ``broadcast_snoops`` under both fabrics
(that is what makes the saved ratio comparable) and a growing
``notifies_saved`` / sharer histogram on the directory.
"""

import random

import pytest

from repro import session, workloads
from repro.config import (
    COHERENCE_DIRECTORY,
    COHERENCE_SNOOP,
    CacheConfig,
    MachineConfig,
    MRRConfig,
    SimConfig,
    StoreBufferConfig,
)
from repro.isa.assembler import assemble
from repro.machine.machine import Machine
from repro.mrr import recorder as recorder_module
from repro.mrr.chunk import Reason
from repro.replay.schedule import build_schedule
from repro.session import digest_of
from tests.conftest import wire_recorder


def _fabric_with_caches(coherence, num_cores=4, sets=4, ways=1):
    """A machine's fabric, its cores and their caches."""
    machine = Machine(
        MachineConfig(num_cores=num_cores, memory_bytes=1 << 12,
                      cache=CacheConfig(sets=sets, ways=ways),
                      coherence=coherence))
    machine.load_program(assemble("main:\n    syscall\n"))
    return machine.bus, machine.cores, [core.cache for core in machine.cores]


def _recorders(cores):
    """A recorder per core, recording rthread core_id + 1; each chunk
    lands in the returned list as it terminates."""
    chunks = []
    recorders = [wire_recorder(core, MRRConfig(), chunks) for core in cores]
    for rthread, recorder in enumerate(recorders, 1):
        recorder.set_thread(rthread)
    return recorders, chunks


# -- exact sharer transitions -------------------------------------------------

def test_untracked_line_defaults_to_everyone():
    bus, _, _ = _fabric_with_caches(COHERENCE_DIRECTORY, num_cores=3)
    assert bus.sharer_mask(0x100) == 0b111
    assert bus.presence_mask(0x100) == 0b111


def test_write_narrows_sharers_and_presence_to_the_writer():
    bus, cores, _ = _fabric_with_caches(COHERENCE_DIRECTORY, num_cores=3)
    bus.transaction(cores[1], 0x100, is_write=True)
    assert bus.sharer_mask(0x100) == 0b010
    assert bus.presence_mask(0x100) == 0b010


def test_reads_add_the_requester_to_both_sets():
    bus, cores, _ = _fabric_with_caches(COHERENCE_DIRECTORY, num_cores=3)
    bus.transaction(cores[1], 0x100, is_write=True)
    bus.transaction(cores[0], 0x100, is_write=False)
    assert bus.sharer_mask(0x100) == 0b011
    assert bus.presence_mask(0x100) == 0b011


def test_eviction_clears_the_sharer_bit_but_not_presence():
    # ways=1: a second line in the same set evicts the first. The evicted
    # core leaves the exact holder set (its cache really dropped the line)
    # but must stay in presence — its recorder signature may still hold it.
    bus, cores, caches = _fabric_with_caches(COHERENCE_DIRECTORY,
                                             num_cores=2, sets=4, ways=1)
    line, alias = 0x100, 0x100 + 4 * 64  # same set index
    bus.transaction(cores[0], line, is_write=True)
    bus.transaction(cores[0], alias, is_write=True)
    assert caches[0].state(line) is None  # evicted
    assert bus.sharer_mask(line) == 0b00
    assert bus.presence_mask(line) == 0b01


def test_flush_all_clears_sharer_bits():
    bus, cores, caches = _fabric_with_caches(COHERENCE_DIRECTORY, num_cores=2)
    bus.transaction(cores[0], 0x100, is_write=True)
    bus.transaction(cores[0], 0x140, is_write=True)
    caches[0].flush_all()
    assert bus.sharer_mask(0x100) == 0
    assert bus.sharer_mask(0x140) == 0


def test_evicted_core_recorder_is_still_snooped():
    """The Bloom-FP case: a core out of the sharer set but in presence
    must still get the recorder notification — its signature may
    false-positive on the line and terminate a chunk."""
    bus, cores, caches = _fabric_with_caches(COHERENCE_DIRECTORY,
                                             num_cores=2, sets=4, ways=1)
    (recorder, _other), chunks = _recorders(cores)
    line, alias = 0x100, 0x100 + 4 * 64
    bus.transaction(cores[0], line, is_write=True)
    bus.transaction(cores[0], alias, is_write=True)  # evicts `line`
    recorder.on_store_drain(line)
    bus.transaction(cores[1], line, is_write=True)
    # The presence bit kept core 0's recorder tested.
    assert [(c.rthread, c.reason) for c in chunks] == [(1, Reason.WAW)]


# -- lockstep equivalence -----------------------------------------------------

@pytest.mark.parametrize("aliasing", [True, False])
@pytest.mark.parametrize("num_cores", [2, 4, 16])
def test_fabrics_agree_transaction_by_transaction(num_cores, aliasing):
    """Random transaction storms: both fabrics, fed the same sequence
    against independent cache sets, agree on every cache observable — and
    the directory's exact sharer set stays wedged between the true holder
    set and the presence superset.

    Before each transaction recorders take the line into their write
    sets: with ``aliasing`` every recorder does, as a signature that
    aliases the line would test; otherwise only the present cores' do, as
    true members. The snooping bus cuts every other such recorder, the
    directory only the present ones, so without aliasing both cut the
    same chunks in the same order."""
    rng = random.Random(num_cores * 31 + aliasing)
    snoop_bus, snoop_cores, snoop_caches = _fabric_with_caches(
        COHERENCE_SNOOP, num_cores=num_cores)
    dir_bus, dir_cores, dir_caches = _fabric_with_caches(
        COHERENCE_DIRECTORY, num_cores=num_cores)
    snoop_recorders, snoop_chunks = _recorders(snoop_cores)
    dir_recorders, dir_chunks = _recorders(dir_cores)
    everyone = (1 << num_cores) - 1

    lines = [0x100 + 64 * k for k in range(10)]  # a few set-aliasing pairs
    for step in range(600):
        core_id = rng.randrange(num_cores)
        line = rng.choice(lines)
        is_write = rng.random() < 0.4
        present = snoop_bus.presence_mask(line)
        assert present == dir_bus.presence_mask(line), f"step {step}"
        holding = everyone if aliasing else present
        for recorders in (snoop_recorders, dir_recorders):
            for cid, recorder in enumerate(recorders):
                if holding >> cid & 1:
                    recorder.on_store_drain(line)
        cut = len(snoop_chunks), len(dir_chunks)
        flushes = snoop_bus.stats.flushes, dir_bus.stats.flushes
        snoop_bus.transaction(snoop_cores[core_id], line, is_write)
        dir_bus.transaction(dir_cores[core_id], line, is_write)
        assert (snoop_bus.stats.flushes - flushes[0]
                == dir_bus.stats.flushes - flushes[1]), f"step {step}"
        reason = Reason.WAW if is_write else Reason.RAW
        others = holding & ~(1 << core_id)
        assert [(c.rthread, c.reason) for c in snoop_chunks[cut[0]:]] == [
            (cid + 1, reason) for cid in range(num_cores)
            if others >> cid & 1], f"step {step}"
        assert [(c.rthread, c.reason) for c in dir_chunks[cut[1]:]] == [
            (cid + 1, reason) for cid in range(num_cores)
            if (others & present) >> cid & 1], f"step {step}"
        if not aliasing:
            assert snoop_chunks == dir_chunks, f"step {step}"
        for sc, dc in zip(snoop_caches, dir_caches):
            assert sc.cached_lines() == dc.cached_lines()
            for cached in sc.cached_lines():
                assert sc.state(cached) == dc.state(cached)
        for check in lines:
            sharers = dir_bus.sharer_mask(check)
            presence = dir_bus.presence_mask(check)
            assert sharers & ~presence == 0, \
                f"sharers ⊄ presence for line {check:#x}"
            true_holders = sum(
                1 << cid for cid, cache in enumerate(dir_caches)
                if cache.state(check) is not None)
            assert true_holders & ~sharers == 0, \
                f"sharer set misses a holder for line {check:#x}"
    assert dir_chunks, "no recorder was reached"
    if aliasing:
        assert len(snoop_chunks) > len(dir_chunks)
    # Each chunk cut charges its core one CBUF entry write; the rest of
    # the cycles are the identical transactions'.
    entry_write = snoop_cores[0].machine.cost.cbuf_entry_write
    for cid, (snoop_core, dir_core) in enumerate(zip(snoop_cores,
                                                     dir_cores)):
        extra_cuts = (sum(c.rthread == cid + 1 for c in snoop_chunks)
                      - sum(c.rthread == cid + 1 for c in dir_chunks))
        assert (snoop_core.cycles - dir_core.cycles
                == entry_write * extra_cuts)
    assert snoop_bus.stats.flushes == dir_bus.stats.flushes
    assert snoop_bus.stats.broadcast_snoops == dir_bus.stats.broadcast_snoops
    assert dir_bus.stats.notifies_sent <= snoop_bus.stats.notifies_sent
    assert (dir_bus.stats.notifies_sent + dir_bus.stats.notifies_saved
            == dir_bus.stats.broadcast_snoops)


# -- end-to-end bit-identity --------------------------------------------------

def _config(num_cores, coherence):
    return SimConfig(machine=MachineConfig(num_cores=num_cores,
                                           coherence=coherence))


@pytest.mark.parametrize("num_cores", [4, 16])
@pytest.mark.parametrize("workload", ["counter", "pingpong"])
def test_directory_recording_is_bit_identical(workload, num_cores,
                                              monkeypatch):
    # Capture the order in which the recorders write chunk entries: every
    # termination builds exactly one.
    emitted = []
    chunk_entry = recorder_module.ChunkEntry

    def recording_entry(*fields):
        entry = chunk_entry(*fields)
        emitted.append(entry)
        return entry

    monkeypatch.setattr(recorder_module, "ChunkEntry", recording_entry)
    program, inputs = workloads.build(workload, threads=num_cores, scale=1)
    runs, emissions = {}, {}
    for coherence in ("snoop", "directory"):
        emitted.clear()
        runs[coherence] = session.record(
            program, seed=6, input_files=inputs,
            config=_config(num_cores, coherence))
        emissions[coherence] = list(emitted)
    snoop, directory = runs["snoop"], runs["directory"]
    assert digest_of(snoop) == digest_of(directory)
    assert snoop.total_cycles == directory.total_cycles
    assert (build_schedule(snoop.recording.chunks)
            == build_schedule(directory.recording.chunks))
    # Entries are written in (timestamp, rthread) schedule order under
    # both fabrics — the order FlightRing.push_chunk relies on.
    for coherence, run in runs.items():
        assert emissions[coherence] == build_schedule(run.recording.chunks)


def test_directory_under_stress_config_stays_identical():
    """Tiny caches (constant evictions — the sharer set churns hard),
    shallow store buffer, small chunks: the adversarial setting for the
    exact-sharer bookkeeping."""
    def config(coherence):
        return SimConfig(
            machine=MachineConfig(
                num_cores=4,
                memory_bytes=1 << 18,
                cache=CacheConfig(sets=4, ways=1),
                store_buffer=StoreBufferConfig(entries=4, drain_period=4),
                coherence=coherence,
            ),
            mrr=MRRConfig(signature_bits=256, cbuf_entries=16,
                          max_chunk_instructions=512),
        )

    program, inputs = workloads.build("pingpong", scale=1)
    snoop = session.record(program, seed=11, input_files=inputs,
                           config=config("snoop"))
    directory = session.record(program, seed=11, input_files=inputs,
                               config=config("directory"))
    assert digest_of(snoop) == digest_of(directory)


def test_record_and_replay_under_directory():
    program, inputs = workloads.build("barnes")
    outcome, _replayed, report = session.record_and_replay(
        program, seed=2, input_files=inputs,
        config=_config(8, "directory"))
    assert report.ok
    assert outcome.machine_stats["bus"]["notifies_saved"] > 0
    assert outcome.machine_stats["bus"]["sharer_hist"]


def test_directory_saves_notifies_on_sharing_heavy_workloads():
    program, inputs = workloads.build("pingpong", threads=16, scale=1)
    outcome = session.record(program, seed=2, input_files=inputs,
                             config=_config(16, "directory"))
    bus = outcome.machine_stats["bus"]
    # Sharing is pairwise, so at 16 cores point-to-point should beat the
    # 15-way broadcast by a wide margin.
    assert bus["notifies_saved"] > bus["notifies_sent"]
