"""Directory coherence: exact-sharer tracking, lockstep equivalence.

The :class:`DirectoryBus` keeps the exact per-line cache-holder set next
to the conservative presence summary and notifies caches point-to-point.
Its contract is *bit-identity* with the reference snooping fabric:

- **lockstep**: driving both fabrics with the identical transaction
  sequence (against independent cache pairs) must yield identical
  ``BusResult``s — fill state, victim order, flush decision — identical
  cache contents/states after every step, and the sharer set must stay a
  subset of presence and a superset of the true holder set;
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
from repro.capo.chunk_buffer import ChunkBuffer
from repro.config import (
    CacheConfig,
    MachineConfig,
    MRRConfig,
    SimConfig,
    StoreBufferConfig,
)
from repro.machine.bus import DirectoryBus, SnoopBus
from repro.machine.cache import EXCLUSIVE, MESICache, MODIFIED, SHARED
from repro.perf.bench import digest_of
from repro.replay.schedule import build_schedule


def _fabric_with_caches(bus_cls, num_cores=4, sets=4, ways=1,
                        filter_snoops=None):
    bus = bus_cls(num_cores, filter_snoops=filter_snoops)
    caches = []
    for core_id in range(num_cores):
        cache = MESICache(CacheConfig(sets=sets, ways=ways))
        bus.attach_cache(core_id, cache)
        caches.append(cache)
    return bus, caches


def _fill(bus, caches, core_id, line, is_write):
    result = bus.transaction(core_id, line, is_write)
    caches[core_id].fill(line, MODIFIED if is_write else result.fill_state)
    return result


class _StubRecorder:
    """Snooper returning scripted victim timestamps for chosen lines."""

    def __init__(self, victims=None):
        self.victims = dict(victims or {})
        self.seen = []

    def snoop(self, line, is_write):
        self.seen.append((line, is_write))
        return self.victims.pop(line, None)


# -- exact sharer transitions -------------------------------------------------

def test_untracked_line_defaults_to_everyone():
    bus, _ = _fabric_with_caches(DirectoryBus, num_cores=3)
    assert bus.sharer_mask(0x100) == 0b111
    assert bus.presence_mask(0x100) == 0b111


def test_write_narrows_sharers_and_presence_to_the_writer():
    bus, caches = _fabric_with_caches(DirectoryBus, num_cores=3)
    _fill(bus, caches, 1, 0x100, is_write=True)
    assert bus.sharer_mask(0x100) == 0b010
    assert bus.presence_mask(0x100) == 0b010


def test_reads_add_the_requester_to_both_sets():
    bus, caches = _fabric_with_caches(DirectoryBus, num_cores=3)
    _fill(bus, caches, 1, 0x100, is_write=True)
    _fill(bus, caches, 0, 0x100, is_write=False)
    assert bus.sharer_mask(0x100) == 0b011
    assert bus.presence_mask(0x100) == 0b011


def test_eviction_clears_the_sharer_bit_but_not_presence():
    # ways=1: a second line in the same set evicts the first. The evicted
    # core leaves the exact holder set (its cache really dropped the line)
    # but must stay in presence — its recorder signature may still hold it.
    bus, caches = _fabric_with_caches(DirectoryBus, num_cores=2,
                                      sets=4, ways=1)
    line, alias = 0x100, 0x100 + 4 * 64  # same set index
    _fill(bus, caches, 0, line, is_write=True)
    _fill(bus, caches, 0, alias, is_write=True)
    assert caches[0].state(line) is None  # evicted
    assert bus.sharer_mask(line) == 0b00
    assert bus.presence_mask(line) == 0b01


def test_flush_all_clears_sharer_bits():
    bus, caches = _fabric_with_caches(DirectoryBus, num_cores=2)
    _fill(bus, caches, 0, 0x100, is_write=True)
    _fill(bus, caches, 0, 0x140, is_write=True)
    caches[0].flush_all()
    assert bus.sharer_mask(0x100) == 0
    assert bus.sharer_mask(0x140) == 0


def test_evicted_core_recorder_is_still_snooped():
    """The Bloom-FP case: a core out of the sharer set but in presence
    must still get the recorder notification — its signature may
    false-positive on the line and terminate a chunk."""
    bus, caches = _fabric_with_caches(DirectoryBus, num_cores=2,
                                      sets=4, ways=1)
    recorder = _StubRecorder(victims={0x100: 7})
    bus.attach_snooper(0, recorder)
    line, alias = 0x100, 0x100 + 4 * 64
    _fill(bus, caches, 0, line, is_write=True)
    _fill(bus, caches, 0, alias, is_write=True)  # evicts `line` from core 0
    recorder.seen.clear()
    result = bus.transaction(1, line, is_write=True)
    assert recorder.seen == [(line, True)]  # presence bit kept it snooped
    assert result.victim_timestamps == [7]


# -- lockstep equivalence -----------------------------------------------------

@pytest.mark.parametrize("filter_snoops", [True, False])
@pytest.mark.parametrize("num_cores", [2, 4, 16])
def test_fabrics_agree_transaction_by_transaction(num_cores, filter_snoops):
    """Random transaction storms: both fabrics, fed the same sequence
    against independent cache pairs, agree on every observable — and the
    directory's exact sharer set stays wedged between the true holder set
    and the presence superset."""
    rng = random.Random(num_cores * 31 + filter_snoops)
    snoop_bus, snoop_caches = _fabric_with_caches(
        SnoopBus, num_cores=num_cores, filter_snoops=filter_snoops)
    dir_bus, dir_caches = _fabric_with_caches(
        DirectoryBus, num_cores=num_cores, filter_snoops=filter_snoops)
    # Mirrored scripted recorders so victim timestamps flow identically.
    script = {0x100 + 64 * k: 100 + k for k in range(4)}
    for core_id in range(num_cores):
        snoop_bus.attach_snooper(core_id, _StubRecorder(script))
        dir_bus.attach_snooper(core_id, _StubRecorder(script))

    lines = [0x100 + 64 * k for k in range(10)]  # a few set-aliasing pairs
    for step in range(600):
        core_id = rng.randrange(num_cores)
        line = rng.choice(lines)
        is_write = rng.random() < 0.4
        a = _fill(snoop_bus, snoop_caches, core_id, line, is_write)
        b = _fill(dir_bus, dir_caches, core_id, line, is_write)
        assert a.fill_state == b.fill_state, f"step {step}"
        assert a.victim_timestamps == b.victim_timestamps, f"step {step}"
        assert a.flushed == b.flushed, f"step {step}"
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
    # Capture the RSM sink's emission order: every sink call appends the
    # terminated chunk to its core's CBUF.
    emitted = []
    append = ChunkBuffer.append

    def recording_append(self, entry):
        emitted.append(entry)
        append(self, entry)

    monkeypatch.setattr(ChunkBuffer, "append", recording_append)
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
    # The sink sees chunks in (timestamp, rthread) schedule order under
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
