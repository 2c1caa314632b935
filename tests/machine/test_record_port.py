"""The flat record memory path against the method path it inlines.

``_RecordPort``, ``Core.drain_one``, the fill in ``Machine.bus_transaction``,
the fabrics' cache snoops and the recorder's signature hooks each run as
one flat body. The reference below is built from the methods those bodies
inline: ``StoreBuffer.resolve``/``push``/``pop_oldest``, ``MESICache.
classify_read``/``classify_write``/``fill``/``snoop_remote_*``,
``PhysicalMemory.read_word``/``write_word`` and the byte forms, and
``BloomSignature.insert``/``test``. A recording made through the reference
must equal the one made through the flat path, access by access: digest,
chunk log, machine stats and the signatures at every chunk boundary.
"""

import dataclasses
import hashlib
import json

import pytest

from repro import session, workloads
from repro.config import (
    DEFAULT_CONFIG,
    COHERENCE_DIRECTORY,
    COHERENCE_SNOOP,
    CacheConfig,
    MachineConfig,
)
from repro.errors import MemoryAccessError
from repro.isa.assembler import assemble
from repro.machine import machine as machine_module
from repro.machine.bus import SnoopBus
from repro.machine.cache import MISS, SHARED, UPGRADE
from repro.machine.machine import Core, Machine
from repro.machine.store_buffer import RESOLVE_CONFLICT, RESOLVE_HIT
from repro.mrr.chunk import Reason
from repro.mrr.recorder import MemoryRaceRecorder
from repro.perf.bench import digest_of
from repro.telemetry import Telemetry

BENCH_PROGRAMS = ("locks", "fft", "sigping", "radix")


# -- the method path ------------------------------------------------------------

class _MethodPort:
    """The record port as calls: store buffer, cache and memory methods."""

    def __init__(self, core):
        self._core = core
        self._machine = core.machine
        self._memory = core.machine.memory
        self._sb = core.store_buffer
        self._cache = core.cache
        self._line_mask = ~(core.machine.config.cache.line_bytes - 1)
        self._atomic_extra = core.machine.cost.atomic_extra

    def load(self, addr, size):
        core = self._core
        status, value = self._sb.resolve(addr, size)
        line = addr & self._line_mask
        recorder = core.recorder
        if status == RESOLVE_HIT:
            if recorder is not None:
                recorder.on_load(line)
            return value
        if status == RESOLVE_CONFLICT:
            core.drain_all()
        if self._cache.classify_read(line) == MISS:
            self._machine.bus_transaction(core, line, is_write=False)
        if recorder is not None:
            recorder.on_load(line)
        if size == 4:
            return self._memory.read_word(addr)
        return self._memory.read_byte(addr)

    def store(self, addr, size, value):
        if self._sb.full:
            self._core.drain_one()
        self._sb.push(addr, size, value)
        self._machine.buffered_stores += 1

    def fence(self):
        if self._sb._entries:
            self._core.drain_all()

    def atomic_load(self, addr, size):
        core = self._core
        line = addr & self._line_mask
        _acquire_for_write(core, line)
        core.cycles += self._atomic_extra
        if core.recorder is not None:
            core.recorder.on_atomic_read(line)
        if size == 4:
            return self._memory.read_word(addr)
        return self._memory.read_byte(addr)

    def atomic_store(self, addr, size, value):
        core = self._core
        if size == 4:
            self._memory.write_word(addr, value)
        else:
            self._memory.write_byte(addr, value)
        if core.recorder is not None:
            core.recorder.on_atomic_write(addr & self._line_mask)


def _acquire_for_write(core, line):
    classification = core.cache.classify_write(line)
    if classification == MISS:
        core.machine.bus_transaction(core, line, is_write=True)
    elif classification == UPGRADE:
        core.machine.bus_transaction(core, line, is_write=True, upgrade=True)


def _method_drain_one(self):
    machine = self.machine
    entry = self.store_buffer.pop_oldest()
    line = entry.addr & self._line_mask
    _acquire_for_write(self, line)
    machine.buffered_stores -= 1
    if entry.size == 4:
        machine.memory.write_word(entry.addr, entry.value)
    else:
        machine.memory.write_byte(entry.addr, entry.value)
    self.cycles += self._store_drain_cost
    if machine._tm_enabled:
        machine._tm_drains.inc()
    if self.recorder is not None:
        self.recorder.on_store_drain(line)


def _method_bus_transaction(self, core, line, is_write, upgrade=False):
    self.in_bus_transaction = True
    try:
        fill_state, flushed = self.bus.transaction(
            core.core_id, line, is_write, upgrade)
    finally:
        self.in_bus_transaction = False
    core.cycles += self._cost_upgrade if upgrade else self._cost_l1_miss
    if flushed:
        core.cycles += self._cost_writeback
    if core.cache.fill(line, fill_state):
        core.cycles += self._cost_writeback
    if self._tm_enabled:
        counter = (self._tm_bus_upgrades if upgrade else
                   self._tm_bus_writes if is_write else self._tm_bus_reads)
        counter.inc()


def _method_snoops():
    """The fabric transaction with its caches snooped by method.

    The flat transaction runs with the caches hidden, so it still snoops
    the recorders and keeps presence, sharers and bus stats; then the
    cores it would have reached snoop their caches through
    ``snoop_remote_*``. Cache and recorder snoops touch disjoint state, so
    the order between the two passes is not observable. Both fabrics run
    this one body; the directory's exact sharer set narrows the caches.
    """
    flat = SnoopBus.transaction

    def transaction(self, requester, line, is_write, upgrade=False):
        reached = ((self._presence.get(line, self._all_mask)
                    if self.filter_snoops else self._all_mask)
                   & ~(1 << requester))
        if self._sharers is not None:
            reached &= self._sharers.get(line, self._all_mask)
        caches = self._caches
        self._caches = [None] * len(caches)
        try:
            fill_state, flushed = flat(self, requester, line, is_write,
                                       upgrade)
        finally:
            self._caches = caches
        for core_id, cache in enumerate(caches):
            if cache is None or not reached >> core_id & 1:
                continue
            if is_write:
                flushed |= cache.snoop_remote_write(line)
            elif cache.snoop_remote_read(line):
                fill_state = SHARED
        if flushed:
            self.stats.flushes += 1
        return fill_state, flushed

    return transaction


def _method_on_load(self, line):
    if self.rthread is not None:
        self.read_sig.insert(line)
        if self.read_sig.bits_set >= self._sat_gate_bits:
            self.gate = -1
        if self._tm_on:
            self._exact_reads.add(line)


def _method_on_store_drain(self, line):
    if self.rthread is not None:
        self.write_sig.insert(line)
        if self.write_sig.bits_set >= self._sat_gate_bits:
            self.gate = -1
        if self._tm_on:
            self._exact_writes.add(line)


def _method_snoop(self, line, is_write):
    if self.rthread is None:
        return
    if self.write_sig.test(line):
        reason = Reason.WAW if is_write else Reason.RAW
        if self._tm_on:
            self._note_snoop_cut(line, self._exact_writes, reason)
        self.terminate(reason)
    elif is_write and self.read_sig.test(line):
        if self._tm_on:
            self._note_snoop_cut(line, self._exact_reads, Reason.WAR)
        self.terminate(Reason.WAR)


def _install_method_path(patch):
    patch.setattr(machine_module, "_RecordPort", _MethodPort)
    patch.setattr(Core, "drain_one", _method_drain_one)
    patch.setattr(Machine, "bus_transaction", _method_bus_transaction)
    patch.setattr(SnoopBus, "transaction", _method_snoops())
    for name in ("on_load", "on_atomic_read", "on_copy_read"):
        patch.setattr(MemoryRaceRecorder, name, _method_on_load)
    for name in ("on_store_drain", "on_atomic_write", "on_copy_write"):
        patch.setattr(MemoryRaceRecorder, name, _method_on_store_drain)
    patch.setattr(MemoryRaceRecorder, "snoop", _method_snoop)


# -- recordings -------------------------------------------------------------------

def _config(coherence, small=False):
    """The default machine, or a small one: a single two-way cache set
    (LRU evictions) and 64-bit signatures saturating at 10% (SATURATION
    cuts and Bloom false positives)."""
    config = DEFAULT_CONFIG
    machine = dataclasses.replace(config.machine, coherence=coherence)
    mrr = config.mrr
    if small:
        machine = dataclasses.replace(
            machine, cache=CacheConfig(sets=1, ways=2))
        mrr = dataclasses.replace(mrr, signature_bits=64,
                                  saturation_threshold=0.1)
    return dataclasses.replace(config, machine=machine, mrr=mrr)


def _record(monkeypatch, name, seed, config, *, reference,
            filter_snoops=True, telemetry=None):
    """Record ``name`` at scale 1 through the flat or the method path.

    Returns the outcome and the signatures (words, popcounts, insert
    counts) of every chunk as it terminated."""
    program, inputs = workloads.build(name, scale=1)
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
            _install_method_path(patch)
        patch.setattr(MemoryRaceRecorder, "terminate", logging_terminate)
        outcome = session.record(program, seed=seed, config=config,
                                 input_files=inputs,
                                 filter_snoops=filter_snoops,
                                 telemetry=telemetry)
    return outcome, signatures


def _fingerprint(outcome, signatures):
    return (digest_of(outcome),
            json.dumps(outcome.machine_stats, sort_keys=True),
            outcome.kernel_stats, outcome.rsm_stats,
            hashlib.sha256(repr(signatures).encode()).hexdigest(),
            len(signatures))


@pytest.mark.parametrize("name", BENCH_PROGRAMS)
@pytest.mark.parametrize("coherence", [COHERENCE_SNOOP, COHERENCE_DIRECTORY])
@pytest.mark.parametrize("filter_snoops", [True, False])
def test_flat_path_records_what_the_method_path_records(
        monkeypatch, name, coherence, filter_snoops):
    config = _config(coherence)
    for seed in (1, 2, 3):
        flat = _record(monkeypatch, name, seed, config, reference=False,
                       filter_snoops=filter_snoops)
        method = _record(monkeypatch, name, seed, config, reference=True,
                         filter_snoops=filter_snoops)
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
    thread; chunks go to the returned list."""
    machine = Machine(MachineConfig(num_cores=2, memory_bytes=MEMORY_BYTES,
                                    cache=cache))
    machine.load_program(assemble(TWO_THREADS))
    chunks = []
    for core in machine.cores:
        recorder = MemoryRaceRecorder(DEFAULT_CONFIG.mrr, core, chunks.append)
        machine.attach_recorder(core.core_id, recorder)
        recorder.set_thread(core.core_id + 1)
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
                _install_method_path(patch)
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
