"""Presence-based filtering: MESI invariants and where it is free.

The bus keeps a conservative per-line presence summary (bit ``c`` set means
core ``c`` *may* hold the line). Both fabrics skip the cache snoops of
cores whose bit is clear, and the directory also forwards the recorder
test only to present cores. Soundness rests on two invariants pinned here:

- **cache superset**: every core actually caching a line has its presence
  bit set — through fills, evictions (which do NOT clear bits) and kernel
  coherent copies;
- **signature superset**: every line a recorder has inserted into its live
  signatures has that core's presence bit set, so a presence-filtered
  transaction can never skip a snoop that a *true* signature member would
  have terminated a chunk on.

A Bloom signature also tests positive on lines it never saw. The snooping
bus tests every recorder's signatures, so on a core whose presence bit a
remote write cleared such a false positive cuts a chunk there and not on
the directory: the fabrics record alike at the default 512-bit signatures,
not at 128.
"""

import pytest

from repro import session, workloads
from repro.config import (
    COHERENCE_DIRECTORY,
    COHERENCE_SNOOP,
    CacheConfig,
    KernelConfig,
    MachineConfig,
    MRRConfig,
    SimConfig,
    StoreBufferConfig,
)
from repro.isa.assembler import assemble
from repro.machine.bus import SnoopBus
from repro.machine.cache import EXCLUSIVE, SHARED
from repro.machine.machine import Machine
from repro.mrr.chunk import Reason
from repro.mrr.hashing import shared_hasher
from repro.session import digest_of
from repro.telemetry import Telemetry
from tests.conftest import wire_recorder


class _Fabric:
    """A machine's fabric with its cores' caches, driven by core id."""

    def __init__(self, num_cores=3, sets=4, ways=1,
                 coherence=COHERENCE_SNOOP):
        self.machine = Machine(
            MachineConfig(num_cores=num_cores, memory_bytes=1 << 12,
                          cache=CacheConfig(sets=sets, ways=ways),
                          coherence=coherence))
        self.machine.load_program(assemble("main:\n    syscall\n"))
        self.bus = self.machine.bus
        self.caches = [core.cache for core in self.machine.cores]

    def fill(self, core_id, line, is_write):
        """Run core ``core_id``'s transaction, which fills its cache."""
        self.bus.transaction(self.machine.cores[core_id], line, is_write)


# -- presence transitions -----------------------------------------------------

def test_unknown_line_defaults_to_everyone_present():
    fabric = _Fabric(num_cores=3)
    assert fabric.bus.presence_mask(0x100) == 0b111


def test_write_narrows_presence_to_the_writer():
    fabric = _Fabric(num_cores=3)
    fabric.fill(1, 0x100, is_write=True)
    assert fabric.bus.presence_mask(0x100) == 0b010


def test_reads_only_add_bits():
    fabric = _Fabric(num_cores=3)
    fabric.fill(1, 0x100, is_write=True)
    fabric.fill(0, 0x100, is_write=False)
    assert fabric.bus.presence_mask(0x100) == 0b011
    fabric.fill(2, 0x100, is_write=False)
    assert fabric.bus.presence_mask(0x100) == 0b111


def test_eviction_keeps_the_presence_bit():
    # ways=1 so a second line in the same set evicts the first; the evicted
    # core may still carry the line in a chunk signature, so its bit must
    # survive (superset, not exact).
    fabric = _Fabric(num_cores=2, sets=4, ways=1)
    line, alias = 0x100, 0x100 + 4 * 64  # same set index
    fabric.fill(0, line, is_write=True)
    fabric.fill(0, alias, is_write=True)
    assert fabric.caches[0].state(line) is None  # evicted
    assert fabric.bus.presence_mask(line) == 0b01  # bit still set


def _alias(line, mrr):
    """A line other than ``line`` with the same signature mask: inserting
    it makes a signature test positive on ``line`` without holding it."""
    hasher = shared_hasher(mrr.signature_bits, mrr.signature_hashes)
    target = hasher.mask(line)
    return next(candidate for candidate in range(line + 64, 1 << 20, 64)
                if hasher.mask(candidate) == target)


@pytest.mark.parametrize("coherence", [COHERENCE_SNOOP, COHERENCE_DIRECTORY])
def test_only_the_snooping_bus_cuts_an_aliasing_absent_core(coherence):
    """Core 2's presence bit for the line is cleared by core 1's write;
    then core 2 stores to a line its 16-bit signature cannot tell apart.
    Core 0's write reaches core 2's recorder on the snooping bus, where
    every MRR sees every transaction, and not on the directory, which
    forwards by presence."""
    mrr = MRRConfig(signature_bits=16)
    line = 0x100
    fabric = _Fabric(num_cores=3, coherence=coherence)
    chunks = []
    recorders = [wire_recorder(core, mrr, chunks)
                 for core in fabric.machine.cores]
    for rthread, recorder in enumerate(recorders, 1):
        recorder.set_thread(rthread)
    fabric.fill(1, line, is_write=True)
    assert fabric.bus.presence_mask(line) == 0b010
    recorders[2].on_store_drain(_alias(line, mrr))
    fabric.fill(0, line, is_write=True)
    expected = [(3, Reason.WAW)] if coherence == COHERENCE_SNOOP else []
    assert [(c.rthread, c.reason) for c in chunks] == expected


def test_mesi_conflict_detection_unchanged_by_filtering():
    """A genuinely-present sharer is always snooped and invalidated."""
    fabric = _Fabric(num_cores=2)
    fabric.fill(0, 0x200, is_write=False)
    fabric.fill(1, 0x200, is_write=False)
    assert fabric.caches[0].state(0x200) in (SHARED, EXCLUSIVE)
    fabric.fill(1, 0x200, is_write=True)
    # Invalidated despite filtering.
    assert fabric.caches[0].state(0x200) is None
    assert fabric.bus.presence_mask(0x200) == 0b10


# -- whole-run invariant sweep ------------------------------------------------

def _checked_transaction(errors):
    original = SnoopBus.transaction

    def transaction(self, core, line, is_write, upgrade=False):
        original(self, core, line, is_write, upgrade)
        for tracked_line, present in self._presence.items():
            for core_id, cache in enumerate(self._caches):
                if cache is None:
                    continue
                if (cache.state(tracked_line) is not None
                        and not present >> core_id & 1):
                    errors.append(
                        f"core {core_id} caches line {tracked_line:#x} "
                        "but its presence bit is clear")
            for core_id, recorder in enumerate(self._recorders):
                if recorder is None or recorder.rthread is None:
                    continue
                for sig_line in (recorder._exact_reads
                                 | recorder._exact_writes):
                    if (sig_line in self._presence
                            and not self._presence[sig_line]
                            >> core_id & 1):
                        errors.append(
                            f"core {core_id} signature holds line "
                            f"{sig_line:#x} but its presence bit is clear")

    return transaction


@pytest.mark.parametrize("workload", ["counter", "pingpong"])
def test_presence_superset_invariant_throughout_recording(
        monkeypatch, workload):
    """During a real recorded run — with a tiny cache forcing constant
    evictions — the presence summary stays a superset of both the true
    holder set and every recorder's exact signature contents.

    Telemetry is enabled so the recorders maintain their exact shadow
    sets, including lines added by kernel coherent copies
    (``on_copy_read``/``on_copy_write``).
    """
    errors = []
    monkeypatch.setattr(SnoopBus, "transaction", _checked_transaction(errors))
    config = SimConfig(
        machine=MachineConfig(
            num_cores=2,
            memory_bytes=1 << 18,
            cache=CacheConfig(sets=4, ways=1),  # evicts almost every fill
            store_buffer=StoreBufferConfig(entries=4, drain_period=4),
        ),
        mrr=MRRConfig(signature_bits=256, cbuf_entries=16,
                      max_chunk_instructions=512),
        kernel=KernelConfig(quantum_instructions=200),
    )
    program, inputs = workloads.build(workload, scale=1)
    outcome = session.record(program, seed=5, input_files=inputs,
                             config=config,
                             telemetry=Telemetry(enabled=True))
    assert outcome.units > 0
    assert errors == []


def _radix_digest(signature_bits, coherence):
    program, inputs = workloads.build("radix", scale=1)
    config = SimConfig(machine=MachineConfig(coherence=coherence),
                       mrr=MRRConfig(signature_bits=signature_bits))
    return digest_of(session.record(program, seed=1, input_files=inputs,
                                    config=config))


def test_filtering_is_free_only_without_bloom_false_positives():
    # 128-bit signatures false-positive on lines whose presence bit a
    # remote write cleared: the snooping bus cuts chunks there that the
    # directory, forwarding by presence, does not, so the recordings
    # differ.
    assert (_radix_digest(128, COHERENCE_SNOOP)
            != _radix_digest(128, COHERENCE_DIRECTORY))
    # At the default 512 bits radix records alike on both fabrics.
    assert (_radix_digest(512, COHERENCE_SNOOP)
            == _radix_digest(512, COHERENCE_DIRECTORY))
