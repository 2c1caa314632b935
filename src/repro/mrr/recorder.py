"""The per-core Memory Race Recorder.

Responsibilities (matching the prototype's MRR block):

- accumulate cache-line addresses into read/write Bloom signatures
  (loads and atomics at execution time; plain stores at *drain* time,
  which is what makes the RSW accounting correct under TSO);
- terminate the current chunk when a remote coherence request hits the
  signatures — guaranteeing that no two conflicting accesses ever inhabit
  a pair of *open* chunks. The fabric runs the test inline in its
  transaction (:meth:`SnoopBus.transaction`); :meth:`snoop` is the same
  test as a method;
- timestamp each chunk from the fabric's globally synchronized order
  clock (the prototype reads the invariant TSC at termination). Because
  the clock is strictly increasing across cores, timestamps order chunks by
  real termination time: a dependence on a *closed* chunk is ordered for
  free, and a dependence on an *open* chunk forces it closed first via
  the signature hit — so replaying in timestamp order respects every
  cross-thread dependence;
- terminate chunks on instruction-count cap, signature saturation, and on
  every kernel entry (driven by the Replay Sphere Manager);
- write each packed chunk entry into its CBUF, and raise the overflow
  interrupt (:meth:`ChunkBuffer.drain`, into the RSM) when the CBUF fills.

The recorder never influences execution — it observes, counts cycles, and
logs. That invariant is what lets the overhead experiments compare modes
under identical interleavings.
"""

from __future__ import annotations

from ..config import MRRConfig, TsoMode
from ..errors import RecordingError
from ..telemetry import NULL_TELEMETRY, Telemetry
from .chunk import ChunkEntry, Reason
from .hashing import shared_hasher
from .signature import BloomSignature

#: The cuts a remote request's signature hit makes, inside its transaction.
_CONFLICTS = frozenset(Reason.CONFLICTS)

#: The termination gate of a recorder with no thread: above any retired
#: count, so the per-unit compare never fires.
NEVER = 1 << 62


class MemoryRaceRecorder:
    """MRR hardware state for one core."""

    def __init__(self, config: MRRConfig, core, cbuf, stats,
                 chunk_counts: dict[int, int],
                 telemetry: Telemetry | None = None):
        """``cbuf`` is this core's :class:`~repro.capo.chunk_buffer.
        ChunkBuffer`. Each chunk also counts into ``stats`` (the RSM's
        ``chunks`` and ``cycles_cbuf_write``) and into ``chunk_counts``,
        the sphere's per-rthread chunk counts."""
        self.config = config
        self.core = core
        self.cbuf = cbuf
        self._stats = stats
        self._chunk_counts = chunk_counts
        self._cbuf_write_cost = core.machine.cost.cbuf_entry_write
        self._bus = core.machine.bus
        # Bounded retention: the RSM points every recorder at its flight
        # ring (FlightRing.push_chunk) before the run starts.
        self.flight = None
        # One hasher for both signatures: on_load, on_store_drain and snoop
        # read its memoized per-line masks directly.
        hasher = shared_hasher(config.signature_bits, config.signature_hashes)
        self._hasher = hasher
        self._masks = hasher._mask_cache
        self.read_sig = BloomSignature(config.signature_bits,
                                       config.signature_hashes, hasher)
        self.write_sig = BloomSignature(config.signature_bits,
                                        config.signature_hashes, hasher)
        # The store buffer's deque: its length is the RSW at termination.
        self._sb_entries = core.store_buffer._entries
        self.rthread: int | None = None
        self._icnt_start = 0
        # The per-unit termination gate: after_unit can act only once
        # ``engine.retired >= gate``. It is the size cap's retired count
        # while a chunk is open, -1 once a signature insert reaches the
        # saturation popcount, and NEVER while no thread is recorded — so
        # the run loop decides with one compare.
        self.gate = NEVER
        self.telemetry = telemetry or NULL_TELEMETRY
        # Hot-path hoists: telemetry enablement and the termination
        # thresholds are fixed for the recorder's lifetime, so the per-unit
        # and per-access paths read plain attributes instead of chasing
        # config/telemetry objects.
        self._tm_on = self.telemetry.enabled
        self._drain_mode = config.tso_mode == TsoMode.DRAIN
        self._log_load_hash = config.log_load_hash
        self._max_chunk = config.max_chunk_instructions
        self._sat_enabled = config.saturation_threshold < 1.0
        # Saturation rewritten as an integer popcount threshold: the
        # smallest bits_set for which ``bits_set / bits >= threshold``,
        # found by evaluating that exact float predicate once per count —
        # so the per-unit integer compare decides identically to the float
        # division it replaces (sentinel bits+1 when unreachable).
        bits = config.signature_bits
        threshold = config.saturation_threshold
        n = 0
        while n <= bits and n / bits < threshold:
            n += 1
        self._sat_min_bits = n
        # The popcount at which an insert drops the gate to -1 (never
        # reached with saturation disabled).
        self._sat_gate_bits = n if self._sat_enabled else bits + 1
        self._chunk_start_ts = 0
        # Exact line sets shadowing the Bloom signatures, maintained only
        # when telemetry is enabled: a snoop that hits the signature but
        # misses the exact set is a measured (not estimated) Bloom false
        # positive. Observation only — the chunk still terminates.
        self._exact_reads: set[int] = set()
        self._exact_writes: set[int] = set()
        if self.telemetry.enabled:
            # The two metrics no chunk entry holds (session._publish_stats
            # takes the others from the entries).
            metrics = self.telemetry.metrics
            self._tm_bloom_fp = metrics.counter("mrr.bloom_false_positives")
            self._tm_occupancy = metrics.histogram("mrr.signature_occupancy_pct")

    @property
    def active(self) -> bool:
        return self.rthread is not None

    # -- thread virtualization (driven by the RSM) --------------------------

    def set_thread(self, rthread: int) -> None:
        """Begin recording ``rthread`` on this core."""
        if self.rthread is not None:
            raise RecordingError(
                f"recorder busy with rthread {self.rthread}; terminate first")
        self.rthread = rthread
        self._begin_chunk()

    def clear_thread(self) -> None:
        """Stop recording on this core (context switch away)."""
        self.rthread = None
        self.gate = NEVER
        self.read_sig.clear()
        self.write_sig.clear()

    def _begin_chunk(self) -> None:
        # terminate runs this body inline at every chunk boundary.
        self.read_sig.clear()
        self.write_sig.clear()
        engine = self.core.engine
        self._icnt_start = engine.retired
        self.gate = engine.retired + self._max_chunk
        engine.load_hash = 0
        if self._tm_on:
            self._exact_reads.clear()
            self._exact_writes.clear()
            self._chunk_start_ts = self.telemetry.tracer.now()

    # -- signature insertion hooks ------------------------------------------
    # Loads, atomic reads and kernel copy-from-user reads (write() payloads,
    # path strings) join the current chunk's read set; drained stores,
    # atomic writes and kernel copy-to-user writes join its write set.

    # Each hook is BloomSignature.insert inline, with the hasher's memoized
    # mask read first. The gate drops only on an insert that sets new bits:
    # bits_set grows only here and falls to 0 only where the gate is reset
    # (_begin_chunk, terminate, clear_thread), so once it reaches the
    # saturation popcount the gate is already -1 until the chunk ends.

    def on_load(self, line: int) -> None:
        if self.rthread is not None:
            mask = self._masks.get(line)
            if mask is None:
                mask = self._hasher.mask(line)
            read_sig = self.read_sig
            word = read_sig._word
            merged = word | mask
            if merged != word:
                read_sig._word = merged
                bits_set = read_sig.bits_set + (merged ^ word).bit_count()
                read_sig.bits_set = bits_set
                if bits_set >= self._sat_gate_bits:
                    self.gate = -1
            read_sig.inserts += 1
            if self._tm_on:
                self._exact_reads.add(line)

    def on_store_drain(self, line: int) -> None:
        if self.rthread is not None:
            mask = self._masks.get(line)
            if mask is None:
                mask = self._hasher.mask(line)
            write_sig = self.write_sig
            word = write_sig._word
            merged = word | mask
            if merged != word:
                write_sig._word = merged
                bits_set = write_sig.bits_set + (merged ^ word).bit_count()
                write_sig.bits_set = bits_set
                if bits_set >= self._sat_gate_bits:
                    self.gate = -1
            write_sig.inserts += 1
            if self._tm_on:
                self._exact_writes.add(line)

    on_atomic_read = on_copy_read = on_load
    on_atomic_write = on_copy_write = on_store_drain

    # -- conflict detection ----------------------------------------------------

    def snoop(self, line: int, is_write: bool) -> None:
        """Check a remote transaction; terminate the chunk on a hit.

        The snooping bus runs this test inline for every recorder whose
        signature is non-empty, the directory for every recorder its
        presence summary names (:meth:`SnoopBus.transaction`); the
        lockstep suite holds the two equal."""
        if self.rthread is None:
            return
        # BloomSignature.test inline. A remote read tests the write set
        # only; an empty signature (always so just after a chunk boundary)
        # is decided without the mask.
        write_word = self.write_sig._word
        read_word = self.read_sig._word if is_write else 0
        if not (write_word or read_word):
            return
        mask = self._masks.get(line)
        if mask is None:
            mask = self._hasher.mask(line)
        if write_word & mask == mask:
            reason = Reason.WAW if is_write else Reason.RAW
            if self._tm_on:
                self._note_snoop_cut(line, self._exact_writes, reason)
            self.terminate(reason)
        elif read_word & mask == mask:
            if self._tm_on:
                self._note_snoop_cut(line, self._exact_reads, Reason.WAR)
            self.terminate(Reason.WAR)

    def _note_snoop_cut(self, line: int, exact: set[int],
                        reason: str) -> None:
        """Telemetry for a signature hit: a Bloom false positive when the
        exact shadow set disagrees."""
        if line not in exact:
            self._tm_bloom_fp.inc()
            self.telemetry.tracer.instant(
                "mrr.bloom_fp", cat="mrr", tid=self.rthread or 0,
                args={"line": line, "reason": reason,
                      "core": self.core.core_id})

    # -- self-initiated terminations -----------------------------------------

    def after_unit(self) -> None:
        """Post-unit checks: chunk size cap, then signature saturation.

        The run loop calls this only once ``engine.retired >= gate``; it
        re-derives which check applies, size before saturation. The
        saturation check is the precomputed integer popcount threshold
        ``_sat_min_bits``, which decides identically to the
        ``bits_set / bits >= threshold`` float comparison it replaces.
        """
        if self.rthread is None:
            return
        if self.core.engine.retired - self._icnt_start >= self._max_chunk:
            self.terminate(Reason.SIZE)
            return
        if self._sat_enabled:
            sat_min = self._sat_min_bits
            if (self.read_sig.bits_set >= sat_min
                    or self.write_sig.bits_set >= sat_min):
                self.terminate(Reason.SATURATION)

    # -- termination -----------------------------------------------------------

    def terminate(self, reason: str) -> int:
        """Close the current chunk, write its entry into the CBUF, start
        the next one. Every cut runs this one body.

        Returns the chunk's timestamp.
        """
        rthread = self.rthread
        if rthread is None:
            raise RecordingError("terminate with no active rthread")
        core = self.core
        if self._drain_mode and reason not in _CONFLICTS:
            # Ablation A3: stall termination until the store buffer is
            # empty (the drains insert into the *current*, closing chunk).
            # Draining is only legal OUTSIDE a bus transaction, and the
            # conflict cuts are exactly the ones made inside one: the
            # victim of a signature hit sits inside the requester's
            # transaction, and draining there would issue nested
            # transactions that break the outer one's atomicity — besides
            # creating ordering cycles between simultaneously closing
            # chunks. Snoop-cut chunks therefore fall back to RSW logging,
            # which is precisely the implementability argument for the
            # paper's RSW design.
            core.drain_all()
        # Timestamp taken AFTER the drain: chunks the drain terminated
        # elsewhere must be ordered before this one (their reads preceded
        # this chunk's store visibility). The clock lives on the fabric
        # (the serialization point terminations already synchronize with),
        # not in a machine-global counter.
        bus = self._bus
        timestamp = bus.order_clock + 1
        bus.order_clock = timestamp
        engine = core.engine
        entry = ChunkEntry(
            rthread, timestamp, engine.retired - self._icnt_start,
            engine.cur_memops, len(self._sb_entries), reason,
            engine.load_hash if self._log_load_hash else None)
        if self._tm_on:
            telemetry = self.telemetry
            read_pct = 100.0 * self.read_sig.saturation
            write_pct = 100.0 * self.write_sig.saturation
            self._tm_occupancy.observe(read_pct)
            self._tm_occupancy.observe(write_pct)
            telemetry.tracer.complete(
                f"chunk:{reason}", self._chunk_start_ts, cat="mrr",
                tid=rthread,
                args={"icount": entry.icount, "rsw": entry.rsw,
                      "timestamp": timestamp,
                      "read_sat_pct": round(read_pct, 2),
                      "write_sat_pct": round(write_pct, 2)})
        # The CBUF write: the sphere's per-thread chunk count (what input
        # events are anchored to), the RSM's statistics, the write's
        # charge, the flight ring, then the entry itself, with the
        # overflow interrupt when the CBUF fills. The ring gets entries in
        # global schedule order because the order clock serializes
        # terminations; CBUF drains come in no such order.
        self._chunk_counts[rthread] += 1
        stats = self._stats
        stats.chunks += 1
        cost = self._cbuf_write_cost
        core.cycles += cost
        stats.cycles_cbuf_write += cost
        flight = self.flight
        if flight is not None:
            flight.push_chunk(entry)
        cbuf = self.cbuf
        entries = cbuf._entries
        entries.append(entry)
        if len(entries) >= cbuf.capacity:
            cbuf.drain()
        # The next chunk begins: _begin_chunk, inline.
        read_sig = self.read_sig
        read_sig._word = 0
        read_sig.bits_set = 0
        read_sig.inserts = 0
        write_sig = self.write_sig
        write_sig._word = 0
        write_sig.bits_set = 0
        write_sig.inserts = 0
        retired = engine.retired
        self._icnt_start = retired
        self.gate = retired + self._max_chunk
        engine.load_hash = 0
        if self._tm_on:
            self._exact_reads.clear()
            self._exact_writes.clear()
            self._chunk_start_ts = self.telemetry.tracer.now()
        return timestamp
