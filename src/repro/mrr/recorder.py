"""The per-core Memory Race Recorder.

Responsibilities (matching the prototype's MRR block):

- accumulate cache-line addresses into read/write Bloom signatures
  (loads and atomics at execution time; plain stores at *drain* time,
  which is what makes the RSW accounting correct under TSO);
- snoop bus transactions and terminate the current chunk when a remote
  request hits the signatures — guaranteeing that no two conflicting
  accesses ever inhabit a pair of *open* chunks;
- timestamp each chunk from the fabric's globally synchronized order
  clock (the prototype reads the invariant TSC at termination). Because
  the clock is strictly increasing across cores, timestamps order chunks by
  real termination time: a dependence on a *closed* chunk is ordered for
  free, and a dependence on an *open* chunk forces it closed first via
  the signature hit — so replaying in timestamp order respects every
  cross-thread dependence;
- terminate chunks on instruction-count cap, signature saturation, and on
  every kernel entry (driven by the Replay Sphere Manager);
- emit packed chunk entries to a sink (the CBUF).

The recorder never influences execution — it observes, counts cycles, and
logs. That invariant is what lets the overhead experiments compare modes
under identical interleavings.
"""

from __future__ import annotations

from typing import Callable

from ..config import MRRConfig, TsoMode
from ..errors import RecordingError
from ..telemetry import NULL_TELEMETRY, Telemetry
from .chunk import ChunkEntry, Reason
from .signature import BloomSignature


class MemoryRaceRecorder:
    """MRR hardware state for one core."""

    def __init__(self, config: MRRConfig, core,
                 sink: Callable[[ChunkEntry], None],
                 telemetry: Telemetry | None = None):
        self.config = config
        self.core = core
        self.sink = sink
        self.read_sig = BloomSignature(config.signature_bits, config.signature_hashes)
        self.write_sig = BloomSignature(config.signature_bits, config.signature_hashes)
        self.rthread: int | None = None
        self._icnt_start = 0
        # retired-count at which the size cap fires; kept in step with
        # _icnt_start so the machine's per-unit gate is one compare.
        self._icnt_limit = config.max_chunk_instructions
        self.telemetry = telemetry or NULL_TELEMETRY
        # Hot-path hoists: telemetry enablement and the termination
        # thresholds are fixed for the recorder's lifetime, so the per-unit
        # and per-access paths read plain attributes instead of chasing
        # config/telemetry objects.
        self._tm_on = self.telemetry.enabled
        self._drain_mode = config.tso_mode == TsoMode.DRAIN
        self._max_chunk = config.max_chunk_instructions
        self._sat_threshold = config.saturation_threshold
        self._sat_enabled = config.saturation_threshold < 1.0
        self._sig_bits = config.signature_bits
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
        self._chunk_start_ts = 0
        # Exact line sets shadowing the Bloom signatures, maintained only
        # when telemetry is enabled: a snoop that hits the signature but
        # misses the exact set is a measured (not estimated) Bloom false
        # positive. Observation only — the chunk still terminates.
        self._exact_reads: set[int] = set()
        self._exact_writes: set[int] = set()
        if self.telemetry.enabled:
            metrics = self.telemetry.metrics
            self._tm_chunks = metrics.counter("mrr.chunks_total")
            self._tm_snoop_cuts = metrics.counter("mrr.snoop_terminations")
            self._tm_bloom_fp = metrics.counter("mrr.bloom_false_positives")
            self._tm_chunk_hist = metrics.histogram("mrr.chunk_instructions")
            self._tm_rsw_hist = metrics.histogram("mrr.chunk_rsw")
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
        self.read_sig.clear()
        self.write_sig.clear()

    def _begin_chunk(self) -> None:
        # Inline of BloomSignature.clear() for both filters: this runs at
        # every chunk boundary, which conflict-heavy workloads hit every
        # few units.
        read_sig = self.read_sig
        read_sig._word = 0
        read_sig.bits_set = 0
        read_sig.inserts = 0
        write_sig = self.write_sig
        write_sig._word = 0
        write_sig.bits_set = 0
        write_sig.inserts = 0
        engine = self.core.engine
        self._icnt_start = engine.retired
        self._icnt_limit = engine.retired + self._max_chunk
        engine.load_hash = 0
        if self._tm_on:
            self._exact_reads.clear()
            self._exact_writes.clear()
            self._chunk_start_ts = self.telemetry.tracer.now()

    # -- signature insertion hooks ------------------------------------------

    def on_load(self, line: int) -> None:
        if self.rthread is not None:
            self.read_sig.insert(line)
            if self._tm_on:
                self._exact_reads.add(line)

    def on_store_drain(self, line: int) -> None:
        if self.rthread is not None:
            self.write_sig.insert(line)
            if self._tm_on:
                self._exact_writes.add(line)

    def on_atomic_read(self, line: int) -> None:
        if self.rthread is not None:
            self.read_sig.insert(line)
            if self._tm_on:
                self._exact_reads.add(line)

    def on_atomic_write(self, line: int) -> None:
        if self.rthread is not None:
            self.write_sig.insert(line)
            if self._tm_on:
                self._exact_writes.add(line)

    def on_copy_write(self, line: int) -> None:
        """A kernel copy-to-user performed on behalf of this thread; the
        data becomes part of the current chunk's write set."""
        if self.rthread is not None:
            self.write_sig.insert(line)
            if self._tm_on:
                self._exact_writes.add(line)

    def on_copy_read(self, line: int) -> None:
        """A kernel copy-from-user on behalf of this thread (write()
        payloads, path strings); joins the current chunk's read set."""
        if self.rthread is not None:
            self.read_sig.insert(line)
            if self._tm_on:
                self._exact_reads.add(line)

    # -- conflict detection ----------------------------------------------------

    def snoop(self, line: int, is_write: bool) -> int | None:
        """Check a remote transaction; terminate and return the chunk's
        timestamp on a hit."""
        if self.rthread is None:
            return None
        # The filter-word guards skip the test() calls entirely when a
        # signature is empty (always true just after a chunk boundary).
        write_sig = self.write_sig
        if is_write:
            if write_sig._word and write_sig.test(line):
                self._note_snoop_cut(line, self._exact_writes, Reason.WAW)
                return self.terminate(Reason.WAW)
            read_sig = self.read_sig
            if read_sig._word and read_sig.test(line):
                self._note_snoop_cut(line, self._exact_reads, Reason.WAR)
                return self.terminate(Reason.WAR)
            return None
        if write_sig._word and write_sig.test(line):
            self._note_snoop_cut(line, self._exact_writes, Reason.RAW)
            return self.terminate(Reason.RAW)
        return None

    def _note_snoop_cut(self, line: int, exact: set[int],
                        reason: str) -> None:
        """Telemetry for a signature hit: count it, and classify it as a
        Bloom false positive when the exact shadow set disagrees."""
        if not self._tm_on:
            return
        self._tm_snoop_cuts.inc()
        if line not in exact:
            self._tm_bloom_fp.inc()
            self.telemetry.tracer.instant(
                "mrr.bloom_fp", cat="mrr", tid=self.rthread or 0,
                args={"line": line, "reason": reason,
                      "core": self.core.core_id})

    # -- self-initiated terminations -----------------------------------------

    def after_unit(self) -> None:
        """Post-unit checks: chunk size cap and signature saturation.

        Runs once per simulated unit, so it reads only hoisted attributes;
        the saturation check is the precomputed integer popcount threshold
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
        """Close the current chunk, emit its entry, start the next one.

        Returns the chunk's timestamp.
        """
        if self.rthread is None:
            raise RecordingError("terminate with no active rthread")
        machine = self.core.machine
        if self._drain_mode and not machine.in_bus_transaction:
            # Ablation A3: stall termination until the store buffer is
            # empty (the drains insert into the *current*, closing chunk).
            # Draining is only legal OUTSIDE a bus transaction: a victim
            # terminated by a snoop sits inside the requester's
            # transaction, and draining there would issue nested
            # transactions that break the outer one's atomicity — besides
            # creating ordering cycles between simultaneously closing
            # chunks. Snoop-cut chunks therefore fall back to RSW logging,
            # which is precisely the implementability argument for the
            # paper's RSW design.
            self.core.drain_all()
        # Timestamp taken AFTER the drain: chunks the drain terminated
        # elsewhere must be ordered before this one (their reads preceded
        # this chunk's store visibility). Inline of
        # bus.next_chunk_timestamp() — terminate is on the conflict hot
        # path and the counter bump does not merit a call. The clock lives
        # on the fabric (the serialization point terminations already
        # synchronize with), not in a machine-global counter.
        bus = machine.bus
        timestamp = bus.order_clock + 1
        bus.order_clock = timestamp
        engine = self.core.engine
        entry = ChunkEntry(
            rthread=self.rthread,
            timestamp=timestamp,
            icount=engine.retired - self._icnt_start,
            memops=engine.cur_memops,
            rsw=len(self.core.store_buffer),
            reason=reason,
            load_hash=engine.load_hash if self.config.log_load_hash else None,
        )
        if self._tm_on:
            telemetry = self.telemetry
            read_pct = 100.0 * self.read_sig.saturation
            write_pct = 100.0 * self.write_sig.saturation
            self._tm_chunks.inc()
            telemetry.metrics.counter(f"mrr.chunks.{reason}").inc()
            self._tm_chunk_hist.observe(entry.icount)
            self._tm_rsw_hist.observe(entry.rsw)
            self._tm_occupancy.observe(read_pct)
            self._tm_occupancy.observe(write_pct)
            telemetry.tracer.complete(
                f"chunk:{reason}", self._chunk_start_ts, cat="mrr",
                tid=self.rthread,
                args={"icount": entry.icount, "rsw": entry.rsw,
                      "timestamp": timestamp,
                      "read_sat_pct": round(read_pct, 2),
                      "write_sat_pct": round(write_pct, 2)})
        self.sink(entry)
        self._begin_chunk()
        return timestamp
