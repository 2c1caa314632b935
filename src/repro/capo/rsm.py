"""The Replay Sphere Manager.

The RSM is Capo3's kernel-side core: it owns the recorders, the chunk
buffers and the logs. At every kernel crossing the kernel's trap bodies
do its work inline (the chunk cut, the interposition and context-switch
flush charges, pointing the recorder at the dispatched thread) and call
its ``log_*`` methods for each input. Two modes:

- ``hw``   — the MRR runs and chunk entries are buffered/drained, but no
  input logging and no software cycle charges. This is the "recording
  hardware only" configuration of the paper's overhead figure: its cost is
  just the CBUF entry traffic.
- ``full`` — the complete Capo3 stack: input logging (with per-event and
  per-byte charges), CBUF drain interrupts, syscall interposition and
  context-switch flush costs. This is the configuration whose overhead the
  paper reports at ~13% on average.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..config import SimConfig
from ..errors import RecordingError
from ..machine.machine import Core, Machine
from ..mrr.chunk import ChunkEntry
from ..mrr.recorder import MemoryRaceRecorder
from ..telemetry import get_logger
from .chunk_buffer import ChunkBuffer
from .events import (
    EV_EXIT,
    EV_NONDET,
    EV_SIGNAL,
    EV_SIGRETURN,
    EV_SYSCALL,
    KINDS,
    InputEvent,
)
from .sphere import ReplaySphere

MODE_HW = "hw"
MODE_FULL = "full"
MODES = (MODE_HW, MODE_FULL)

logger = get_logger("capo.rsm")


@dataclass
class RSMStats:
    chunks: int = 0
    #: Logged input events by kind, every kind present from 0.
    events_by_kind: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(KINDS, 0))
    input_payload_bytes: int = 0
    #: Payload bytes whose content was already in the recording's pool
    #: (copy avoidance: stored once, referenced again).
    input_payload_dedup_bytes: int = 0
    cbuf_drains: int = 0
    cycles_interpose: int = 0
    cycles_input_log: int = 0
    cycles_cbuf_drain: int = 0
    cycles_ctx_flush: int = 0
    cycles_cbuf_write: int = 0

    @property
    def input_events(self) -> int:
        return sum(self.events_by_kind.values())

    @property
    def cycles_software(self) -> int:
        return (self.cycles_interpose + self.cycles_input_log
                + self.cycles_cbuf_drain + self.cycles_ctx_flush)

    def as_dict(self) -> dict:
        out = dict(self.__dict__)
        out["events_by_kind"] = dict(self.events_by_kind)
        out["input_events"] = self.input_events
        out["cycles_software"] = self.cycles_software
        return out


class ReplaySphereManager:
    """Wires the MRRs into the machine and the kernel."""

    def __init__(self, machine: Machine, config: SimConfig, mode: str = MODE_FULL):
        if mode not in MODES:
            raise RecordingError(f"unknown recording mode {mode!r}")
        self.machine = machine
        self.config = config
        self.mode = mode
        self.sphere = ReplaySphere()
        # The one chunk log, in CBUF drain order: what digests, codecs and
        # replay are defined over. A single log suffices because every
        # timestamp comes from the fabric's global order clock.
        self.chunk_log: list[ChunkEntry] = []
        self.events: list[InputEvent] = []
        # Bounded-retention mode: when a FlightRing is attached (see
        # attach_flight), the ring becomes the retention authority —
        # chunks and events flow into it instead of the unbounded
        # chunk_log/events lists. Execution, logging *content* and every
        # cycle charge are identical either way.
        self.flight = None
        self.stats = RSMStats()
        # With telemetry on, each drained entry's (reason, icount, rsw),
        # counted: a flight ring keeps no chunk log to take them from.
        self.drained_chunks: Counter[tuple[str, int, int]] = Counter()
        self.telemetry = machine.telemetry
        # Hoisted enablement flag: the interposition paths run per kernel
        # event, so they read a plain attribute rather than chasing the
        # telemetry object (zero-cost-when-disabled contract).
        self._tm_on = self.telemetry.enabled
        self._seq = 0
        # Copy avoidance: content-keyed pool of copy payloads. Identical
        # syscall buffers are stored once and shared by every event that
        # carries them.
        self._payload_pool: dict[bytes, bytes] = {}
        # Logging hoists: where events go (the log, or the flight ring
        # once attached), the per-kind event counts, the per-thread chunk
        # counts, the cores and the input-log charges.
        self._keep_event = self.events.append
        self._event_counts = self.stats.events_by_kind
        self._chunk_counts = self.sphere.chunk_counts
        self._cores = machine.cores
        self._cost_event = machine.cost.input_log_event
        self._cost_per_byte = machine.cost.input_log_per_byte
        # Each recorder writes its chunk entries into its own CBUF and
        # counts them into the stats and the sphere's per-thread counts;
        # the RSM sees a CBUF only when it overflows (the drain handler)
        # and at finalize.
        self.recorders: list[MemoryRaceRecorder] = []
        for core in machine.cores:
            cbuf = ChunkBuffer(config.mrr.cbuf_entries,
                               self._make_drain_handler(core))
            recorder = MemoryRaceRecorder(config.mrr, core, cbuf, self.stats,
                                          self._chunk_counts,
                                          telemetry=machine.telemetry)
            self.recorders.append(recorder)
            machine.attach_recorder(core.core_id, recorder)
        if self._tm_on:
            # The one metric no stat holds (see session._publish_stats).
            self._tm_batch = self.telemetry.metrics.histogram(
                "capo.cbuf_batch_entries")

    # -- wiring ---------------------------------------------------------------

    def attach_flight(self, ring) -> None:
        """Switch to bounded retention through ``ring``
        (:class:`~repro.flight.ring.FlightRing`). Must be attached before
        the run starts."""
        self.flight = ring
        self._keep_event = ring.push_event
        for recorder in self.recorders:
            recorder.flight = ring

    def _make_drain_handler(self, core: Core):
        cost = self.machine.cost

        def on_drain(batch: list[ChunkEntry]) -> None:
            if self.flight is None:
                self.chunk_log.extend(batch)
            self.stats.cbuf_drains += 1
            if self.mode == MODE_FULL:
                charge = (cost.cbuf_drain_interrupt
                          + cost.cbuf_drain_per_entry * len(batch))
                core.cycles += charge
                self.stats.cycles_cbuf_drain += charge
            if self._tm_on:
                self.drained_chunks.update(
                    (entry.reason, entry.icount, entry.rsw)
                    for entry in batch)
                self._tm_batch.observe(len(batch))
                self.telemetry.tracer.instant(
                    "cbuf.drain", cat="capo", tid=core.core_id,
                    args={"entries": len(batch),
                          "log_chunks": len(self.chunk_log)})

        return on_drain

    # -- thread lifecycle ---------------------------------------------------------

    def thread_started(self, task) -> None:
        self.sphere.register(task.rthread)
        if self._tm_on:
            self.telemetry.tracer.instant(
                "sphere.thread_started", cat="capo", tid=task.rthread)
            self.telemetry.tracer.thread_name(
                task.rthread, f"rthread {task.rthread}")

    # -- input logging -----------------------------------------------------------------
    # The kernel's trap bodies call these for recorded tasks of a full
    # recording only, while the task is on a core. log_syscall is one
    # body, and the four payload-free kinds share _log_event: the event
    # (sequence number and the thread's chunk count at event time), its
    # retention (the log, or the flight ring), the statistics and the
    # per-event and per-byte charge to the task's core.

    def log_syscall(self, task, sysno: int, retval: int,
                    copies: tuple[tuple[int, bytes], ...]) -> None:
        payload = fresh = 0
        if copies:
            # Copy avoidance: intern each payload through the pool; only
            # bytes not already pooled are fresh.
            pool = self._payload_pool
            interned = []
            for addr, data in copies:
                size = len(data)
                payload += size
                pooled = pool.get(data)
                if pooled is None:
                    pool[data] = pooled = data
                    fresh += size
                interned.append((addr, pooled))
            copies = tuple(interned)
        rthread = task.rthread
        self._seq = seq = self._seq + 1
        event = InputEvent(rthread, seq, self._chunk_counts[rthread],
                           EV_SYSCALL, sysno, retval, "", copies)
        self._keep_event(event)
        self._event_counts[EV_SYSCALL] += 1
        stats = self.stats
        stats.input_payload_bytes += payload
        stats.input_payload_dedup_bytes += payload - fresh
        charge = self._cost_event + self._cost_per_byte * payload
        self._cores[task.core_id].cycles += charge
        stats.cycles_input_log += charge
        if self._tm_on:
            self._trace_input(event, payload)

    def log_nondet(self, task, kind: str, value: int) -> None:
        self._log_event(task, EV_NONDET, 0, value, kind)

    def log_signal(self, task, signo: int) -> None:
        self._log_event(task, EV_SIGNAL, 0, signo)

    def log_sigreturn(self, task) -> None:
        self._log_event(task, EV_SIGRETURN)

    def log_exit(self, task, code: int) -> None:
        self._log_event(task, EV_EXIT, 0, code)

    def _log_event(self, task, kind: str, *fields) -> None:
        """The body of the four payload-free kinds; ``fields`` are the
        event's ``sysno``, ``value`` and ``nondet_kind``, as given."""
        rthread = task.rthread
        self._seq = seq = self._seq + 1
        event = InputEvent(rthread, seq, self._chunk_counts[rthread], kind,
                           *fields)
        self._keep_event(event)
        self._event_counts[kind] += 1
        self._cores[task.core_id].cycles += self._cost_event
        self.stats.cycles_input_log += self._cost_event
        if self._tm_on:
            self._trace_input(event, 0)

    def _trace_input(self, event: InputEvent, payload_bytes: int) -> None:
        self.telemetry.tracer.instant(
            f"input:{event.kind}", cat="capo", tid=event.rthread,
            args={"seq": event.seq, "chunk_seq": event.chunk_seq,
                  "payload_bytes": payload_bytes})

    # -- finish ---------------------------------------------------------------------------

    def finalize(self) -> None:
        """Flush every CBUF (end of recording)."""
        for recorder in self.recorders:
            recorder.cbuf.drain()
        logger.debug(
            "finalized sphere: %d chunks, %d input events, %d payload "
            "bytes, %d CBUF drains, %d software cycles",
            self.stats.chunks, self.stats.input_events,
            self.stats.input_payload_bytes, self.stats.cbuf_drains,
            self.stats.cycles_software)
        if self._tm_on:
            self.telemetry.tracer.instant(
                "rsm.finalize", cat="capo",
                args={"chunks": self.stats.chunks,
                      "input_events": self.stats.input_events})
