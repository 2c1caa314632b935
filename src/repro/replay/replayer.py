"""The replayer: re-execute a recording from its logs alone.

Per-chunk protocol (mirrors the recorder/kernel contract exactly):

1. *Pre-chunk*: apply copy-to-user payloads deferred from the thread's last
   syscall (they belong, order-wise, to this chunk), then re-deliver any
   signals recorded at this chunk boundary.
2. *Execute* units until the thread has retired ``icount`` further
   instructions and the in-flight instruction has completed ``memops``
   memory operations — chunks may start and end inside ``rep_*``
   instructions. A trap outcome inside a chunk is a divergence.
3. *Boundary*: commit withheld stores, keeping the youngest ``rsw``
   (TSO visibility); if the chunk ended at a kernel entry, consume the
   thread's next input event — injecting the syscall return value and
   retiring the trapped instruction into the *next* chunk, creating spawned
   threads, restoring signal contexts on sigreturn, finishing on exit.

Output files are reconstructed by emulating only the fd-bookkeeping of
``open``/``close``/``write`` against replayed memory; everything else is
pure injection.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass

from ..capo.events import (
    EV_EXIT,
    EV_NONDET,
    EV_SIGNAL,
    EV_SIGRETURN,
    EV_SYSCALL,
    InputEvent,
)
from ..capo.recording import Recording
from ..errors import MachineFault, ReplayDivergenceError
from ..isa.operands import Reg
from ..isa.registers import RAX, RCX
from ..kernel.syscalls import (
    SYS_CLOSE,
    SYS_OPEN,
    SYS_SIGACTION,
    SYS_SPAWN,
    SYS_WRITE,
)
from ..kernel.vfs import STDOUT_FD, STDOUT_NAME
from ..machine.core import Engine, OUTCOME_OK
from ..machine.decode import block_table
from ..machine.memory import PhysicalMemory
from ..mrr.chunk import ChunkEntry, Reason
from ..telemetry import NULL_TELEMETRY, Telemetry
from .pending import ReplayPort, WithheldStores
from .schedule import build_schedule, validate_schedule

MASK32 = 0xFFFFFFFF
MAIN_RTHREAD = 1
#: Chunks that retire fewer instructions than this step unit by unit: a
#: translation block rarely fits in them, so a probe before every unit
#: would buy little.
BLOCK_MIN_CHUNK = 32
#: Units one chunk may execute before replay calls its stop condition
#: unreachable. rep_* iterations do not retire, so icount alone does not
#: bound a chunk's units; this is only a runaway backstop.
_CHUNK_UNIT_LIMIT = 1_000_000_000
#: Chunk reasons whose boundary consumes an input event: every kernel
#: entry but a preemption.
_EVENT_REASONS = frozenset(Reason.KERNEL_ENTRY) - {Reason.PREEMPT}


@dataclass
class ReplayStats:
    chunks: int = 0
    units: int = 0
    events: int = 0
    signals: int = 0
    copies_applied: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class ReplayResult:
    final_memory_digest: str
    outputs: dict[str, bytes]
    exit_codes: dict[int, int]
    stats: ReplayStats
    # Digest of the sphere's memory region, when the recording was made
    # with background processes (metadata "sphere_region").
    region_digest: str | None = None

    def digest(self) -> str:
        """One digest over everything replay-observable — memory, outputs,
        exit codes, statistics. Two replays of the same recording are
        equivalent iff their digests match, which is how serial and
        parallel replay are compared."""
        acc = hashlib.sha256()
        acc.update(self.final_memory_digest.encode())
        for name in sorted(self.outputs):
            acc.update(name.encode() + b"\x00" + self.outputs[name] + b"\x00")
        for rthread in sorted(self.exit_codes):
            acc.update(f"{rthread}={self.exit_codes[rthread]};".encode())
        acc.update(repr(sorted(self.stats.as_dict().items())).encode())
        if self.region_digest is not None:
            acc.update(self.region_digest.encode())
        return acc.hexdigest()


class _ReplayThread:
    """Per-R-thread replay context."""

    def __init__(self, rthread: int, engine: Engine,
                 withheld: WithheldStores, port: ReplayPort,
                 events: deque[InputEvent]):
        self.rthread = rthread
        self.engine = engine
        self.withheld = withheld
        self.port = port
        self.events = events
        # Unit functions and translation blocks of the thread's program,
        # indexed by pc. An engine without the decode cache runs no blocks
        # and steps every unit through the interpretive Engine.step.
        if engine.decode_cache:
            self.unit_fns = engine._dispatch
            self.blocks = block_table(engine.program)
        else:
            self.unit_fns = [_interpret] * len(engine.program.instructions)
            self.blocks = None
        self.completed_chunks = 0
        self.boundary_retired = 0
        self.pending_copies: tuple[tuple[int, bytes], ...] = ()
        # Deferred kernel reads (write() payload capture, open() path
        # resolution) that must observe memory at the start of the next
        # chunk — the position the recording's coherent copy_from_user
        # ordered them at.
        self.pending_actions: list[tuple] = []
        self.sig_saved: list = []
        self.sig_handlers: dict[int, int] = {}
        self.finished = False

    def next_event(self) -> InputEvent:
        if not self.events:
            raise ReplayDivergenceError("input log exhausted",
                                        rthread=self.rthread)
        return self.events.popleft()


class Replayer:
    """Drives a full replay of one recording."""

    def __init__(self, recording: Recording,
                 telemetry: Telemetry | None = None,
                 schedule: list | None = None, decode_cache: bool = True):
        self.recording = recording
        # Do the thread engines run generated unit functions and translation
        # blocks (see Engine)? Replay is bit-identical either way.
        self.decode_cache = decode_cache
        self.config = recording.config
        self.telemetry = telemetry or NULL_TELEMETRY
        self.memory = PhysicalMemory(self.config.machine.memory_bytes)
        self.memory.load_blob(recording.program.data_base,
                              recording.program.data)
        # ``schedule`` lets a caller supply the global order directly —
        # the flight ring's shadow replayer extends it epoch by epoch, and
        # parallel replay shares one across its intervals — instead of
        # sorting the chunk log. A supplied schedule is trusted to be
        # validated already; the replayer never mutates it.
        if schedule is None:
            schedule = build_schedule(recording.chunks)
            validate_schedule(schedule)
        self.schedule = schedule
        self._events_by_thread: dict[int, deque[InputEvent]] = {}
        for event in recording.events:
            self._events_by_thread.setdefault(event.rthread,
                                              deque()).append(event)
        # Events each rthread has in the whole log: a checkpoint counts a
        # thread's consumed events as this minus what its deque still holds.
        self._event_totals = {rthread: len(events) for rthread, events
                              in self._events_by_thread.items()}
        self.threads: dict[int, _ReplayThread] = {}
        # Optional (rthread, engine, port) -> port hook. Observability
        # layers (the forensics shadow detector) set it so threads spawned
        # mid-replay get instrumented ports; it must return an object with
        # the ReplayPort interface and must not change replay semantics.
        self.port_wrapper = None
        self.stats = ReplayStats()
        # stats.chunks set by a checkpoint restore, not stepped here.
        self._chunks_restored = 0
        # (kernel seq, file name, payload) — assembled per file in kernel
        # order at finalize, since chunk-schedule order and kernel order
        # may legally differ for writes of unrelated threads.
        self._write_segments: list[tuple[int, str, bytes]] = []
        self.exit_codes: dict[int, int] = {}
        self._fd_names: dict[int, str] = {STDOUT_FD: STDOUT_NAME}
        self._next_index = 0
        if self.telemetry.enabled:
            # Replay trace time is units executed so far (there is no
            # machine clock on the replay side).
            if self.telemetry.tracer.clock is None:
                self.telemetry.tracer.clock = lambda: self.stats.units
            self.telemetry.metrics.gauge("replay.schedule_chunks").set(
                len(self.schedule))
        main_sp = recording.metadata.get(
            "main_sp", self.config.machine.memory_bytes - 16)
        self._create_thread(MAIN_RTHREAD, pc=recording.program.entry,
                            sp=main_sp, arg=0)

    # -- thread management ---------------------------------------------------

    def _create_thread(self, rthread: int, pc: int, sp: int, arg: int) -> None:
        if rthread in self.threads:
            raise ReplayDivergenceError("duplicate thread creation",
                                        rthread=rthread)
        engine = Engine(self.recording.program,
                        decode_cache=self.decode_cache)
        engine.pc = pc
        engine.regs[3] = arg & MASK32   # rdi
        engine.regs[15] = sp & MASK32   # sp
        withheld = WithheldStores(self.memory)
        port = ReplayPort(self.memory, withheld, telemetry=self.telemetry)
        if self.port_wrapper is not None:
            port = self.port_wrapper(rthread, engine, port)
        # setdefault, not get: the thread context and the event map must
        # share one deque, so events appended *after* thread creation (the
        # flight ring feeds the shadow replayer incrementally) still reach
        # the context.
        events = self._events_by_thread.setdefault(rthread, deque())
        self.threads[rthread] = _ReplayThread(rthread, engine, withheld,
                                              port, events)

    # -- main loop -------------------------------------------------------------

    @property
    def position(self) -> int:
        """Index of the next chunk to replay (= chunks replayed so far)."""
        return self._next_index

    @property
    def finished(self) -> bool:
        return self._next_index >= len(self.schedule)

    def step_chunk(self) -> ChunkEntry | None:
        """Replay exactly one chunk; returns it, or None at end of log.

        Every replay path, :meth:`run` included, steps through here. The
        common chunk runs inline: no pre-chunk work, units dispatched
        straight to the engine's unit table (or translation blocks), and
        a boundary that consumes no input event. The rest goes through
        helpers; telemetry wraps the same body.
        """
        index = self._next_index
        if index >= len(self.schedule):
            return None
        chunk = self.schedule[index]
        self._next_index = index + 1
        ctx = self.threads.get(chunk.rthread)
        if ctx is None:
            raise ReplayDivergenceError(
                "chunk for a thread that does not exist yet (ordering bug)",
                rthread=chunk.rthread)
        if ctx.finished:
            raise ReplayDivergenceError("chunk after thread exit",
                                        rthread=chunk.rthread)
        traced = self.telemetry.enabled
        if traced:
            start = self.telemetry.tracer.now()
        try:
            events = ctx.events
            if (ctx.pending_actions or ctx.pending_copies or events
                    and events[0].chunk_seq == ctx.completed_chunks):
                self._pre_chunk(ctx)
            engine = ctx.engine
            port = ctx.port
            dispatch = ctx.unit_fns
            end = len(dispatch)
            # A block runs only where it fits whole before ``target`` and
            # no rep_* instruction is in flight, so it never overshoots.
            blocks = ctx.blocks if chunk.icount >= BLOCK_MIN_CHUNK else None
            target = ctx.boundary_retired + chunk.icount
            memops = chunk.memops
            units = 0
            try:
                while True:
                    retired = engine.retired
                    if retired >= target:
                        if retired > target:
                            raise _unit_error(ctx, None, target)
                        if engine.cur_memops == memops:
                            break
                    pc = engine.pc
                    if not 0 <= pc < end:
                        raise MachineFault(f"pc {pc} outside code", pc=pc)
                    if blocks is not None:
                        block = blocks[pc]
                        if (block is not None and retired + block[0] <= target
                                and engine.cur_memops == 0):
                            try:
                                units += block[1](engine, port)
                            except BaseException:
                                # Units retired before the fault.
                                units += engine.pc - pc
                                raise
                            continue
                    outcome = dispatch[pc](engine, port)
                    units += 1
                    if outcome is not None or units > _CHUNK_UNIT_LIMIT:
                        raise _unit_error(ctx, outcome or OUTCOME_OK, target)
            finally:
                self.stats.units += units
            if (chunk.load_hash is not None and self.config.mrr.log_load_hash
                    and engine.load_hash != chunk.load_hash):
                raise ReplayDivergenceError(
                    f"load-value hash mismatch: {engine.load_hash:#x} != "
                    f"{chunk.load_hash:#x}", rthread=ctx.rthread,
                    icount=engine.retired)
            ctx.boundary_retired = target
            ctx.withheld.commit_keep_last(chunk.rsw)
            engine.load_hash = 0
            ctx.completed_chunks += 1
            if chunk.reason in _EVENT_REASONS:
                self._apply_event(ctx, chunk)
        except ReplayDivergenceError as exc:
            if traced:
                self.telemetry.tracer.instant(
                    "replay.divergence", cat="replay", tid=chunk.rthread,
                    args={"chunk_index": index, "detail": str(exc)})
            raise
        self.stats.chunks += 1
        if traced:
            tracer = self.telemetry.tracer
            tracer.complete(f"replay:{chunk.reason}", start, cat="replay",
                            tid=chunk.rthread,
                            args={"icount": chunk.icount, "rsw": chunk.rsw,
                                  "timestamp": chunk.timestamp})
            if self.stats.chunks % self.telemetry.sampling == 0:
                tracer.counter("replay.progress",
                               {"chunks": self.stats.chunks,
                                "events": self.stats.events}, cat="replay")
        return chunk

    def run(self) -> ReplayResult:
        while self.step_chunk() is not None:
            pass
        return self.result()

    def result(self) -> ReplayResult:
        """Finalize (consistency checks) and assemble the result."""
        self._finalize()
        if self.telemetry.enabled:
            metrics = self.telemetry.metrics
            metrics.counter("replay.chunks").inc(
                self.stats.chunks - self._chunks_restored)
            metrics.gauge("replay.units").set(self.stats.units)
            metrics.gauge("replay.events_applied").set(self.stats.events)
            metrics.gauge("replay.signals").set(self.stats.signals)
        region_digest = None
        region = self.recording.metadata.get("sphere_region")
        if region is not None:
            region_digest = self.memory.digest_range(region[0], region[1])
        return ReplayResult(
            final_memory_digest=self.memory.digest(),
            outputs=self.outputs_so_far(),
            exit_codes=dict(self.exit_codes),
            stats=self.stats,
            region_digest=region_digest,
        )

    def outputs_so_far(self) -> dict[str, bytes]:
        """Output files reconstructed from the writes replayed so far."""
        outputs: dict[str, bytearray] = {}
        for _seq, name, data in sorted(self._write_segments):
            outputs.setdefault(name, bytearray()).extend(data)
        return {name: bytes(data) for name, data in outputs.items()}

    def _pre_chunk(self, ctx: _ReplayThread) -> None:
        if ctx.pending_actions:
            for action in ctx.pending_actions:
                self._run_action(action)
            ctx.pending_actions = []
        if ctx.pending_copies:
            for addr, data in ctx.pending_copies:
                self.memory.write(addr, data)
                self.stats.copies_applied += 1
            ctx.pending_copies = ()
        self._deliver_signals(ctx)

    def _run_action(self, action: tuple) -> None:
        kind = action[0]
        if kind == "open":
            _kind, fd, path_addr = action
            self._fd_names[fd] = self._read_cstring(path_addr)
        elif kind == "write":
            _kind, seq, fd, buf, written = action
            name = self._fd_names.get(fd)
            if name is not None:
                data = self.memory.read(buf, written)
                self._write_segments.append((seq, name, data))

    def _deliver_signals(self, ctx: _ReplayThread) -> None:
        events = ctx.events
        while (events and events[0].kind == EV_SIGNAL
               and events[0].chunk_seq == ctx.completed_chunks):
            event = events.popleft()
            engine = ctx.engine
            ctx.sig_saved.append(engine.save_context())
            handler = ctx.sig_handlers.get(event.value)
            if handler is None:
                raise ReplayDivergenceError(
                    f"signal {event.value} delivered with no recorded handler",
                    rthread=ctx.rthread)
            engine.pc = handler
            engine.regs[RCX] = event.value
            engine.cur_memops = 0
            self.stats.signals += 1
            self.stats.events += 1

    def _apply_event(self, ctx: _ReplayThread, chunk: ChunkEntry) -> None:
        """Boundary of a chunk that ended at a kernel entry other than a
        preemption: consume and apply the thread's next input event."""
        event = ctx.next_event()
        self.stats.events += 1
        if event.chunk_seq != ctx.completed_chunks:
            raise ReplayDivergenceError(
                f"event chunk_seq {event.chunk_seq} != boundary "
                f"{ctx.completed_chunks}", rthread=ctx.rthread)
        if chunk.reason == Reason.NONDET:
            self._apply_nondet(ctx, event)
        elif chunk.reason == Reason.EXIT:
            self._apply_exit(ctx, event)
        else:
            self._apply_syscall_like(ctx, event)

    # -- event application -----------------------------------------------------

    def _apply_nondet(self, ctx: _ReplayThread, event: InputEvent) -> None:
        if event.kind != EV_NONDET:
            raise ReplayDivergenceError(
                f"expected nondet event, got {event.kind}", rthread=ctx.rthread)
        engine = ctx.engine
        instr = engine.current_instr()
        if instr.mnemonic != event.nondet_kind:
            raise ReplayDivergenceError(
                f"nondet kind mismatch: log {event.nondet_kind}, "
                f"pc has {instr.mnemonic}", rthread=ctx.rthread)
        engine.complete_trap(instr.ops[0], event.value)

    def _apply_exit(self, ctx: _ReplayThread, event: InputEvent) -> None:
        if event.kind != EV_EXIT:
            raise ReplayDivergenceError(
                f"expected exit event, got {event.kind}", rthread=ctx.rthread)
        if ctx.pending_copies:
            for addr, data in ctx.pending_copies:
                self.memory.write(addr, data)
                self.stats.copies_applied += 1
            ctx.pending_copies = ()
        ctx.withheld.commit_all()
        ctx.finished = True
        self.exit_codes[ctx.rthread] = event.value

    def _apply_syscall_like(self, ctx: _ReplayThread, event: InputEvent) -> None:
        engine = ctx.engine
        if event.kind == EV_SIGRETURN:
            if not ctx.sig_saved:
                raise ReplayDivergenceError("sigreturn with empty context stack",
                                            rthread=ctx.rthread)
            engine.restore_context(ctx.sig_saved.pop())
            return
        if event.kind != EV_SYSCALL:
            raise ReplayDivergenceError(
                f"expected syscall event, got {event.kind}", rthread=ctx.rthread)
        args = (engine.regs[1], engine.regs[2], engine.regs[3], engine.regs[4])
        self._emulate_side_effects(ctx, event, args)
        engine.complete_trap(Reg(RAX), event.value)
        ctx.pending_copies = event.copies

    def _emulate_side_effects(self, ctx: _ReplayThread, event: InputEvent,
                              args: tuple[int, int, int, int]) -> None:
        sysno = event.sysno
        if sysno == SYS_SPAWN:
            entry, sp, arg = args[0], args[1], args[2]
            self._create_thread(event.value, pc=entry, sp=sp, arg=arg)
        elif sysno == SYS_WRITE:
            fd, buf, length = args[0], args[1], args[2]
            written = event.value
            if written <= length:
                ctx.pending_actions.append(
                    ("write", event.seq, fd, buf, written))
        elif sysno == SYS_OPEN:
            ctx.pending_actions.append(("open", event.value, args[0]))
        elif sysno == SYS_CLOSE:
            self._fd_names.pop(args[0], None)
        elif sysno == SYS_SIGACTION:
            signo, handler = args[0], args[1]
            ctx.sig_handlers[signo] = handler

    def _read_cstring(self, addr: int, limit: int = 256) -> str:
        raw = bytearray()
        for offset in range(limit):
            byte = self.memory.read_byte(addr + offset)
            if byte == 0:
                break
            raw.append(byte)
        return raw.decode("latin-1")

    # -- completion ------------------------------------------------------------------

    def _finalize(self) -> None:
        for ctx in self.threads.values():
            if not ctx.finished:
                raise ReplayDivergenceError("thread never exited",
                                            rthread=ctx.rthread)
            if ctx.events:
                raise ReplayDivergenceError(
                    f"{len(ctx.events)} unconsumed input events",
                    rthread=ctx.rthread)
            if len(ctx.withheld):
                raise ReplayDivergenceError(
                    f"{len(ctx.withheld)} uncommitted stores at exit",
                    rthread=ctx.rthread)


def _interpret(engine: Engine, port: ReplayPort) -> str | None:
    """A unit through the interpretive :meth:`Engine.step`, returning as a
    generated unit function does."""
    outcome = engine.step(port)
    return None if outcome == OUTCOME_OK else outcome


def _unit_error(ctx: _ReplayThread, outcome: str | None,
                target: int) -> ReplayDivergenceError:
    """Why a chunk cannot reach its end: it retired past ``target``
    (``outcome`` None), a unit trapped, or (``OUTCOME_OK``) it ran past
    ``_CHUNK_UNIT_LIMIT`` units."""
    engine = ctx.engine
    if outcome is None:
        return ReplayDivergenceError(
            f"overshot chunk: retired {engine.retired} > {target}",
            rthread=ctx.rthread, icount=engine.retired)
    if outcome != OUTCOME_OK:
        return ReplayDivergenceError(
            f"trap ({outcome}) inside a chunk at pc {engine.pc}",
            rthread=ctx.rthread, icount=engine.retired)
    return ReplayDivergenceError(
        "chunk stop condition unreachable",
        rthread=ctx.rthread, icount=engine.retired)
