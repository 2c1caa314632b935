"""The multicore machine: cores, caches, store buffers, bus, memory.

The machine provides mechanism only — it steps whichever core it is told
to step and keeps coherence, store-buffer drains and cycle accounting
honest. Policy (which core runs which task, when to preempt) belongs to the
OS model in :mod:`repro.kernel`.

Determinism contract: the sequence of architectural state transitions is a
pure function of (program, machine config, sequence of step_core calls).
Recording hardware and cost accounting never influence it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..config import COHERENCE_DIRECTORY, MachineConfig
from ..errors import MachineFault
from ..isa.program import Program
from ..perf.costmodel import DEFAULT_COST_MODEL, CostModel
from ..telemetry import NULL_TELEMETRY, Telemetry
from .bus import DirectoryBus, SnoopBus
from .cache import MESICache, MISS as CACHE_MISS, MODIFIED, UPGRADE
from .core import OUTCOME_OK, Engine
from .memory import PhysicalMemory
from .store_buffer import (
    RESOLVE_CONFLICT,
    RESOLVE_HIT,
    StoreBuffer,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance for typing only
    from ..mrr.recorder import MemoryRaceRecorder


class Core:
    """One core: engine + store buffer + cache + optional recorder."""

    def __init__(self, core_id: int, machine: "Machine"):
        self.core_id = core_id
        self.machine = machine
        self.engine: Engine | None = None
        self.store_buffer = StoreBuffer(machine.config.store_buffer.entries)
        self.cache = MESICache(machine.config.cache)
        self.recorder: "MemoryRaceRecorder | None" = None
        self.port = _RecordPort(self)
        self.cycles = 0
        # The kernel's bookkeeping slot: the task currently dispatched here.
        self.task = None
        # Hot-path hoists (all fixed for the machine's lifetime).
        self._line_mask = ~(machine.config.cache.line_bytes - 1)
        self._store_drain_cost = machine.cost.store_drain

    @property
    def idle(self) -> bool:
        return self.task is None

    def set_program(self, program: Program) -> None:
        self.engine = Engine(program)

    # -- store buffer drains -------------------------------------------------

    def drain_one(self) -> None:
        """Make the oldest buffered store globally visible."""
        machine = self.machine
        entry = self.store_buffer.pop_oldest()
        line = entry.addr & self._line_mask
        classification = self.cache.classify_write(line)
        if classification == CACHE_MISS:
            machine.bus_transaction(self, line, is_write=True)
        elif classification == UPGRADE:
            machine.bus_transaction(self, line, is_write=True, upgrade=True)
        memory = machine.memory
        if entry.size == 4:
            memory.write_word(entry.addr, entry.value)
        else:
            memory.write_byte(entry.addr, entry.value)
        self.cycles += self._store_drain_cost
        if machine._tm_enabled:
            machine._tm_drains.inc()
        if self.recorder is not None:
            self.recorder.on_store_drain(line)

    def drain_all(self) -> None:
        entries = self.store_buffer._entries
        while entries:
            self.drain_one()


class _RecordPort:
    """The engine's memory port during normal (recordable) execution:
    TSO store buffer in front of a MESI cache on the snoop bus."""

    def __init__(self, core: Core):
        self._core = core
        machine = core.machine
        self._machine = machine
        self._memory = machine.memory
        self._sb = core.store_buffer
        self._cache = core.cache
        self._line_mask = ~(machine.config.cache.line_bytes - 1)
        self._atomic_extra = machine.cost.atomic_extra

    def load(self, addr: int, size: int) -> int:
        core = self._core
        status, value = self._sb.resolve(addr, size)
        line = addr & self._line_mask
        recorder = core.recorder
        if status == RESOLVE_HIT:
            if recorder is not None:
                recorder.on_load(line)
            return value  # type: ignore[return-value]
        if status == RESOLVE_CONFLICT:
            core.drain_all()
        if self._cache.classify_read(line) == CACHE_MISS:
            self._machine.bus_transaction(core, line, is_write=False)
        if recorder is not None:
            recorder.on_load(line)
        if size == 4:
            return self._memory.read_word(addr)
        return self._memory.read_byte(addr)

    def store(self, addr: int, size: int, value: int) -> None:
        sb = self._sb
        if sb.full:
            self._core.drain_one()
        sb.push(addr, size, value)

    def fence(self) -> None:
        if self._sb._entries:
            self._core.drain_all()

    def atomic_load(self, addr: int, size: int) -> int:
        """First half of a bus-locked RMW: take exclusive ownership, read."""
        core = self._core
        line = addr & self._line_mask
        classification = self._cache.classify_write(line)
        if classification == CACHE_MISS:
            self._machine.bus_transaction(core, line, is_write=True)
        elif classification == UPGRADE:
            self._machine.bus_transaction(core, line, is_write=True, upgrade=True)
        core.cycles += self._atomic_extra
        if core.recorder is not None:
            core.recorder.on_atomic_read(line)
        if size == 4:
            return self._memory.read_word(addr)
        return self._memory.read_byte(addr)

    def atomic_store(self, addr: int, size: int, value: int) -> None:
        """Second half of a bus-locked RMW: line is already Modified."""
        core = self._core
        line = addr & self._line_mask
        if size == 4:
            self._memory.write_word(addr, value)
        else:
            self._memory.write_byte(addr, value)
        if core.recorder is not None:
            core.recorder.on_atomic_write(line)


class Machine:
    """The QuickIA box: ``num_cores`` cores over one snoop bus."""

    def __init__(self, config: MachineConfig | None = None,
                 cost: CostModel | None = None,
                 telemetry: Telemetry | None = None):
        self.config = config or MachineConfig()
        self.cost = cost or DEFAULT_COST_MODEL
        self.telemetry = telemetry or NULL_TELEMETRY
        self.memory = PhysicalMemory(self.config.memory_bytes)
        # Module-global class references so test fixtures can swap in
        # checked subclasses by monkeypatching this module's names.
        if self.config.coherence == COHERENCE_DIRECTORY:
            self.bus = DirectoryBus(self.config.num_cores)
        else:
            self.bus = SnoopBus(self.config.num_cores)
        self.cores = [Core(core_id, self) for core_id in range(self.config.num_cores)]
        for core in self.cores:
            self.bus.attach_cache(core.core_id, core.cache)
        self.global_step = 0
        self.program: Program | None = None
        # True while a bus transaction is being processed. Recorder
        # termination-time drains (DRAIN tso mode) are forbidden inside a
        # transaction: they would issue nested transactions and break the
        # outer one's atomicity (e.g. two Modified copies of a line).
        self.in_bus_transaction = False
        # Hot-path hoists: read once, fixed for the machine's lifetime. The
        # telemetry flag in particular keeps the disabled case zero-cost in
        # step_core/after_unit/drain paths (one attribute read, no
        # singleton-object chasing).
        self._tm_enabled = self.telemetry.enabled
        self._tm_sampling = self.telemetry.sampling
        self._unit_cost = self.cost.unit
        self._cost_l1_miss = self.cost.l1_miss
        self._cost_upgrade = self.cost.upgrade
        self._cost_writeback = self.cost.writeback
        self._drain_period = self.config.store_buffer.drain_period
        self._drain_burst = self.config.store_buffer.drain_burst
        if self.telemetry.enabled:
            metrics = self.telemetry.metrics
            self._tm_bus_reads = metrics.counter("machine.bus_reads")
            self._tm_bus_writes = metrics.counter("machine.bus_writes")
            self._tm_bus_upgrades = metrics.counter("machine.bus_upgrades")
            self._tm_drains = metrics.counter("machine.store_drains")
            self._tm_copy_lines = metrics.counter("machine.coherent_copy_lines")

    def next_chunk_timestamp(self) -> int:
        """Next chunk timestamp, from the fabric's serialized order clock
        (see ``SnoopBus.order_clock``; the recorder inlines this bump)."""
        return self.bus.next_chunk_timestamp()

    def load_program(self, program: Program) -> None:
        """Load the data segment and point every core's engine at the code."""
        self.program = program
        self.memory.load_blob(program.data_base, program.data)
        for core in self.cores:
            core.set_program(program)

    def attach_recorder(self, core_id: int, recorder) -> None:
        self.cores[core_id].recorder = recorder
        self.bus.attach_snooper(core_id, recorder)

    def detach_recorders(self) -> None:
        for core in self.cores:
            core.recorder = None
            self.bus.attach_snooper(core.core_id, None)

    # -- transactions ---------------------------------------------------------

    def bus_transaction(self, core: Core, line: int, is_write: bool,
                        upgrade: bool = False) -> None:
        self.in_bus_transaction = True
        try:
            result = self.bus.transaction(core.core_id, line, is_write, upgrade)
        finally:
            self.in_bus_transaction = False
        core.cycles += self._cost_upgrade if upgrade else self._cost_l1_miss
        if result.flushed:
            core.cycles += self._cost_writeback
        if core.cache.fill(line, MODIFIED if is_write else result.fill_state):
            core.cycles += self._cost_writeback
        if self._tm_enabled:
            telemetry = self.telemetry
            if upgrade:
                self._tm_bus_upgrades.inc()
            elif is_write:
                self._tm_bus_writes.inc()
            else:
                self._tm_bus_reads.inc()
            transactions = (self._tm_bus_reads.value + self._tm_bus_writes.value
                            + self._tm_bus_upgrades.value)
            if transactions % telemetry.sampling == 0:
                telemetry.tracer.instant(
                    "bus.txn", cat="machine", tid=core.core_id,
                    args={"line": line, "write": is_write,
                          "upgrade": upgrade,
                          "victims": len(result.victim_timestamps)})

    def coherent_copy(self, core: Core, addr: int, data: bytes) -> None:
        """Kernel copy-to-user performed through ``core``'s cache.

        Each touched line is acquired exclusively (so racing user accesses
        on other cores are conflict-detected by their recorders) and the
        copy joins the current chunk's write set — ordering the data as if
        written at the start of the thread's next chunk, which is where the
        replayer injects it.
        """
        if not data:
            return
        line_bytes = self.config.cache.line_bytes
        first = self.config.cache.line_of(addr)
        last = self.config.cache.line_of(addr + len(data) - 1)
        for line in range(first, last + line_bytes, line_bytes):
            classification = core.cache.classify_write(line)
            if classification == CACHE_MISS:
                self.bus_transaction(core, line, is_write=True)
            elif classification == UPGRADE:
                self.bus_transaction(core, line, is_write=True, upgrade=True)
            if core.recorder is not None:
                core.recorder.on_copy_write(line)
            if self._tm_enabled:
                self._tm_copy_lines.inc()
        self.memory.write(addr, data)

    def coherent_read(self, core: Core, addr: int, size: int) -> bytes:
        """Kernel copy-from-user performed through ``core``'s cache.

        Symmetric to :meth:`coherent_copy`: each line joins the current
        chunk's *read* set, so a racing remote store is ordered against the
        kernel's read of the buffer — which is what lets the replayer
        reconstruct output data (e.g. write() payloads) exactly even when
        another thread races the buffer.
        """
        if size <= 0:
            return b""
        line_bytes = self.config.cache.line_bytes
        first = self.config.cache.line_of(addr)
        last = self.config.cache.line_of(addr + size - 1)
        for line in range(first, last + line_bytes, line_bytes):
            if core.cache.classify_read(line) == CACHE_MISS:
                self.bus_transaction(core, line, is_write=False)
            if core.recorder is not None:
                core.recorder.on_copy_read(line)
        return self.memory.read(addr, size)

    # -- stepping ---------------------------------------------------------------

    def step_core(self, core_id: int) -> str:
        """Execute one unit on ``core_id`` and run post-unit housekeeping.

        The compiled-dispatch indexing from ``Engine.step`` is inlined here
        (same bounds check, same fault) to drop one call layer from the
        per-unit path; engines without a decode cache go through
        ``Engine.step`` unchanged.
        """
        core = self.cores[core_id]
        engine = core.engine
        if engine is None:
            raise MachineFault("no program loaded", core_id=core_id)
        dispatch = engine._dispatch
        try:
            if dispatch is not None:
                pc = engine.pc
                if not 0 <= pc < len(dispatch):
                    raise MachineFault(f"pc {pc} outside code", pc=pc)
                outcome = dispatch[pc](engine, core.port)
                if outcome is None:
                    outcome = OUTCOME_OK
            else:
                outcome = engine.step(core.port)
        except MachineFault as fault:
            fault.core_id = core_id
            raise
        core.cycles += self._unit_cost
        # Inline of after_unit() — one less call on the per-unit path. The
        # recorder call is further gated on the (rare) fused condition under
        # which MemoryRaceRecorder.after_unit would do anything at all: size
        # cap reached or a signature past the saturation threshold. The
        # callee re-derives which applies, in its documented priority order.
        step = self.global_step + 1
        self.global_step = step
        recorder = core.recorder
        if (recorder is not None and recorder.rthread is not None
                and (engine.retired >= recorder._icnt_limit
                     or (recorder._sat_enabled
                         and (recorder.read_sig.bits_set
                              >= recorder._sat_min_bits
                              or recorder.write_sig.bits_set
                              >= recorder._sat_min_bits)))):
            recorder.after_unit()
        if step % self._drain_period == 0:
            self._drain_all_cores()
        if self._tm_enabled and step % self._tm_sampling == 0:
            self._sample_step_counters()
        return outcome

    def after_unit(self, core: Core) -> None:
        """Post-unit housekeeping (kept callable for engines stepped
        outside :meth:`step_core`; that method inlines this body)."""
        step = self.global_step + 1
        self.global_step = step
        recorder = core.recorder
        if recorder is not None:
            recorder.after_unit()
        if step % self._drain_period == 0:
            self._drain_all_cores()
        if self._tm_enabled and step % self._tm_sampling == 0:
            self._sample_step_counters()

    def _sample_step_counters(self) -> None:
        tracer = self.telemetry.tracer
        tracer.counter("machine.cycles",
                       {f"core{c.core_id}": c.cycles for c in self.cores},
                       cat="machine")
        tracer.counter("machine.retired",
                       {f"core{c.core_id}": c.engine.retired
                        for c in self.cores if c.engine is not None},
                       cat="machine")

    def idle_tick(self) -> None:
        """Advance time when no core is runnable (tasks blocked/sleeping)."""
        self.global_step += 1
        if self.global_step % self._drain_period == 0:
            self._drain_all_cores()

    def _drain_all_cores(self) -> None:
        """One background-drain tick: each core drains up to ``drain_burst``
        buffered stores (the TSO store buffers' passage of time).

        Reads the buffers' entry deque directly: this runs every
        ``drain_period`` units and the buffers are almost always empty, so
        the emptiness probe must not cost a property call per core.
        """
        burst = self._drain_burst
        for core in self.cores:
            entries = core.store_buffer._entries
            if not entries:
                continue
            drain_one = core.drain_one
            for _ in range(burst):
                if not entries:
                    break
                drain_one()

    # -- introspection --------------------------------------------------------------

    @property
    def total_cycles(self) -> int:
        return sum(core.cycles for core in self.cores)

    def stats_dict(self) -> dict:
        return {
            "global_steps": self.global_step,
            "total_cycles": self.total_cycles,
            "bus": self.bus.stats.as_dict(),
            "cores": [
                {
                    "cycles": core.cycles,
                    "retired": core.engine.retired if core.engine else 0,
                    "loads": core.engine.loads if core.engine else 0,
                    "stores": core.engine.stores if core.engine else 0,
                    "cache": core.cache.stats.as_dict(),
                }
                for core in self.cores
            ],
        }
