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
from .cache import (
    EXCLUSIVE,
    MESICache,
    MISS as CACHE_MISS,
    MODIFIED,
    SHARED,
    UPGRADE,
)
from .core import OUTCOME_OK, Engine
from .memory import MASK32, PhysicalMemory, misaligned, outside_memory
from .store_buffer import PendingStore, StoreBuffer

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance for typing only
    from ..mrr.recorder import MemoryRaceRecorder

#: MESI states that own a line: a write hits silently.
_OWNED = (MODIFIED, EXCLUSIVE)


class Core:
    """One core: engine + store buffer + cache + optional recorder."""

    def __init__(self, core_id: int, machine: "Machine"):
        self.core_id = core_id
        self.machine = machine
        self.engine: Engine | None = None
        self.store_buffer = StoreBuffer(machine.config.store_buffer.entries)
        self.cache = MESICache(machine.config.cache)
        self.recorder: "MemoryRaceRecorder | None" = None
        self.cycles = 0
        # The kernel's bookkeeping slot: the task currently dispatched here.
        self.task = None
        # Hot-path hoists for the flat memory path (drain_one, the record
        # port and the fill in SnoopBus.transaction). All fixed for the
        # machine's lifetime: the fabric, the buffer's deque, the cache's
        # sets, stats and geometry, and the memory's bytearray are never
        # replaced.
        cache = self.cache
        self._bus = machine.bus
        self._sb_entries = self.store_buffer._entries
        self._sets = cache._sets
        self._line_shift = cache._line_shift
        self._set_mask = cache._set_mask
        self._ways = cache.config.ways
        self._cache_stats = cache.stats
        self._line_mask = ~(machine.config.cache.line_bytes - 1)
        self._mem_data = machine.memory._data
        self._mem_size = machine.memory.size
        self._store_drain_cost = machine.cost.store_drain
        self.port = _RecordPort(self)

    @property
    def idle(self) -> bool:
        return self.task is None

    def set_program(self, program: Program) -> None:
        self.engine = Engine(program, decode_cache=self.machine.decode_cache)

    # -- store buffer drains -------------------------------------------------

    def drain_one(self) -> None:
        """Make the oldest buffered store globally visible: take write
        ownership of its line, write memory, insert into the recorder's
        write set. ``MESICache.classify_write`` and ``PhysicalMemory.
        write_word``/``write_byte`` run inline (see :class:`_RecordPort`)."""
        machine = self.machine
        entry = self._sb_entries.popleft()
        addr = entry.addr
        line = addr & self._line_mask
        entry_set = self._sets[(line >> self._line_shift) & self._set_mask]
        state = entry_set.get(line)
        if state in _OWNED:
            entry_set.move_to_end(line)
            entry_set[line] = MODIFIED
            self._cache_stats.write_hits += 1
        elif state == SHARED:
            entry_set.move_to_end(line)
            self._cache_stats.upgrades += 1
            self._bus.transaction(self, line, True, True)
        else:
            self._cache_stats.write_misses += 1
            self._bus.transaction(self, line, True)
        machine.buffered_stores -= 1
        machine.store_drains += 1
        if entry.size == 4:
            if addr & 3:
                raise misaligned("write", addr)
            if addr < 0 or addr + 4 > self._mem_size:
                raise outside_memory(addr, 4, self._mem_size)
            self._mem_data[addr:addr + 4] = (
                (entry.value & MASK32).to_bytes(4, "little"))
        else:
            if addr < 0 or addr + 1 > self._mem_size:
                raise outside_memory(addr, 1, self._mem_size)
            self._mem_data[addr] = entry.value & 0xFF
        self.cycles += self._store_drain_cost
        recorder = self.recorder
        if recorder is not None:
            recorder.on_store_drain(line)

    def drain_all(self) -> None:
        entries = self._sb_entries
        while entries:
            self.drain_one()


class _RecordPort:
    """The engine's memory port during normal (recordable) execution:
    TSO store buffer in front of a MESI cache on the snoop bus.

    Every access is one flat body. The store-buffer forward scan
    (``StoreBuffer.resolve``/``push``), the MESI set lookup with its LRU
    touch and stats (``MESICache.classify_read``/``classify_write``) and
    the aligned access on the memory's bytearray (``PhysicalMemory.
    read_word``/``write_word`` and the byte forms, same checks, same
    ``MemoryAccessError`` messages) run inline, in the order those methods
    ran. What stays a call: at most one recorder insert per access, the
    fabric's transaction on a miss or upgrade (which also fills the cache),
    and drains.
    ``tests/machine/test_record_port.py`` runs it in lockstep against a
    port built from the methods.
    """

    def __init__(self, core: Core):
        self._core = core
        self._machine = core.machine
        self._bus = core._bus
        self._entries = core._sb_entries
        self._sb_capacity = core.store_buffer.capacity
        self._sets = core._sets
        self._line_shift = core._line_shift
        self._set_mask = core._set_mask
        self._cache_stats = core._cache_stats
        self._line_mask = core._line_mask
        self._mem_data = core._mem_data
        self._mem_size = core._mem_size
        self._atomic_extra = core.machine.cost.atomic_extra

    def load(self, addr: int, size: int) -> int:
        core = self._core
        line = addr & self._line_mask
        entries = self._entries
        if entries:
            # Store-to-load forwarding from the youngest overlapping entry;
            # a partial overlap drains the buffer, then reads memory.
            for entry in reversed(entries):
                start = entry.addr
                end = start + entry.size
                if start <= addr and addr + size <= end:
                    recorder = core.recorder
                    if recorder is not None:
                        recorder.on_load(line)
                    return ((entry.value >> (8 * (addr - start)))
                            & ((1 << (8 * size)) - 1))
                if start < addr + size and addr < end:
                    core.drain_all()
                    break
        entry_set = self._sets[(line >> self._line_shift) & self._set_mask]
        if line in entry_set:
            entry_set.move_to_end(line)
            self._cache_stats.read_hits += 1
        else:
            self._cache_stats.read_misses += 1
            self._bus.transaction(core, line, False)
        recorder = core.recorder
        if recorder is not None:
            recorder.on_load(line)
        data = self._mem_data
        if size == 4:
            if addr & 3:
                raise misaligned("read", addr)
            if addr < 0 or addr + 4 > self._mem_size:
                raise outside_memory(addr, 4, self._mem_size)
            return int.from_bytes(data[addr:addr + 4], "little")
        if addr < 0 or addr + 1 > self._mem_size:
            raise outside_memory(addr, 1, self._mem_size)
        return data[addr]

    def store(self, addr: int, size: int, value: int) -> None:
        entries = self._entries
        if len(entries) >= self._sb_capacity:
            self._core.drain_one()
        entries.append(PendingStore(addr, size, value & MASK32))
        self._machine.buffered_stores += 1

    def fence(self) -> None:
        if self._entries:
            self._core.drain_all()

    def atomic_load(self, addr: int, size: int) -> int:
        """First half of a bus-locked RMW: take exclusive ownership, read."""
        core = self._core
        line = addr & self._line_mask
        entry_set = self._sets[(line >> self._line_shift) & self._set_mask]
        state = entry_set.get(line)
        if state in _OWNED:
            entry_set.move_to_end(line)
            entry_set[line] = MODIFIED
            self._cache_stats.write_hits += 1
        elif state == SHARED:
            entry_set.move_to_end(line)
            self._cache_stats.upgrades += 1
            self._bus.transaction(core, line, True, True)
        else:
            self._cache_stats.write_misses += 1
            self._bus.transaction(core, line, True)
        core.cycles += self._atomic_extra
        recorder = core.recorder
        if recorder is not None:
            recorder.on_atomic_read(line)
        data = self._mem_data
        if size == 4:
            if addr & 3:
                raise misaligned("read", addr)
            if addr < 0 or addr + 4 > self._mem_size:
                raise outside_memory(addr, 4, self._mem_size)
            return int.from_bytes(data[addr:addr + 4], "little")
        if addr < 0 or addr + 1 > self._mem_size:
            raise outside_memory(addr, 1, self._mem_size)
        return data[addr]

    def atomic_store(self, addr: int, size: int, value: int) -> None:
        """Second half of a bus-locked RMW: line is already Modified."""
        data = self._mem_data
        if size == 4:
            if addr & 3:
                raise misaligned("write", addr)
            if addr < 0 or addr + 4 > self._mem_size:
                raise outside_memory(addr, 4, self._mem_size)
            data[addr:addr + 4] = (value & MASK32).to_bytes(4, "little")
        else:
            if addr < 0 or addr + 1 > self._mem_size:
                raise outside_memory(addr, 1, self._mem_size)
            data[addr] = value & 0xFF
        recorder = self._core.recorder
        if recorder is not None:
            recorder.on_atomic_write(addr & self._line_mask)

class Machine:
    """The QuickIA box: ``num_cores`` cores over one snoop bus.

    ``decode_cache`` (compiled engines) is an implementation switch: a
    run is bit-identical with it off, which the equivalence suites and
    the soak lattice check.
    """

    def __init__(self, config: MachineConfig | None = None,
                 cost: CostModel | None = None,
                 telemetry: Telemetry | None = None,
                 decode_cache: bool = True):
        self.config = config or MachineConfig()
        self.decode_cache = decode_cache
        self.cost = cost or DEFAULT_COST_MODEL
        self.telemetry = telemetry or NULL_TELEMETRY
        self.memory = PhysicalMemory(self.config.memory_bytes)
        # Module-global class references so test fixtures can swap in
        # checked subclasses by monkeypatching this module's names.
        bus_cls = (DirectoryBus if self.config.coherence == COHERENCE_DIRECTORY
                   else SnoopBus)
        self.bus = bus_cls(self.config.num_cores, self.cost, self.telemetry)
        self.cores = [Core(core_id, self) for core_id in range(self.config.num_cores)]
        for core in self.cores:
            self.bus.attach_cache(core.core_id, core.cache)
        self.global_step = 0
        # Stores sitting in any core's store buffer: the drain tick has
        # work only while this is nonzero.
        self.buffered_stores = 0
        # Stores drained, and lines kernel copy-to-user wrote.
        self.store_drains = 0
        self.coherent_copy_lines = 0
        self.program: Program | None = None
        # Hot-path hoists: read once, fixed for the machine's lifetime. The
        # telemetry flag in particular keeps the disabled case zero-cost in
        # the run loop and step_core (one attribute read, no
        # singleton-object chasing).
        self._tm_enabled = self.telemetry.enabled
        self._tm_sampling = self.telemetry.sampling
        self._unit_cost = self.cost.unit
        self._drain_period = self.config.store_buffer.drain_period
        self._drain_burst = self.config.store_buffer.drain_burst

    def load_program(self, program: Program) -> None:
        """Load the data segment and point every core's engine at the code."""
        self.program = program
        self.memory.load_blob(program.data_base, program.data)
        for core in self.cores:
            core.set_program(program)

    def attach_recorder(self, core_id: int, recorder) -> None:
        self.cores[core_id].recorder = recorder
        self.bus.attach_recorder(core_id, recorder)

    # -- kernel copies -----------------------------------------------------------

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
        self.coherent_copy_lines += (last - first) // line_bytes + 1
        for line in range(first, last + line_bytes, line_bytes):
            classification = core.cache.classify_write(line)
            if classification == CACHE_MISS:
                self.bus.transaction(core, line, True)
            elif classification == UPGRADE:
                self.bus.transaction(core, line, True, True)
            if core.recorder is not None:
                core.recorder.on_copy_write(line)
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
                self.bus.transaction(core, line, False)
            if core.recorder is not None:
                core.recorder.on_copy_read(line)
        return self.memory.read(addr, size)

    # -- stepping ---------------------------------------------------------------

    def step_core(self, core_id: int) -> str:
        """Execute one unit on ``core_id`` and run post-unit housekeeping.

        The single-step API: ``Kernel.run``'s stepped loop (the oracle of
        its fused loop) and the machine tests call it. The compiled-dispatch
        indexing from ``Engine.step`` is inlined (same bounds check, same
        fault); engines without a decode cache go through ``Engine.step``.
        ``Kernel.run``'s fused loop inlines this whole body.
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
        step = self.global_step + 1
        self.global_step = step
        # The recorder's gate is the one retired count at which its
        # after_unit can act (size cap, saturation, see
        # MemoryRaceRecorder.gate); the callee re-derives which applies.
        recorder = core.recorder
        if recorder is not None and engine.retired >= recorder.gate:
            recorder.after_unit()
        if step % self._drain_period == 0 and self.buffered_stores:
            self._drain_all_cores()
        if self._tm_enabled and step % self._tm_sampling == 0:
            self._sample_step_counters()
        return outcome

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
        if self.global_step % self._drain_period == 0 and self.buffered_stores:
            self._drain_all_cores()

    def _drain_all_cores(self) -> None:
        """One background-drain tick: each core drains up to ``drain_burst``
        buffered stores (the TSO store buffers' passage of time).

        Callers skip the tick while ``buffered_stores`` is zero; the
        buffers' entry deques are read directly.
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
            "store_drains": self.store_drains,
            "coherent_copy_lines": self.coherent_copy_lines,
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
