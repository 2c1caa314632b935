"""Method-built reference paths for the lockstep suites.

The record path runs several behaviours as flat bodies: the record port
and store drains (``machine/machine.py``), the fabric's transaction with
its cache snoops, signature tests and requester fill (``machine/bus.py``),
the recorder's signature hooks and chunk cut with its CBUF write
(``mrr/recorder.py``) and the kernel's trap bodies (``kernel/kernel.py``)
with the RSM's input logging (``capo/rsm.py``). This module keeps, for
each, the chain of method calls the flat body replaced. Installing a
reference through a ``monkeypatch`` context makes a recording run the
chain instead; a lockstep test records once each way and compares.

- :func:`install_memory_reference` — the record memory path built from
  ``StoreBuffer.resolve``/``push``/``pop_oldest``, ``MESICache.
  classify_*``/``fill``/``snoop_remote_*``, ``PhysicalMemory.read_word``/
  ``write_word`` and the byte forms, and ``BloomSignature.insert``/
  ``test``.
- :func:`install_miss_reference` — the coherence miss and the chunk cut
  as the chain that ran before the fabric and the recorder took them in
  one body each: ``Machine.bus_transaction`` → ``SnoopBus.transaction``
  → ``MemoryRaceRecorder.snoop`` per present core → ``terminate`` → the
  RSM's per-core ``sink`` closure → ``ReplaySphere.note_chunk`` and
  ``ChunkBuffer.append``. The bodies are kept verbatim, but for the
  attributes that moved: the recorder list (``_recorders``), and the
  charges and bus counters now kept on the fabric.
- :func:`install_trap_reference` — the trap chain as the kernel ran it
  before the flat trap bodies: ``_after_unit_slow`` → ``_handle_syscall``/
  ``_handle_nondet``/``_preempt`` through ``_kernel_entry``,
  ``_kernel_exit``, ``_dispatch``/``_undispatch``, ``_deliver_signal``,
  ``_fill_idle_cores`` and ``_wake_sleepers``, and the RSM's
  ``on_kernel_entry``/``on_dispatch``/``on_undispatch`` and ``log_*`` →
  ``_intern_copies`` → ``_event`` → ``_log``. The method bodies are kept
  verbatim.
- :func:`install_run_reference` — ``Kernel.run`` as the stepped loop it
  kept beside the one loop for stateful interleavers and interpretive
  engines: ``interleaver.choose`` then ``Machine.step_core`` per unit.
- :func:`install_replay_port_reference` — the replay memory path as the
  chain that ran before ``ReplayPort.load``/``store`` and the withheld
  commits became flat bodies: ``ReplayPort`` → ``WithheldStores.push``/
  ``resolve``/``_write``/``_commit_one``/``commit_all``/
  ``commit_keep_last`` → ``PhysicalMemory.read_word``/``write_word``/
  ``read_byte``/``write_byte``. The bodies are kept verbatim. Unlike the
  others it acts on replay, not on recording.

It also keeps one frozen writer: :func:`encode_checkpoints_v3`, the QRCK
version 3 checkpoint section (each record's changed pages deflated as one
stream without a dictionary), which the decoder must still read.
"""

from __future__ import annotations

import struct
import zlib

from repro.capo.events import (
    EV_EXIT,
    EV_NONDET,
    EV_SIGNAL,
    EV_SIGRETURN,
    EV_SYSCALL,
    InputEvent,
)
from repro.capo.chunk_buffer import ChunkBuffer
from repro.capo.rsm import MODE_FULL, ReplaySphereManager
from repro.capo.sphere import ReplaySphere
from repro.errors import KernelError, ReplayDivergenceError
from repro.isa.operands import Reg
from repro.isa.registers import RAX, RCX
from repro.kernel import syscalls
from repro.kernel.kernel import CPUID_VALUE, MASK32, Kernel
from repro.kernel.syscalls import (
    Block,
    Complete,
    ExitAction,
    SigReturnAction,
    SYS_EXIT,
)
from repro.kernel.tasks import (
    STATE_BLOCKED,
    STATE_EXITED,
    STATE_RUNNABLE,
    STATE_RUNNING,
    Task,
)
from repro.machine import machine as machine_module
from repro.machine.bus import SnoopBus
from repro.machine.cache import (
    EXCLUSIVE,
    MISS,
    MODIFIED,
    SHARED,
    UPGRADE,
)
from repro.machine.core import OUTCOME_NONDET, OUTCOME_OK, OUTCOME_SYSCALL
from repro.machine.machine import Core, Machine
from repro.machine.memory import PhysicalMemory, misaligned
from repro.machine.store_buffer import (
    _RESOLVED_CONFLICT,
    _RESOLVED_MISS,
    RESOLVE_CONFLICT,
    RESOLVE_HIT,
    PendingStore,
)
from repro.errors import RecordingError
from repro.mrr.chunk import ChunkEntry, Reason
from repro.mrr.logfmt import CheckpointRecord
from repro.mrr.recorder import MemoryRaceRecorder
from repro.replay.pending import ReplayPort, WithheldStores


# -- the fabric entry both references share --------------------------------------

def _via_machine(self, core, line, is_write, upgrade=False):
    """``SnoopBus.transaction`` as the references enter it: through the
    machine's ``bus_transaction``, which runs the fabric's
    ``_reference_transaction`` and then fills and charges the requester."""
    core.machine.bus_transaction(core, line, is_write, upgrade)


# -- the record memory path ------------------------------------------------------

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
    machine.store_drains += 1
    if entry.size == 4:
        machine.memory.write_word(entry.addr, entry.value)
    else:
        machine.memory.write_byte(entry.addr, entry.value)
    self.cycles += self._store_drain_cost
    if self.recorder is not None:
        self.recorder.on_store_drain(line)


def _method_bus_transaction(self, core, line, is_write, upgrade=False):
    bus = self.bus
    fill_state, flushed = bus._reference_transaction(
        core.core_id, line, is_write, upgrade)
    core.cycles += bus._cost_upgrade if upgrade else bus._cost_l1_miss
    if flushed:
        core.cycles += bus._cost_writeback
    if core.cache.fill(line, fill_state):
        core.cycles += bus._cost_writeback


def _method_snoops():
    """The fabric transaction with its caches snooped by method.

    The chain's flat transaction (:func:`_chain_transaction`) runs with
    the caches hidden, so it still snoops the recorders and keeps
    presence, sharers and bus stats; then the cores it would have reached
    snoop their caches through ``snoop_remote_*``. Cache and recorder
    snoops touch disjoint state, so the order between the two passes is
    not observable. Both fabrics run this one body; the directory's exact
    sharer set narrows the caches.
    """
    flat = _chain_transaction

    def transaction(self, requester, line, is_write, upgrade=False):
        reached = self._presence.get(line, self._all_mask) & ~(1 << requester)
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


def install_memory_reference(patch):
    """Record through the method-built memory path while ``patch`` (a
    ``monkeypatch`` or one of its contexts) is active."""
    patch.setattr(machine_module, "_RecordPort", _MethodPort)
    patch.setattr(Core, "drain_one", _method_drain_one)
    patch.setattr(Machine, "bus_transaction", _method_bus_transaction,
                  raising=False)
    patch.setattr(SnoopBus, "transaction", _via_machine)
    patch.setattr(SnoopBus, "_reference_transaction", _method_snoops(),
                  raising=False)
    for name in ("on_load", "on_atomic_read", "on_copy_read"):
        patch.setattr(MemoryRaceRecorder, name, _method_on_load)
    for name in ("on_store_drain", "on_atomic_write", "on_copy_write"):
        patch.setattr(MemoryRaceRecorder, name, _method_on_store_drain)
    patch.setattr(MemoryRaceRecorder, "snoop", _method_snoop)


# -- the coherence miss and the chunk cut ------------------------------------------

_OWNED = (MODIFIED, EXCLUSIVE)


def _chain_transaction(self, requester, line, is_write, upgrade=False):
    """The fabric transaction of the chain: present caches snooped
    inline, each other recorder (on the directory, each present one)
    notified through ``snoop``. Returns the requester's fill state and
    whether a remote Modified copy was flushed."""
    stats = self.stats
    stats.transactions += 1
    if upgrade:
        stats.upgrades += 1
    elif is_write:
        stats.read_exclusives += 1
    else:
        stats.reads += 1

    all_mask = self._all_mask
    present = self._presence.get(line, all_mask)
    req_bit = 1 << requester
    notify = present & ~req_bit
    broadcast = self._broadcast
    stats.broadcast_snoops += broadcast
    sharer_sets = self._sharers
    if sharer_sets is None:
        stats.notifies_sent += broadcast
        cache_mask = notify
        tested = all_mask & ~req_bit
    else:
        sharers = sharer_sets.get(line, all_mask)
        cache_mask = notify & sharers
        tested = notify
        sent = notify.bit_count()
        stats.notifies_sent += sent
        stats.notifies_saved += broadcast - sent
        hist = stats.sharer_hist
        holders = cache_mask.bit_count()
        hist[holders] = hist.get(holders, 0) + 1

    shared = False
    flushed = False
    caches = self._caches
    snoopers = self._recorders
    mask = tested
    while mask:
        low = mask & -mask
        mask ^= low
        core_id = low.bit_length() - 1
        if low & cache_mask:
            cache = caches[core_id]
            if cache is not None:
                entry_set = cache._sets[
                    (line >> cache._line_shift) & cache._set_mask]
                if is_write:
                    state = entry_set.pop(line, None)
                    if state is not None:
                        cache_stats = cache.stats
                        cache_stats.invalidations_received += 1
                        if state == MODIFIED:
                            cache_stats.writebacks += 1
                            flushed = True
                else:
                    state = entry_set.get(line)
                    if state is not None:
                        shared = True
                        if state in _OWNED:
                            cache_stats = cache.stats
                            if state == MODIFIED:
                                cache_stats.writebacks += 1
                            entry_set[line] = SHARED
                            cache_stats.downgrades_received += 1
        snooper = snoopers[core_id]
        if snooper is not None:
            snooper.snoop(line, is_write)

    if is_write:
        if flushed:
            stats.flushes += 1
        self._presence[line] = req_bit
        if sharer_sets is not None:
            sharer_sets[line] = req_bit
        return MODIFIED, flushed
    self._presence[line] = present | req_bit
    if sharer_sets is not None:
        sharer_sets[line] = sharers | req_bit
    return (SHARED if shared else EXCLUSIVE), False


def _chain_bus_transaction(self, core, line, is_write, upgrade=False):
    """``Machine.bus_transaction``: the fabric's transaction inside the
    in-transaction flag, then the requester's charges and fill."""
    bus = self.bus
    self.in_bus_transaction = True
    try:
        state, flushed = bus._reference_transaction(
            core.core_id, line, is_write, upgrade)
    finally:
        self.in_bus_transaction = False
    core.cycles += bus._cost_upgrade if upgrade else bus._cost_l1_miss
    if flushed:
        core.cycles += bus._cost_writeback
    entry_set = core._sets[(line >> core._line_shift) & core._set_mask]
    if line in entry_set:
        entry_set[line] = state
        entry_set.move_to_end(line)
    elif len(entry_set) < core._ways:
        entry_set[line] = state
    elif core.cache.fill(line, state):
        core.cycles += bus._cost_writeback
    if bus._tm_enabled:
        telemetry = bus.telemetry
        if bus.stats.transactions % telemetry.sampling == 0:
            telemetry.tracer.instant(
                "bus.txn", cat="machine", tid=core.core_id,
                args={"line": line, "write": is_write,
                      "upgrade": upgrade})


def _chain_terminate(self, reason):
    """``MemoryRaceRecorder.terminate`` handing its entry to ``sink``;
    DRAIN mode drains unless the machine is inside a transaction."""
    rthread = self.rthread
    if rthread is None:
        raise RecordingError("terminate with no active rthread")
    machine = self.core.machine
    if self._drain_mode and not machine.in_bus_transaction:
        self.core.drain_all()
    bus = machine.bus
    timestamp = bus.order_clock + 1
    bus.order_clock = timestamp
    engine = self.core.engine
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
    self.sink(entry)
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


def _chain_make_sink(self, core, cbuf):
    """The RSM's per-core sink closure."""
    cost = self.machine.cost

    def sink(entry):
        self.sphere.note_chunk(entry.rthread)
        self.stats.chunks += 1
        core.cycles += cost.cbuf_entry_write
        self.stats.cycles_cbuf_write += cost.cbuf_entry_write
        flight = self.flight
        if flight is not None:
            flight.push_chunk(entry)
        cbuf.append(entry)

    return sink


def _chain_note_chunk(self, rthread):
    self.chunk_counts[rthread] += 1


def _chain_append(self, entry):
    self._entries.append(entry)
    self.appended += 1
    if len(self._entries) >= self.capacity:
        self.drain()


def _chain_rsm_init():
    """``ReplaySphereManager.__init__`` handing each recorder its sink."""
    init = ReplaySphereManager.__init__

    def __init__(self, machine, config, mode=MODE_FULL):
        init(self, machine, config, mode)
        for recorder in self.recorders:
            recorder.sink = self._make_sink(recorder.core, recorder.cbuf)

    return __init__


def install_miss_reference(patch):
    """Record through the chain of calls a coherence miss and a chunk cut
    ran before their flat bodies, while ``patch`` is active. The RSM must
    be built inside the context: it hands out the sinks."""
    patch.setattr(SnoopBus, "transaction", _via_machine)
    patch.setattr(SnoopBus, "_reference_transaction", _chain_transaction,
                  raising=False)
    patch.setattr(Machine, "bus_transaction", _chain_bus_transaction,
                  raising=False)
    patch.setattr(Machine, "in_bus_transaction", False, raising=False)
    patch.setattr(MemoryRaceRecorder, "terminate", _chain_terminate)
    patch.setattr(ReplaySphereManager, "__init__", _chain_rsm_init())
    patch.setattr(ReplaySphereManager, "_make_sink", _chain_make_sink,
                  raising=False)
    patch.setattr(ReplaySphere, "note_chunk", _chain_note_chunk,
                  raising=False)
    patch.setattr(ChunkBuffer, "append", _chain_append, raising=False)
    patch.setattr(ChunkBuffer, "appended", 0, raising=False)


# -- the trap path ---------------------------------------------------------------

class _ReferenceKernel:
    """The kernel's trap chain as it ran before the flat trap bodies."""

    def _after_unit_slow(self, core: Core, task: Task, outcome: str) -> None:
        """The rare post-unit work: wakeups, trap handling, preemption and
        core refill. ``task.units_in_quantum`` is already incremented."""
        self._wake_sleepers()
        if outcome != OUTCOME_OK:
            if outcome == OUTCOME_SYSCALL:
                self._handle_syscall(core, task)
            elif outcome == OUTCOME_NONDET:
                self._handle_nondet(core, task)
        if (task.units_in_quantum >= task.quantum_limit
                and core.task is task and task.state == STATE_RUNNING):
            self._preempt(core, task)
        self._fill_idle_cores()

    def _kernel_entry(self, core: Core, task: Task, reason: str) -> None:
        core.drain_all()
        if self.rsm is not None and task.recorded:
            self.rsm.on_kernel_entry(core, task, reason)

    def _kernel_exit(self, core: Core, task: Task) -> None:
        self._deliver_signal(core, task)

    def _handle_syscall(self, core: Core, task: Task) -> None:
        engine = core.engine
        sysno = engine.regs[RAX]
        args = (engine.regs[1], engine.regs[2], engine.regs[3], engine.regs[4])
        reason = Reason.EXIT if sysno == SYS_EXIT else Reason.SYSCALL
        self._kernel_entry(core, task, reason)
        core.cycles += self.machine.cost.syscall_base
        name = syscalls.SYSCALL_NAMES.get(sysno, f"sys_{sysno}")
        self.stats.syscalls += 1
        self.stats.syscalls_by_name[name] = \
            self.stats.syscalls_by_name.get(name, 0) + 1
        if self._tm_on:
            self.telemetry.tracer.instant(
                f"sys.{name}", cat="kernel", tid=task.tid,
                args={"sysno": sysno, "core": core.core_id})

        action = syscalls.dispatch(self, task, sysno, args)

        if isinstance(action, Complete):
            engine.complete_trap(Reg(RAX), action.retval)
            for addr, data in action.copies:
                self.machine.coherent_copy(core, addr, data)
                self.stats.copy_to_user_bytes += len(data)
            if self.rsm is not None and task.recorded:
                self.rsm.log_syscall(task, sysno, action.retval, action.copies)
            self._kernel_exit(core, task)
            if action.reschedule:
                task.units_in_quantum = task.quantum_limit
        elif isinstance(action, Block):
            task.pending_retval = action.wake_retval
            if self.rsm is not None and task.recorded:
                self.rsm.log_syscall(task, sysno, action.wake_retval, ())
            self._block(core, task, action.channel)
            self.stats.blocks += 1
        elif isinstance(action, ExitAction):
            if self.rsm is not None and task.recorded:
                self.rsm.log_exit(task, action.code)
            self._exit_task(core, task, action.code)
        elif isinstance(action, SigReturnAction):
            if not task.sig_saved:
                raise KernelError(f"tid {task.tid}: sigreturn with no saved context")
            engine.restore_context(task.sig_saved.pop())
            if self.rsm is not None and task.recorded:
                self.rsm.log_sigreturn(task)
            self._kernel_exit(core, task)
        else:  # pragma: no cover - exhaustiveness guard
            raise KernelError(f"unknown syscall action {action!r}")

    def _handle_nondet(self, core: Core, task: Task) -> None:
        engine = core.engine
        instr = engine.current_instr()
        self._kernel_entry(core, task, Reason.NONDET)
        core.cycles += self.machine.cost.nondet_base
        self.stats.nondet_traps += 1
        if instr.mnemonic == "rdtsc":
            value = self.machine.global_step & MASK32
        elif instr.mnemonic == "rdrand":
            value = self.rng.getrandbits(32)
        elif instr.mnemonic == "cpuid":
            value = CPUID_VALUE ^ self.machine.config.num_cores
        else:  # pragma: no cover - dispatch guarantees the mnemonics above
            raise KernelError(f"unexpected nondet instruction {instr.mnemonic}")
        if self._tm_on:
            self.telemetry.tracer.instant(
                f"nondet.{instr.mnemonic}", cat="kernel", tid=task.tid,
                args={"value": value})
        engine.complete_trap(instr.ops[0], value)
        if self.rsm is not None and task.recorded:
            self.rsm.log_nondet(task, instr.mnemonic, value)
        self._kernel_exit(core, task)

    def _quantum(self) -> int:
        quantum = self.config.quantum_instructions
        if self.config.timeslice_jitter:
            quantum += self.rng.randrange(self.config.timeslice_jitter + 1)
        return quantum

    def _dispatch(self, core: Core, task: Task) -> None:
        core.task = task
        self._running_ids = [c.core_id for c in self.machine.cores
                             if c.task is not None]
        task.core_id = core.core_id
        task.state = STATE_RUNNING
        task.units_in_quantum = 0
        task.quantum_limit = self._quantum()
        self.stats.dispatches += 1
        if self._tm_on:
            self.telemetry.tracer.instant(
                "sched.dispatch", cat="kernel", tid=task.tid,
                args={"core": core.core_id,
                      "quantum": task.quantum_limit})
        if task.program is not None:
            core.engine.program = task.program
        core.engine.restore_context(task.context)
        task.context = None
        if self.rsm is not None and task.recorded:
            self.rsm.on_dispatch(core, task)
        if task.pending_retval is not None:
            core.engine.complete_trap(Reg(RAX), task.pending_retval)
            task.pending_retval = None
        self._deliver_signal(core, task)

    def _undispatch(self, core: Core, task: Task) -> None:
        task.context = core.engine.save_context()
        task.core_id = None
        core.task = None
        self._running_ids = [c.core_id for c in self.machine.cores
                             if c.task is not None]
        if self.rsm is not None and task.recorded:
            self.rsm.on_undispatch(core, task)

    def _preempt(self, core: Core, task: Task) -> None:
        self._kernel_entry(core, task, Reason.PREEMPT)
        core.cycles += self.machine.cost.context_switch_base
        self.stats.preemptions += 1
        self.stats.context_switches += 1
        if self._tm_on:
            self.telemetry.tracer.instant(
                "sched.preempt", cat="kernel", tid=task.tid,
                args={"core": core.core_id})
        self._undispatch(core, task)
        task.state = STATE_RUNNABLE
        self.sched.enqueue(task.tid)
        self._fill_idle_cores()

    def _block(self, core: Core, task: Task, channel: tuple) -> None:
        task.state = STATE_BLOCKED
        task.wait_channel = channel
        kind, value = channel
        if kind == "futex":
            self.futexes.add_waiter(value, task.tid)
        elif kind == "sleep":
            self.sched.add_sleeper(value, task.tid)
        else:  # pragma: no cover - handlers only emit the two kinds above
            raise KernelError(f"unknown wait channel {channel!r}")
        if self._tm_on:
            self.telemetry.tracer.instant(
                "sched.block", cat="kernel", tid=task.tid,
                args={"kind": kind, "value": value})
        self.stats.context_switches += 1
        self._undispatch(core, task)
        self._fill_idle_cores()

    def _exit_task(self, core: Core, task: Task, code: int) -> None:
        task.exit_code = code & MASK32
        task.state = STATE_EXITED
        self._live -= 1
        self._undispatch(core, task)
        task.context = None
        self._fill_idle_cores()

    def _wake_sleepers(self) -> None:
        for tid in self.sched.due_sleepers(self.machine.global_step):
            task = self.tasks[tid]
            task.state = STATE_RUNNABLE
            task.wait_channel = None
            self.sched.enqueue(tid)

    def _fill_idle_cores(self) -> None:
        if len(self.sched) == 0:
            return
        for core in self.machine.cores:
            if core.task is not None:
                continue
            tid = self.sched.pop_next()
            if tid is None:
                return
            self._dispatch(core, self.tasks[tid])

    def _deliver_signal(self, core: Core, task: Task) -> None:
        """Deliver at most one pending signal at a safe point (a chunk
        boundary: kernel exit or dispatch)."""
        while task.sig_pending:
            signo = task.sig_pending.popleft()
            handler = task.sig_handlers.get(signo)
            if handler is None:
                continue  # default action: ignore
            engine = core.engine
            task.sig_saved.append(engine.save_context())
            engine.pc = handler
            engine.regs[RCX] = signo
            engine.cur_memops = 0
            self.stats.signals_delivered += 1
            if self._tm_on:
                self.telemetry.tracer.instant(
                    "signal.deliver", cat="kernel", tid=task.tid,
                    args={"signo": signo, "handler": handler})
            if self.rsm is not None and task.recorded:
                self.rsm.log_signal(task, signo)
            return


class _ReferenceRSM:
    """The RSM's kernel-crossing and input-logging chain, likewise."""

    def on_kernel_entry(self, core: Core, task, reason: str) -> None:
        core.recorder.terminate(reason)
        if self.mode != MODE_FULL:
            return
        cost = self.machine.cost
        if reason in (Reason.SYSCALL, Reason.EXIT):
            core.cycles += cost.rsm_syscall_interpose
            self.stats.cycles_interpose += cost.rsm_syscall_interpose
        elif reason == Reason.NONDET:
            core.cycles += cost.rsm_nondet_interpose
            self.stats.cycles_interpose += cost.rsm_nondet_interpose

    def on_dispatch(self, core: Core, task) -> None:
        core.recorder.set_thread(task.rthread)

    def on_undispatch(self, core: Core, task) -> None:
        core.recorder.clear_thread()
        if self.mode == MODE_FULL:
            cost = self.machine.cost
            core.cycles += cost.context_switch_flush
            self.stats.cycles_ctx_flush += cost.context_switch_flush

    def _log(self, event: InputEvent, core: Core | None,
             fresh_payload_bytes: int | None = None) -> None:
        if self.mode != MODE_FULL:
            return
        payload_bytes = event.payload_bytes
        fresh = payload_bytes if fresh_payload_bytes is None \
            else fresh_payload_bytes
        stats = self.stats
        stats.events_by_kind[event.kind] += 1
        stats.input_payload_bytes += payload_bytes
        stats.input_payload_dedup_bytes += payload_bytes - fresh
        if self.flight is None:
            self.events.append(event)
        else:
            self.flight.push_event(event)
        cost = self.machine.cost
        charge = cost.input_log_event + cost.input_log_per_byte * payload_bytes
        if core is not None:
            core.cycles += charge
        stats.cycles_input_log += charge
        if self._tm_on:
            self.telemetry.tracer.instant(
                f"input:{event.kind}", cat="capo", tid=event.rthread,
                args={"seq": event.seq, "chunk_seq": event.chunk_seq,
                      "payload_bytes": payload_bytes})

    def _event(self, task, kind: str, **fields) -> InputEvent:
        self._seq += 1
        return InputEvent(rthread=task.rthread, seq=self._seq,
                          chunk_seq=self.sphere.chunk_count(task.rthread),
                          kind=kind, **fields)

    def _core_of(self, task) -> Core | None:
        if task.core_id is None:
            return None
        return self.machine.cores[task.core_id]

    def _intern_copies(self, copies) -> tuple[tuple, int]:
        """Dedup copy payloads through the content-keyed pool.

        Returns the interned copies and the number of payload bytes whose
        content was *not* already pooled (the bytes that actually have to
        be copied into the log)."""
        if not copies:
            return (), 0
        pool = self._payload_pool
        fresh = 0
        out = []
        for addr, data in copies:
            pooled = pool.get(data)
            if pooled is None:
                pool[data] = pooled = data
                fresh += len(data)
            out.append((addr, pooled))
        return tuple(out), fresh

    def log_syscall(self, task, sysno: int, retval: int,
                    copies: tuple[tuple[int, bytes], ...]) -> None:
        copies, fresh = self._intern_copies(tuple(copies))
        event = self._event(task, EV_SYSCALL, sysno=sysno, value=retval,
                            copies=copies)
        self._log(event, self._core_of(task), fresh_payload_bytes=fresh)

    def log_nondet(self, task, kind: str, value: int) -> None:
        event = self._event(task, EV_NONDET, nondet_kind=kind, value=value)
        self._log(event, self._core_of(task))

    def log_signal(self, task, signo: int) -> None:
        event = self._event(task, EV_SIGNAL, value=signo)
        self._log(event, self._core_of(task))

    def log_sigreturn(self, task) -> None:
        event = self._event(task, EV_SIGRETURN)
        self._log(event, self._core_of(task))

    def log_exit(self, task, code: int) -> None:
        event = self._event(task, EV_EXIT, value=code)
        self._log(event, self._core_of(task))


_KERNEL_CHAIN = ("_after_unit_slow", "_kernel_entry", "_kernel_exit",
                 "_handle_syscall", "_handle_nondet", "_quantum",
                 "_dispatch", "_undispatch", "_preempt", "_block",
                 "_exit_task", "_wake_sleepers", "_fill_idle_cores",
                 "_deliver_signal")
_RSM_CHAIN = ("on_kernel_entry", "on_dispatch", "on_undispatch", "_log",
              "_event", "_core_of", "_intern_copies", "log_syscall",
              "log_nondet", "log_signal", "log_sigreturn", "log_exit")


def install_trap_reference(patch):
    """Record through the method-built trap chain while ``patch`` is
    active. Methods the flat kernel and RSM no longer define are added."""
    for name in _KERNEL_CHAIN:
        patch.setattr(Kernel, name, _ReferenceKernel.__dict__[name],
                      raising=False)
    for name in _RSM_CHAIN:
        patch.setattr(ReplaySphereManager, name, _ReferenceRSM.__dict__[name],
                      raising=False)


# -- the run loop ------------------------------------------------------------------

def _run_stepped(self, interleaver, max_units: int = 200_000_000) -> int:
    """``Kernel.run`` one unit at a time: ``interleaver.choose`` among the
    running cores, ``Machine.step_core``, then the kernel's post-unit
    fast path."""
    units = 0
    idle_streak = 0
    machine = self.machine
    cores = machine.cores
    step_core = machine.step_core
    choose = interleaver.choose
    sleepers = self.sched.sleepers
    while self._live > 0:
        candidates = self._running_ids
        if not candidates:
            idle_streak = self._idle(idle_streak)
            continue
        idle_streak = 0
        core_id = choose(candidates)
        outcome = step_core(core_id)
        core = cores[core_id]
        task = core.task
        task.units_in_quantum += 1
        if (outcome != OUTCOME_OK
                or task.units_in_quantum >= task.quantum_limit
                or (sleepers and sleepers[0][0] <= machine.global_step)):
            self._after_unit_slow(core, task, outcome)
        units += 1
        if units > max_units:
            raise KernelError(f"unit budget {max_units} exceeded")
    return units


def install_run_reference(patch):
    """Record through the stepped run loop while ``patch`` is active."""
    patch.setattr(Kernel, "run", _run_stepped)


# -- the replay memory path --------------------------------------------------------

class _ChainReplayPort:
    def load(self, addr: int, size: int) -> int:
        status, value = self._withheld.resolve(addr, size)
        if status == RESOLVE_HIT:
            return value  # type: ignore[return-value]
        if status == RESOLVE_CONFLICT:
            # Recording drained the store buffer at this exact point.
            self._withheld.stalls += 1
            self._withheld.commit_all()
        if size == 4:
            return self._memory.read_word(addr)
        return self._memory.read_byte(addr)

    def store(self, addr: int, size: int, value: int) -> None:
        self._withheld.push(addr, size, value)

    def fence(self) -> None:
        self._withheld.commit_all()

    def atomic_load(self, addr: int, size: int) -> int:
        # The engine fences before atomics, so the FIFO is already empty.
        if size == 4:
            return self._memory.read_word(addr)
        return self._memory.read_byte(addr)

    def atomic_store(self, addr: int, size: int, value: int) -> None:
        if size == 4:
            self._memory.write_word(addr, value)
        else:
            self._memory.write_byte(addr, value)


class _ChainWithheld:
    def push(self, addr: int, size: int, value: int) -> None:
        entry = PendingStore(addr, size, value & MASK32)
        self._entries.append(entry)
        word = addr & ~3
        bucket = self._by_word.get(word)
        if bucket is None:
            self._by_word[word] = [entry]
        else:
            bucket.append(entry)

    def _write(self, entry: PendingStore) -> None:
        if entry.size == 4:
            self._memory.write_word(entry.addr, entry.value)
        else:
            self._memory.write_byte(entry.addr, entry.value)

    def _commit_one(self) -> None:
        entry = self._entries.popleft()
        # The global oldest entry is also the oldest of its word.
        word = entry.addr & ~3
        bucket = self._by_word[word]
        del bucket[0]
        if not bucket:
            del self._by_word[word]
        self._write(entry)

    def commit_all(self) -> None:
        entries = self._entries
        if entries:
            for entry in entries:
                self._write(entry)
            entries.clear()
            self._by_word.clear()

    def commit_keep_last(self, keep: int) -> None:
        """Commit the oldest entries, keeping the youngest ``keep``."""
        excess = len(self._entries) - keep
        if excess <= 0:
            if excess:
                raise ReplayDivergenceError(
                    f"RSW {keep} exceeds {len(self._entries)} withheld stores")
        elif not keep:
            self.commit_all()
        else:
            for _ in range(excess):
                self._commit_one()

    def resolve(self, addr: int, size: int) -> tuple[str, int | None]:
        """Store-to-load forwarding, mirroring the store buffer's rules."""
        bucket = self._by_word.get(addr & ~3)
        if bucket is None:
            return _RESOLVED_MISS
        for entry in reversed(bucket):
            if entry.covers(addr, size):
                return RESOLVE_HIT, entry.extract(addr, size)
            if entry.overlaps(addr, size):
                return _RESOLVED_CONFLICT
        return _RESOLVED_MISS


class _ChainMemory:
    def read_word(self, addr: int) -> int:
        """Read an aligned little-endian 32-bit word."""
        if addr & 3:
            raise misaligned("read", addr)
        self._check(addr, 4)
        return int.from_bytes(self._data[addr:addr + 4], "little")

    def write_word(self, addr: int, value: int) -> None:
        """Write an aligned little-endian 32-bit word."""
        if addr & 3:
            raise misaligned("write", addr)
        self._check(addr, 4)
        self._data[addr:addr + 4] = (value & MASK32).to_bytes(4, "little")

    def read_byte(self, addr: int) -> int:
        self._check(addr, 1)
        return self._data[addr]

    def write_byte(self, addr: int, value: int) -> None:
        self._check(addr, 1)
        self._data[addr] = value & 0xFF


_REPLAY_CHAIN = (
    (ReplayPort, _ChainReplayPort,
     ("load", "store", "fence", "atomic_load", "atomic_store")),
    (WithheldStores, _ChainWithheld,
     ("push", "_write", "_commit_one", "commit_all", "commit_keep_last",
      "resolve")),
    (PhysicalMemory, _ChainMemory,
     ("read_word", "write_word", "read_byte", "write_byte")),
)


def install_replay_port_reference(patch):
    """Replay through the method-built memory path while ``patch`` is
    active. Methods the flat port no longer has are added."""
    for owner, chain, names in _REPLAY_CHAIN:
        for name in names:
            patch.setattr(owner, name, chain.__dict__[name], raising=False)


# -- the QRCK version 3 checkpoint writer -------------------------------------------

def encode_checkpoints_v3(records: list[CheckpointRecord]) -> bytes:
    """The version 3 checkpoint section, as version 3's writer made it:
    each record's changed pages joined and deflated as one zlib stream
    without a preset dictionary."""
    ordered = sorted(records, key=lambda record: record.position)
    out = bytearray(struct.pack("<4sBBHI", b"QRCK", 3, 0, 0, len(ordered)))
    previous: tuple[bytes, ...] = ()
    for record in ordered:
        pages = record.pages
        changed = [index for index, page in enumerate(pages)
                   if page != (previous[index] if index < len(previous)
                               else bytes(len(page)))]
        body = zlib.compress(b"".join(pages[index] for index in changed), 6) \
            if changed else b""
        out += struct.pack("<IIII32s", record.position, record.size,
                           len(changed), len(body),
                           bytes.fromhex(record.digest))
        out += struct.pack(f"<{len(changed)}I", *changed)
        out += body
        previous = pages
    return bytes(out)
