"""The kernel proper: traps, scheduling, signal delivery, the run loop.

Design rules that keep record/replay sound (see DESIGN.md):

- Every kernel entry (syscall, trapped nondeterministic instruction,
  preemption) first drains the store buffer and terminates the current
  chunk, so chunk boundaries align exactly with the points where the input
  log injects effects, and RSW is nonzero only at hardware-initiated
  boundaries.
- The trapping instruction retires *after* the chunk terminates, so its
  retirement counts into the following chunk — the replayer mirrors this.
- Copy-to-user data is written coherently through the trapping core's
  cache, so racing user accesses are conflict-detected and the copies
  belong, order-wise, to the thread's next chunk.
- Kernel behaviour is identical whether or not recording is attached: the
  RSM only observes and charges cycles. Two runs with the same seeds and
  different recording modes execute the same instructions in the same
  interleaving.

Each trap kind runs as one body, entry to exit: ``_syscall_trap``,
``_nondet_trap`` and ``_preempt`` (with its undispatch inline) each drain,
cut the chunk, charge, complete or switch, log through the RSM's
``log_*`` and deliver a pending signal (``_deliver_signal``) themselves.
``tests/reference.py`` keeps the method chain they replaced as the
lockstep reference.
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass, field
from itertools import repeat

from ..capo.rsm import MODE_FULL
from ..config import KernelConfig
from ..errors import KernelError, MachineFault
from ..isa.operands import Reg
from ..isa.registers import RAX, RCX
from ..machine.core import (
    EngineContext,
    OUTCOME_NONDET,
    OUTCOME_OK,
    OUTCOME_SYSCALL,
)
from ..machine.interleave import Interleaver
from ..machine.machine import Core, Machine
from ..mrr.chunk import Reason
from . import syscalls
from .futex import FutexTable
from .scheduler import Scheduler
from .syscalls import (
    Block,
    Complete,
    ExitAction,
    SigReturnAction,
    SYS_EXIT,
    SYSCALL_NAMES,
)
from .tasks import (
    STATE_BLOCKED,
    STATE_EXITED,
    STATE_RUNNABLE,
    STATE_RUNNING,
    Task,
)
from .vfs import VFS

MASK32 = 0xFFFFFFFF
CPUID_VALUE = 0x0051C0DE

_IDLE_LIMIT = 1_000_000


@dataclass
class KernelStats:
    syscalls: int = 0
    syscalls_by_name: dict[str, int] = field(default_factory=dict)
    nondet_traps: int = 0
    preemptions: int = 0
    context_switches: int = 0
    signals_delivered: int = 0
    spawns: int = 0
    blocks: int = 0
    dispatches: int = 0
    idle_ticks: int = 0
    copy_to_user_bytes: int = 0

    def as_dict(self) -> dict:
        out = dict(self.__dict__)
        out["syscalls_by_name"] = dict(self.syscalls_by_name)
        return out


class Kernel:
    """The OS model driving one :class:`Machine`."""

    def __init__(self, machine: Machine, config: KernelConfig | None = None,
                 rsm=None, seed: int = 0):
        self.machine = machine
        self.config = config or KernelConfig()
        self.rsm = rsm
        self.vfs = VFS()
        self.futexes = FutexTable()
        self.sched = Scheduler()
        self.tasks: dict[int, Task] = {}
        self.rng = random.Random(seed)
        self.stats = KernelStats()
        self.telemetry = machine.telemetry
        # Hoisted enablement flag: syscall/dispatch/wake paths run per
        # kernel event, so they read a plain attribute rather than chasing
        # the telemetry object (zero-cost-when-disabled contract).
        self._tm_on = self.telemetry.enabled
        self._next_tid = 1
        self._next_pid = 1
        self._live = 0
        # Core ids with a dispatched task, ascending — replaced (a new
        # list, which the fused loop notices) by _dispatch, _undispatch and
        # _preempt, the only writers of ``core.task``, so the run loop need
        # not recompute it every unit.
        self._running_ids: list[int] = []
        self._cores = machine.cores
        # Trap-body hoists, fixed for the kernel's lifetime: the quantum,
        # the cost constants, and whether the RSM records in full (input
        # logging and the software charges) rather than hardware only.
        self._quantum_base = self.config.quantum_instructions
        self._quantum_jitter = self.config.timeslice_jitter
        cost = machine.cost
        self._cost_syscall = cost.syscall_base
        self._cost_nondet = cost.nondet_base
        self._cost_switch = cost.context_switch_base
        self._cost_syscall_interpose = cost.rsm_syscall_interpose
        self._cost_nondet_interpose = cost.rsm_nondet_interpose
        self._cost_ctx_flush = cost.context_switch_flush
        self._rsm_full = rsm is not None and rsm.mode == MODE_FULL

    # -- setup -------------------------------------------------------------

    def boot(self, main_arg: int = 0) -> Task:
        """Create the initial (recorded) process at the primary program's
        entry point, stack at the top of memory."""
        program = self.machine.program
        if program is None:
            raise KernelError("load a program before booting")
        stack_top = self.machine.config.memory_bytes - 16
        return self.add_process(program, stack_top=stack_top,
                                recorded=self.rsm is not None,
                                main_arg=main_arg)

    def add_process(self, program, stack_top: int, recorded: bool = False,
                    main_arg: int = 0) -> Task:
        """Create a process: its own program image and main thread.

        ``recorded`` puts the process (and every thread it spawns) inside
        the replay sphere; unrecorded processes share the machine as
        background load and contribute neither chunks nor input events.
        The caller is responsible for loading the program's data segment
        and for keeping processes' data regions disjoint.
        """
        if recorded and self.rsm is None:
            raise KernelError("cannot record a process without an RSM")
        pid = self._next_pid
        self._next_pid += 1
        main = self._create_task(program.entry, stack_top, main_arg,
                                 program=program, recorded=recorded, pid=pid)
        if self.rsm is not None and recorded:
            self.rsm.thread_started(main)
        self.sched.enqueue(main.tid)
        self._fill_idle_cores()
        return main

    def _create_task(self, entry: int, stack_top: int, arg: int, *,
                     program, recorded: bool, pid: int) -> Task:
        if len(self.tasks) >= self.config.max_threads:
            raise KernelError(f"thread limit {self.config.max_threads} reached")
        tid = self._next_tid
        self._next_tid += 1
        regs = [0] * 16
        regs[3] = arg & MASK32  # rdi
        regs[15] = stack_top & MASK32  # sp
        context = EngineContext(regs=tuple(regs), pc=entry, zf=0, sf=0,
                                cf=0, of=0, cur_memops=0)
        task = Task(tid=tid, context=context, pid=pid, recorded=recorded,
                    program=program)
        self.tasks[tid] = task
        self._live += 1
        return task

    def spawn_thread(self, parent: Task, entry: int, stack_top: int,
                     arg: int) -> Task:
        """SYS_SPAWN backend: children inherit program, pid and sphere
        membership."""
        child = self._create_task(entry, stack_top, arg,
                                  program=parent.program,
                                  recorded=parent.recorded, pid=parent.pid)
        self.stats.spawns += 1
        if self.rsm is not None and child.recorded:
            self.rsm.thread_started(child)
        child.state = STATE_RUNNABLE
        self.sched.enqueue(child.tid)
        return child

    def recorded_tids(self) -> list[int]:
        return sorted(tid for tid, task in self.tasks.items() if task.recorded)

    # -- helpers used by syscall handlers --------------------------------------

    def read_cstring(self, addr: int, limit: int = 256) -> str:
        raw = bytearray()
        for offset in range(limit):
            byte = self.machine.memory.read_byte(addr + offset)
            if byte == 0:
                break
            raw.append(byte)
        return raw.decode("latin-1")

    def user_read(self, task: Task, addr: int, size: int) -> bytes:
        """copy_from_user: a coherent, conflict-detected read so racing user
        stores are ordered against the kernel's view of the buffer."""
        core = self.machine.cores[task.core_id]
        return self.machine.coherent_read(core, addr, size)

    def user_read_cstring(self, task: Task, addr: int, limit: int = 256) -> str:
        text = self.read_cstring(addr, limit)
        # touch the lines coherently so the replayer can re-read the path
        # at the same logical position
        self.user_read(task, addr, min(limit, len(text) + 1))
        return text

    def wake_futex(self, addr: int, count: int) -> int:
        woken = self.futexes.wake(addr, count)
        for tid in woken:
            task = self.tasks[tid]
            task.state = STATE_RUNNABLE
            task.wait_channel = None
            self.sched.enqueue(tid)
        if self._tm_on:
            self.telemetry.tracer.instant(
                "futex.wake", cat="kernel",
                args={"addr": addr, "woken": len(woken),
                      "requested": count})
        return len(woken)

    def post_signal(self, tid: int, signo: int) -> bool:
        task = self.tasks.get(tid)
        if task is None or not task.alive:
            return False
        task.sig_pending.append(signo)
        return True

    # -- run state ----------------------------------------------------------------

    # -- the run loop -----------------------------------------------------------------

    def run(self, interleaver: Interleaver, max_units: int = 200_000_000) -> int:
        """Run until every task exits; returns units executed.

        Two loops execute identical units in identical order:

        - the *fused* loop, taken for the random interleaver when every
          core's engine has a decode cache. It takes the interleaver's
          choices a run at a time (``choice_run``/``consume``: one C-level
          pass over bulk-drawn words per run) and inlines
          ``Machine.step_core`` (compiled dispatch, pc bounds check and
          fault tagging, cycles, ``global_step``, the recorder's one-compare
          termination gate, the drain tick — skipped while no store is
          buffered — and telemetry sampling) and the kernel's post-unit
          fast path;
        - the *stepped* loop, the oracle: ``interleaver.choose`` then
          ``Machine.step_core`` per unit. Stateful interleavers (``rr``,
          ``bursty``), which must see every choice, and engines without a
          decode cache take it.

        After a unit, the slow path (:meth:`_after_unit_slow`) runs only on
        a trap, an expired quantum or a due sleeper. A task waiting in the
        run queue needs none: every event that frees a core or enqueues a
        task already refills idle cores, so a queued task means every core
        is busy. ``sched.sleepers`` is mutated in place by the scheduler
        (never rebound), so hoisting the reference is safe.
        """
        if getattr(interleaver, "choice_run", None) is None or not all(
                core.engine is not None and core.engine.decode_cache
                for core in self.machine.cores):
            return self._run_stepped(interleaver, max_units)
        return self._run_fused(interleaver, max_units)

    def _run_stepped(self, interleaver: Interleaver, max_units: int) -> int:
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

    def _run_fused(self, interleaver, max_units: int) -> int:
        """The fused loop. Each pass of the outer loop takes a run of
        choices for the current candidate cores (``repeat`` for one core)
        and executes units until the run ends or the slow path changes the
        running set. ``step`` counts the pass's units ahead of
        ``machine.global_step``, which a unit's own work still reads as
        the previous step (as under ``Machine.step_core``)."""
        units = 0
        idle_streak = 0
        machine = self.machine
        # Per-core hoists, fixed for the run: load_program builds the
        # engines and the RSM attaches recorders before the run starts.
        slots = [(core, core.engine, core.port, core.recorder)
                 for core in machine.cores]
        choice_run = interleaver.choice_run
        consume = interleaver.consume
        unit_cost = machine._unit_cost
        drain_period = machine._drain_period
        drain_all_cores = machine._drain_all_cores
        tm_enabled = machine._tm_enabled
        tm_sampling = machine._tm_sampling
        sleepers = self.sched.sleepers
        after_unit_slow = self._after_unit_slow
        while self._live > 0:
            candidates = self._running_ids
            if not candidates:
                idle_streak = self._idle(idle_streak)
                continue
            idle_streak = 0
            # At most one unit past the budget, so the check after the
            # pass sees an overrun.
            budget = max_units + 1 - units
            drawn = len(candidates) > 1
            if drawn:
                choices = choice_run(candidates)[:budget]
            else:
                choices = repeat(candidates[0], budget)
            first = step = machine.global_step
            try:
                for core_id in choices:
                    step += 1
                    core, engine, port, recorder = slots[core_id]
                    try:
                        dispatch = engine._dispatch
                        pc = engine.pc
                        if not 0 <= pc < len(dispatch):
                            raise MachineFault(f"pc {pc} outside code", pc=pc)
                        outcome = dispatch[pc](engine, port)
                    except MachineFault as fault:
                        fault.core_id = core_id
                        raise
                    core.cycles += unit_cost
                    machine.global_step = step
                    if recorder is not None and engine.retired >= recorder.gate:
                        recorder.after_unit()
                    if step % drain_period == 0 and machine.buffered_stores:
                        drain_all_cores()
                    if tm_enabled and step % tm_sampling == 0:
                        machine._sample_step_counters()
                    task = core.task
                    task.units_in_quantum += 1
                    if (outcome is not None
                            or task.units_in_quantum >= task.quantum_limit
                            or (sleepers and sleepers[0][0] <= step)):
                        after_unit_slow(
                            core, task,
                            OUTCOME_OK if outcome is None else outcome)
                        if self._running_ids is not candidates:
                            break
            finally:
                # Counts a unit that faulted too: it had drawn its choice.
                if drawn:
                    consume(step - first)
            units += step - first
            if units > max_units:
                raise KernelError(f"unit budget {max_units} exceeded")
        return units

    def _idle(self, idle_streak: int) -> int:
        """One idle tick of the run loop; returns the grown idle streak."""
        self.idle_tick()
        idle_streak += 1
        if idle_streak > _IDLE_LIMIT:
            raise KernelError("idle limit exceeded (deadlock?)")
        return idle_streak

    def idle_tick(self) -> None:
        """All cores idle: advance time, wake due sleepers."""
        if (self.sched.sleeping == 0 and len(self.sched) == 0
                and self.futexes.waiter_count() > 0):
            blocked = [t.tid for t in self.tasks.values()
                       if t.state == STATE_BLOCKED]
            raise KernelError(f"deadlock: tasks {blocked} blocked on futexes "
                              "with nothing runnable")
        if self.sched.sleeping == 0 and len(self.sched) == 0:
            raise KernelError("no runnable, sleeping or wakeable tasks")
        self.machine.idle_tick()
        self.stats.idle_ticks += 1
        self._wake_sleepers()
        self._fill_idle_cores()

    def _after_unit_slow(self, core: Core, task: Task, outcome: str) -> None:
        """The rare post-unit work: due wakeups, the trap body of the
        unit's outcome, preemption at an expired quantum, and idle-core
        refill. ``task.units_in_quantum`` is already incremented.

        Refill runs only when a task is queued and a core is idle: after
        any refill one of the two is false, so the skipped calls would
        have dispatched nothing.
        """
        sleepers = self.sched.sleepers
        if sleepers and sleepers[0][0] <= self.machine.global_step:
            self._wake_sleepers()
        if outcome == OUTCOME_SYSCALL:
            self._syscall_trap(core, task)
        elif outcome == OUTCOME_NONDET:
            self._nondet_trap(core, task)
        if (task.units_in_quantum >= task.quantum_limit
                and core.task is task and task.state == STATE_RUNNING):
            self._preempt(core, task)
        elif self.sched.queue and len(self._running_ids) < len(self._cores):
            self._fill_idle_cores()

    # -- trap bodies ---------------------------------------------------------------
    # Each trap kind runs as one body, from kernel entry to kernel exit.
    # Entry drains the store buffer and, for a recorded task, cuts the
    # chunk (the RSM's crossing, with its interposition charge in a full
    # recording); exit delivers a pending signal. ``task.recorded`` implies
    # an RSM (add_process refuses otherwise), and a full recording is
    # fixed at construction, so each body tests both once. The calls that
    # remain are the recorder's, the syscall handler, the RSM's ``log_*``
    # and the rare paths (block, exit, signal delivery).

    def _syscall_trap(self, core: Core, task: Task) -> None:
        engine = core.engine
        regs = engine.regs
        sysno = regs[RAX]
        args = (regs[1], regs[2], regs[3], regs[4])
        recorded = task.recorded
        full = recorded and self._rsm_full
        if core._sb_entries:
            core.drain_all()
        if recorded:
            core.recorder.terminate(
                Reason.EXIT if sysno == SYS_EXIT else Reason.SYSCALL)
            if full:
                core.cycles += self._cost_syscall_interpose
                self.rsm.stats.cycles_interpose += \
                    self._cost_syscall_interpose
        core.cycles += self._cost_syscall
        stats = self.stats
        stats.syscalls += 1
        name = SYSCALL_NAMES.get(sysno) or f"sys_{sysno}"
        by_name = stats.syscalls_by_name
        by_name[name] = by_name.get(name, 0) + 1
        if self._tm_on:
            self.telemetry.tracer.instant(
                f"sys.{name}", cat="kernel", tid=task.tid,
                args={"sysno": sysno, "core": core.core_id})

        action = syscalls.dispatch(self, task, sysno, args)

        kind = type(action)
        if kind is Complete:
            retval = action.retval
            # Engine.complete_trap: the result into rax, then retire.
            engine.regs[RAX] = retval & MASK32
            engine.pc += 1
            engine.retired += 1
            engine.cur_memops = 0
            copies = action.copies
            for addr, data in copies:
                self.machine.coherent_copy(core, addr, data)
                stats.copy_to_user_bytes += len(data)
            if full:
                self.rsm.log_syscall(task, sysno, retval, copies)
            if task.sig_pending:
                self._deliver_signal(core, task)
            if action.reschedule:
                task.units_in_quantum = task.quantum_limit
        elif kind is Block:
            task.pending_retval = action.wake_retval
            if full:
                self.rsm.log_syscall(task, sysno, action.wake_retval, ())
            self._block(core, task, action.channel)
            stats.blocks += 1
        elif kind is ExitAction:
            if full:
                self.rsm.log_exit(task, action.code)
            self._exit_task(core, task, action.code)
        elif kind is SigReturnAction:
            if not task.sig_saved:
                raise KernelError(
                    f"tid {task.tid}: sigreturn with no saved context")
            engine.restore_context(task.sig_saved.pop())
            if full:
                self.rsm.log_sigreturn(task)
            if task.sig_pending:
                self._deliver_signal(core, task)
        else:  # pragma: no cover - exhaustiveness guard
            raise KernelError(f"unknown syscall action {action!r}")

    def _nondet_trap(self, core: Core, task: Task) -> None:
        engine = core.engine
        instr = engine.program.instructions[engine.pc]
        recorded = task.recorded
        full = recorded and self._rsm_full
        if core._sb_entries:
            core.drain_all()
        if recorded:
            core.recorder.terminate(Reason.NONDET)
            if full:
                core.cycles += self._cost_nondet_interpose
                self.rsm.stats.cycles_interpose += \
                    self._cost_nondet_interpose
        core.cycles += self._cost_nondet
        self.stats.nondet_traps += 1
        mnemonic = instr.mnemonic
        if mnemonic == "rdtsc":
            value = self.machine.global_step & MASK32
        elif mnemonic == "rdrand":
            value = self.rng.getrandbits(32)
        elif mnemonic == "cpuid":
            value = CPUID_VALUE ^ self.machine.config.num_cores
        else:  # pragma: no cover - dispatch guarantees the mnemonics above
            raise KernelError(f"unexpected nondet instruction {mnemonic}")
        if self._tm_on:
            self.telemetry.tracer.instant(
                f"nondet.{mnemonic}", cat="kernel", tid=task.tid,
                args={"value": value})
        # Engine.complete_trap: the result into the destination register.
        engine.regs[instr.ops[0].number] = value & MASK32
        engine.pc += 1
        engine.retired += 1
        engine.cur_memops = 0
        if full:
            self.rsm.log_nondet(task, mnemonic, value)
        if task.sig_pending:
            self._deliver_signal(core, task)

    def _preempt(self, core: Core, task: Task) -> None:
        """Quantum expiry: kernel entry, undispatch, requeue, and the queue
        head dispatched onto the first idle core."""
        recorded = task.recorded
        if core._sb_entries:
            core.drain_all()
        if recorded:
            core.recorder.terminate(Reason.PREEMPT)
        core.cycles += self._cost_switch
        stats = self.stats
        stats.preemptions += 1
        stats.context_switches += 1
        if self._tm_on:
            self.telemetry.tracer.instant(
                "sched.preempt", cat="kernel", tid=task.tid,
                args={"core": core.core_id})
        # Undispatch: save the context, free the core, stop recording.
        task.context = core.engine.save_context()
        task.core_id = None
        core.task = None
        running = self._running_ids.copy()
        running.remove(core.core_id)
        self._running_ids = running
        if recorded:
            core.recorder.clear_thread()
            if self._rsm_full:
                core.cycles += self._cost_ctx_flush
                self.rsm.stats.cycles_ctx_flush += self._cost_ctx_flush
        task.state = STATE_RUNNABLE
        self.sched.queue.append(task.tid)
        self._fill_idle_cores()

    # -- scheduling -------------------------------------------------------------------

    def _dispatch(self, core: Core, task: Task) -> None:
        core.task = task
        core_id = core.core_id
        running = self._running_ids.copy()
        insort(running, core_id)
        self._running_ids = running
        task.core_id = core_id
        task.state = STATE_RUNNING
        task.units_in_quantum = 0
        quantum = self._quantum_base
        if self._quantum_jitter:
            quantum += self.rng.randrange(self._quantum_jitter + 1)
        task.quantum_limit = quantum
        self.stats.dispatches += 1
        if self._tm_on:
            self.telemetry.tracer.instant(
                "sched.dispatch", cat="kernel", tid=task.tid,
                args={"core": core_id, "quantum": quantum})
        engine = core.engine
        program = task.program
        if program is not None and program is not engine.program:
            engine.program = program
        engine.restore_context(task.context)
        task.context = None
        if task.recorded:
            core.recorder.set_thread(task.rthread)
        if task.pending_retval is not None:
            engine.complete_trap(Reg(RAX), task.pending_retval)
            task.pending_retval = None
        if task.sig_pending:
            self._deliver_signal(core, task)

    def _undispatch(self, core: Core, task: Task) -> None:
        """Take ``task`` off ``core`` (block and exit; :meth:`_preempt`
        does the same inline)."""
        task.context = core.engine.save_context()
        task.core_id = None
        core.task = None
        running = self._running_ids.copy()
        running.remove(core.core_id)
        self._running_ids = running
        if task.recorded:
            core.recorder.clear_thread()
            if self._rsm_full:
                core.cycles += self._cost_ctx_flush
                self.rsm.stats.cycles_ctx_flush += self._cost_ctx_flush

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
        """Dispatch queued tasks onto idle cores, lowest core id first."""
        queue = self.sched.queue
        if not queue:
            return
        for core in self._cores:
            if core.task is None:
                self._dispatch(core, self.tasks[queue.popleft()])
                if not queue:
                    return

    # -- signals ------------------------------------------------------------------------

    def _deliver_signal(self, core: Core, task: Task) -> None:
        """Deliver at most one pending signal at a safe point (a chunk
        boundary: kernel exit or dispatch). Callers skip the call when no
        signal is pending."""
        pending = task.sig_pending
        while pending:
            signo = pending.popleft()
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
            if task.recorded and self._rsm_full:
                self.rsm.log_signal(task, signo)
            return
