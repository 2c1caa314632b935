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
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..config import KernelConfig
from ..errors import KernelError
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
        # Core ids with a dispatched task, ascending — rebuilt by
        # _dispatch/_undispatch (the only writers of ``core.task``) so the
        # run loop need not recompute it every unit.
        self._running_ids: list[int] = []
        if self._tm_on:
            metrics = self.telemetry.metrics
            self._tm_syscalls = metrics.counter("kernel.syscalls")
            self._tm_futex_wakes = metrics.counter("kernel.futex_wakes")
            self._tm_preempts = metrics.counter("kernel.preemptions")
            self._tm_blocks = metrics.counter("kernel.blocks")
            self._tm_dispatches = metrics.counter("kernel.dispatches")
            self._tm_signals = metrics.counter("kernel.signals_delivered")

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
            self._tm_futex_wakes.inc()
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

    @property
    def live_count(self) -> int:
        return self._live

    def runnable_core_ids(self) -> list[int]:
        return [core.core_id for core in self.machine.cores
                if core.task is not None]

    # -- the run loop -----------------------------------------------------------------

    def run(self, interleaver: Interleaver, max_units: int = 200_000_000) -> int:
        """Run until every task exits; returns units executed.

        The loop body inlines two per-unit calls:

        - the random interleaver's rejection sampling (when the interleaver
          exposes ``_getrandbits``) — same bits consumed as ``choose()``, so
          recordings are unchanged;
        - :meth:`after_unit`'s fast path — the quantum/trap/wakeup checks
          that are no-ops for the overwhelming majority of units. The slow
          cases share :meth:`_after_unit_slow` with ``after_unit``.

        ``sched.queue`` and ``sched.sleepers`` are mutated in place by the
        scheduler (never rebound), so hoisting the references is safe.
        """
        units = 0
        idle_streak = 0
        machine = self.machine
        cores = machine.cores
        step_core = machine.step_core
        choose = interleaver.choose
        getrandbits = getattr(interleaver, "_getrandbits", None)
        sched = self.sched
        run_queue = sched.queue
        sleepers = sched.sleepers
        while self._live > 0:
            candidates = self._running_ids
            n = len(candidates)
            if n == 0:
                self.idle_tick()
                idle_streak += 1
                if idle_streak > _IDLE_LIMIT:
                    raise KernelError("idle limit exceeded (deadlock?)")
                continue
            idle_streak = 0
            if getrandbits is None:
                # Stateful policies (rr, bursty) must see every choice.
                core_id = choose(candidates)
            elif n == 1:
                core_id = candidates[0]
            else:
                k = n.bit_length()
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                core_id = candidates[r]
            outcome = step_core(core_id)
            core = cores[core_id]
            task = core.task
            task.units_in_quantum += 1
            if (outcome != OUTCOME_OK
                    or task.units_in_quantum >= task.quantum_limit
                    or run_queue
                    or (sleepers and sleepers[0][0] <= machine.global_step)):
                self._after_unit_slow(core, task, outcome)
            units += 1
            if units > max_units:
                raise KernelError(f"unit budget {max_units} exceeded")
        return units

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

    def after_unit(self, core_id: int, outcome: str) -> None:
        """Post-unit kernel work: traps, quantum, wakeups, dispatch.

        :meth:`run` inlines the fast-path check below; this method stays
        the single entry point for callers stepping cores themselves.
        """
        core = self.machine.cores[core_id]
        task = core.task
        task.units_in_quantum += 1
        # Fast path: no trap, quantum not expired, no sleeper due and no
        # task waiting for a core — every remaining step below is a no-op,
        # so skip the calls entirely. This is the overwhelmingly common
        # case and the per-unit kernel cost that dominates simulation rate.
        sched = self.sched
        if (outcome == OUTCOME_OK
                and task.units_in_quantum < task.quantum_limit
                and not sched.queue
                and (not sched.sleepers
                     or sched.sleepers[0][0] > self.machine.global_step)):
            return
        self._after_unit_slow(core, task, outcome)

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

    # -- trap handling -----------------------------------------------------------

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
            self._tm_syscalls.inc()
            self.telemetry.metrics.counter(f"kernel.syscalls.{name}").inc()
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

    # -- scheduling -------------------------------------------------------------------

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
        if self._tm_on:
            self._tm_dispatches.inc()
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
            self._tm_preempts.inc()
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
            self._tm_blocks.inc()
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

    # -- signals ------------------------------------------------------------------------

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
                self._tm_signals.inc()
                self.telemetry.tracer.instant(
                    "signal.deliver", cat="kernel", tid=task.tid,
                    args={"signo": signo, "handler": handler})
            if self.rsm is not None and task.recorded:
                self.rsm.log_signal(task, signo)
            return
