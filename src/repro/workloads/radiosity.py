"""radiosity — work stealing from per-thread task deques.

The distributed task-queue structure of SPLASH-2 Radiosity: every thread
owns a deque of task ids seeded round-robin; it pops work from its own
tail under the deque's lock and, when empty, scans the other deques and
steals from their heads. Termination is an atomic done-counter. Stealing
makes the lock and index lines migrate irregularly between cores — the
suite's most scheduler-sensitive conflict pattern — while the computation
itself (an integer "form factor" per task, accumulated per thread) keeps
the checksum schedule-independent.
"""

from __future__ import annotations

from ..isa.program import Program
from .base import Workload, WorkloadHarness, register

_TASKS_PER_THREAD = 48
_MAX_THREADS = 16


def _build_radiosity(threads: int, scale: int) -> tuple[Program, dict[str, bytes]]:
    per_thread = _TASKS_PER_THREAD * scale
    total = per_thread * threads
    h = WorkloadHarness(threads, "radiosity")
    b = h.b
    # Per-thread deques: tasks[t][...], head/tail indices, one lock each.
    b.space("dq_tasks", threads * per_thread * 4)
    b.word("dq_head", *([0] * threads))
    b.word("dq_tail", *([0] * threads))
    b.word("dq_lock", *([0] * threads))
    b.word("done_count", 0)
    b.word("acc", *([0] * threads))
    h.emit_main(prologue=lambda: _seed_deques(h, threads, per_thread),
                epilogue=lambda: h.emit_checksum_write("acc", threads))

    def lock_deque(idx_reg: str) -> None:
        acquire = b.fresh("rd_try")
        spin = b.fresh("rd_spin")
        got = b.fresh("rd_got")
        b.ins("shl", "r4", idx_reg, 2)
        b.label(acquire)
        b.ins("mov", "r5", 1)
        b.ins("xchg", "[dq_lock + r4]", "r5")
        b.ins("test", "r5", "r5")
        b.ins("je", got)
        b.label(spin)
        b.ins("pause")
        b.ins("load", "r5", "[dq_lock + r4]")
        b.ins("test", "r5", "r5")
        b.ins("jne", spin)
        b.ins("jmp", acquire)
        b.label(got)

    def unlock_deque(idx_reg: str) -> None:
        b.ins("shl", "r4", idx_reg, 2)
        b.ins("store", "[dq_lock + r4]", 0)

    b.label("body")
    b.ins("mov", "r11", "rdi")           # tid
    main_loop = b.fresh("rd_loop")
    run_task = b.fresh("rd_run")
    steal_scan = b.fresh("rd_steal")
    out = b.fresh("rd_out")

    b.label(main_loop)
    b.ins("load", "r7", "[done_count]")
    b.ins("cmp", "r7", total)
    b.ins("jge", out)
    # -- try my own deque: pop from the tail --------------------------------
    lock_deque("r11")
    b.ins("load", "r6", "[dq_head + r11*4]")
    b.ins("load", "r7", "[dq_tail + r11*4]")
    b.ins("cmp", "r6", "r7")
    empty_own = b.fresh("rd_empty_own")
    b.ins("jge", empty_own)
    b.ins("sub", "r7", "r7", 1)
    b.ins("store", "[dq_tail + r11*4]", "r7")
    b.ins("mov", "r9", "r11")
    b.ins("mul", "r9", "r9", per_thread)
    b.ins("add", "r9", "r9", "r7")
    b.ins("load", "r10", "[dq_tasks + r9*4]")  # task id
    unlock_deque("r11")
    b.ins("jmp", run_task)
    b.label(empty_own)
    unlock_deque("r11")
    # -- steal: scan every deque from my+1, take from the head ---------------
    b.ins("mov", "r14", 1)               # victim offset
    b.label(steal_scan)
    b.ins("cmp", "r14", threads)
    b.ins("jge", main_loop)              # nothing to steal; recheck done
    b.ins("add", "r13", "r11", "r14")
    b.ins("mod", "r13", "r13", threads)  # victim id
    lock_deque("r13")
    b.ins("load", "r6", "[dq_head + r13*4]")
    b.ins("load", "r7", "[dq_tail + r13*4]")
    b.ins("cmp", "r6", "r7")
    empty_victim = b.fresh("rd_empty_v")
    b.ins("jge", empty_victim)
    b.ins("add", "r5", "r6", 1)
    b.ins("store", "[dq_head + r13*4]", "r5")
    b.ins("mov", "r9", "r13")
    b.ins("mul", "r9", "r9", per_thread)
    b.ins("add", "r9", "r9", "r6")
    b.ins("load", "r10", "[dq_tasks + r9*4]")
    unlock_deque("r13")
    b.ins("jmp", run_task)
    b.label(empty_victim)
    unlock_deque("r13")
    b.ins("add", "r14", "r14", 1)
    b.ins("jmp", steal_scan)

    # -- run task r10: integer "form factor", accumulate, count done ---------
    b.label(run_task)
    b.ins("mul", "r7", "r10", 2654435761)
    b.ins("shr", "r8", "r7", 8)
    b.ins("xor", "r8", "r8", "r10")
    b.ins("and", "r8", "r8", 0xFFFF)
    b.ins("load", "r7", "[acc + r11*4]")
    b.ins("add", "r7", "r7", "r8")
    b.ins("store", "[acc + r11*4]", "r7")
    b.ins("mov", "r7", 1)
    b.ins("xadd", "[done_count]", "r7")
    b.ins("jmp", main_loop)
    b.label(out)
    b.ins("ret")
    return h.build(), {}


def _seed_deques(h: WorkloadHarness, threads: int, per_thread: int) -> None:
    """Main fills every deque before spawning: task ids round-robin."""
    b = h.b
    with b.for_range("r6", 0, threads * per_thread):
        b.ins("mod", "r7", "r6", threads)            # owner
        b.ins("div", "r8", "r6", threads)            # slot
        b.ins("mov", "r9", "r7")
        b.ins("mul", "r9", "r9", per_thread)
        b.ins("add", "r9", "r9", "r8")
        b.ins("store", "[dq_tasks + r9*4]", "r6")
    for tid in range(threads):
        b.ins("store", f"[dq_tail + {4 * tid}]", per_thread)


register(Workload("radiosity", "work stealing from per-thread task deques",
                  "splash", _build_radiosity))
