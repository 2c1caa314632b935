"""The syscall table.

Each handler is a pure-ish function from (kernel, task, args) to an action:

- :class:`Complete` — return a value now, optionally copying data to user
  memory (the copy-to-user payload Capo3 logs);
- :class:`Block` — park the task on a wait channel; the return value is
  applied when the task is next dispatched;
- :class:`ExitAction` — the thread terminates;
- :class:`SigReturnAction` — restore the context saved at signal delivery.

Handlers never touch cores or recorders — the kernel proper sequences those
around the call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

MASK32 = 0xFFFFFFFF
ENOSYS = 0xFFFFFFFF
EBADF = 0xFFFFFFFE
EAGAIN = 1
ESRCH = 0xFFFFFFFD

MAX_IO_BYTES = 1 << 20

SYS_EXIT = 1
SYS_WRITE = 2
SYS_READ = 3
SYS_SPAWN = 4
SYS_GETTID = 5
SYS_YIELD = 6
SYS_FUTEX_WAIT = 7
SYS_FUTEX_WAKE = 8
SYS_TIME = 9
SYS_OPEN = 10
SYS_CLOSE = 11
SYS_KILL = 12
SYS_SIGACTION = 13
SYS_SIGRETURN = 14
SYS_RANDOM = 15
SYS_NANOSLEEP = 16

SYSCALL_NAMES = {
    SYS_EXIT: "exit",
    SYS_WRITE: "write",
    SYS_READ: "read",
    SYS_SPAWN: "spawn",
    SYS_GETTID: "gettid",
    SYS_YIELD: "yield",
    SYS_FUTEX_WAIT: "futex_wait",
    SYS_FUTEX_WAKE: "futex_wake",
    SYS_TIME: "time",
    SYS_OPEN: "open",
    SYS_CLOSE: "close",
    SYS_KILL: "kill",
    SYS_SIGACTION: "sigaction",
    SYS_SIGRETURN: "sigreturn",
    SYS_RANDOM: "random",
    SYS_NANOSLEEP: "nanosleep",
}
SYSCALL_NUMBERS = {name: number for number, name in SYSCALL_NAMES.items()}


# What a handler asks the kernel to do. One is built per handled syscall;
# treated as immutable, but slotted rather than frozen, because frozen
# dataclasses pay ``object.__setattr__`` per field on construction.
@dataclass(slots=True)
class Complete:
    retval: int
    copies: tuple[tuple[int, bytes], ...] = ()
    reschedule: bool = False


@dataclass(slots=True)
class Block:
    channel: tuple
    wake_retval: int = 0


@dataclass(slots=True)
class ExitAction:
    code: int


@dataclass(frozen=True)
class SigReturnAction:
    pass


SyscallAction = Complete | Block | ExitAction | SigReturnAction


def _sys_exit(kernel, task, args) -> SyscallAction:
    return ExitAction(args[0])


def _sys_write(kernel, task, args) -> SyscallAction:
    fd, buf, length = args[0], args[1], args[2]
    length = min(length, MAX_IO_BYTES)
    data = kernel.user_read(task, buf, length)
    written = kernel.vfs.write(fd, data, recorded=task.recorded)
    if written is None:
        return Complete(EBADF)
    return Complete(written)


def _sys_read(kernel, task, args) -> SyscallAction:
    fd, buf, length = args[0], args[1], args[2]
    length = min(length, MAX_IO_BYTES)
    data = kernel.vfs.read(fd, length)
    if data is None:
        return Complete(EBADF)
    copies = ((buf, data),) if data else ()
    return Complete(len(data), copies=copies)


def _sys_spawn(kernel, task, args) -> SyscallAction:
    entry, stack_top, arg = args[0], args[1], args[2]
    child = kernel.spawn_thread(task, entry, stack_top, arg)
    return Complete(child.tid)


def _sys_gettid(kernel, task, args) -> SyscallAction:
    return Complete(task.tid)


def _sys_yield(kernel, task, args) -> SyscallAction:
    return Complete(0, reschedule=True)


def _sys_futex_wait(kernel, task, args) -> SyscallAction:
    addr, expected = args[0], args[1]
    current = kernel.machine.memory.read_word(addr & ~3)
    if current != (expected & MASK32):
        return Complete(EAGAIN)
    return Block(("futex", addr & ~3), wake_retval=0)


def _sys_futex_wake(kernel, task, args) -> SyscallAction:
    addr, count = args[0], args[1]
    woken = kernel.wake_futex(addr & ~3, count)
    return Complete(woken)


def _sys_time(kernel, task, args) -> SyscallAction:
    return Complete(kernel.machine.global_step & MASK32)


def _sys_open(kernel, task, args) -> SyscallAction:
    name = kernel.user_read_cstring(task, args[0])
    return Complete(kernel.vfs.open(name))


def _sys_close(kernel, task, args) -> SyscallAction:
    return Complete(kernel.vfs.close(args[0]))


def _sys_kill(kernel, task, args) -> SyscallAction:
    target_tid, signo = args[0], args[1]
    if not kernel.post_signal(target_tid, signo):
        return Complete(ESRCH)
    return Complete(0)


def _sys_sigaction(kernel, task, args) -> SyscallAction:
    signo, handler_pc = args[0], args[1]
    task.sig_handlers[signo] = handler_pc
    return Complete(0)


def _sys_sigreturn(kernel, task, args) -> SyscallAction:
    return SigReturnAction()


def _sys_random(kernel, task, args) -> SyscallAction:
    return Complete(kernel.rng.getrandbits(32))


def _sys_nanosleep(kernel, task, args) -> SyscallAction:
    duration = args[0]
    return Block(("sleep", kernel.machine.global_step + duration), wake_retval=0)


_TABLE: dict[int, Callable] = {
    SYS_EXIT: _sys_exit,
    SYS_WRITE: _sys_write,
    SYS_READ: _sys_read,
    SYS_SPAWN: _sys_spawn,
    SYS_GETTID: _sys_gettid,
    SYS_YIELD: _sys_yield,
    SYS_FUTEX_WAIT: _sys_futex_wait,
    SYS_FUTEX_WAKE: _sys_futex_wake,
    SYS_TIME: _sys_time,
    SYS_OPEN: _sys_open,
    SYS_CLOSE: _sys_close,
    SYS_KILL: _sys_kill,
    SYS_SIGACTION: _sys_sigaction,
    SYS_SIGRETURN: _sys_sigreturn,
    SYS_RANDOM: _sys_random,
    SYS_NANOSLEEP: _sys_nanosleep,
}


def dispatch(kernel, task, sysno: int, args: Sequence[int]) -> SyscallAction:
    """Run the handler for ``sysno``; unknown numbers return ENOSYS."""
    handler = _TABLE.get(sysno)
    if handler is None:
        return Complete(ENOSYS)
    return handler(kernel, task, args)
