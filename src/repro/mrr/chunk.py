"""Chunk log entries and termination reasons."""

from __future__ import annotations

from dataclasses import dataclass


class Reason:
    """Why a chunk terminated.

    Hardware-initiated:
        RAW/WAR/WAW — a remote coherence request hit this core's signatures
        (named for the dependence it ordered); SIZE — the instruction-count
        cap; SATURATION — a signature passed its fill threshold.

    Software-initiated (every kernel entry terminates the chunk):
        SYSCALL, NONDET (a trapped RDTSC/RDRAND/CPUID), PREEMPT (quantum
        expiry or yield-driven context switch), EXIT (the thread's final
        kernel entry).
    """

    RAW = "raw"
    WAR = "war"
    WAW = "waw"
    SIZE = "size"
    SATURATION = "saturation"
    SYSCALL = "syscall"
    NONDET = "nondet"
    PREEMPT = "preempt"
    EXIT = "exit"

    ALL = (RAW, WAR, WAW, SIZE, SATURATION, SYSCALL, NONDET, PREEMPT, EXIT)
    CONFLICTS = (RAW, WAR, WAW)
    HARDWARE = (RAW, WAR, WAW, SIZE, SATURATION)
    KERNEL_ENTRY = (SYSCALL, NONDET, PREEMPT, EXIT)

    CODES = {name: code for code, name in enumerate(ALL)}
    NAMES = {code: name for code, name in enumerate(ALL)}


@dataclass(slots=True)
class ChunkEntry:
    """One packed chunk record (the 128-bit hardware log entry).

    Treated as immutable once emitted (slots, no mutation anywhere in the
    stack); not ``frozen`` because entries are constructed on the conflict
    hot path and frozen dataclasses pay ``object.__setattr__`` per field —
    nearly 4x the construction cost for a class created thousands of times
    per recorded run.

    Attributes:
        rthread: replay-sphere thread id the chunk belongs to.
        timestamp: global order-clock timestamp; replay executes chunks in
            (timestamp, rthread) order.
        icount: instructions *retired* during the chunk.
        memops: memory operations completed by the instruction in flight at
            termination (nonzero only when the chunk ends inside a
            ``rep_*`` instruction).
        rsw: reordered-store-window — stores still in the store buffer at
            termination; the replayer defers that many trailing stores.
        reason: a :class:`Reason` constant.
        load_hash: optional rolling hash of load values (debug mode).
    """

    rthread: int
    timestamp: int
    icount: int
    memops: int
    rsw: int
    reason: str
    load_hash: int | None = None

    def __post_init__(self) -> None:
        if self.reason not in Reason.CODES:
            raise ValueError(f"unknown termination reason {self.reason!r}")
        if (self.rthread < 0 or self.timestamp < 0 or self.icount < 0
                or self.memops < 0 or self.rsw < 0):
            raise ValueError("chunk entry fields must be non-negative")

    @property
    def is_conflict(self) -> bool:
        return self.reason in Reason.CONFLICTS

    @property
    def sort_key(self) -> tuple[int, int]:
        return (self.timestamp, self.rthread)
