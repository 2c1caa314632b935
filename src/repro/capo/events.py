"""Input-log event records.

One event per kernel-mediated nondeterministic effect. Events are totally
ordered per R-thread (the order the replayer consumes them) and carry a
global kernel sequence number and the thread's chunk count at event time so
the replayer can verify alignment and place signal deliveries at the exact
chunk boundary where they happened.
"""

from __future__ import annotations

from dataclasses import dataclass

EV_SYSCALL = "syscall"
EV_NONDET = "nondet"
EV_SIGNAL = "signal"
EV_SIGRETURN = "sigreturn"
EV_EXIT = "exit"

KINDS = (EV_SYSCALL, EV_NONDET, EV_SIGNAL, EV_SIGRETURN, EV_EXIT)
KIND_CODES = {kind: code for code, kind in enumerate(KINDS)}
KIND_NAMES = {code: kind for code, kind in enumerate(KINDS)}

NONDET_KINDS = ("", "rdtsc", "rdrand", "cpuid")
NONDET_CODES = {kind: code for code, kind in enumerate(NONDET_KINDS)}


@dataclass(slots=True)
class InputEvent:
    """One logged input.

    Treated as immutable once logged, like
    :class:`~repro.mrr.chunk.ChunkEntry` and for the same reason: events
    are built on the syscall hot path and by the thousand on every log
    decode, and a frozen dataclass pays ``object.__setattr__`` per field.
    Nothing hashes events.

    Field use by kind:
        syscall    — ``sysno`` + ``value`` (return value) + ``copies``
                     (copy-to-user payloads as (addr, bytes) pairs);
        nondet     — ``nondet_kind`` + ``value`` (the trapped result);
        signal     — ``value`` is the signal number;
        sigreturn  — no payload (the replayer pops its own saved context);
        exit       — ``value`` is the exit code.
    """

    rthread: int
    seq: int
    chunk_seq: int
    kind: str
    sysno: int = 0
    value: int = 0
    nondet_kind: str = ""
    copies: tuple[tuple[int, bytes], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in KIND_CODES:
            raise ValueError(f"unknown event kind {self.kind!r}")
        if self.nondet_kind not in NONDET_CODES:
            raise ValueError(f"unknown nondet kind {self.nondet_kind!r}")

    @property
    def payload_bytes(self) -> int:
        """Bytes of copied-to-user data carried by this event."""
        return sum(len(data) for _addr, data in self.copies)
