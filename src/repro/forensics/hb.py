"""The happens-before graph of a recorded execution, at chunk granularity.

Nodes are the chunks in replay-schedule order (see
:func:`repro.analysis.chunks.iter_schedule`). Edges come in two layers:

- **program** — each chunk to its thread's next chunk;
- **sync** — kernel synchronization recovered from the input log:
  ``spawn`` (the parent's SYS_SPAWN chunk to the child's first chunk),
  ``futex`` (a FUTEX_WAKE chunk to each wait it unblocked — waits are
  paired FIFO per futex word in kernel-sequence order, exactly how the
  kernel's own FutexTable dequeues), and ``signal`` (the sender's
  SYS_KILL chunk to the chunk boundary where the receiver's handler ran).

The recording's global timestamps additionally give an *observed* total
order (the schedule itself); that order is deliberately **not** part of
the HB relation — it reflects one interleaving the hardware happened to
record, not an ordering the program enforced. Race detection asks
precisely for pairs the observed order serialized but nothing else did.
RSW only defers a trailing store's visibility to its chunk's boundary
commit; it never reorders across chunks, so it needs no extra edges.

Every edge points forward in schedule order (futex waits log their event
at block time, so a wake's sequence number is always greater than the
waits it satisfies) — the graph is acyclic by construction, which the
property suite checks. A vector-clock layer (highest thread-chunk
ordinal of each R-thread that happens-before a node) answers
``ordered``/``concurrent`` queries in O(threads).

Syscall arguments are not logged (replay regenerates them), so precise
futex-word and signal-target pairing needs the ``syscall_args`` map the
shadow replay captures (kernel seq -> the four argument registers at the
trap). Without it the builder falls back to a conservative single-queue
pairing, which over-orders but never under-orders a single-futex program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..analysis.chunks import ScheduledChunk, iter_schedule
from ..capo.events import EV_SIGNAL, EV_SYSCALL, InputEvent
from ..kernel.syscalls import (
    SYS_FUTEX_WAIT,
    SYS_FUTEX_WAKE,
    SYS_KILL,
    SYS_SPAWN,
)
from ..mrr.chunk import ChunkEntry

EDGE_PROGRAM = "program"
EDGE_SPAWN = "spawn"
EDGE_FUTEX = "futex"
EDGE_SIGNAL = "signal"
SYNC_EDGE_KINDS = (EDGE_SPAWN, EDGE_FUTEX, EDGE_SIGNAL)

WORD_MASK = ~3


@dataclass(frozen=True)
class SyncLink:
    """One kernel-mediated happens-before edge, in thread coordinates.

    ``src`` and ``dst`` are ``(rthread, thread_index)`` pairs: the edge
    runs from the *end* of the source chunk (where the publishing syscall
    trapped) to the *start* of the destination chunk (where the effect
    became visible). ``seq`` is the kernel sequence number of the
    publishing event — unique per link source, so it doubles as the
    channel id for the detector's vector clocks.
    """

    kind: str
    src: tuple[int, int]
    dst: tuple[int, int]
    seq: int
    detail: str = ""


def _syscall_chunk(event: InputEvent) -> tuple[int, int]:
    """The (rthread, thread_index) of the chunk a syscall event ended.

    ``chunk_seq`` is the thread's chunk count when the event was logged;
    the syscall terminated the chunk just closed, per-thread ordinal
    ``chunk_seq - 1``.
    """
    return (event.rthread, max(0, event.chunk_seq - 1))


def pair_kernel_sync(events: Sequence[InputEvent],
                     syscall_args: Mapping[int, tuple] | None = None,
                     ) -> list[SyncLink]:
    """Recover spawn/futex/signal happens-before links from the input log."""
    links: list[SyncLink] = []
    precise = syscall_args is not None
    args_of = syscall_args or {}
    # Blocked futex waits, FIFO per futex word (or one shared queue in
    # conservative mode), in the order they parked — kernel seq order.
    wait_queues: dict[int | None, list[InputEvent]] = {}
    # Successful kills, FIFO per (target, signo) or one shared queue.
    kill_queues: dict[tuple | None, list[InputEvent]] = {}

    def futex_key(event: InputEvent) -> int | None:
        if not precise:
            return None
        args = args_of.get(event.seq)
        return args[0] & WORD_MASK if args else None

    for event in sorted(events, key=lambda event: event.seq):
        if event.kind == EV_SYSCALL and event.sysno == SYS_SPAWN:
            links.append(SyncLink(EDGE_SPAWN, _syscall_chunk(event),
                                  (event.value, 0), event.seq,
                                  f"spawn t{event.value}"))
        elif event.kind == EV_SYSCALL and event.sysno == SYS_FUTEX_WAIT:
            # Return value 0 means the wait parked and was later woken
            # (an immediate value mismatch completes with EAGAIN). The
            # event is logged at block time, so its seq precedes its
            # waker's.
            if event.value == 0:
                wait_queues.setdefault(futex_key(event), []).append(event)
        elif event.kind == EV_SYSCALL and event.sysno == SYS_FUTEX_WAKE:
            queue = wait_queues.get(futex_key(event), [])
            woken = min(event.value, len(queue))
            for wait in queue[:woken]:
                # The woken thread resumes in its next chunk: per-thread
                # ordinal chunk_seq (the wait ended chunk chunk_seq - 1).
                links.append(SyncLink(
                    EDGE_FUTEX, _syscall_chunk(event),
                    (wait.rthread, wait.chunk_seq), event.seq,
                    f"wake t{wait.rthread}"))
            del queue[:woken]
        elif event.kind == EV_SYSCALL and event.sysno == SYS_KILL:
            if event.value == 0:  # delivered (nonzero is ESRCH etc.)
                if precise:
                    args = args_of.get(event.seq)
                    key = (args[0], args[1]) if args else None
                else:
                    key = None
                kill_queues.setdefault(key, []).append(event)
        elif event.kind == EV_SIGNAL:
            key = (event.rthread, event.value) if precise else None
            queue = kill_queues.get(key, [])
            # Match the earliest unmatched kill that precedes delivery.
            for index, kill in enumerate(queue):
                if kill.seq < event.seq:
                    links.append(SyncLink(
                        EDGE_SIGNAL, _syscall_chunk(kill),
                        (event.rthread, event.chunk_seq), kill.seq,
                        f"signal {event.value} -> t{event.rthread}"))
                    del queue[index]
                    break
    return links


@dataclass(frozen=True)
class HBEdge:
    """One graph edge in schedule coordinates (``src`` before ``dst``)."""

    src: int
    dst: int
    kind: str
    detail: str = ""


@dataclass
class HBGraph:
    """Happens-before over a chunk schedule, with a vector-clock layer."""

    schedule: list[ScheduledChunk]
    sync_edges: list[HBEdge]
    # Links whose endpoints fell outside the schedule (or would point
    # backwards — impossible for a well-formed log, but surfaced rather
    # than silently dropped).
    anomalies: list[str] = field(default_factory=list)
    _clocks: list[dict[int, int]] = field(default_factory=list, repr=False)
    _position: dict[tuple[int, int], int] = field(default_factory=dict,
                                                  repr=False)

    def __post_init__(self) -> None:
        self._position = {
            (scheduled.chunk.rthread, scheduled.thread_index): scheduled.index
            for scheduled in self.schedule}
        incoming: dict[int, list[int]] = {}
        for edge in self.sync_edges:
            incoming.setdefault(edge.dst, []).append(edge.src)
        last_of_thread: dict[int, dict[int, int]] = {}
        for scheduled in self.schedule:
            rthread = scheduled.chunk.rthread
            clock = dict(last_of_thread.get(rthread, {}))
            clock[rthread] = scheduled.thread_index
            for src in incoming.get(scheduled.index, ()):
                for thread, ordinal in self._clocks[src].items():
                    if clock.get(thread, -1) < ordinal:
                        clock[thread] = ordinal
            self._clocks.append(clock)
            last_of_thread[rthread] = clock

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.schedule)

    def position(self, rthread: int, thread_index: int) -> int | None:
        """Schedule index of a thread-coordinate node, if present."""
        return self._position.get((rthread, thread_index))

    def clock(self, index: int) -> dict[int, int]:
        """The node's vector clock: per R-thread, the highest thread-chunk
        ordinal that happens-before (or is) this node."""
        return dict(self._clocks[index])

    def ordered(self, a: int, b: int) -> bool:
        """True iff chunk ``a`` happens-before chunk ``b`` (strictly)."""
        if a == b:
            return False
        if a > b:
            return False  # all edges point forward in the schedule
        node = self.schedule[a]
        return (self._clocks[b].get(node.chunk.rthread, -1)
                >= node.thread_index)

    def concurrent(self, a: int, b: int) -> bool:
        return a != b and not self.ordered(a, b) and not self.ordered(b, a)

    def program_edges(self) -> list[HBEdge]:
        previous: dict[int, int] = {}
        edges = []
        for scheduled in self.schedule:
            rthread = scheduled.chunk.rthread
            if rthread in previous:
                edges.append(HBEdge(previous[rthread], scheduled.index,
                                    EDGE_PROGRAM))
            previous[rthread] = scheduled.index
        return edges

    def edges(self) -> list[HBEdge]:
        return self.program_edges() + list(self.sync_edges)

    def edge_counts(self) -> dict[str, int]:
        counts = {EDGE_PROGRAM: len(self.program_edges())}
        for edge in self.sync_edges:
            counts[edge.kind] = counts.get(edge.kind, 0) + 1
        return counts

    def as_dict(self) -> dict:
        return {
            "nodes": len(self.schedule),
            "edges": self.edge_counts(),
            "sync_edges": [{"src": edge.src, "dst": edge.dst,
                            "kind": edge.kind, "detail": edge.detail}
                           for edge in self.sync_edges],
            "anomalies": list(self.anomalies),
        }


def build_hb_graph(chunks: Sequence[ChunkEntry],
                   events: Sequence[InputEvent] = (),
                   syscall_args: Mapping[int, tuple] | None = None,
                   ) -> HBGraph:
    """Build the HB graph of a chunk log (+ input log for sync edges)."""
    schedule = iter_schedule(chunks)
    position = {(sc.chunk.rthread, sc.thread_index): sc.index
                for sc in schedule}
    sync_edges: list[HBEdge] = []
    anomalies: list[str] = []
    for link in pair_kernel_sync(events, syscall_args):
        src = position.get(link.src)
        dst = position.get(link.dst)
        if src is None or dst is None:
            anomalies.append(f"{link.kind} link {link.src}->{link.dst} "
                             "outside the chunk log")
            continue
        if src >= dst:
            anomalies.append(f"{link.kind} link would point backwards "
                             f"({src} -> {dst})")
            continue
        sync_edges.append(HBEdge(src, dst, link.kind, link.detail))
    return HBGraph(schedule, sync_edges, anomalies)
