"""Happens-before data-race detection over a replayed recording.

Two shadowed replay passes over a chunk window (the whole recording, or a
checkpoint-bounded ``[start, until)`` interval seeked via
:func:`~repro.replay.checkpoint.replayer_at`):

1. **Sync scan** — find the synchronization vocabulary: every word ever
   touched by an atomic instruction (plus futex words) is a *sync word*,
   and the argument registers of each trapped syscall are captured (the
   input log stores return values only; replay regenerates arguments, so
   this is where futex addresses and kill targets come from).
2. **Detection** — a FastTrack-style vector-clock pass at *access*
   granularity. Each thread carries a clock; every access to a sync word
   acts as an acquire+release on that word (join the word's clock, store
   a copy, then advance the accessor's own component so later accesses
   are distinguishable from the published prefix — this is what orders a
   spinlock's plain-store release against the next xchg acquire). Kernel
   synchronization (spawn, futex wake->wait, signal delivery) publishes
   and joins through per-event channels at the chunk boundaries where
   the replayer applies those events. Plain accesses to data bytes are
   checked against per-byte shadow cells (last write + last reads); a
   conflicting pair no clock ordered is a data race.

Sync words are excluded from race candidates: atomics are
synchronization, and the plain loads of a test-and-test-and-set spin
loop or a release store are part of the protocol, not application data.
Addresses synchronized *only* by raw ordered plain stores (Dekker-style
flags) are reported — at this layer they are data races, exactly as a
C11 analysis would classify them.

Access-granularity clocks matter: the chunk-level HB graph
(:mod:`repro.forensics.hb`) over-orders whenever one chunk contains both
data accesses and a lock handoff, so the detector keeps its own clocks
and the graph serves queries, rendering and export.

Window scoping is exact for in-window pairs: every HB path between two
in-window accesses lies entirely inside the window (all edges point
forward in replay order), so a windowed pass reports the same races as a
full pass restricted to pairs whose chunks both fall in the window. The
one caveat is the sync vocabulary itself, which is discovered from the
window — an address used atomically only *outside* the window is treated
as data within it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..analysis.chunks import ScheduledChunk, iter_schedule, per_thread_chunks
from ..capo.events import EV_SYSCALL
from ..capo.recording import Recording
from ..kernel.syscalls import SYS_FUTEX_WAIT, SYS_FUTEX_WAKE
from ..replay.checkpoint import replayer_at
from .hb import SyncLink, pair_kernel_sync
from .render import symbolize
from .shadow import AccessSink, ShadowPort

WORD_MASK = ~3
# Intra-chunk clock headroom: a chunk's own-component epochs run from
# thread_index << SUB_BITS, advancing once per sync access — far below
# any chunk's possible sync-operation count.
SUB_BITS = 24

READ = "read"
WRITE = "write"


@dataclass(frozen=True)
class Access:
    """One side of a race, in every coordinate system a human needs."""

    chunk_index: int   # global chunk-schedule position (inspect --at)
    rthread: int       # R-thread == recorded core context
    pc: int
    kind: str          # "read" or "write"
    timestamp: int     # the chunk's global (Lamport) timestamp

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass(frozen=True)
class Race:
    """A conflicting, HB-concurrent access pair (first = earlier in the
    observed schedule — the direction the recording happened to run)."""

    address: int       # lowest racing byte
    word: int          # containing aligned word (dedup granularity)
    symbol: str | None
    first: Access
    second: Access

    def as_dict(self) -> dict:
        return {
            "address": self.address,
            "word": self.word,
            "symbol": self.symbol,
            "first": self.first.as_dict(),
            "second": self.second.as_dict(),
        }


@dataclass
class RaceReport:
    """Everything ``quickrec analyze`` reports (JSON via :meth:`as_dict`)."""

    program: str
    directory: str | None
    window: tuple[int, int]
    total_chunks: int
    races: list[Race]
    sync_words: list[int]
    stats: dict
    anomalies: list[str] = field(default_factory=list)
    dropped_races: int = 0
    hb: dict | None = None
    # Captured trap arguments (kernel seq -> the four argument registers),
    # reusable for a precise HB graph; not serialized.
    syscall_args: dict = field(default_factory=dict, repr=False)

    @property
    def racy_words(self) -> dict[int, int]:
        """Races per aligned word address."""
        counts: dict[int, int] = {}
        for race in self.races:
            counts[race.word] = counts.get(race.word, 0) + 1
        return dict(sorted(counts.items()))

    def as_dict(self) -> dict:
        return {
            "format": "quickrec-race-report",
            "version": 1,
            "program": self.program,
            "directory": self.directory,
            "window": {"start": self.window[0], "until": self.window[1]},
            "total_chunks": self.total_chunks,
            "stats": dict(self.stats),
            "sync_words": [hex(word) for word in self.sync_words],
            "races": [race.as_dict() for race in self.races],
            "dropped_races": self.dropped_races,
            "anomalies": list(self.anomalies),
            "hb": self.hb,
        }


# -- shadowed replay driver ---------------------------------------------------


def _replay_window(recording: Recording, schedule: list[ScheduledChunk],
                   start: int, until: int, sink,
                   on_boundary: Callable | None = None,
                   decode_cache: bool = True) -> None:
    """Step chunks ``[start, until)`` with every thread's port shadowed.

    ``sink.begin_chunk(scheduled)`` runs before each chunk;
    ``on_boundary(scheduled, consumed_events, ctx)`` after it, with the
    input events that step consumed (boundary syscalls and pre-chunk
    signal deliveries) — at which point the thread's argument registers
    still hold the trap's arguments (event application only rewrites the
    return register).
    """
    replayer = replayer_at(recording, start, decode_cache=decode_cache)
    replayer.port_wrapper = (
        lambda rthread, engine, port: ShadowPort(port, engine, rthread, sink))
    for ctx in replayer.threads.values():
        ctx.port = ShadowPort(ctx.port, ctx.engine, ctx.rthread, sink)
    events_of: dict[int, list] = {}
    for event in recording.events:
        events_of.setdefault(event.rthread, []).append(event)
    cursors: dict[int, int] = {}

    def sync_cursors() -> None:
        for rthread, ctx in replayer.threads.items():
            if rthread not in cursors:
                cursors[rthread] = (len(events_of.get(rthread, ()))
                                    - len(ctx.events))

    sync_cursors()
    while replayer.position < until:
        scheduled = schedule[replayer.position]
        sink.begin_chunk(scheduled)
        if replayer.step_chunk() is None:
            break
        sync_cursors()
        rthread = scheduled.chunk.rthread
        ctx = replayer.threads[rthread]
        consumed_to = len(events_of.get(rthread, ())) - len(ctx.events)
        consumed = events_of.get(rthread, [])[cursors[rthread]:consumed_to]
        cursors[rthread] = consumed_to
        if on_boundary is not None:
            on_boundary(scheduled, consumed, ctx)


class _SyncScan(AccessSink):
    """Pass 1: atomic-word discovery (race checks need the full set up
    front — a lock word's plain release store may replay before its first
    atomic acquire enters the window)."""

    def __init__(self) -> None:
        self.sync_words: set[int] = set()
        self.accesses = 0

    def begin_chunk(self, scheduled: ScheduledChunk) -> None:
        pass

    def on_access(self, rthread: int, pc: int, addr: int, size: int,
                  is_write: bool, is_atomic: bool) -> None:
        self.accesses += 1
        if is_atomic:
            self.sync_words.add(addr & WORD_MASK)


class _Detector(AccessSink):
    """Pass 2: the vector-clock race detector."""

    def __init__(self, sync_words: set[int],
                 joins: dict[tuple[int, int], list[int]],
                 publishes: dict[tuple[int, int], list[int]],
                 max_races_per_address: int):
        self.sync_words = sync_words
        self.joins = joins
        self.publishes = publishes
        self.max_per_address = max_races_per_address
        self.clocks: dict[int, dict[int, int]] = {}
        self.sync_clocks: dict[int, dict[int, int]] = {}
        self.channels: dict[int, dict[int, int]] = {}
        # byte addr -> [write_info, write_rthread, write_epoch,
        #               {reader_rthread: (epoch, info)}]
        self.cells: dict[int, list] = {}
        # raw races: (byte, earlier_info, later_info)
        self.found: list[tuple[int, tuple, tuple]] = []
        self.seen: set[tuple[int, int, int]] = set()
        self.per_word: dict[int, int] = {}
        self.dropped = 0
        self.accesses = 0
        self.current: ScheduledChunk | None = None

    # -- chunk lifecycle ----------------------------------------------------

    def begin_chunk(self, scheduled: ScheduledChunk) -> None:
        self.current = scheduled
        rthread = scheduled.chunk.rthread
        clock = self.clocks.setdefault(rthread, {})
        # Epochs encode (thread chunk ordinal, sync ops so far) so a
        # publish mid-chunk never covers the chunk's later accesses.
        clock[rthread] = scheduled.thread_index << SUB_BITS
        for seq in self.joins.get((rthread, scheduled.thread_index), ()):
            self._merge(clock, self.channels.get(seq))

    def end_chunk(self, scheduled: ScheduledChunk) -> None:
        rthread = scheduled.chunk.rthread
        clock = self.clocks[rthread]
        for seq in self.publishes.get((rthread, scheduled.thread_index), ()):
            self.channels[seq] = dict(clock)
            clock[rthread] += 1

    @staticmethod
    def _merge(clock: dict[int, int], other: dict[int, int] | None) -> None:
        if not other:
            return
        for rthread, epoch in other.items():
            if clock.get(rthread, -1) < epoch:
                clock[rthread] = epoch

    # -- accesses -----------------------------------------------------------

    def on_access(self, rthread: int, pc: int, addr: int, size: int,
                  is_write: bool, is_atomic: bool) -> None:
        self.accesses += 1
        clock = self.clocks[rthread]
        word = addr & WORD_MASK
        if is_atomic or word in self.sync_words:
            # Acquire + release on the sync word, then bump the accessor's
            # own component so post-release accesses outrank the publish.
            self._merge(clock, self.sync_clocks.get(word))
            self.sync_clocks[word] = dict(clock)
            clock[rthread] += 1
            return
        own = clock[rthread]
        scheduled = self.current
        info = (scheduled.index, rthread, pc,
                WRITE if is_write else READ, scheduled.chunk.timestamp)
        for byte in range(addr, addr + size):
            cell = self.cells.get(byte)
            if cell is None:
                self.cells[byte] = [info if is_write else None, rthread,
                                    own, {} if is_write
                                    else {rthread: (own, info)}]
                continue
            w_info, w_thread, w_epoch, readers = cell
            if w_info is not None and w_thread != rthread \
                    and clock.get(w_thread, -1) < w_epoch:
                self._report(byte, w_info, info)
            if is_write:
                for r_thread, (r_epoch, r_info) in readers.items():
                    if r_thread != rthread \
                            and clock.get(r_thread, -1) < r_epoch:
                        self._report(byte, r_info, info)
                cell[0], cell[1], cell[2] = info, rthread, own
                cell[3] = {}
            else:
                readers[rthread] = (own, info)

    def _report(self, byte: int, earlier: tuple, later: tuple) -> None:
        word = byte & WORD_MASK
        key = (word, earlier[0], later[0])
        if key in self.seen:
            return
        self.seen.add(key)
        if self.per_word.get(word, 0) >= self.max_per_address:
            self.dropped += 1
            return
        self.per_word[word] = self.per_word.get(word, 0) + 1
        self.found.append((byte, earlier, later))


# -- public API ---------------------------------------------------------------


def _capture_args(syscall_args: dict[int, tuple]) -> Callable:
    def on_boundary(scheduled, consumed, ctx) -> None:
        for event in consumed:
            if event.kind == EV_SYSCALL:
                regs = ctx.engine.regs
                syscall_args[event.seq] = (int(regs[1]), int(regs[2]),
                                           int(regs[3]), int(regs[4]))
    return on_boundary


def _futex_words(recording: Recording,
                 syscall_args: dict[int, tuple]) -> set[int]:
    words = set()
    for event in recording.events:
        if event.kind == EV_SYSCALL and event.sysno in (SYS_FUTEX_WAIT,
                                                        SYS_FUTEX_WAKE):
            args = syscall_args.get(event.seq)
            if args is not None:
                words.add(args[0] & WORD_MASK)
    return words


def _link_tables(links: list[SyncLink]) -> tuple[dict, dict]:
    joins: dict[tuple[int, int], list[int]] = {}
    publishes: dict[tuple[int, int], list[int]] = {}
    for link in links:
        publishes.setdefault(link.src, []).append(link.seq)
        joins.setdefault(link.dst, []).append(link.seq)
    return joins, publishes


def _access_of(info: tuple) -> Access:
    return Access(chunk_index=info[0], rthread=info[1], pc=info[2],
                  kind=info[3], timestamp=info[4])


def detect_races(recording: Recording, start: int = 0,
                 until: int | None = None, directory: str | None = None,
                 max_races_per_address: int = 16,
                 decode_cache: bool = True) -> RaceReport:
    """Shadow-replay a chunk window and report its data races
    (``decode_cache``: see :class:`~repro.replay.replayer.Replayer`)."""
    schedule = iter_schedule(recording.chunks)
    total = len(schedule)
    start = max(0, start)
    until = total if until is None else max(start, min(until, total))

    scan = _SyncScan()
    syscall_args: dict[int, tuple] = {}
    _replay_window(recording, schedule, start, until, scan,
                   on_boundary=_capture_args(syscall_args),
                   decode_cache=decode_cache)
    sync_words = scan.sync_words | _futex_words(recording, syscall_args)

    links = pair_kernel_sync(recording.events, syscall_args)
    joins, publishes = _link_tables(links)
    detector = _Detector(sync_words, joins, publishes, max_races_per_address)
    _replay_window(
        recording, schedule, start, until, detector,
        on_boundary=lambda scheduled, consumed, ctx:
            detector.end_chunk(scheduled),
        decode_cache=decode_cache)

    races = []
    for byte, earlier, later in sorted(detector.found):
        races.append(Race(
            address=byte, word=byte & WORD_MASK,
            symbol=symbolize(recording.program, byte),
            first=_access_of(earlier), second=_access_of(later)))
    window_chunks = [sc.chunk for sc in schedule[start:until]]
    stats = {
        "chunks_replayed": until - start,
        "accesses": detector.accesses,
        "shadow_bytes": len(detector.cells),
        "sync_words": len(sync_words),
        "sync_links": {kind: sum(1 for link in links if link.kind == kind)
                       for kind in sorted({link.kind for link in links})},
        "threads": per_thread_chunks(window_chunks),
    }
    return RaceReport(
        program=recording.program.name, directory=directory,
        window=(start, until), total_chunks=total, races=races,
        sync_words=sorted(sync_words), stats=stats,
        dropped_races=detector.dropped, syscall_args=syscall_args)


def analyze_recording(recording: Recording, start: int = 0,
                      until: int | None = None,
                      directory: str | None = None,
                      max_races_per_address: int = 16):
    """The full forensic pipeline: race detection plus a precise HB graph
    (built with the captured syscall arguments). Returns
    ``(report, graph)`` with the graph's summary embedded in the report.
    """
    from .hb import build_hb_graph

    report = detect_races(recording, start=start, until=until,
                          directory=directory,
                          max_races_per_address=max_races_per_address)
    graph = build_hb_graph(recording.chunks, recording.events,
                           report.syscall_args)
    summary = graph.as_dict()
    summary.pop("sync_edges")  # coordinates live in the races themselves
    report.hb = summary
    report.anomalies.extend(graph.anomalies)
    return report, graph
