"""The epoch ring: bounded retention with a replayable base state.

The ring observes the recording as it happens — chunks in global
schedule order (each recorder pushes its entry as it writes it to the
CBUF at chunk termination, under the fabric's serialized order clock)
and input events in kernel sequence order (tapped in the RSM's
``log_*`` bodies). Retention is
epoch-granular: every ``epoch_chunks`` chunks seal one epoch, and once
more than ``window`` sealed epochs exist the oldest is evicted in O(1).

Evicting an epoch must not lose the ability to replay the *retained*
window, so the ring maintains a **shadow replayer**: a live
:class:`~repro.replay.replayer.Replayer` that consumes exactly the
evicted prefix of the schedule. Its state is, by the checkpoint
machinery's own guarantee, bit-for-bit the state a serial replay of the
dropped prefix would reach — i.e. a checkpoint standing at the ring
base, advanced incrementally (amortized O(1) chunks per recorded chunk,
O(window) memory: ring buckets + one machine image, independent of run
length). ``materialize()`` captures that state as a position-0
checkpoint record, rebases the window's chunk timestamps to the window
origin, and returns a self-contained recording; restoring the base
state and replaying the window reproduces the unbounded replay's final
digests exactly, because the base state carries the cumulative kernel
bookkeeping (outputs, exit codes, statistics) of the dropped prefix.

Input-event ``seq``/``chunk_seq`` values and per-thread chunk counters
stay *absolute* — rebasing them would desynchronize the window's events
from the base state's counters; only chunk timestamps (the schedule
order) are rebased to the origin.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Any

from ..capo.events import InputEvent
from ..capo.recording import FLIGHT_META_KEY, Recording
from ..config import SimConfig
from ..isa.program import Program
from ..mrr.chunk import ChunkEntry
from ..mrr.logfmt import CheckpointRecord
from ..replay.replayer import Replayer
from ..telemetry import NULL_TELEMETRY, Telemetry

__all__ = ["FLIGHT_META_KEY", "FlightRing"]


class FlightRing:
    """Bounded retention of the last ``window`` epochs of a recording.

    Strictly an observer: it never changes the execution, the recorded
    logs' content, or the cycle accounting — only what is *retained*.
    """

    def __init__(self, config: SimConfig, program: Program, *,
                 window: int | None = None, epoch_chunks: int | None = None,
                 metadata: dict[str, Any] | None = None,
                 telemetry: Telemetry | None = None):
        if window is None:
            window = config.capo.flight_window
        if epoch_chunks is None:
            epoch_chunks = config.capo.flight_epoch_chunks
        if window <= 0:
            raise ValueError("flight ring needs a positive window")
        if epoch_chunks <= 0:
            raise ValueError("flight ring needs a positive epoch size")
        self.config = config
        self.program = program
        self.window = window
        self.epoch_chunks = epoch_chunks
        # Pre-run metadata the shadow replayer needs at construction time
        # (main stack pointer / sphere region for multi-process runs);
        # final verification metadata merges in at materialize().
        self._view_metadata = dict(metadata or {})
        view = Recording(config=config, program=program, chunks=[],
                         events=[], metadata=self._view_metadata)
        # The shadow consumes the evicted schedule prefix; its event
        # deques are shared with push_event, so events arrive
        # incrementally and unconsumed ones are exactly the window's.
        self._shadow = Replayer(view, schedule=[])
        self._epochs: deque[list[ChunkEntry]] = deque()
        self._open: list[ChunkEntry] = []
        # session._publish_stats takes the capture.* metrics from these.
        self.evictions = 0
        self.chunks_seen = 0
        self.events_seen = 0
        self.max_chunks_retained = 0
        self.max_events_retained = 0
        self.telemetry = telemetry or NULL_TELEMETRY
        self._tm_on = self.telemetry.enabled

    # -- observation ----------------------------------------------------------

    @property
    def chunks_retained(self) -> int:
        return sum(len(epoch) for epoch in self._epochs) + len(self._open)

    @property
    def events_retained(self) -> int:
        return sum(len(events) for events
                   in self._shadow._events_by_thread.values())

    @property
    def base_position(self) -> int:
        """Absolute schedule position of the ring base (chunks evicted)."""
        return self._shadow.position

    def push_chunk(self, entry: ChunkEntry) -> None:
        """A chunk terminated; arrivals are in global schedule order."""
        self.chunks_seen += 1
        self._open.append(entry)
        if len(self._open) >= self.epoch_chunks:
            self._epochs.append(self._open)
            self._open = []
            while len(self._epochs) > self.window:
                self._evict()
        retained = self.chunks_retained
        if retained > self.max_chunks_retained:
            self.max_chunks_retained = retained

    def push_event(self, event: InputEvent) -> None:
        """An input event was logged; arrivals are in kernel seq order."""
        self.events_seen += 1
        self._shadow._events_by_thread.setdefault(
            event.rthread, deque()).append(event)
        retained = self.events_retained
        if retained > self.max_events_retained:
            self.max_events_retained = retained

    def _evict(self) -> None:
        """Drop the oldest epoch: advance the shadow replayer over it."""
        epoch = self._epochs.popleft()
        shadow = self._shadow
        shadow.schedule.extend(epoch)
        for _ in epoch:
            shadow.step_chunk()
        self.evictions += 1
        if self._tm_on:
            self.telemetry.tracer.instant(
                "flight.evict", cat="flight",
                args={"base_position": shadow.position,
                      "chunks_retained": self.chunks_retained})

    # -- materialization ------------------------------------------------------

    def _base_record(self) -> CheckpointRecord:
        """The ring base as a position-0 checkpoint of the *window*.

        ``capture_state`` snapshots the shadow at its absolute position;
        the header is rewritten so the state restores at window position
        0 with every window event still pending (the shadow's deques hold
        exactly the unconsumed events, which become the window's log).
        """
        from ..replay.checkpoint import ReplayState, capture_state, \
            state_record
        state = capture_state(self._shadow, copy=False)
        header = dict(state.header)
        header["position"] = 0
        header["threads"] = {
            key: {**data, "events_consumed": 0}
            for key, data in state.header["threads"].items()}
        base = ReplayState(position=0, header=header, memory=state.memory)
        return state_record(base)

    def materialize(self, metadata: dict[str, Any] | None = None,
                    ) -> Recording:
        """The retained window as a self-contained recording.

        Call at the end of recording (after ``RSM.finalize``): every
        thread alive in the window has terminated, so the window schedule
        satisfies the replayer's end-with-EXIT invariant.
        """
        window_chunks = [chunk for epoch in self._epochs for chunk in epoch]
        window_chunks.extend(self._open)
        events = sorted(
            (event for events in self._shadow._events_by_thread.values()
             for event in events),
            key=lambda event: event.seq)
        meta = dict(self._view_metadata)
        if metadata:
            meta.update(metadata)
        info = {
            "window": self.window,
            "epoch_chunks": self.epoch_chunks,
            "evictions": self.evictions,
            "base_position": self.base_position,
            "chunks_seen": self.chunks_seen,
            "events_seen": self.events_seen,
            "max_chunks_retained": self.max_chunks_retained,
            "max_events_retained": self.max_events_retained,
        }
        meta[FLIGHT_META_KEY] = info
        if self.evictions == 0 or not window_chunks:
            # Nothing was dropped: the window is the whole recording and
            # replays from a fresh replayer, no base state needed.
            return Recording(config=self.config, program=self.program,
                             chunks=window_chunks, events=events,
                             metadata=meta)
        # Rebase the schedule origin: the window's first chunk gets
        # timestamp 1 and relative order is preserved (arrival order is
        # timestamp order), so the rebased window passes schedule
        # validation on its own.
        origin = window_chunks[0].timestamp - 1
        info["timestamp_origin"] = origin
        rebased = [dataclasses.replace(chunk,
                                       timestamp=chunk.timestamp - origin)
                   for chunk in window_chunks]
        return Recording(config=self.config, program=self.program,
                         chunks=rebased, events=events, metadata=meta,
                         checkpoints=[self._base_record()])
