"""Checkpointing: snapshot, serialize and restore deterministic replay state.

QuickRec's chunk log totally orders inter-thread communication, so replay
state at any chunk-schedule position is a pure function of the recording —
which makes any suffix of a replay resumable from a snapshot of the state
at its start. A checkpoint captures exactly that state:

- the full physical memory image;
- per R-thread: the complete architectural engine state (registers, pc,
  flags, retirement/memop counters, load hash), the withheld-store FIFO
  (the replay-side TSO store buffer), deferred copy-to-user payloads and
  kernel actions, the signal context stack and handler table, and the
  input-event cursor;
- the replay-side kernel emulation state (fd table, write segments, exit
  codes) and cumulative replay statistics.

Checkpoints are created by a *replay pass* over the recording (the same
way rr materializes checkpoints during replay, not recording), then
embedded into the bundle's checkpoint section. Restoring one onto a fresh
:class:`~repro.replay.replayer.Replayer` is bit-for-bit equivalent to
serially replaying the prefix — the property :func:`state_digest` makes
checkable: equal digests iff equal states.

Uses: O(interval) seek for inspection (restore the nearest checkpoint and
step), and parallel replay (each worker restores the checkpoint at its span's
start — see :mod:`repro.replay.parallel`).
"""

from __future__ import annotations

import hashlib
import json
import struct
import time
from collections import deque
from dataclasses import dataclass

from ..capo.events import InputEvent
from ..capo.recording import Recording
from ..errors import LogFormatError, ReproError
from ..machine.core import Engine, EngineContext
from ..mrr.logfmt import CheckpointRecord
from ..telemetry import Telemetry
from .pending import ReplayPort, WithheldStores
from .replayer import Replayer, _ReplayThread

STATE_VERSION = 1
_LEN = struct.Struct("<I")


@dataclass(frozen=True)
class ReplayState:
    """A decoded checkpoint: JSON-able header plus the raw memory image."""

    position: int
    header: dict
    memory: bytes | memoryview


# -- capture -----------------------------------------------------------------

def capture_state(replayer: Replayer, copy: bool = True) -> ReplayState:
    """Snapshot ``replayer`` at its current chunk-schedule position.

    Must be called between chunks (which is the only way the public
    ``step_chunk`` interface can leave the replayer). ``copy=False``
    leaves the memory image a view of the replayer's live memory, valid
    only until it steps again: enough to digest a seam, not to keep.
    """
    event_totals: dict[int, int] = {}
    for event in replayer.recording.events:
        event_totals[event.rthread] = event_totals.get(event.rthread, 0) + 1
    threads = {}
    for rthread, ctx in replayer.threads.items():
        threads[str(rthread)] = {
            "engine": ctx.engine.snapshot_arch(),
            "boundary_retired": ctx.boundary_retired,
            "completed_chunks": ctx.completed_chunks,
            "finished": ctx.finished,
            "events_consumed":
                event_totals.get(rthread, 0) - len(ctx.events),
            "pending_copies": [[addr, data.hex()]
                               for addr, data in ctx.pending_copies],
            "pending_actions": [list(action)
                                for action in ctx.pending_actions],
            "sig_saved": [saved.to_dict() for saved in ctx.sig_saved],
            "sig_handlers": {str(signo): handler
                             for signo, handler in ctx.sig_handlers.items()},
            "withheld": [list(entry) for entry in ctx.withheld.snapshot()],
        }
    header = {
        "version": STATE_VERSION,
        "position": replayer.position,
        "threads": threads,
        "fd_names": {str(fd): name
                     for fd, name in replayer._fd_names.items()},
        "write_segments": [[seq, name, data.hex()]
                           for seq, name, data in replayer._write_segments],
        "exit_codes": {str(rthread): code
                       for rthread, code in replayer.exit_codes.items()},
        "stats": replayer.stats.as_dict(),
    }
    memory = replayer.memory.snapshot() if copy else replayer.memory.view()
    return ReplayState(position=replayer.position, header=header,
                       memory=memory)


# -- wire format -------------------------------------------------------------

def _header_bytes(state: ReplayState) -> bytes:
    """The length-prefixed canonical-JSON header."""
    header = json.dumps(state.header, sort_keys=True,
                        separators=(",", ":")).encode()
    return _LEN.pack(len(header)) + header


def encode_state(state: ReplayState) -> bytes:
    """Canonical payload bytes: length-prefixed canonical-JSON header
    followed by the raw memory image. Equal states encode identically, so
    the payload's SHA-256 doubles as a state-equality digest."""
    return _header_bytes(state) + state.memory


def decode_state(payload: bytes) -> ReplayState:
    """Parse a checkpoint payload; the memory image is a zero-copy view
    of ``payload``."""
    if len(payload) < _LEN.size:
        raise LogFormatError("checkpoint payload truncated")
    (header_len,) = _LEN.unpack_from(payload, 0)
    end = _LEN.size + header_len
    if len(payload) < end:
        raise LogFormatError("checkpoint payload truncated in header")
    try:
        header = json.loads(payload[_LEN.size:end].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise LogFormatError(f"corrupt checkpoint header: {exc}") from exc
    if header.get("version") != STATE_VERSION:
        raise LogFormatError(
            f"unsupported checkpoint state version {header.get('version')}")
    return ReplayState(position=header["position"], header=header,
                       memory=memoryview(payload)[end:])


def state_digest(state: ReplayState) -> str:
    """SHA-256 of the canonical encoding — the seam-verification digest —
    hashed piecewise, without concatenating a copy of the memory image."""
    digest = hashlib.sha256(_header_bytes(state))
    digest.update(state.memory)
    return digest.hexdigest()


# -- restore -----------------------------------------------------------------

def restore_replayer(recording: Recording, state: ReplayState,
                     telemetry: Telemetry | None = None,
                     schedule: list | None = None) -> Replayer:
    """A replayer positioned exactly as one that serially replayed
    ``state.position`` chunks of ``recording``. ``schedule``, when given,
    is ``recording``'s validated chunk schedule (see :class:`Replayer`)."""
    replayer = Replayer(recording, telemetry=telemetry, schedule=schedule)
    start = time.perf_counter()
    replayer.memory.restore(state.memory)
    events_by_thread: dict[int, deque[InputEvent]] = {}
    for event in recording.events:
        events_by_thread.setdefault(event.rthread, deque()).append(event)
    replayer._events_by_thread = events_by_thread
    replayer.threads = {}
    for key in sorted(state.header["threads"], key=int):
        rthread = int(key)
        data = state.header["threads"][key]
        engine = Engine(recording.program)
        engine.restore_arch(data["engine"])
        withheld = WithheldStores(replayer.memory)
        withheld.restore(data["withheld"])
        port = ReplayPort(replayer.memory, withheld,
                          telemetry=replayer.telemetry)
        events = events_by_thread.setdefault(rthread, deque())
        for _ in range(data["events_consumed"]):
            if not events:
                raise LogFormatError(
                    f"checkpoint consumed more events than rthread "
                    f"{rthread} has")
            events.popleft()
        ctx = _ReplayThread(rthread, engine, withheld, port, events)
        ctx.boundary_retired = data["boundary_retired"]
        ctx.completed_chunks = data["completed_chunks"]
        ctx.finished = data["finished"]
        ctx.pending_copies = tuple(
            (addr, bytes.fromhex(blob))
            for addr, blob in data["pending_copies"])
        ctx.pending_actions = [tuple(action)
                               for action in data["pending_actions"]]
        ctx.sig_saved = [EngineContext.from_dict(saved)
                         for saved in data["sig_saved"]]
        ctx.sig_handlers = {int(signo): handler
                            for signo, handler in data["sig_handlers"].items()}
        replayer.threads[rthread] = ctx
    replayer._fd_names = {int(fd): name
                          for fd, name in state.header["fd_names"].items()}
    replayer._write_segments = [
        (seq, name, bytes.fromhex(blob))
        for seq, name, blob in state.header["write_segments"]]
    replayer.exit_codes = {int(rthread): code
                           for rthread, code in
                           state.header["exit_codes"].items()}
    stats = replayer.stats
    for field, value in state.header["stats"].items():
        setattr(stats, field, value)
    replayer._next_index = state.position
    if replayer.telemetry.enabled:
        metrics = replayer.telemetry.metrics
        metrics.counter("replay.checkpoint_restores").inc()
        metrics.histogram("replay.checkpoint_restore_us").observe(
            (time.perf_counter() - start) * 1e6)
    return replayer


# -- flight-window base ------------------------------------------------------

def flight_base_state(recording: Recording) -> ReplayState | None:
    """The window-origin state of a materialized flight recording.

    A flight window captured after evictions embeds the ring-base replay
    state as a checkpoint at position 0 (fresh-replayer construction is
    wrong there: the dropped prefix's memory, thread and kernel state
    live only in that record). None for ordinary recordings and for
    flight windows that never evicted.
    """
    from ..capo.recording import FLIGHT_META_KEY
    if FLIGHT_META_KEY not in recording.metadata:
        return None
    record = recording.checkpoint_at(0)
    if record is None:
        return None
    return decode_state(record.payload)


def base_replayer(recording: Recording,
                  telemetry: Telemetry | None = None,
                  schedule: list | None = None) -> Replayer:
    """A replayer at position 0 of ``recording`` — fresh for ordinary
    recordings, restored from the embedded window-origin state for
    materialized flight windows. Every "replay from the start" path must
    come through here."""
    state = flight_base_state(recording)
    if state is None:
        return Replayer(recording, telemetry=telemetry, schedule=schedule)
    return restore_replayer(recording, state, telemetry=telemetry,
                            schedule=schedule)


# -- building ----------------------------------------------------------------

def build_checkpoints(recording: Recording, every: int,
                      telemetry: Telemetry | None = None,
                      ) -> list[CheckpointRecord]:
    """Embeddable checkpoints at every ``every``-th chunk-schedule epoch.

    Runs one serial replay pass over the recording (which also validates
    it end to end) and snapshots replay state at each epoch boundary.
    The initial and final positions are omitted: position 0 is a fresh
    replayer and the final state is the replay result itself.
    """
    if every <= 0:
        raise ReproError(f"checkpoint interval must be positive, got {every}")
    replayer = base_replayer(recording, telemetry=telemetry)
    records: list[CheckpointRecord] = []
    start = time.perf_counter()
    while replayer.step_chunk() is not None:
        position = replayer.position
        if position % every == 0 and not replayer.finished:
            state = capture_state(replayer)
            records.append(CheckpointRecord.for_payload(
                position, encode_state(state)))
    replayer.result()
    if telemetry is not None and telemetry.enabled:
        metrics = telemetry.metrics
        metrics.gauge("checkpoint.count").set(len(records))
        metrics.gauge("checkpoint.interval_chunks").set(every)
        metrics.gauge("checkpoint.raw_bytes").set(
            sum(len(record.payload) for record in records))
        metrics.gauge("checkpoint.build_us").set(
            round((time.perf_counter() - start) * 1e6))
        telemetry.tracer.instant(
            "checkpoint.build", cat="checkpoint",
            args={"count": len(records), "every": every})
    return records


# -- seek --------------------------------------------------------------------

def replayer_at(recording: Recording, position: int,
                telemetry: Telemetry | None = None) -> Replayer:
    """A replayer at ``position`` in O(interval): restore the nearest
    embedded checkpoint at or before it, then step the remainder."""
    total = len(recording.chunks)
    if position < 0 or position > total:
        raise ReproError(f"position {position} outside [0, {total}]")
    record = recording.nearest_checkpoint(position)
    if record is not None and record.position > 0:
        replayer = restore_replayer(recording, decode_state(record.payload),
                                    telemetry=telemetry)
    else:
        # Position 0: a fresh replayer — or, for a flight window, the
        # embedded window-origin state (which is the position-0 record
        # nearest_checkpoint just found).
        replayer = base_replayer(recording, telemetry=telemetry)
    while replayer.position < position:
        if replayer.step_chunk() is None:
            raise ReproError(
                f"replay ended at {replayer.position} before requested "
                f"position {position}")
    return replayer
