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

import json
import struct
import time
from collections import deque
from dataclasses import dataclass

from ..capo.recording import Recording
from ..errors import LogFormatError, ReproError
from ..machine.core import Engine, EngineContext
from ..machine.memory import PhysicalMemory
from ..mrr.logfmt import CHECKPOINT_PAGE, CheckpointRecord, payload_pages
from ..telemetry import Telemetry
from .pending import ReplayPort, WithheldStores
from .replayer import Replayer, _ReplayThread

STATE_VERSION = 1
_LEN = struct.Struct("<I")


@dataclass(frozen=True)
class ReplayState:
    """A checkpoint's contents: JSON-able header plus the memory image,
    one buffer when captured, or the pages of the record it was decoded
    from, counted from the image's end (see :func:`decode_state`)."""

    position: int
    header: dict
    memory: bytes | memoryview | tuple[bytes, ...]


# -- capture -----------------------------------------------------------------

def capture_state(replayer: Replayer, copy: bool = True) -> ReplayState:
    """Snapshot ``replayer`` at its current chunk-schedule position.

    Must be called between chunks (which is the only way the public
    ``step_chunk`` interface can leave the replayer). ``copy=False``
    leaves the memory image a view of the replayer's live memory, valid
    only until it steps again: enough to build a record from or to
    compare at a seam, not to keep.
    """
    event_totals = replayer._event_totals
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
    """Canonical payload bytes of a captured state: length-prefixed
    canonical-JSON header followed by the raw memory image. Equal states
    encode identically. A checkpoint record holds this payload cut into
    pages (:func:`state_record`); nothing joins it on the record or
    replay path."""
    return _header_bytes(state) + state.memory


def state_record(state: ReplayState,
                 previous: CheckpointRecord | None = None,
                 ) -> CheckpointRecord:
    """The checkpoint record of a captured ``state``'s canonical payload,
    cut into pages straight from the header and the memory image. Pages
    equal to ``previous``'s are shared with it, digests included."""
    return CheckpointRecord.for_payload(state.position, _header_bytes(state),
                                        state.memory, previous=previous)


def decode_state(record: CheckpointRecord) -> ReplayState:
    """Parse a checkpoint record's header; the memory image stays in the
    record's pages, shared rather than copied."""
    head = record.prefix(_LEN.size)
    if len(head) < _LEN.size:
        raise LogFormatError("checkpoint payload truncated")
    end = _LEN.size + _LEN.unpack(head)[0]
    raw = record.prefix(end)
    if len(raw) < end:
        raise LogFormatError("checkpoint payload truncated in header")
    try:
        header = json.loads(raw[_LEN.size:].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise LogFormatError(f"corrupt checkpoint header: {exc}") from exc
    version = header.get("version") if isinstance(header, dict) else None
    if version != STATE_VERSION:
        raise LogFormatError(f"unsupported checkpoint state version {version}")
    full, partial = divmod(record.size - end, CHECKPOINT_PAGE)
    memory = record.pages[:full]
    if partial:
        memory += (record.pages[full][-partial:],)
    return ReplayState(position=header["position"], header=header,
                       memory=memory)


def state_digest(state: ReplayState) -> str:
    """The digest a checkpoint record of a captured ``state`` carries.
    It hashes every page of the memory image; seams compare pages with
    :func:`state_mismatch` instead."""
    return state_record(state).digest


def state_mismatch(state: ReplayState,
                   record: CheckpointRecord) -> str | None:
    """Where a captured ``state`` first differs from checkpoint
    ``record``'s payload: its header or a page of its memory image, named
    by index and address. None when they are equal. Compares bytes and
    hashes nothing."""
    header = _header_bytes(state)
    if record.size != len(header) + len(state.memory) \
            or record.prefix(len(header)) != header:
        return "the header (thread, kernel and statistics state)"
    for index, (page, recorded) in enumerate(
            zip(payload_pages(header, state.memory), record.pages)):
        if page != recorded:
            address = max(0, len(state.memory) - (index + 1) * CHECKPOINT_PAGE)
            return f"page {index} (memory address {address:#x})"
    return None


# -- restore -----------------------------------------------------------------

def restore_replayer(recording: Recording, state: ReplayState,
                     telemetry: Telemetry | None = None,
                     schedule: list | None = None,
                     decode_cache: bool = True) -> Replayer:
    """A replayer positioned exactly as one that serially replayed
    ``state.position`` chunks of ``recording``. ``schedule``, when given,
    is ``recording``'s validated chunk schedule (see :class:`Replayer`)."""
    replayer = Replayer(recording, telemetry=telemetry, schedule=schedule,
                        decode_cache=decode_cache)
    start = time.perf_counter()
    _write_image(replayer.memory, state.memory)
    # The fresh replayer's deques hold every event; only its main thread
    # context, replaced below, refers to one.
    events_by_thread = replayer._events_by_thread
    replayer.threads = {}
    for key in sorted(state.header["threads"], key=int):
        rthread = int(key)
        data = state.header["threads"][key]
        engine = Engine(recording.program, decode_cache=decode_cache)
        engine.restore_arch(data["engine"])
        withheld = WithheldStores(replayer.memory)
        withheld.restore(data["withheld"])
        port = ReplayPort(replayer.memory, withheld)
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
    replayer._chunks_restored = stats.chunks
    replayer._next_index = state.position
    if replayer.telemetry.enabled:
        metrics = replayer.telemetry.metrics
        metrics.counter("replay.checkpoint_restores").inc()
        metrics.histogram("replay.checkpoint_restore_us").observe(
            (time.perf_counter() - start) * 1e6)
    return replayer


def _write_image(memory: PhysicalMemory,
                 image: bytes | memoryview | tuple[bytes, ...]) -> None:
    """Overwrite all of ``memory`` with a state's memory image: one buffer,
    or pages counted from the image's end."""
    pages = image if isinstance(image, tuple) else (image,)
    end = sum(map(len, pages))
    if end != memory.size:
        raise LogFormatError(
            f"checkpoint memory image is {end} bytes, memory is "
            f"{memory.size}")
    with memory.view() as view:
        for page in pages:
            view[end - len(page):end] = page
            end -= len(page)


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
    return decode_state(record)


def base_replayer(recording: Recording,
                  telemetry: Telemetry | None = None,
                  schedule: list | None = None,
                  decode_cache: bool = True) -> Replayer:
    """A replayer at position 0 of ``recording`` — fresh for ordinary
    recordings, restored from the embedded window-origin state for
    materialized flight windows. Every "replay from the start" path must
    come through here."""
    state = flight_base_state(recording)
    if state is None:
        return Replayer(recording, telemetry=telemetry, schedule=schedule,
                        decode_cache=decode_cache)
    return restore_replayer(recording, state, telemetry=telemetry,
                            schedule=schedule, decode_cache=decode_cache)


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
            # Live memory is compared against the previous record's pages:
            # only changed pages are copied and hashed.
            records.append(state_record(capture_state(replayer, copy=False),
                                        records[-1] if records else None))
    replayer.result()
    if telemetry is not None and telemetry.enabled:
        metrics = telemetry.metrics
        metrics.gauge("checkpoint.count").set(len(records))
        metrics.gauge("checkpoint.interval_chunks").set(every)
        metrics.gauge("checkpoint.raw_bytes").set(
            sum(record.size for record in records))
        metrics.gauge("checkpoint.build_us").set(
            round((time.perf_counter() - start) * 1e6))
        telemetry.tracer.instant(
            "checkpoint.build", cat="checkpoint",
            args={"count": len(records), "every": every})
    return records


# -- seek --------------------------------------------------------------------

def replayer_from(recording: Recording, record: CheckpointRecord | None,
                  telemetry: Telemetry | None = None,
                  schedule: list | None = None,
                  decode_cache: bool = True) -> Replayer:
    """A replayer at ``record``'s position: restored from it, or at
    :func:`base_replayer` when there is no record or it sits at position 0
    (for a flight window, that record is the window-origin state
    :func:`base_replayer` restores). ``schedule`` is as for
    :func:`restore_replayer`."""
    if record is None or record.position == 0:
        return base_replayer(recording, telemetry=telemetry,
                             schedule=schedule, decode_cache=decode_cache)
    return restore_replayer(recording, decode_state(record),
                            telemetry=telemetry, schedule=schedule,
                            decode_cache=decode_cache)


def replayer_at(recording: Recording, position: int,
                telemetry: Telemetry | None = None,
                decode_cache: bool = True) -> Replayer:
    """A replayer at ``position`` in O(interval): restore the nearest
    embedded checkpoint at or before it, then step the remainder."""
    total = len(recording.chunks)
    if position < 0 or position > total:
        raise ReproError(f"position {position} outside [0, {total}]")
    replayer = replayer_from(recording, recording.nearest_checkpoint(position),
                             telemetry=telemetry, decode_cache=decode_cache)
    while replayer.position < position:
        if replayer.step_chunk() is None:
            raise ReproError(
                f"replay ended at {replayer.position} before requested "
                f"position {position}")
    return replayer
