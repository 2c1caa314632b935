"""Time-travel inspection of a recording — the RnR debugging use case.

:class:`ReplayInspector` wraps the replayer's incremental interface with
the operations a deterministic debugger needs: step chunk by chunk, run
until a timestamp or a predicate, watch a memory word for change, and
inspect per-thread architectural state and (committed or thread-visible)
memory at any point. Because replay is a pure function of the recording,
any position is revisitable by constructing a fresh inspector — time
travel by re-execution, exactly how the paper frames RnR-based debugging.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable

from ..capo.recording import Recording
from ..errors import ReproError
from ..mrr.chunk import ChunkEntry
from .replayer import Replayer


def _clone_replayer(replayer: Replayer) -> Replayer:
    """Deep-copy replay state while sharing the immutable recording,
    program and schedule (checkpointing would be prohibitive otherwise)."""
    memo = {
        id(replayer.recording): replayer.recording,
        id(replayer.recording.program): replayer.recording.program,
        id(replayer.schedule): replayer.schedule,
        id(replayer.config): replayer.config,
    }
    return copy.deepcopy(replayer, memo)


@dataclass(frozen=True)
class ThreadView:
    """A thread's architectural state at the current replay position."""

    rthread: int
    pc: int
    retired: int
    regs: tuple[int, ...]
    withheld_stores: int
    completed_chunks: int
    finished: bool


@dataclass(frozen=True)
class WatchHit:
    """A watched word changed while replaying ``chunk``."""

    address: int
    old_value: int
    new_value: int
    chunk: ChunkEntry
    chunk_index: int


class ReplayInspector:
    """Drive a replay interactively over a :class:`Recording`.

    With ``checkpoint_every`` set, the inspector snapshots replay state
    periodically while moving forward, and :meth:`seek` can then travel
    *backwards* by restoring the nearest earlier checkpoint and re-stepping
    — the standard RnR debugger implementation of reverse execution.
    """

    def __init__(self, recording: Recording, checkpoint_every: int = 0):
        if checkpoint_every < 0:
            raise ReproError("checkpoint_every must be >= 0")
        self.recording = recording
        self._replayer = self._fresh_replayer()
        self._checkpoint_every = checkpoint_every
        # position -> frozen Replayer snapshot (position 0 is implicit:
        # a fresh Replayer). Checkpoints *embedded* in the recording are
        # used as additional seek bases without being materialized here.
        self._checkpoints: dict[int, Replayer] = {}

    def _maybe_checkpoint(self) -> None:
        if not self._checkpoint_every:
            return
        position = self._replayer.position
        if position % self._checkpoint_every == 0 \
                and position not in self._checkpoints:
            self._checkpoints[position] = _clone_replayer(self._replayer)

    def seek(self, index: int) -> None:
        """Move to ``position == index``, travelling backwards if needed.

        Backward seeks restore the nearest checkpoint at or before
        ``index`` — either one of this inspector's in-memory snapshots or
        one embedded in the recording, whichever is closer — or replay
        from scratch, then re-step. Far-forward seeks likewise jump over
        an embedded checkpoint instead of stepping the whole way. Replay
        determinism makes the restored states identical to the originals.
        """
        if index < 0 or index > self.total_chunks:
            raise ReproError(f"seek target {index} outside [0, "
                             f"{self.total_chunks}]")
        embedded = self.recording.nearest_checkpoint(index)
        embedded_pos = embedded.position if embedded else 0
        if index < self.position:
            in_memory = max((p for p in self._checkpoints if p <= index),
                            default=0)
            if embedded_pos > in_memory:
                self._replayer = self._restore_embedded(embedded)
            elif in_memory:
                self._replayer = _clone_replayer(self._checkpoints[in_memory])
            else:
                self._replayer = self._fresh_replayer()
        elif embedded_pos > self.position:
            self._replayer = self._restore_embedded(embedded)
        self.run_to_index(index)

    def _fresh_replayer(self) -> Replayer:
        # base_replayer: a flight window's position 0 is its embedded
        # ring-base state, not a fresh Replayer.
        from .checkpoint import base_replayer
        return base_replayer(self.recording)

    def _restore_embedded(self, record) -> Replayer:
        from .checkpoint import decode_state, restore_replayer
        if record.position == 0:
            return self._fresh_replayer()
        return restore_replayer(self.recording, decode_state(record.payload))

    @property
    def checkpoints(self) -> list[int]:
        return sorted(self._checkpoints)

    # -- position ------------------------------------------------------------

    @property
    def position(self) -> int:
        """Chunks replayed so far (index of the next chunk)."""
        return self._replayer.position

    @property
    def total_chunks(self) -> int:
        return len(self._replayer.schedule)

    @property
    def finished(self) -> bool:
        return self._replayer.finished

    def next_chunk(self) -> ChunkEntry | None:
        """The chunk :meth:`step` would replay, without replaying it."""
        if self.finished:
            return None
        return self._replayer.schedule[self.position]

    # -- movement --------------------------------------------------------------

    def _step_one(self) -> ChunkEntry | None:
        chunk = self._replayer.step_chunk()
        if chunk is not None:
            self._maybe_checkpoint()
        return chunk

    def step(self, count: int = 1) -> list[ChunkEntry]:
        """Replay up to ``count`` chunks; returns the chunks replayed."""
        if count < 0:
            raise ReproError("step count must be non-negative; use seek() "
                             "to travel backwards")
        replayed = []
        for _ in range(count):
            chunk = self._step_one()
            if chunk is None:
                break
            replayed.append(chunk)
        return replayed

    def run_until(self, predicate: Callable[[ChunkEntry], bool],
                  ) -> ChunkEntry | None:
        """Replay until a just-replayed chunk satisfies ``predicate``.

        Returns that chunk, or None if the log ends first.
        """
        while True:
            chunk = self._step_one()
            if chunk is None:
                return None
            if predicate(chunk):
                return chunk

    def run_to_timestamp(self, timestamp: int) -> ChunkEntry | None:
        """Replay through the first chunk with timestamp >= ``timestamp``."""
        return self.run_until(lambda chunk: chunk.timestamp >= timestamp)

    def run_to_index(self, index: int) -> None:
        """Replay until ``position == index`` (no-op if already past)."""
        while self.position < index and self._step_one():
            pass

    def run_to_end(self):
        """Replay the rest and return the verified ReplayResult."""
        while self._step_one() is not None:
            pass
        return self._replayer.result()

    def watch_word(self, address: int) -> WatchHit | None:
        """Replay until the committed word at ``address`` changes.

        Returns the hit (with before/after values and the responsible
        chunk), or None if it never changes again.
        """
        old = self.read_word(address)
        while True:
            index = self.position
            chunk = self._step_one()
            if chunk is None:
                return None
            new = self.read_word(address)
            if new != old:
                return WatchHit(address=address, old_value=old,
                                new_value=new, chunk=chunk,
                                chunk_index=index)

    # -- state inspection ------------------------------------------------------

    def resolve(self, symbol_or_address: str | int, index: int = 0) -> int:
        """Turn a data symbol (plus word index) or raw address into an
        address."""
        if isinstance(symbol_or_address, str):
            base = self.recording.program.symbol(symbol_or_address)
        else:
            base = symbol_or_address
        return base + 4 * index

    def read_word(self, symbol_or_address: str | int, index: int = 0) -> int:
        """Globally committed value of a word (withheld stores excluded)."""
        return self._replayer.memory.read_word(
            self.resolve(symbol_or_address, index))

    def thread_word(self, rthread: int, symbol_or_address: str | int,
                    index: int = 0) -> int:
        """The value ``rthread`` would load right now — its withheld
        (TSO-pending) stores forward over committed memory.

        Reading never changes replay state: nothing commits, and an
        instrumented port records no access."""
        ctx = self._ctx(rthread)
        return ctx.withheld.peek(self.resolve(symbol_or_address, index), 4)

    def thread_view(self, rthread: int) -> ThreadView:
        ctx = self._ctx(rthread)
        engine = ctx.engine
        return ThreadView(
            rthread=rthread,
            pc=engine.pc,
            retired=engine.retired,
            regs=tuple(engine.regs),
            withheld_stores=len(ctx.withheld),
            completed_chunks=ctx.completed_chunks,
            finished=ctx.finished,
        )

    def threads(self) -> list[int]:
        """R-threads that exist at the current position."""
        return sorted(self._replayer.threads)

    def outputs_so_far(self) -> dict[str, bytes]:
        return self._replayer.outputs_so_far()

    def disassemble_at(self, rthread: int, window: int = 3) -> str:
        """The instructions around ``rthread``'s current pc."""
        engine = self._ctx(rthread).engine
        program = self.recording.program
        lines = []
        for pc in range(max(0, engine.pc - window),
                        min(len(program), engine.pc + window + 1)):
            marker = "->" if pc == engine.pc else "  "
            lines.append(f"{marker} {pc:5d}  {program.instructions[pc]}")
        return "\n".join(lines)

    def _ctx(self, rthread: int):
        ctx = self._replayer.threads.get(rthread)
        if ctx is None:
            raise ReproError(
                f"rthread {rthread} does not exist at chunk {self.position} "
                f"(known: {self.threads()})")
        return ctx
