"""The recording bundle: everything replay is allowed to see.

A recording contains the program image, the configuration it ran under, the
chunk log, the input-event log, optional embedded checkpoints (periodic
snapshots of deterministic replay state, see
:mod:`repro.replay.checkpoint`), and verification metadata (final memory
digest, output file contents, exit codes). Notably it does *not* contain
the scheduler or interleaver seeds — if replay needed those, the logs would
not be capturing the nondeterminism.

Bundles round-trip to a directory::

    rec/
      manifest.json    config + metadata + log sizes
      program.json     the exact program image
      input.bin        input-event log
      chunks.bin       packed chunk log (raw format)
      chunks.qrz       compressed chunk log (when enabled)
      checkpoints.bin  page-delta checkpoint section (when present)

Loading is *lazy*: ``Recording.load`` reads and validates only the
manifest and program image; each log section is read and decoded on first
access. ``quickrec``'s metadata-only paths (stats headers, manifest
summaries) therefore never pay for decompressing chunk payloads they do
not read, which matters once recordings reach millions of chunks.

Error contract: *everything* malformed raises
:class:`~repro.errors.LogFormatError` — a missing manifest, program image
or log section (the error names the offending directory), a truncated or
corrupt section payload, and any count mismatch against the manifest.
Callers handling damaged bundles (triage, crash capture, the flight
recorder) need exactly one except clause, never a raw ``FileNotFoundError``
or codec exception. ``save`` keeps the bundle self-consistent on re-save:
section files a previous save wrote but this save does not (checkpoints
dropped, compression toggled off) are removed rather than left stale.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Sequence

from ..config import SimConfig
from ..errors import ConfigError, LogFormatError
from ..isa.program import Program
from ..mrr.chunk import ChunkEntry
from ..mrr.compression import compress_chunks, decompress_chunks
from ..mrr.logfmt import (
    CheckpointRecord,
    decode_checkpoints,
    decode_chunks,
    encode_checkpoints,
    encode_chunks,
)
from .events import InputEvent
from .input_log import decode_events, encode_events

#: Metadata key marking a materialized flight window (see
#: :mod:`repro.flight`): replay must restore the embedded position-0
#: checkpoint instead of constructing a fresh replayer.
FLIGHT_META_KEY = "flight"

MANIFEST_NAME = "manifest.json"
PROGRAM_NAME = "program.json"
INPUT_NAME = "input.bin"
CHUNKS_NAME = "chunks.bin"
CHUNKS_COMPRESSED_NAME = "chunks.qrz"
CHECKPOINTS_NAME = "checkpoints.bin"
#: Bytes a checkpoint payload may hold beyond the memory image: its
#: length-prefixed JSON header (thread contexts, withheld stores, output
#: written so far). Loading rejects any checkpoint declaring more.
CHECKPOINT_HEADER_ALLOWANCE = 16 << 20


def _read_json(path: Path, what: str) -> Any:
    """Parse one JSON file of a bundle; a missing, truncated or non-UTF-8
    file raises :class:`LogFormatError` naming ``what`` and the bundle."""
    try:
        return json.loads(path.read_bytes().decode("utf-8"))
    except FileNotFoundError as exc:
        raise LogFormatError(f"no {what} in {path.parent}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise LogFormatError(
            f"malformed {what} in {path.parent}: {exc}") from exc


class Recording:
    """A complete, self-contained recording of one run.

    ``chunks``, ``events`` and ``checkpoints`` may be passed either as
    materialized lists (the in-memory recorder path) or as zero-argument
    loader callables (the lazy ``load`` path); the corresponding property
    forces a loader exactly once.
    """

    def __init__(self, config: SimConfig, program: Program,
                 chunks: list[ChunkEntry] | Callable[[], list[ChunkEntry]],
                 events: list[InputEvent] | Callable[[], list[InputEvent]],
                 metadata: dict[str, Any] | None = None,
                 checkpoints: Sequence[CheckpointRecord]
                 | Callable[[], list[CheckpointRecord]] | None = None):
        self.config = config
        self.program = program
        self.metadata: dict[str, Any] = metadata if metadata is not None else {}
        self._chunks = chunks
        self._events = events
        self._checkpoints = list(checkpoints) \
            if isinstance(checkpoints, (list, tuple)) \
            else (checkpoints if checkpoints is not None else [])

    # -- lazy sections -----------------------------------------------------------

    @property
    def chunks(self) -> list[ChunkEntry]:
        if callable(self._chunks):
            self._chunks = self._chunks()
        return self._chunks

    @chunks.setter
    def chunks(self, value: list[ChunkEntry]) -> None:
        self._chunks = value

    @property
    def events(self) -> list[InputEvent]:
        if callable(self._events):
            self._events = self._events()
        return self._events

    @events.setter
    def events(self, value: list[InputEvent]) -> None:
        self._events = value

    @property
    def checkpoints(self) -> list[CheckpointRecord]:
        if callable(self._checkpoints):
            self._checkpoints = self._checkpoints()
        return self._checkpoints

    @checkpoints.setter
    def checkpoints(self, value: Sequence[CheckpointRecord]) -> None:
        self._checkpoints = list(value)

    @property
    def sections_loaded(self) -> dict[str, bool]:
        """Which log sections have been decoded so far (lazy-load probe)."""
        return {
            "chunks": not callable(self._chunks),
            "events": not callable(self._events),
            "checkpoints": not callable(self._checkpoints),
        }

    def replace(self, **changes: Any) -> "Recording":
        """A shallow clone with the given attributes replaced — the
        ``dataclasses.replace`` analogue for this (lazy, non-dataclass)
        bundle. Unforced loaders are shared, not forced."""
        clone = Recording(config=self.config, program=self.program,
                          chunks=self._chunks, events=self._events,
                          metadata=dict(self.metadata),
                          checkpoints=self._checkpoints)
        for key, value in changes.items():
            if not hasattr(clone, key):
                raise AttributeError(f"Recording has no attribute {key!r}")
            setattr(clone, key, value)
        return clone

    def checkpoint_at(self, position: int) -> CheckpointRecord | None:
        """The checkpoint recorded exactly at chunk-schedule ``position``."""
        for record in self.checkpoints:
            if record.position == position:
                return record
        return None

    def nearest_checkpoint(self, position: int) -> CheckpointRecord | None:
        """The latest checkpoint at or before ``position`` (None = start)."""
        best = None
        for record in self.checkpoints:
            if record.position <= position and (
                    best is None or record.position > best.position):
                best = record
        return best

    # -- derived sizes (the log-rate experiments) ----------------------------

    def chunk_log_bytes(self, version: int | None = None) -> int:
        """Encoded chunk-log size; ``version`` overrides the bundle's
        configured ``capo.chunk_log_version`` (for v1-vs-v2 comparisons)."""
        if version is None:
            version = self.config.capo.chunk_log_version
        return len(encode_chunks(self.chunks,
                                 with_load_hash=self.config.mrr.log_load_hash,
                                 version=version))

    def chunk_log_compressed_bytes(self, version: int | None = None) -> int:
        if version is None:
            version = self.config.capo.chunk_log_version
        return len(compress_chunks(self.chunks, version=version))

    def input_log_bytes(self, version: int | None = None) -> int:
        """Encoded input-log size; ``version`` as for chunk_log_bytes."""
        if version is None:
            version = self.config.capo.input_log_version
        return len(encode_events(self.events, version=version))

    def total_log_bytes(self) -> int:
        return self.chunk_log_bytes() + self.input_log_bytes()

    def checkpoint_log_bytes(self) -> int:
        return len(encode_checkpoints(self.checkpoints)) \
            if self.checkpoints else 0

    def chunks_of(self, rthread: int) -> list[ChunkEntry]:
        return [chunk for chunk in self.chunks if chunk.rthread == rthread]

    def events_of(self, rthread: int) -> list[InputEvent]:
        return [event for event in self.events if event.rthread == rthread]

    def rthreads(self) -> list[int]:
        return sorted({chunk.rthread for chunk in self.chunks})

    # -- persistence ------------------------------------------------------------

    def save(self, directory: str | Path) -> Path:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        with_hash = self.config.mrr.log_load_hash
        chunk_version = self.config.capo.chunk_log_version
        input_version = self.config.capo.input_log_version
        chunk_blob = encode_chunks(self.chunks, with_load_hash=with_hash,
                                   version=chunk_version)
        input_blob = encode_events(self.events, version=input_version)
        (directory / CHUNKS_NAME).write_bytes(chunk_blob)
        (directory / INPUT_NAME).write_bytes(input_blob)
        if self.config.capo.compress_chunk_log:
            (directory / CHUNKS_COMPRESSED_NAME).write_bytes(
                compress_chunks(self.chunks, version=chunk_version))
        else:
            # Re-saving into a directory whose previous occupant had the
            # section: a stale chunks.qrz would shadow nothing today (the
            # raw log wins on load) but diverges from this save's chunks
            # the moment chunks.bin is pruned. Same-name sections this
            # save does not write must not survive it.
            (directory / CHUNKS_COMPRESSED_NAME).unlink(missing_ok=True)
        if self.checkpoints:
            (directory / CHECKPOINTS_NAME).write_bytes(
                encode_checkpoints(self.checkpoints))
        else:
            # A stale checkpoints.bin against "checkpoint_count: 0" in the
            # fresh manifest makes the *next* load fail with a count
            # mismatch.
            (directory / CHECKPOINTS_NAME).unlink(missing_ok=True)
        manifest = {
            "format": "quickrec-recording",
            "version": 1,
            "config": self.config.to_dict(),
            "metadata": self.metadata,
            "chunk_count": len(self.chunks),
            "event_count": len(self.events),
            "checkpoint_count": len(self.checkpoints),
            "chunk_log_bytes": len(chunk_blob),
            "input_log_bytes": len(input_blob),
            "chunk_log_version": chunk_version,
            "input_log_version": input_version,
        }
        (directory / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2))
        (directory / PROGRAM_NAME).write_text(json.dumps(self.program.to_dict()))
        return directory

    @classmethod
    def load(cls, directory: str | Path) -> "Recording":
        directory = Path(directory)
        manifest = _read_json(directory / MANIFEST_NAME, "manifest")
        if (not isinstance(manifest, dict)
                or manifest.get("format") != "quickrec-recording"):
            raise LogFormatError("not a quickrec recording directory")
        try:
            config = SimConfig.from_dict(manifest["config"])
        except (KeyError, TypeError, AttributeError, ValueError,
                ConfigError) as exc:
            raise LogFormatError(
                f"bad config in manifest of {directory}: "
                f"{type(exc).__name__}: {exc}") from exc
        program = Program.from_dict(
            _read_json(directory / PROGRAM_NAME, "program image"))

        def load_chunks() -> list[ChunkEntry]:
            chunk_path = directory / CHUNKS_NAME
            if chunk_path.exists():
                chunks = decode_chunks(chunk_path.read_bytes())
            else:
                compressed = directory / CHUNKS_COMPRESSED_NAME
                if not compressed.exists():
                    raise LogFormatError(f"no chunk log in {directory}")
                chunks = decompress_chunks(compressed.read_bytes())
            if len(chunks) != manifest.get("chunk_count"):
                raise LogFormatError("chunk count mismatch against manifest")
            return chunks

        def load_events() -> list[InputEvent]:
            try:
                blob = (directory / INPUT_NAME).read_bytes()
            except FileNotFoundError as exc:
                raise LogFormatError(f"no input log in {directory}") from exc
            events = decode_events(blob)
            if len(events) != manifest.get("event_count"):
                raise LogFormatError("event count mismatch against manifest")
            return events

        def load_checkpoints() -> list[CheckpointRecord]:
            path = directory / CHECKPOINTS_NAME
            # Recordings made before the checkpoint section simply lack the
            # file (and the manifest key): that is a valid, empty section.
            if not path.exists():
                return []
            records = decode_checkpoints(
                path.read_bytes(),
                max_payload=config.machine.memory_bytes
                + CHECKPOINT_HEADER_ALLOWANCE)
            expected = manifest.get("checkpoint_count")
            if expected is not None and len(records) != expected:
                raise LogFormatError(
                    "checkpoint count mismatch against manifest")
            return records

        return cls(config=config, program=program, chunks=load_chunks,
                   events=load_events, metadata=manifest.get("metadata", {}),
                   checkpoints=load_checkpoints)
