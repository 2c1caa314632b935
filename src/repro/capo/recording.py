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
      program.qrp      the exact program image (QRPG: columnar header,
                       then its canonical JSON deflated)
      input.bin        input-event log (columnar QRIL v3)
      chunks.bin       packed chunk log (QRCL v1, what loading reads)
      chunks.qrz       compact chunk log (columnar QRCZ; loading reads it
                       when chunks.bin is absent)
      checkpoints.bin  page-delta checkpoint section (when present)

Bundles written before the deflated program image hold a plain
``program.json`` instead; ``load`` reads it when ``program.qrp`` is absent.

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
or codec exception.

``save`` is crash-consistent: it writes the whole bundle into a hidden
sibling directory and renames it into place, so the target holds either
the previous bundle or the new one, never new sections beside an old
manifest or stale sections a re-save dropped. It replaces only a
directory that is empty or holds nothing but bundle files.
"""

from __future__ import annotations

import json
import os
import shutil
import zlib
from pathlib import Path
from typing import Any, Callable, Sequence

from ..config import SimConfig
from ..errors import ConfigError, LogFormatError, ReproError
from ..isa.program import Program
from ..mrr import columnar
from ..mrr.chunk import ChunkEntry
from ..mrr.compression import compress_chunks, decompress_chunks
from ..mrr.logfmt import (
    VERSION as CHUNK_LOG_VERSION,
    CheckpointRecord,
    decode_checkpoints,
    decode_chunks,
    encode_checkpoints,
    encode_chunks,
    encoded_size,
)
from .events import InputEvent
from .input_log import (
    VERSION as INPUT_LOG_VERSION,
    decode_events,
    encode_events,
    encode_events_v1,
)

#: Metadata key marking a materialized flight window (see
#: :mod:`repro.flight`): replay must restore the embedded position-0
#: checkpoint instead of constructing a fresh replayer.
FLIGHT_META_KEY = "flight"

MANIFEST_NAME = "manifest.json"
PROGRAM_NAME = "program.qrp"
#: The plain-JSON program image of bundles written before ``program.qrp``.
PROGRAM_JSON_NAME = "program.json"
INPUT_NAME = "input.bin"
CHUNKS_NAME = "chunks.bin"
CHUNKS_COMPRESSED_NAME = "chunks.qrz"
CHECKPOINTS_NAME = "checkpoints.bin"
#: Every file a bundle directory may hold.
BUNDLE_NAMES = frozenset({MANIFEST_NAME, PROGRAM_NAME, PROGRAM_JSON_NAME,
                          INPUT_NAME, CHUNKS_NAME, CHUNKS_COMPRESSED_NAME,
                          CHECKPOINTS_NAME})
_PROGRAM_MAGIC = b"QRPG"
PROGRAM_VERSION = 1
#: Bytes a checkpoint payload may hold beyond the memory image: its
#: length-prefixed JSON header (thread contexts, withheld stores, output
#: written so far). Loading rejects any checkpoint declaring more.
CHECKPOINT_HEADER_ALLOWANCE = 16 << 20


def _sibling(directory: Path, purpose: str) -> Path:
    """An unused hidden path beside ``directory``, on the same file
    system, so renames between the two are atomic."""
    return directory.with_name(
        f".{directory.name}.{purpose}-{os.urandom(6).hex()}")


def _parse_json(raw: bytes, what: str, directory: Path) -> Any:
    """Parse one JSON document of a bundle; truncated or non-UTF-8 bytes
    raise :class:`LogFormatError` naming ``what`` and the bundle."""
    try:
        return json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise LogFormatError(
            f"malformed {what} in {directory}: {exc}") from exc


def _read_json(path: Path, what: str) -> Any:
    """Parse one JSON file of a bundle; a missing file raises
    :class:`LogFormatError` naming ``what`` and the bundle, as a malformed
    one does."""
    try:
        raw = path.read_bytes()
    except FileNotFoundError as exc:
        raise LogFormatError(f"no {what} in {path.parent}") from exc
    return _parse_json(raw, what, path.parent)


def encode_program(program: Program) -> bytes:
    """The ``program.qrp`` section: a columnar header declaring the
    inflated length, then ``program``'s canonical JSON deflated."""
    raw = json.dumps(program.to_dict()).encode("utf-8")
    return (columnar.header(_PROGRAM_MAGIC, PROGRAM_VERSION, 0, len(raw))
            + zlib.compress(raw, columnar.LEVEL))


def decode_program_json(blob: bytes) -> bytes:
    """Invert the deflate of :func:`encode_program`: the JSON bytes,
    never inflating past the header's declared length plus one byte."""
    what = "program image"
    if blob[:4] != _PROGRAM_MAGIC:
        raise LogFormatError(f"bad {what} magic")
    if len(blob) < columnar.FIXED_HEADER:
        raise LogFormatError(f"truncated {what} header")
    version, flags = blob[4], blob[5]
    if version != PROGRAM_VERSION:
        raise LogFormatError(f"unsupported {what} version {version}")
    if flags:
        raise LogFormatError(f"unknown {what} flags {flags:#x}")
    (size,), offset = columnar.read_fields(blob, 1, what)
    return columnar.inflate(blob[offset:], size, what)


def _load_program(directory: Path) -> Program:
    """The bundle's program image: ``program.qrp``, or the plain
    ``program.json`` of a bundle written before it."""
    what = "program image"
    path = directory / PROGRAM_NAME
    if path.exists():
        try:
            raw = decode_program_json(path.read_bytes())
        except LogFormatError as exc:
            raise LogFormatError(
                f"malformed {what} in {directory}: {exc}") from exc
        image = _parse_json(raw, what, directory)
    else:
        image = _read_json(directory / PROGRAM_JSON_NAME, what)
    try:
        return Program.from_dict(image)
    except LogFormatError as exc:
        raise LogFormatError(
            f"malformed {what} in {directory}: {exc}") from exc


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

    def chunk_log_bytes(self) -> int:
        """Size of the packed v1 chunk log (``chunks.bin``)."""
        return encoded_size(self.chunks,
                            with_load_hash=self.config.mrr.log_load_hash)

    def chunk_log_compressed_bytes(self) -> int:
        """Size of the compact chunk log (``chunks.qrz``)."""
        return len(compress_chunks(self.chunks))

    def input_log_bytes(self) -> int:
        """Size of the input log as saved (``input.bin``)."""
        return len(encode_events(self.events))

    def input_log_v1_bytes(self) -> int:
        """Size of the input log in the frozen v1 serialization."""
        return len(encode_events_v1(self.events))

    def total_log_bytes(self) -> int:
        return self.chunk_log_bytes() + self.input_log_bytes()

    def program_image_bytes(self) -> int:
        """Size of the program image as saved (``program.qrp``)."""
        return len(encode_program(self.program))

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
        """Write the bundle to ``directory``, replacing any bundle there
        only once the new one is complete (see the module docstring)."""
        directory = Path(directory)
        target = Path(os.path.abspath(directory))
        if target.exists():
            foreign = sorted(entry.name for entry in target.iterdir()
                             if entry.name not in BUNDLE_NAMES)
            if foreign:
                raise ReproError(
                    f"refusing to save over {directory}: it holds files "
                    f"that are not part of a recording bundle: "
                    f"{', '.join(foreign)}")
        target.parent.mkdir(parents=True, exist_ok=True)
        staging = _sibling(target, "saving")
        staging.mkdir()
        try:
            self._write_bundle(staging)
            if target.exists():
                # Between these renames the previous bundle survives
                # whole under its retired name.
                retired = _sibling(target, "replaced")
                os.rename(target, retired)
                try:
                    os.rename(staging, target)
                except OSError:
                    os.rename(retired, target)
                    raise
                shutil.rmtree(retired)
            else:
                os.rename(staging, target)
        finally:
            shutil.rmtree(staging, ignore_errors=True)
        return directory

    def _write_bundle(self, directory: Path) -> None:
        """Write every section and the manifest into the empty
        ``directory``."""
        chunk_blob = encode_chunks(
            self.chunks, with_load_hash=self.config.mrr.log_load_hash)
        input_blob = encode_events(self.events)
        (directory / CHUNKS_NAME).write_bytes(chunk_blob)
        (directory / CHUNKS_COMPRESSED_NAME).write_bytes(
            compress_chunks(self.chunks))
        (directory / INPUT_NAME).write_bytes(input_blob)
        if self.checkpoints:
            (directory / CHECKPOINTS_NAME).write_bytes(
                encode_checkpoints(self.checkpoints))
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
            "chunk_log_version": CHUNK_LOG_VERSION,
            "input_log_version": INPUT_LOG_VERSION,
        }
        (directory / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2))
        (directory / PROGRAM_NAME).write_bytes(encode_program(self.program))

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
        program = _load_program(directory)

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
            expected = manifest.get("checkpoint_count")
            if type(expected) is not int:
                raise LogFormatError(
                    "checkpoint section without an integer checkpoint_count "
                    "in the manifest")
            return decode_checkpoints(
                path.read_bytes(),
                max_payload=config.machine.memory_bytes
                + CHECKPOINT_HEADER_ALLOWANCE,
                count=expected)

        return cls(config=config, program=program, chunks=load_chunks,
                   events=load_events, metadata=manifest.get("metadata", {}),
                   checkpoints=load_checkpoints)
