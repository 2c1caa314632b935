import json
import zlib

import pytest

from repro import session, workloads
from repro.capo.recording import Recording
from repro.replay.parallel import replay_parallel
from repro.errors import LogFormatError


@pytest.fixture(scope="module")
def recording():
    program, inputs = workloads.build("counter", threads=2)
    return session.record(program, seed=3, input_files=inputs).recording


def test_save_load_round_trip(recording, tmp_path):
    recording.save(tmp_path / "rec")
    loaded = Recording.load(tmp_path / "rec")
    assert loaded.chunks == recording.chunks
    assert loaded.events == recording.events
    assert loaded.config == recording.config
    assert loaded.program.instructions == recording.program.instructions
    assert loaded.metadata == json.loads(json.dumps(recording.metadata))


def test_saved_layout(recording, tmp_path):
    directory = recording.save(tmp_path / "rec")
    names = {path.name for path in directory.iterdir()}
    assert {"manifest.json", "program.qrp", "input.bin", "chunks.bin"} <= names
    assert "chunks.qrz" in names  # the compact chunk log, always written
    assert "program.json" not in names  # the image is stored deflated


def test_compressed_chunk_fallback(recording, tmp_path):
    directory = recording.save(tmp_path / "rec")
    (directory / "chunks.bin").unlink()
    loaded = Recording.load(directory)
    assert loaded.chunks == recording.chunks  # stream order, not sorted


def test_load_missing_directory(tmp_path):
    with pytest.raises(LogFormatError):
        Recording.load(tmp_path / "nope")


def test_load_rejects_foreign_manifest(tmp_path):
    directory = tmp_path / "rec"
    directory.mkdir()
    (directory / "manifest.json").write_text(json.dumps({"format": "other"}))
    with pytest.raises(LogFormatError):
        Recording.load(directory)


def _forge_manifest(mutate):
    def forge(directory):
        path = directory / "manifest.json"
        path.write_text(json.dumps(mutate(json.loads(path.read_text()))))
    return forge


def _forge_capo(key, value):
    def mutate(manifest):
        manifest["config"]["capo"][key] = value
        return manifest
    return _forge_manifest(mutate)


def _truncate(name):
    def forge(directory):
        path = directory / name
        path.write_bytes(path.read_bytes()[:len(path.read_bytes()) // 2])
    return forge


@pytest.mark.parametrize("forge, match", [
    (_truncate("manifest.json"), "malformed manifest"),
    (lambda d: (d / "manifest.json").write_bytes(b'{"format": "\xff\xfe"}'),
     "malformed manifest"),
    (_forge_manifest(lambda m: [m]), "not a quickrec recording"),
    (_forge_manifest(lambda m: {k: v for k, v in m.items()
                                if k != "config"}), "bad config"),
    # a bundle saved while CapoConfig still had this knob
    (_forge_capo("input_batch_events", 0), "input_batch_events"),
    (_forge_capo("flight_window", -1), "flight_window"),
    (_truncate("program.qrp"), "malformed program image"),
], ids=["truncated-manifest", "non-utf8-manifest", "list-manifest",
        "no-config", "unknown-config-key", "out-of-range-config",
        "truncated-program"])
def test_malformed_manifest_or_program_is_log_format_error(
        recording, tmp_path, forge, match):
    directory = recording.save(tmp_path / "rec")
    forge(directory)
    with pytest.raises(LogFormatError, match=match):
        Recording.load(directory)


def _program_section(raw, magic=b"QRPG", version=1, flags=0, size=None,
                     body=None):
    """A ``program.qrp`` section holding the JSON bytes ``raw``; each
    keyword forges one part of it."""
    from repro.mrr.columnar import header

    return (header(magic, version, flags, len(raw) if size is None else size)
            + (zlib.compress(raw) if body is None else body))


def _image_json(directory):
    from repro.capo.recording import decode_program_json

    return decode_program_json((directory / "program.qrp").read_bytes())


def _forge_program(mutate):
    """Inflate the saved image, ``mutate`` its JSON, deflate it back."""
    def forge(directory):
        image = json.loads(_image_json(directory))
        mutate(image)
        (directory / "program.qrp").write_bytes(
            _program_section(json.dumps(image).encode()))
    return forge


def _forge_operand(kind, key, value):
    """Set ``key`` of the first operand of ``kind`` in the image."""
    def mutate(image):
        op = next(op for instr in image["instructions"]
                  for op in instr["ops"] if op["k"] == kind)
        op[key] = value
    return _forge_program(mutate)


@pytest.mark.parametrize("forge", [
    # register numbers: out of range, an alias of r15, not ints
    _forge_operand("r", "n", 99), _forge_operand("r", "n", -1),
    _forge_operand("r", "n", "x"), _forge_operand("r", "n", True),
    _forge_operand("r", "n", 1.0),
    _forge_operand("m", "b", 16), _forge_operand("m", "b", "0"),
    _forge_operand("m", "x", -1), _forge_operand("m", "x", False),
    # scales that compare equal to a valid one, and an invalid one
    _forge_operand("m", "s", 4.0), _forge_operand("m", "s", True),
    _forge_operand("m", "s", 3),
    # immediates and displacements that are not ints
    _forge_operand("m", "d", 1.5), _forge_operand("m", "d", "4"),
    _forge_operand("i", "v", "5"), _forge_operand("i", "v", 2.5),
    _forge_operand("i", "v", True),
    _forge_program(lambda image: image.update(entry=0.0)),
    _forge_program(lambda image: image["instructions"][0].update(ops=[[]])),
], ids=["reg-99", "reg-minus-1", "reg-str", "reg-bool", "reg-float",
        "base-16", "base-str", "index-minus-1", "index-bool",
        "scale-float", "scale-bool", "scale-3", "disp-float", "disp-str",
        "imm-str", "imm-float", "imm-bool", "entry-float",
        "operand-not-a-dict"])
def test_hostile_program_image_is_log_format_error(recording, tmp_path,
                                                    forge):
    """Operands are pasted into generated code: anything but a valid int
    must be refused when the bundle loads, not at replay."""
    directory = recording.save(tmp_path / "rec")
    forge(directory)
    with pytest.raises(LogFormatError, match="malformed"):
        Recording.load(directory)


def _with_section(make):
    """Replace the saved ``program.qrp`` by ``make(blob, raw)``, given
    the saved section and its JSON bytes."""
    def forge(directory):
        path = directory / "program.qrp"
        path.write_bytes(make(path.read_bytes(), _image_json(directory)))
    return forge


def _flip_body_byte(blob, raw):
    body = bytearray(blob[len(_program_section(raw, body=b"")):])
    body[len(body) // 2] ^= 0x40
    return _program_section(raw, body=bytes(body))


@pytest.mark.parametrize("forge, match", [
    (_with_section(lambda b, r: b"QRPX" + b[4:]), "bad program image magic"),
    (_with_section(lambda b, r: _program_section(r, version=2)),
     "unsupported program image version 2"),
    (_with_section(lambda b, r: _program_section(r, flags=1)),
     "unknown program image flags 0x1"),
    (_with_section(lambda b, r: b[:5]), "truncated program image header"),
    (_with_section(lambda b, r: b[:6]), "truncated program image header"),
    (_with_section(lambda b, r: b[:len(b) - 8]),
     "truncated program image body"),
    (_with_section(_flip_body_byte), "program image body"),
    (_with_section(lambda b, r: _program_section(r, size=len(r) - 1)),
     "inflates past its declared"),
    (_with_section(lambda b, r: _program_section(r, size=len(r) + 1)),
     "header declares"),
    (_with_section(lambda b, r: b + b"\x00"),
     "trailing bytes after program image body"),
    (_with_section(lambda b, r: _program_section(b'{"name": "\xff"}')),
     "malformed program image"),
    (_with_section(lambda b, r: _program_section(b"[1, 2]")),
     "malformed program payload"),
    (_with_section(lambda b, r: _program_section(b"{}")),
     "malformed program payload"),
], ids=["bad-magic", "bad-version", "bad-flags", "header-cut-in-fixed",
        "header-cut-in-length", "truncated-body", "bit-flipped-body",
        "declared-too-short", "declared-too-long", "trailing-bytes",
        "non-utf8-json", "json-list", "json-missing-fields"])
def test_hostile_program_section_is_log_format_error(recording, tmp_path,
                                                     forge, match):
    """Every malformed ``program.qrp`` names the program image and the
    bundle, whatever part of the section is forged."""
    directory = recording.save(tmp_path / "rec")
    forge(directory)
    with pytest.raises(LogFormatError, match=match) as error:
        Recording.load(directory)
    assert "program image" in str(error.value)
    assert str(directory) in str(error.value)


def test_program_section_inflate_bomb_is_refused_cheaply(recording, tmp_path):
    """A 64 KiB body that inflates to 64 MiB, behind a header declaring
    100 bytes: loading stops one byte past the declared length."""
    import tracemalloc

    directory = recording.save(tmp_path / "rec")
    deflater = zlib.compressobj(9)
    zeros = bytes(1 << 20)
    body = b"".join(deflater.compress(zeros) for _ in range(64)) \
        + deflater.flush()
    assert len(body) < 1 << 17
    (directory / "program.qrp").write_bytes(
        _program_section(b"", size=100, body=body))
    tracemalloc.start()
    try:
        with pytest.raises(LogFormatError,
                           match="inflates past its declared 100 bytes"):
            Recording.load(directory)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_program_section_round_trips_every_workload():
    from repro.capo.recording import decode_program_json, encode_program
    from repro.isa.program import Program

    for name in workloads.REGISTRY:
        program, _inputs = workloads.build(name)
        blob = encode_program(program)
        assert blob[:5] == b"QRPG\x01"
        image = json.loads(decode_program_json(blob))
        assert image == program.to_dict()
        assert Program.from_dict(image).to_dict() == program.to_dict()
        assert encode_program(program) == blob  # deterministic bytes


def test_manifest_count_mismatch_detected(recording, tmp_path):
    directory = recording.save(tmp_path / "rec")
    manifest = json.loads((directory / "manifest.json").read_text())
    manifest["chunk_count"] += 1
    (directory / "manifest.json").write_text(json.dumps(manifest))
    # sections decode lazily, so the mismatch surfaces at first access
    loaded = Recording.load(directory)
    with pytest.raises(LogFormatError):
        _ = loaded.chunks


def test_event_count_mismatch_detected(recording, tmp_path):
    directory = recording.save(tmp_path / "rec")
    manifest = json.loads((directory / "manifest.json").read_text())
    manifest["event_count"] += 1
    (directory / "manifest.json").write_text(json.dumps(manifest))
    loaded = Recording.load(directory)
    with pytest.raises(LogFormatError):
        _ = loaded.events


def test_sections_load_lazily(recording, tmp_path):
    directory = recording.save(tmp_path / "rec")
    loaded = Recording.load(directory)
    assert loaded.sections_loaded == {"chunks": False, "events": False,
                                      "checkpoints": False}
    # metadata-only surfaces force nothing
    assert loaded.metadata == recording.metadata
    assert loaded.config == recording.config
    assert loaded.sections_loaded["chunks"] is False
    _ = loaded.events
    assert loaded.sections_loaded == {"chunks": False, "events": True,
                                      "checkpoints": False}
    _ = loaded.chunks
    assert loaded.sections_loaded["chunks"] is True


def test_metadata_access_needs_no_chunk_log(recording, tmp_path):
    """Regression: stats/inspect paths that only read the manifest must
    not decode (or even require) the chunk payloads."""
    directory = recording.save(tmp_path / "rec")
    (directory / "chunks.bin").unlink()
    (directory / "chunks.qrz").unlink()
    loaded = Recording.load(directory)
    assert loaded.metadata["final_memory_digest"]
    assert loaded.program.instructions == recording.program.instructions
    with pytest.raises(LogFormatError):
        _ = loaded.chunks  # the missing section errors only when forced


def test_in_memory_recording_sections_are_eager(recording):
    assert recording.sections_loaded == {"chunks": True, "events": True,
                                         "checkpoints": True}


def test_size_helpers(recording, tmp_path):
    assert recording.chunk_log_bytes() > 0
    assert recording.input_log_bytes() > 0
    assert recording.total_log_bytes() == (recording.chunk_log_bytes()
                                           + recording.input_log_bytes())
    assert recording.chunk_log_compressed_bytes() < recording.chunk_log_bytes()
    assert recording.input_log_bytes() < recording.input_log_v1_bytes()
    # the helpers report what save writes
    directory = recording.save(tmp_path / "rec")
    sizes = {path.name: path.stat().st_size for path in directory.iterdir()}
    assert sizes["chunks.bin"] == recording.chunk_log_bytes()
    assert sizes["chunks.qrz"] == recording.chunk_log_compressed_bytes()
    assert sizes["input.bin"] == recording.input_log_bytes()
    assert sizes["program.qrp"] == recording.program_image_bytes()


def test_thread_slicing(recording):
    rthreads = recording.rthreads()
    assert rthreads == [1, 2]
    total = sum(len(recording.chunks_of(rt)) for rt in rthreads)
    assert total == len(recording.chunks)
    for rt in rthreads:
        assert all(event.rthread == rt for event in recording.events_of(rt))


def test_replay_of_loaded_recording(recording, tmp_path):
    directory = recording.save(tmp_path / "rec")
    loaded = Recording.load(directory)
    result = session.replay_recording(loaded)
    assert result.final_memory_digest == recording.metadata["final_memory_digest"]


# -- the compact sections and older bundles ---------------------------------

@pytest.fixture(scope="module")
def recording_v2():
    """The fixture's run recorded with load hashes in the chunk log."""
    import dataclasses

    from repro.config import MRRConfig, SimConfig

    program, inputs = workloads.build("counter", threads=2)
    config = dataclasses.replace(SimConfig(),
                                 mrr=MRRConfig(log_load_hash=True))
    return session.record(program, seed=3, input_files=inputs,
                          config=config).recording


def test_v2_save_load_round_trip(recording_v2, recording, tmp_path):
    recording_v2.save(tmp_path / "rec2")
    loaded = Recording.load(tmp_path / "rec2")
    assert loaded.chunks == recording_v2.chunks
    assert loaded.events == recording_v2.events
    assert all(chunk.load_hash is not None for chunk in loaded.chunks)
    # load hashes are an observer: the run itself is the fixture's
    assert loaded.events == recording.events
    assert [c.sort_key for c in loaded.chunks] == \
        [c.sort_key for c in recording.chunks]


def test_v2_manifest_records_versions(recording, tmp_path):
    directory = recording.save(tmp_path / "m")
    manifest = json.loads((directory / "manifest.json").read_text())
    assert (manifest["input_log_version"],
            manifest["chunk_log_version"]) == (3, 1)
    assert (directory / "input.bin").read_bytes()[4] == 3
    assert (directory / "chunks.bin").read_bytes()[4] == 1
    assert not set(manifest["config"]["capo"]) & {
        "compress_chunk_log", "input_log_version", "chunk_log_version"}


def test_v2_bundle_is_smaller(recording, tmp_path):
    from repro.capo.input_log import encode_events_v1

    directory = recording.save(tmp_path / "s")
    compact = (directory / "chunks.qrz").stat().st_size \
        + (directory / "input.bin").stat().st_size
    v1 = (directory / "chunks.bin").stat().st_size \
        + len(encode_events_v1(recording.events))
    assert compact < v1


def test_v2_compressed_fallback_load(recording_v2, tmp_path):
    # chunks.qrz alone carries the load hashes too
    directory = tmp_path / "fb2"
    recording_v2.save(directory)
    (directory / "chunks.bin").unlink()
    loaded = Recording.load(directory)
    assert loaded.chunks == recording_v2.chunks


def _write_pre_v3_bundle(recording, directory, version=1):
    """``recording`` as bundles were written before the columnar input
    log: packed chunks.bin, v1 input.bin, no chunks.qrz, and a manifest
    whose config carries every retired key."""
    from repro.capo.input_log import encode_events_v1
    from repro.mrr.logfmt import encode_chunks

    directory.mkdir()
    chunk_blob = bytearray(encode_chunks(recording.chunks))
    input_blob = bytearray(encode_events_v1(recording.events))
    chunk_blob[4] = input_blob[4] = version
    (directory / "chunks.bin").write_bytes(chunk_blob)
    (directory / "input.bin").write_bytes(input_blob)
    config = recording.config.to_dict()
    config["machine"]["word_bytes"] = 4
    config["kernel"]["stack_bytes_per_thread"] = 16 * 1024
    config["capo"].update(compress_chunk_log=True,
                          input_log_version=version,
                          chunk_log_version=version,
                          log_copy_to_user=True,
                          drain_on_context_switch=True)
    manifest = {
        "format": "quickrec-recording",
        "version": 1,
        "config": config,
        "metadata": recording.metadata,
        "chunk_count": len(recording.chunks),
        "event_count": len(recording.events),
        "checkpoint_count": 0,
        "chunk_log_bytes": len(chunk_blob),
        "input_log_bytes": len(input_blob),
        "chunk_log_version": version,
        "input_log_version": version,
    }
    (directory / "manifest.json").write_text(json.dumps(manifest))
    (directory / "program.json").write_text(
        json.dumps(recording.program.to_dict()))
    return directory


def test_pre_v3_bundle_loads_identically(recording, tmp_path):
    loaded = Recording.load(_write_pre_v3_bundle(recording, tmp_path / "old"))
    assert loaded.config == recording.config
    assert loaded.chunks == recording.chunks
    assert loaded.events == recording.events
    result = session.replay_recording(loaded)
    assert result.final_memory_digest == \
        recording.metadata["final_memory_digest"]


def test_pre_v3_bundle_resaves_with_the_deflated_image(recording, tmp_path):
    """A bundle holding a plain ``program.json`` replays as the recording
    does, and saving over it leaves the deflated image alone."""
    reference = session.replay_recording(recording).digest()
    directory = _write_pre_v3_bundle(recording, tmp_path / "old")
    old = Recording.load(directory)
    assert old.program.to_dict() == recording.program.to_dict()
    assert session.replay_recording(old).digest() == reference
    old.save(directory)
    names = {path.name for path in directory.iterdir()}
    assert "program.qrp" in names and "program.json" not in names
    resaved = Recording.load(directory)
    assert resaved.program.to_dict() == recording.program.to_dict()
    assert session.replay_recording(resaved).digest() == reference


def test_bundle_saved_with_log_version_2_names_it(recording, tmp_path):
    loaded = Recording.load(
        _write_pre_v3_bundle(recording, tmp_path / "v2", version=2))
    with pytest.raises(LogFormatError,
                       match="unsupported chunk stream version 2"):
        loaded.chunks
    with pytest.raises(LogFormatError,
                       match="unsupported input log version 2"):
        loaded.events


# -- lifecycle regressions ----------------------------------------------------
# Pruned bundles must fail with the format error contract, and re-saving
# over an existing bundle must not leave stale section files behind.


def test_load_missing_program_image_is_log_format_error(recording, tmp_path):
    directory = recording.save(tmp_path / "rec")
    (directory / "program.qrp").unlink()  # and no plain program.json
    with pytest.raises(LogFormatError, match="no program image"):
        Recording.load(directory)


def test_load_missing_input_log_is_log_format_error(recording, tmp_path):
    directory = recording.save(tmp_path / "rec")
    (directory / "input.bin").unlink()
    loaded = Recording.load(directory)  # sections are lazy: load succeeds
    with pytest.raises(LogFormatError, match="no input log"):
        loaded.events
    # the error names the bundle so the user knows *which* one is pruned
    with pytest.raises(LogFormatError, match=str(directory)):
        loaded.events


def test_resave_removes_stale_checkpoint_section(recording, tmp_path):
    import copy

    from repro.mrr.logfmt import CheckpointRecord

    rec = copy.copy(recording)
    rec.checkpoints = [CheckpointRecord.for_payload(0, b"state")]
    directory = rec.save(tmp_path / "rec")
    assert (directory / "checkpoints.bin").exists()

    rec.checkpoints = []
    rec.save(directory)
    assert not (directory / "checkpoints.bin").exists()
    loaded = Recording.load(directory)
    assert loaded.checkpoints == []


def test_resave_removes_stale_compressed_chunks(recording, tmp_path):
    # re-saving a different recording over a bundle replaces chunks.qrz,
    # so the compact-only load never sees the old occupant's chunks
    directory = recording.save(tmp_path / "rec")
    shorter = recording.replace(chunks=recording.chunks[:5])
    shorter.save(directory)
    (directory / "chunks.bin").unlink()
    assert Recording.load(directory).chunks == recording.chunks[:5]


def test_forged_checkpoint_declaring_4gib_rejected_cheaply(recording,
                                                           tmp_path):
    """A 60-byte checkpoint section whose one record stores no pages but
    declares a 4 GiB payload: loading must refuse it before building the
    zero pages, far above the bundle's memory size."""
    import copy
    import struct
    import tracemalloc

    from repro.mrr.logfmt import CheckpointRecord

    rec = copy.copy(recording)
    rec.checkpoints = [CheckpointRecord.for_payload(0, b"state")]
    directory = rec.save(tmp_path / "rec")
    forged = (struct.pack("<4sBBHI", b"QRCK", 3, 0, 0, 1)
              + struct.pack("<IIII32s", 0, 0xFFFFFFFF, 0, 0, bytes(32)))
    assert len(forged) == 60
    (directory / "checkpoints.bin").write_bytes(forged)
    loaded = Recording.load(directory)
    tracemalloc.start()
    try:
        with pytest.raises(LogFormatError, match="over the .*-byte bound"):
            loaded.checkpoints
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_forged_checkpoint_count_rejected_cheaply(recording, tmp_path):
    """A section of 1,000 record headers that store no pages, each
    declaring a full-memory payload of zeros, against a manifest that
    declares one checkpoint: loading must refuse it before building any
    payload (unbounded, that is 1,000 full memory images)."""
    import copy
    import hashlib
    import struct
    import tracemalloc

    from repro.mrr.logfmt import CheckpointRecord

    rec = copy.copy(recording)
    rec.checkpoints = [CheckpointRecord.for_payload(1, b"state")]
    directory = rec.save(tmp_path / "rec")
    size = rec.config.machine.memory_bytes
    digest = hashlib.sha256(bytes(size)).digest()
    forged = struct.pack("<4sBBHI", b"QRCK", 3, 0, 0, 1000) + b"".join(
        struct.pack("<IIII32s", position, size, 0, 0, digest)
        for position in range(1, 1001))
    (directory / "checkpoints.bin").write_bytes(forged)
    loaded = Recording.load(directory)
    tracemalloc.start()
    try:
        with pytest.raises(LogFormatError, match="declares 1000 records"):
            loaded.checkpoints
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# -- crash-consistent save ----------------------------------------------------

def test_interrupted_resave_keeps_the_previous_bundle(recording, tmp_path,
                                                      monkeypatch):
    """A re-save that fails part-way, here while encoding the checkpoint
    section after the logs are written, leaves the previous bundle whole
    and nothing beside it."""
    from repro.capo import recording as recording_module
    from repro.replay.checkpoint import build_checkpoints

    rec = recording.replace()
    rec.checkpoints = build_checkpoints(rec, every=len(rec.chunks) // 3)
    directory = rec.save(tmp_path / "rec")

    def fail(records):
        raise OSError("disk full")

    monkeypatch.setattr(recording_module, "encode_checkpoints", fail)
    newer = rec.replace(chunks=rec.chunks[:5], metadata={"note": "newer"})
    with pytest.raises(OSError, match="disk full"):
        newer.save(directory)
    monkeypatch.undo()

    assert [path.name for path in tmp_path.iterdir()] == ["rec"]
    loaded = Recording.load(directory)
    assert loaded.metadata == json.loads(json.dumps(rec.metadata))
    assert loaded.chunks == rec.chunks
    assert loaded.checkpoints == rec.checkpoints  # digests verified
    result, _report = replay_parallel(recording=loaded, jobs=1)
    assert result.final_memory_digest == rec.metadata["final_memory_digest"]


def test_save_fills_an_existing_empty_directory(recording, tmp_path):
    directory = tmp_path / "rec"
    directory.mkdir()
    assert recording.save(directory) == directory
    assert Recording.load(directory).chunks == recording.chunks
    assert [path.name for path in tmp_path.iterdir()] == ["rec"]


def test_save_refuses_a_directory_with_foreign_files(recording, tmp_path):
    from repro.errors import ReproError

    directory = recording.save(tmp_path / "rec")
    (directory / "notes.txt").write_text("mine")
    with pytest.raises(ReproError, match="notes.txt"):
        recording.save(directory)
    assert (directory / "notes.txt").read_text() == "mine"
    assert Recording.load(directory).chunks == recording.chunks
