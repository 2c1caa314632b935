import json

import pytest

from repro import session, workloads
from repro.capo.recording import Recording
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
    assert {"manifest.json", "program.json", "input.bin", "chunks.bin"} <= names
    assert "chunks.qrz" in names  # compression enabled by default


def test_compressed_chunk_fallback(recording, tmp_path):
    directory = recording.save(tmp_path / "rec")
    (directory / "chunks.bin").unlink()
    loaded = Recording.load(directory)
    assert sorted(loaded.chunks, key=lambda c: c.sort_key) == \
           sorted(recording.chunks, key=lambda c: c.sort_key)


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
    (_truncate("program.json"), "malformed program image"),
], ids=["truncated-manifest", "non-utf8-manifest", "list-manifest",
        "no-config", "unknown-config-key", "out-of-range-config",
        "truncated-program"])
def test_malformed_manifest_or_program_is_log_format_error(
        recording, tmp_path, forge, match):
    directory = recording.save(tmp_path / "rec")
    forge(directory)
    with pytest.raises(LogFormatError, match=match):
        Recording.load(directory)


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


def test_size_helpers(recording):
    assert recording.chunk_log_bytes() > 0
    assert recording.input_log_bytes() > 0
    assert recording.total_log_bytes() == (recording.chunk_log_bytes()
                                           + recording.input_log_bytes())
    assert recording.chunk_log_compressed_bytes() < recording.chunk_log_bytes()


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


# -- versioned serialization -------------------------------------------------

@pytest.fixture(scope="module")
def recording_v2():
    import dataclasses

    from repro.config import CapoConfig, SimConfig

    program, inputs = workloads.build("counter", threads=2)
    config = dataclasses.replace(
        SimConfig(), capo=CapoConfig(input_log_version=2,
                                     chunk_log_version=2))
    return session.record(program, seed=3, input_files=inputs,
                          config=config).recording


def test_v2_save_load_round_trip(recording_v2, recording, tmp_path):
    recording_v2.save(tmp_path / "rec2")
    loaded = Recording.load(tmp_path / "rec2")
    assert loaded.chunks == recording_v2.chunks
    assert loaded.events == recording_v2.events
    # same run as the v1 fixture (same seed): decoding v2 must agree with
    # what the v1 bundle carries
    assert loaded.chunks == recording.chunks
    assert loaded.events == recording.events


def test_v2_manifest_records_versions(recording_v2, recording, tmp_path):
    import json

    recording.save(tmp_path / "m1")
    recording_v2.save(tmp_path / "m2")
    m1 = json.loads((tmp_path / "m1" / "manifest.json").read_text())
    m2 = json.loads((tmp_path / "m2" / "manifest.json").read_text())
    assert (m1["input_log_version"], m1["chunk_log_version"]) == (1, 1)
    assert (m2["input_log_version"], m2["chunk_log_version"]) == (2, 2)


def test_v2_bundle_is_smaller(recording_v2, recording, tmp_path):
    d1 = recording.save(tmp_path / "s1")
    d2 = recording_v2.save(tmp_path / "s2")
    v1_bytes = (d1 / "chunks.bin").stat().st_size \
        + (d1 / "input.bin").stat().st_size
    v2_bytes = (d2 / "chunks.bin").stat().st_size \
        + (d2 / "input.bin").stat().st_size
    assert v2_bytes < v1_bytes


def test_size_helpers_take_version_overrides(recording):
    assert recording.chunk_log_bytes(version=2) < \
        recording.chunk_log_bytes(version=1)
    assert recording.input_log_bytes(version=2) <= \
        recording.input_log_bytes(version=1)
    # no argument follows the bundle's config (v1 for this fixture)
    assert recording.chunk_log_bytes() == recording.chunk_log_bytes(version=1)


def test_v2_compressed_fallback_load(recording_v2, tmp_path):
    directory = tmp_path / "fb2"
    recording_v2.save(directory)
    (directory / "chunks.bin").unlink()
    loaded = Recording.load(directory)
    assert loaded.chunks == sorted(recording_v2.chunks,
                                   key=lambda c: c.sort_key)


# -- lifecycle regressions ----------------------------------------------------
# Pruned bundles must fail with the format error contract, and re-saving
# over an existing bundle must not leave stale section files behind.


def test_load_missing_program_image_is_log_format_error(recording, tmp_path):
    directory = recording.save(tmp_path / "rec")
    (directory / "program.json").unlink()
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
    import copy
    import dataclasses

    directory = recording.save(tmp_path / "rec")
    assert (directory / "chunks.qrz").exists()

    uncompressed = copy.copy(recording)
    uncompressed.config = dataclasses.replace(
        recording.config,
        capo=dataclasses.replace(recording.config.capo,
                                 compress_chunk_log=False))
    uncompressed.save(directory)
    assert not (directory / "chunks.qrz").exists()
    loaded = Recording.load(directory)
    assert loaded.chunks == recording.chunks


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
    forged = (struct.pack("<4sBBHI", b"QRCK", 2, 0, 0, 1)
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
