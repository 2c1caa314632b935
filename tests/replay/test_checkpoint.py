"""Replay-state checkpoints: capture/restore fidelity, embedding, seek."""

import copy

import pytest

from repro import session, workloads
from repro.capo.recording import Recording
from repro.errors import LogFormatError, ReproError
from repro.replay.checkpoint import (
    ReplayState,
    build_checkpoints,
    capture_state,
    decode_state,
    encode_state,
    replayer_at,
    restore_replayer,
    state_digest,
)
from repro.replay.replayer import Replayer


@pytest.fixture(scope="module")
def recording():
    # fft spawns threads, writes an output file and has syscalls and
    # pending stores in flight — the richest state to checkpoint.
    program, inputs = workloads.build("fft", scale=1)
    rec = session.record(program, seed=7, input_files=inputs).recording
    rec.checkpoints = build_checkpoints(rec, every=20)
    return rec


@pytest.fixture(scope="module")
def serial_result(recording):
    return Replayer(recording).run()


def test_build_positions_are_interior_multiples(recording):
    positions = [r.position for r in recording.checkpoints]
    assert positions == sorted(positions)
    assert all(p % 20 == 0 for p in positions)
    assert 0 not in positions
    assert len(recording.chunks) not in positions


def test_state_encoding_round_trips(recording):
    record = recording.checkpoints[0]
    state = decode_state(record.payload)
    assert encode_state(state) == record.payload
    assert state_digest(state) == record.digest
    assert state.position == record.position


def test_restore_then_capture_is_identity(recording):
    """The core fidelity property: restoring a checkpoint and immediately
    re-capturing must reproduce the exact payload bytes."""
    for record in recording.checkpoints:
        replayer = restore_replayer(recording, decode_state(record.payload))
        assert replayer.position == record.position
        assert state_digest(capture_state(replayer)) == record.digest


def test_capture_matches_serial_replay_state(recording):
    """A serially-stepped replayer and a restored one digest identically."""
    target = recording.checkpoints[1].position
    stepped = Replayer(recording)
    while stepped.position < target:
        stepped.step_chunk()
    assert state_digest(capture_state(stepped)) == \
        recording.checkpoints[1].digest


def test_resume_from_checkpoint_matches_serial(recording, serial_result):
    record = recording.checkpoints[-1]
    replayer = restore_replayer(recording, decode_state(record.payload))
    result = replayer.run()
    assert result.final_memory_digest == serial_result.final_memory_digest
    assert result.outputs == serial_result.outputs
    assert result.exit_codes == serial_result.exit_codes
    assert result.stats.as_dict() == serial_result.stats.as_dict()
    assert result.digest() == serial_result.digest()


def test_replayer_at_seeks_to_any_position(recording):
    total = len(recording.chunks)
    for position in (0, 1, 19, 20, 21, total // 2, total):
        replayer = replayer_at(recording, position)
        assert replayer.position == position


def test_replayer_at_uses_nearest_checkpoint(recording):
    # seeking to 45 should restore the checkpoint at 40 and step 5 chunks,
    # so the replayer's thread states match a 45-chunk serial replay
    seeked = replayer_at(recording, 45)
    stepped = Replayer(recording)
    while stepped.position < 45:
        stepped.step_chunk()
    assert state_digest(capture_state(seeked)) == \
        state_digest(capture_state(stepped))


def test_replayer_at_bounds(recording):
    with pytest.raises(ReproError):
        replayer_at(recording, -1)
    with pytest.raises(ReproError):
        replayer_at(recording, len(recording.chunks) + 1)


def test_build_rejects_nonpositive_interval(recording):
    with pytest.raises(ReproError):
        build_checkpoints(recording, 0)


def test_decode_state_rejects_garbage():
    with pytest.raises(LogFormatError):
        decode_state(b"")
    with pytest.raises(LogFormatError):
        decode_state(b"\xff\xff\xff\xff")


def _forge_withheld(recording, entries) -> bytes:
    """A checkpoint payload whose first thread withholds ``entries``."""
    state = decode_state(recording.checkpoints[0].payload)
    header = copy.deepcopy(state.header)
    first = min(header["threads"], key=int)
    header["threads"][first]["withheld"] = entries
    return encode_state(ReplayState(state.position, header, state.memory))


def test_restore_accepts_well_formed_withheld_stores(recording):
    payload = _forge_withheld(recording, [[0, 4, 0xFFFFFFFF], [7, 1, 0xFF]])
    replayer = restore_replayer(recording, decode_state(payload))
    first = min(replayer.threads)
    assert replayer.threads[first].withheld.snapshot() == \
        [(0, 4, 0xFFFFFFFF), (7, 1, 0xFF)]


@pytest.mark.parametrize("forge", [
    lambda top: [[0, 4]],               # two fields
    lambda top: [[0, 4, 1, 0]],         # four fields
    lambda top: [[0, "4", 1]],          # a field that is not an int
    lambda top: [[0, 4, None]],
    lambda top: [[0, 2, 1]],            # size neither 1 nor 4
    lambda top: [[6, 4, 1]],            # misaligned word
    lambda top: [[top, 1, 1]],          # past the end of memory
    lambda top: [[top - 2, 4, 1]],
    lambda top: [[-4, 4, 1]],
    lambda top: [[8, 1, 0x100]],        # value wider than a byte
    lambda top: [[8, 4, 1 << 32]],      # value wider than a word
    lambda top: "[[8, 4, 1]]",          # not a list of entries
], ids=["two-fields", "four-fields", "str-field", "null-field", "size-2",
        "misaligned", "past-end", "straddles-end", "negative",
        "wide-byte", "wide-word", "not-a-list"])
def test_restore_rejects_forged_withheld_stores(recording, forge):
    top = recording.config.machine.memory_bytes
    payload = _forge_withheld(recording, forge(top))
    with pytest.raises(LogFormatError):
        restore_replayer(recording, decode_state(payload))


def test_checkpoints_survive_save_load(recording, tmp_path):
    directory = recording.save(tmp_path / "rec")
    assert (directory / "checkpoints.bin").exists()
    loaded = Recording.load(directory)
    assert loaded.checkpoints == recording.checkpoints


def test_checkpoint_count_mismatch_detected(recording, tmp_path):
    import json
    directory = recording.save(tmp_path / "rec")
    manifest = json.loads((directory / "manifest.json").read_text())
    manifest["checkpoint_count"] += 1
    (directory / "manifest.json").write_text(json.dumps(manifest))
    loaded = Recording.load(directory)
    with pytest.raises(LogFormatError):
        _ = loaded.checkpoints


def test_recordings_without_checkpoints_still_load(tmp_path):
    """Backward compatibility: pre-checkpoint bundles have no
    checkpoints.bin and no manifest key; both must read as empty."""
    program, inputs = workloads.build("counter", threads=2)
    rec = session.record(program, seed=3, input_files=inputs).recording
    directory = rec.save(tmp_path / "rec")
    assert not (directory / "checkpoints.bin").exists()
    import json
    manifest = json.loads((directory / "manifest.json").read_text())
    del manifest["checkpoint_count"]
    (directory / "manifest.json").write_text(json.dumps(manifest))
    loaded = Recording.load(directory)
    assert loaded.checkpoints == []
    result = session.replay_recording(loaded)
    assert result.final_memory_digest == rec.metadata["final_memory_digest"]


def test_checkpointed_replay_with_signals_and_multiproc():
    """Checkpoint/restore across the trickiest state: signal contexts and
    a background (unrecorded) process sharing the machine."""
    program, inputs = workloads.build("prodcons", scale=1)
    outcome = session.record(program, seed=11, input_files=inputs)
    rec = outcome.recording
    rec.checkpoints = build_checkpoints(rec, every=15)
    serial = Replayer(rec).run()
    for record in rec.checkpoints:
        replayer = restore_replayer(rec, decode_state(record.payload))
        assert state_digest(capture_state(replayer)) == record.digest
    resumed = restore_replayer(
        rec, decode_state(rec.checkpoints[0].payload)).run()
    assert resumed.digest() == serial.digest()
