"""End-to-end flight recording through the session layer.

The acceptance property: after at least two evictions, the materialized
window replays to exactly the digests, outputs and exit codes of
replaying the unbounded recording of the same seed — the base state
carries the dropped prefix's cumulative effects bit-for-bit.
"""

import pytest

from repro import session, workloads
from repro.capo.recording import FLIGHT_META_KEY, Recording
from repro.replay.verify import verify_replay

from .test_ring import _flight_config, _record


@pytest.fixture(scope="module")
def pair():
    """(unbounded outcome, flight outcome) of the same racer seed."""
    return _record(seed=11), _record(seed=11, config=_flight_config())


def test_flight_replay_matches_unbounded(pair):
    unbounded, flight = pair
    assert flight.recording.metadata[FLIGHT_META_KEY]["evictions"] >= 2
    full = session.replay_recording(unbounded.recording)
    window = session.replay_recording(flight.recording)
    assert window.digest() == full.digest()
    assert window.exit_codes == full.exit_codes
    assert window.outputs == full.outputs


def test_flight_recording_verifies_against_metadata(pair):
    _, flight = pair
    meta = flight.recording.metadata
    result = session.replay_recording(flight.recording)
    report = verify_replay(
        meta["final_memory_digest"],
        {name: bytes.fromhex(data)
         for name, data in meta.get("outputs_hex", {}).items()},
        {int(tid): code for tid, code in meta["exit_codes"].items()},
        result, use_region="sphere_region" in meta)
    assert report.ok, report.mismatches


def test_flight_bundle_save_load_replay(pair, tmp_path):
    unbounded, flight = pair
    directory = flight.recording.save(tmp_path / "flight")
    loaded = Recording.load(directory)
    assert loaded.metadata[FLIGHT_META_KEY] == \
        flight.recording.metadata[FLIGHT_META_KEY]
    replayed = session.replay_recording(loaded)
    assert replayed.digest() == \
        session.replay_recording(unbounded.recording).digest()


def test_flight_checkpoints_and_seek(pair, tmp_path):
    _, flight = pair
    recording = Recording.load(flight.recording.save(tmp_path / "rec"))
    session.add_checkpoints(recording, 8)
    # the ring base survives a checkpoint (re)build at position 0
    positions = [record.position for record in recording.checkpoints]
    assert positions[0] == 0
    assert positions[1:] == list(range(8, positions[-1] + 1, 8))
    from repro.replay.checkpoint import replayer_at
    target = min(10, len(recording.chunks))
    replayer = replayer_at(recording, target)
    assert replayer.position == target


def test_flight_parallel_replay(pair, tmp_path):
    unbounded, flight = pair
    recording = Recording.load(flight.recording.save(tmp_path / "rec"))
    session.add_checkpoints(recording, 8)
    directory = recording.save(tmp_path / "rec")
    from repro.replay.parallel import replay_parallel
    result, report = replay_parallel(recording=recording,
                                     directory=directory, jobs=3)
    assert result.digest() == \
        session.replay_recording(unbounded.recording).digest()
    assert report.seams_verified


def test_flight_forensics_analyze(pair):
    _, flight = pair
    from repro.forensics import analyze_recording
    report, _graph = analyze_recording(flight.recording)
    assert report.total_chunks == len(flight.recording.chunks)
    assert report.as_dict()  # serializes cleanly


def test_crasher_fault_captured_end_to_end(tmp_path):
    # the black-box story: a faulting workload under a flight ring yields
    # a crash bundle whose window replays to the recorded fault
    from repro.flight import detect_fault, load_crash_manifest, \
        write_crash_bundle
    outcome = _record(name="crasher", seed=3, config=_flight_config())
    trigger = detect_fault(outcome)
    assert trigger is not None
    bundle = write_crash_bundle(tmp_path / "bundle", outcome.recording,
                                trigger=trigger)
    manifest = load_crash_manifest(bundle)
    assert manifest["replay"]["ok"] is True
    assert any(code != 0
               for code in manifest["replay"]["exit_codes"].values())


def test_flight_window_sizes_sweep():
    # several ring geometries, one truth: every window replays to the
    # unbounded digest
    program, inputs = workloads.build("racer")
    full = session.record(program, seed=7, input_files=inputs)
    want = session.replay_recording(full.recording).digest()
    for window, epoch in ((1, 8), (2, 16), (3, 32), (5, 64)):
        flight = session.record(
            program, seed=7, input_files=inputs,
            config=_flight_config(window=window, epoch=epoch))
        got = session.replay_recording(flight.recording).digest()
        assert got == want, (window, epoch)
