"""Parallel interval replay: partitioning, seam verification, identity."""

import dataclasses
import multiprocessing
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import session, workloads
from repro.capo.recording import Recording
from repro.errors import ReplayDivergenceError, ReproError
from repro.mrr.logfmt import CheckpointRecord
from repro.replay import checkpoint
from repro.replay.checkpoint import build_checkpoints
from repro.replay.parallel import Interval, _plan_spans, plan_intervals, \
    replay_parallel
from repro.replay.replayer import Replayer
from repro.replay.schedule import build_schedule
from repro.telemetry import Telemetry


@pytest.fixture(scope="module")
def recording():
    program, inputs = workloads.build("fft", scale=1)
    rec = session.record(program, seed=7, input_files=inputs).recording
    rec.checkpoints = build_checkpoints(rec, every=20)
    return rec


@pytest.fixture(scope="module")
def serial_digest(recording):
    return Replayer(recording).run().digest()


def test_plan_intervals_covers_schedule_exactly(recording):
    intervals = plan_intervals(recording)
    assert intervals[0].start == 0
    assert intervals[-1].end == len(recording.chunks)
    assert intervals[-1].expected_digest is None
    for left, right in zip(intervals, intervals[1:]):
        assert left.end == right.start
        assert left.expected_digest is not None


def test_plan_intervals_without_checkpoints_is_one_interval():
    program, inputs = workloads.build("counter", threads=2)
    rec = session.record(program, seed=3, input_files=inputs).recording
    intervals = plan_intervals(rec)
    assert len(intervals) == 1
    assert (intervals[0].start, intervals[0].end) == (0, len(rec.chunks))


def test_serial_interval_path_matches_plain_replay(recording, serial_digest):
    result, report = replay_parallel(recording=recording, jobs=1)
    assert result.digest() == serial_digest
    assert report.jobs == 1
    assert report.seams_verified == len(report.intervals) - 1
    assert sum(o.units for o in report.intervals) == result.stats.units


def test_pool_replay_matches_serial(recording, serial_digest):
    result, report = replay_parallel(recording=recording, jobs=4)
    assert result.digest() == serial_digest
    assert report.jobs > 1
    assert report.seams_verified == len(report.intervals) - 1


def test_spawn_workers_load_the_bundle_and_match_serial(recording,
                                                        serial_digest):
    # spawn-started workers inherit nothing: each loads the spilled
    # bundle and builds its own schedule in the pool initializer
    start_method = multiprocessing.get_start_method()
    multiprocessing.set_start_method("spawn", force=True)
    try:
        result, report = replay_parallel(recording=recording, jobs=2)
    finally:
        multiprocessing.set_start_method(start_method, force=True)
    assert result.digest() == serial_digest
    assert report.seams_verified == len(report.intervals) - 1


def test_invalid_schedule_rejected_before_any_interval(recording):
    chunks = list(recording.chunks)
    last = max(i for i, c in enumerate(chunks) if c.rthread == 1)
    chunks[last] = dataclasses.replace(chunks[last], reason="syscall")
    broken = Recording(config=recording.config, program=recording.program,
                       chunks=chunks, events=recording.events,
                       metadata=recording.metadata,
                       checkpoints=recording.checkpoints)
    with pytest.raises(ReplayDivergenceError, match="not exit"):
        replay_parallel(recording=broken, jobs=2)


def test_jobs_capped_to_interval_count(recording):
    _result, report = replay_parallel(recording=recording, jobs=64)
    assert report.jobs <= len(report.intervals)


def test_no_checkpoints_degrades_to_serial(serial_digest):
    program, inputs = workloads.build("fft", scale=1)
    rec = session.record(program, seed=7, input_files=inputs).recording
    result, report = replay_parallel(recording=rec, jobs=4)
    assert result.digest() == serial_digest
    assert len(report.intervals) == 1
    assert report.seams_verified == 0


def test_replay_from_saved_bundle(recording, serial_digest, tmp_path):
    directory = recording.save(tmp_path / "rec")
    result, _report = replay_parallel(directory=directory, jobs=2)
    assert result.digest() == serial_digest


def test_replay_parallel_three_jobs_matches_session_replay(recording):
    result, report = replay_parallel(recording=recording, jobs=3)
    assert result.digest() == session.replay_recording(recording).digest()
    assert report.jobs == 3


def test_tampered_seam_digest_detected(recording):
    """Corrupting a checkpoint's recorded digest must fail the seam check,
    not silently stitch a wrong result."""
    tampered = [
        dataclasses.replace(record, digest="0" * 64)
        if index == 1 else record
        for index, record in enumerate(recording.checkpoints)]
    broken = Recording(config=recording.config, program=recording.program,
                       chunks=recording.chunks, events=recording.events,
                       metadata=recording.metadata, checkpoints=tampered)
    with pytest.raises(ReplayDivergenceError, match="seam"):
        replay_parallel(recording=broken, jobs=1)


def test_tampered_checkpoint_payload_detected(recording):
    """Corrupting a checkpoint's memory image (with a recomputed digest,
    so the log layer accepts it) must be caught at the next seam, never
    stitched into a wrong result."""
    import struct
    victim = recording.checkpoints[1]
    # flip the byte at physical address 0: no program touches it, so the
    # corruption survives to the next seam where the digest must differ
    payload = b"".join(reversed(victim.pages))
    (header_len,) = struct.unpack_from("<I", payload, 0)
    memory_start = 4 + header_len
    corrupt = bytearray(payload)
    corrupt[memory_start] ^= 0xFF
    tampered = [
        CheckpointRecord.for_payload(victim.position, bytes(corrupt))
        if index == 1 else record
        for index, record in enumerate(recording.checkpoints)]
    broken = Recording(config=recording.config, program=recording.program,
                       chunks=recording.chunks, events=recording.events,
                       metadata=recording.metadata, checkpoints=tampered)
    # the error names the first differing page and its address
    last_page = recording.config.machine.memory_bytes // 4096 - 1
    with pytest.raises(ReplayDivergenceError,
                       match=f"seam .* page {last_page} "
                             r"\(memory address 0x0\)"):
        replay_parallel(recording=broken, jobs=1)


def test_missing_source_rejected():
    with pytest.raises(ReproError):
        replay_parallel()


def test_report_speedup_bound(recording):
    _result, report = replay_parallel(recording=recording, jobs=1)
    assert report.speedup_bound >= 1.0
    largest = max(o.units for o in report.intervals)
    total = sum(o.units for o in report.intervals)
    assert report.speedup_bound == pytest.approx(total / largest)


# -- spans ---------------------------------------------------------------------

def span_weights(schedule, spans):
    return [sum(chunk.icount for iv in span
                for chunk in schedule[iv.start:iv.end]) for span in spans]


def check_spans(schedule, intervals, jobs):
    """The span invariants: contiguous, covering ``intervals`` exactly,
    ``min(jobs, len(intervals))`` of them, and each span's icount within
    one interval's icount of an equal share."""
    spans = _plan_spans(schedule, intervals, jobs)
    assert len(spans) == min(jobs, len(intervals))
    assert [iv for span in spans for iv in span] == intervals
    assert all(span for span in spans)
    weights = span_weights(schedule, [(iv,) for iv in intervals])
    share = sum(weights) / len(spans)
    for weight in span_weights(schedule, spans):
        assert abs(weight - share) <= max(weights)


@pytest.mark.parametrize("jobs", [1, 2, 3, 4, 64])
def test_spans_cover_intervals_contiguously_and_balanced(recording, jobs):
    intervals = plan_intervals(recording)
    check_spans(build_schedule(recording.chunks), intervals, jobs)


@given(st.lists(st.integers(0, 1000), min_size=1, max_size=30),
       st.integers(1, 40))
def test_span_invariants_hold_for_any_weights(icounts, jobs):
    # one chunk per interval, so each interval's icount is one draw
    schedule = [SimpleNamespace(icount=icount) for icount in icounts]
    intervals = [Interval(index=i, start=i, end=i + 1, expected_digest=None)
                 for i in range(len(icounts))]
    check_spans(schedule, intervals, jobs)


def test_parallel_replay_restores_once_per_span(recording, serial_digest):
    result, report = replay_parallel(recording=recording, jobs=2)
    assert result.digest() == serial_digest
    assert (report.spans, report.restores) == (2, 1)
    assert report.seams_verified == len(report.intervals) - 1
    assert [o.index for o in report.intervals] == \
        list(range(len(report.intervals)))
    span_starts = {span[0].index for span in _plan_spans(
        build_schedule(recording.chunks), plan_intervals(recording), 2)}
    for outcome in report.intervals:
        assert (outcome.restore_s > 0) == (outcome.index in span_starts)
        assert outcome.step_s > 0 and outcome.seam_s > 0


def test_serial_path_restores_every_checkpoint(recording, serial_digest,
                                               monkeypatch):
    restored = []
    original = checkpoint.restore_replayer

    def counting(recording, state, **kwargs):
        restored.append(state.position)
        return original(recording, state, **kwargs)

    monkeypatch.setattr(checkpoint, "restore_replayer", counting)
    telemetry = Telemetry()
    result, report = replay_parallel(recording=recording, jobs=1,
                                     telemetry=telemetry)
    intervals = plan_intervals(recording)
    assert result.digest() == serial_digest
    assert restored == [iv.start for iv in intervals[1:]]
    assert (report.spans, report.restores) == \
        (len(intervals), len(intervals) - 1)
    metrics = telemetry.metrics.snapshot()
    assert metrics["replay.checkpoint_restores"] == len(intervals) - 1
    assert metrics["replay.parallel_spans"] == len(intervals)
    assert metrics["replay.parallel_restores"] == len(intervals) - 1
    assert metrics["replay.parallel_step_us"] > 0


def test_tampered_interior_seam_caught_in_parallel(recording):
    """A checkpoint inside a span is never restored, only seam-checked:
    a wrong recorded digest there must still fail the replay."""
    spans = _plan_spans(build_schedule(recording.chunks),
                        plan_intervals(recording), 2)
    interior = next(iv.end for span in spans for iv in span[:-1])
    assert interior not in {span[0].start for span in spans}
    tampered = [dataclasses.replace(record, digest="0" * 64)
                if record.position == interior else record
                for record in recording.checkpoints]
    broken = Recording(config=recording.config, program=recording.program,
                       chunks=recording.chunks, events=recording.events,
                       metadata=recording.metadata, checkpoints=tampered)
    with pytest.raises(ReplayDivergenceError,
                       match=f"seam mismatch at chunk {interior}:"):
        replay_parallel(recording=broken, jobs=2)


@pytest.mark.parametrize("method", ["fork", "spawn"])
@pytest.mark.parametrize("jobs", [2, 4])
def test_start_methods_match_serial(recording, serial_digest, method, jobs):
    start_method = multiprocessing.get_start_method()
    multiprocessing.set_start_method(method, force=True)
    try:
        result, report = replay_parallel(recording=recording, jobs=jobs)
    finally:
        multiprocessing.set_start_method(start_method, force=True)
    assert result.digest() == serial_digest
    assert report.spans == report.jobs == min(jobs, len(report.intervals))
    assert report.restores == report.spans - 1
    assert report.seams_verified == len(report.intervals) - 1
