"""Parallel interval replay: fan a chunk schedule out over checkpoints.

The chunk schedule is split at embedded checkpoint boundaries into
intervals. Each interval is independently replayable: a worker restores
its starting checkpoint (interval 0 starts from a fresh replayer), replays
only its chunks, and — this is what makes parallel replay self-validating —
digests its final state and compares it against the *recorded* digest of
the next checkpoint. A seam mismatch anywhere means the stitched result
would not be bit-identical to a serial replay, and raises
:class:`~repro.errors.ReplayDivergenceError` naming the seam.

Because every checkpoint carries cumulative state (write segments, exit
codes, statistics), the last interval's :class:`ReplayResult` *is* the
whole run's result: stitching is verification, not reassembly. ``--jobs 1``
and ``--jobs N`` therefore produce identical results by construction, and
the test suite enforces it bit-for-bit.

The chunk schedule is built and validated once, by the caller, and
shared by every interval. Workers are plain ``multiprocessing`` processes.
Under the default ``fork`` start method they inherit the already-decoded
recording and its schedule from the parent (no pickling, no re-reading);
under ``spawn`` each worker loads the bundle from disk and builds the
schedule once, so a directory is required (an in-memory recording is
spilled to a temporary bundle automatically).
"""

from __future__ import annotations

import multiprocessing
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from ..capo.recording import Recording
from ..errors import ReplayDivergenceError, ReproError
from ..telemetry import NULL_TELEMETRY, Telemetry
from .checkpoint import base_replayer, capture_state, decode_state, \
    restore_replayer, state_digest
from .replayer import ReplayResult
from .schedule import build_schedule, validate_schedule


@dataclass(frozen=True)
class Interval:
    """One independently replayable slice of the chunk schedule."""

    index: int
    start: int
    end: int
    #: Recorded digest of the checkpoint at ``end`` (None for the final
    #: interval — its end state is the replay result itself).
    expected_digest: str | None


@dataclass(frozen=True)
class IntervalOutcome:
    index: int
    start: int
    end: int
    units: int
    wall_s: float
    end_digest: str | None


@dataclass
class ParallelReplayReport:
    """How a parallel replay went: per-interval work and seam checks."""

    jobs: int
    intervals: list[IntervalOutcome]
    seams_verified: int
    wall_s: float

    @property
    def speedup_bound(self) -> float:
        """Max parallel speedup the partition allows (total units over the
        largest interval's units) — the critical-path bound, independent
        of how many cores the host actually has."""
        largest = max((o.units for o in self.intervals), default=0)
        total = sum(o.units for o in self.intervals)
        return total / largest if largest else 1.0


def plan_intervals(recording: Recording) -> list[Interval]:
    """Split the schedule at embedded checkpoint positions."""
    total = len(recording.chunks)
    records = sorted((r for r in recording.checkpoints
                      if 0 < r.position < total),
                     key=lambda record: record.position)
    bounds = [0] + [r.position for r in records] + [total]
    digests = {r.position: r.digest for r in records}
    intervals = []
    for index, (start, end) in enumerate(zip(bounds, bounds[1:])):
        intervals.append(Interval(index=index, start=start, end=end,
                                  expected_digest=digests.get(end)))
    return intervals


def _checked_schedule(recording: Recording) -> list:
    schedule = build_schedule(recording.chunks)
    validate_schedule(schedule)
    return schedule


def _replay_one(recording: Recording, schedule: list, interval: Interval,
                is_last: bool) -> IntervalOutcome | tuple:
    """Replay one interval of the validated ``schedule``; returns its
    outcome (plus the final ReplayResult when it is the last interval)."""
    start_wall = time.perf_counter()
    if interval.start == 0:
        # base_replayer, not a bare Replayer: a flight window's position
        # 0 restores the embedded ring-base state.
        replayer = base_replayer(recording, schedule=schedule)
    else:
        record = recording.checkpoint_at(interval.start)
        if record is None:
            raise ReproError(
                f"no checkpoint at position {interval.start}")
        replayer = restore_replayer(recording, decode_state(record.payload),
                                    schedule=schedule)
    units_before = replayer.stats.units
    while replayer.position < interval.end:
        if replayer.step_chunk() is None:
            raise ReplayDivergenceError(
                f"schedule ended at {replayer.position} inside interval "
                f"[{interval.start}, {interval.end})")
    result = None
    end_digest = None
    if is_last:
        result = replayer.result()
    else:
        end_digest = state_digest(capture_state(replayer))
        if interval.expected_digest is not None \
                and end_digest != interval.expected_digest:
            raise ReplayDivergenceError(
                f"seam mismatch at chunk {interval.end}: interval "
                f"[{interval.start}, {interval.end}) reached state "
                f"{end_digest[:12]}…, recording expects "
                f"{interval.expected_digest[:12]}…")
    outcome = IntervalOutcome(
        index=interval.index, start=interval.start, end=interval.end,
        units=replayer.stats.units - units_before,
        wall_s=time.perf_counter() - start_wall,
        end_digest=end_digest)
    return (outcome, result) if is_last else outcome


# Recording and schedule shared with pool workers: set just before a
# fork-started pool is created (children inherit them copy-on-write), or
# by _init_worker in each spawn-started worker.
_WORKER_RECORDING: Recording | None = None
_WORKER_SCHEDULE: list | None = None


def _init_worker(directory: str | Path | None) -> None:
    global _WORKER_RECORDING, _WORKER_SCHEDULE
    if _WORKER_RECORDING is None:
        _WORKER_RECORDING = Recording.load(directory)
        _WORKER_SCHEDULE = _checked_schedule(_WORKER_RECORDING)


def _pool_replay_interval(spec: tuple):
    interval, is_last = spec
    return _replay_one(_WORKER_RECORDING, _WORKER_SCHEDULE, interval,
                       is_last)


def replay_parallel(recording: Recording | None = None,
                    directory: str | Path | None = None,
                    jobs: int = 1,
                    telemetry: Telemetry | None = None,
                    ) -> tuple[ReplayResult, ParallelReplayReport]:
    """Replay ``recording`` across its checkpoint intervals.

    ``jobs <= 1`` (or a checkpoint-free recording, or a daemonic caller
    that cannot fork workers) executes the intervals serially in-process —
    still restoring every checkpoint and verifying every seam, so the
    checkpoint machinery is exercised identically; only the wall-clock
    parallelism differs.
    """
    if recording is None:
        if directory is None:
            raise ReproError("replay_parallel needs a recording or directory")
        recording = Recording.load(directory)
    telemetry = telemetry or NULL_TELEMETRY
    schedule = _checked_schedule(recording)
    intervals = plan_intervals(recording)
    is_last = {interval.index: interval.index == len(intervals) - 1
               for interval in intervals}
    effective_jobs = min(jobs, len(intervals))
    if multiprocessing.current_process().daemon:
        effective_jobs = 1  # pool workers cannot have children

    start_wall = time.perf_counter()
    if effective_jobs <= 1:
        raw = [_replay_one(recording, schedule, interval,
                           is_last[interval.index])
               for interval in intervals]
    else:
        raw = _fan_out(recording, schedule, directory, intervals, is_last,
                       effective_jobs)

    outcomes: list[IntervalOutcome] = []
    result: ReplayResult | None = None
    for item in raw:
        if isinstance(item, tuple):
            outcome, result = item
            outcomes.append(outcome)
        else:
            outcomes.append(item)
    if result is None:
        raise ReproError("parallel replay produced no final result")
    report = ParallelReplayReport(
        jobs=effective_jobs, intervals=outcomes,
        seams_verified=sum(1 for o in outcomes if o.end_digest is not None),
        wall_s=time.perf_counter() - start_wall)
    if telemetry.enabled:
        metrics = telemetry.metrics
        metrics.gauge("replay.parallel_jobs").set(effective_jobs)
        metrics.gauge("replay.parallel_intervals").set(len(outcomes))
        metrics.gauge("replay.parallel_seams_verified").set(
            report.seams_verified)
        metrics.gauge("replay.parallel_wall_us").set(
            round(report.wall_s * 1e6))
    return result, report


def _fan_out(recording: Recording, schedule: list,
             directory: str | Path | None, intervals: list[Interval],
             is_last: dict[int, bool], jobs: int) -> list:
    """Run the intervals over a process pool, largest first (greedy LPT
    keeps the pool busy when intervals are uneven)."""
    global _WORKER_RECORDING, _WORKER_SCHEDULE
    fork = multiprocessing.get_start_method(allow_none=False) == "fork"
    tmp = None
    try:
        if fork:
            _WORKER_RECORDING, _WORKER_SCHEDULE = recording, schedule
        elif directory is None:
            tmp = tempfile.TemporaryDirectory(prefix="qr-parallel-")
            recording.save(tmp.name)
            directory = tmp.name
        specs = [(interval, is_last[interval.index])
                 for interval in sorted(intervals,
                                        key=lambda iv: iv.start - iv.end)]
        with multiprocessing.Pool(processes=jobs, initializer=_init_worker,
                                  initargs=(directory,)) as pool:
            raw = pool.map(_pool_replay_interval, specs, chunksize=1)
    finally:
        _WORKER_RECORDING = _WORKER_SCHEDULE = None
        if tmp is not None:
            tmp.cleanup()
    # Restore schedule order for the report.
    def order_key(item):
        outcome = item[0] if isinstance(item, tuple) else item
        return outcome.start
    return sorted(raw, key=order_key)
