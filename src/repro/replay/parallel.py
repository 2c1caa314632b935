"""Parallel interval replay: fan a chunk schedule out over checkpoints.

The schedule is split at embedded checkpoints into intervals, and the
intervals into contiguous *spans* of near-equal work, one per worker. A
worker restores the checkpoint at its span's start (the first span starts
fresh) and steps straight through the span. At every interval end it
compares its live state, header bytes then memory pages, against the
checkpoint recorded there, which decode (or build) has already verified
against its digest, so parallel replay validates itself without hashing
the memory image: a seam mismatch raises
:class:`~repro.errors.ReplayDivergenceError` naming the seam and the
first difference, the header or a memory page and its address.
Only span starts pay the fixed restore work on the memory image; the
serial path (``jobs <= 1``) runs one interval per span, so it restores
every checkpoint.

Checkpoints carry cumulative state (write segments, exit codes,
statistics), so the last span's :class:`ReplayResult` *is* the whole
run's result: stitching is verification, not reassembly, and ``--jobs 1``
and ``--jobs N`` give bit-identical results by construction.

The schedule is built and validated once and shared by every span. Pool
workers inherit the decoded recording and schedule under ``fork``; under
``spawn`` each loads the bundle (an in-memory recording is spilled to a
temporary one) and builds the schedule once.
"""

from __future__ import annotations

import itertools
import multiprocessing
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from ..capo.recording import Recording
from ..errors import ReplayDivergenceError, ReproError
from ..mrr.logfmt import paged_digest
from ..telemetry import NULL_TELEMETRY, Telemetry
from .checkpoint import base_replayer, capture_state, decode_state, \
    restore_replayer, state_mismatch
from .replayer import Replayer, ReplayResult
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
    """One interval's work. ``restore_s`` (building the replayer) is
    nonzero only on a span's first interval; ``seam_s`` checks the end:
    the seam digest, or building the final result."""

    index: int
    start: int
    end: int
    units: int
    wall_s: float
    end_digest: str | None
    restore_s: float
    step_s: float
    seam_s: float


@dataclass
class ParallelReplayReport:
    """How a parallel replay went: per-interval work and seam checks."""

    jobs: int
    intervals: list[IntervalOutcome]
    seams_verified: int
    wall_s: float
    spans: int
    restores: int  # one per span that starts past position 0

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


def _plan_spans(schedule: list, intervals: list[Interval],
                jobs: int) -> list[tuple[Interval, ...]]:
    """Cut ``intervals`` into ``min(jobs, len(intervals))`` contiguous
    spans balanced by retired instructions: each cut falls at the
    interval boundary whose running icount is nearest its share of the
    total, leaving every span at least one interval."""
    count = max(1, min(jobs, len(intervals)))
    prefix = list(itertools.accumulate(
        (sum(chunk.icount for chunk in schedule[iv.start:iv.end])
         for iv in intervals), initial=0))
    cuts = [0]
    for k in range(1, count):
        target = prefix[-1] * k / count
        cuts.append(min(range(cuts[-1] + 1, len(intervals) - count + k + 1),
                        key=lambda cut: abs(prefix[cut] - target)))
    cuts.append(len(intervals))
    return [tuple(intervals[a:b]) for a, b in zip(cuts, cuts[1:])]


def _checked_schedule(recording: Recording) -> list:
    schedule = build_schedule(recording.chunks)
    validate_schedule(schedule)
    return schedule


def _replay_span(recording: Recording, schedule: list, span: tuple[Interval, ...]
                 ) -> tuple[list[IntervalOutcome], ReplayResult | None]:
    """Replay a span of the validated ``schedule`` from one restore,
    checking the seam at every interval end; returns its outcomes and,
    if the span ends the schedule, the final ReplayResult."""
    start = time.perf_counter()
    if span[0].start == 0:
        # base_replayer, not a bare Replayer: a flight window's position
        # 0 restores the embedded ring-base state.
        replayer = base_replayer(recording, schedule=schedule)
    else:
        record = recording.checkpoint_at(span[0].start)
        if record is None:
            raise ReproError(f"no checkpoint at position {span[0].start}")
        replayer = restore_replayer(recording, decode_state(record),
                                    schedule=schedule)
    restore_s = time.perf_counter() - start
    outcomes: list[IntervalOutcome] = []
    result = None
    for interval in span:
        units_before = replayer.stats.units
        step_start = time.perf_counter()
        while replayer.position < interval.end:
            if replayer.step_chunk() is None:
                raise ReplayDivergenceError(
                    f"schedule ended at {replayer.position} inside interval "
                    f"[{interval.start}, {interval.end})")
        seam_start = time.perf_counter()
        end_digest = None
        if interval.end == len(schedule):
            result = replayer.result()
        else:
            end_digest = _check_seam(recording, replayer, interval)
        end = time.perf_counter()
        outcomes.append(IntervalOutcome(
            index=interval.index, start=interval.start, end=interval.end,
            units=replayer.stats.units - units_before,
            wall_s=restore_s + end - step_start, end_digest=end_digest,
            restore_s=restore_s, step_s=seam_start - step_start,
            seam_s=end - seam_start))
        restore_s = 0.0
    return outcomes, result


def _check_seam(recording: Recording, replayer: Replayer,
                interval: Interval) -> str:
    """Verify the live state at ``interval``'s end against the checkpoint
    recorded there; returns the state's digest."""
    where = (f"seam mismatch at chunk {interval.end}: interval "
             f"[{interval.start}, {interval.end})")
    record = recording.checkpoint_at(interval.end)
    if record is None:
        raise ReproError(f"no checkpoint at position {interval.end}")
    mismatch = state_mismatch(capture_state(replayer, copy=False), record)
    if mismatch is not None:
        raise ReplayDivergenceError(
            f"{where} differs from the recorded checkpoint in {mismatch}")
    # The live pages equal the record's, so they have its page digests.
    digest = paged_digest(record.page_digests)
    if digest != interval.expected_digest:
        raise ReplayDivergenceError(
            f"{where} reached state {digest[:12]}…, recording expects "
            f"{interval.expected_digest[:12]}…")
    return digest


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


def _pool_replay_span(span: tuple[Interval, ...]):
    return _replay_span(_WORKER_RECORDING, _WORKER_SCHEDULE, span)


def replay_parallel(recording: Recording | None = None,
                    directory: str | Path | None = None,
                    jobs: int = 1,
                    telemetry: Telemetry | None = None,
                    ) -> tuple[ReplayResult, ParallelReplayReport]:
    """Replay ``recording`` across its checkpoint intervals.

    ``jobs <= 1`` (or a checkpoint-free recording, or a daemonic caller
    that cannot fork workers) runs one interval per span in-process:
    every checkpoint is restored and every seam verified, as in parallel.
    """
    if recording is None:
        if directory is None:
            raise ReproError("replay_parallel needs a recording or directory")
        recording = Recording.load(directory)
    telemetry = telemetry or NULL_TELEMETRY
    schedule = _checked_schedule(recording)
    intervals = plan_intervals(recording)
    effective_jobs = min(jobs, len(intervals))
    if multiprocessing.current_process().daemon:
        effective_jobs = 1  # pool workers cannot have children

    start_wall = time.perf_counter()
    if effective_jobs <= 1:
        spans = [(interval,) for interval in intervals]
        raw = [_replay_span(recording, schedule, span) for span in spans]
    else:
        spans = _plan_spans(schedule, intervals, effective_jobs)
        raw = _fan_out(recording, schedule, directory, spans)

    outcomes = [o for span_outcomes, _ in raw for o in span_outcomes]
    result = raw[-1][1]  # the last span ends the schedule
    if result is None:
        raise ReproError("parallel replay produced no final result")
    report = ParallelReplayReport(
        jobs=effective_jobs, intervals=outcomes,
        seams_verified=sum(1 for o in outcomes if o.end_digest is not None),
        wall_s=time.perf_counter() - start_wall, spans=len(spans),
        restores=sum(1 for span in spans if span[0].start > 0))
    if telemetry.enabled:
        metrics = telemetry.metrics
        metrics.counter("replay.checkpoint_restores").inc(report.restores)
        gauges = {"jobs": effective_jobs, "intervals": len(outcomes),
                  "seams_verified": report.seams_verified,
                  "spans": report.spans, "restores": report.restores,
                  "wall_us": round(report.wall_s * 1e6)}
        for phase in ("restore", "step", "seam"):
            gauges[f"{phase}_us"] = round(
                sum(getattr(o, f"{phase}_s") for o in outcomes) * 1e6)
        for name, value in gauges.items():
            metrics.gauge(f"replay.parallel_{name}").set(value)
    return result, report


def _fan_out(recording: Recording, schedule: list,
             directory: str | Path | None,
             spans: list[tuple[Interval, ...]]) -> list:
    """Run the spans over a process pool, one worker and task per span;
    results come back in span order."""
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
        with multiprocessing.Pool(len(spans), _init_worker,
                                  (directory,)) as pool:
            return pool.map(_pool_replay_span, spans, chunksize=1)
    finally:
        _WORKER_RECORDING = _WORKER_SCHEDULE = None
        if tmp is not None:
            tmp.cleanup()
