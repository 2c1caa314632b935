import random

import pytest

from repro.errors import ReplayDivergenceError
from repro.mrr.chunk import ChunkEntry, Reason
from repro.replay.schedule import build_schedule, validate_schedule


def chunk(rthread, ts, reason=Reason.RAW, rsw=0):
    return ChunkEntry(rthread, ts, 1, 0, rsw, reason)


def good_log():
    return [
        chunk(1, 1),
        chunk(2, 2),
        chunk(1, 3, Reason.SYSCALL),
        chunk(2, 4, Reason.EXIT),
        chunk(1, 5, Reason.EXIT),
    ]


def test_build_schedule_sorts_by_timestamp():
    schedule = build_schedule(list(reversed(good_log())))
    assert [c.timestamp for c in schedule] == [1, 2, 3, 4, 5]


def test_build_schedule_matches_the_sort_key_order():
    """Equal timestamps break ties by rthread, and equal (timestamp,
    rthread) pairs keep their log order: the order a sort on the
    ``sort_key`` property gives, entry for entry."""
    rng = random.Random(5)
    log = [ChunkEntry(rng.randint(1, 4), rng.randint(1, 6), icount, 0, 0,
                      Reason.RAW) for icount in range(200)]
    rng.shuffle(log)
    expected = sorted(log, key=lambda entry: entry.sort_key)
    schedule = build_schedule(log)
    assert [id(entry) for entry in schedule] == \
        [id(entry) for entry in expected]
    assert any(a.sort_key == b.sort_key
               for a, b in zip(schedule, schedule[1:]))


def test_validate_accepts_good_log():
    validate_schedule(build_schedule(good_log()))


def test_non_monotone_thread_timestamps_rejected():
    log = [chunk(1, 5), chunk(1, 5, Reason.EXIT)]
    with pytest.raises(ReplayDivergenceError):
        validate_schedule(log)


def test_kernel_entry_with_rsw_rejected():
    log = [chunk(1, 1, Reason.SYSCALL, rsw=2), chunk(1, 2, Reason.EXIT)]
    with pytest.raises(ReplayDivergenceError):
        validate_schedule(log)


def test_conflict_chunk_with_rsw_accepted():
    log = [chunk(1, 1, Reason.WAW, rsw=3), chunk(1, 2, Reason.EXIT)]
    validate_schedule(log)


def test_chunk_after_exit_rejected():
    log = [chunk(1, 1, Reason.EXIT), chunk(1, 2, Reason.EXIT)]
    with pytest.raises(ReplayDivergenceError):
        validate_schedule(log)


def test_stream_not_ending_in_exit_rejected():
    log = [chunk(1, 1, Reason.SYSCALL)]
    with pytest.raises(ReplayDivergenceError):
        validate_schedule(log)


def test_empty_log_valid():
    validate_schedule([])


def test_equal_timestamp_same_thread_rejected():
    """Strictly increasing means equality is a violation too."""
    log = [chunk(1, 7), chunk(1, 7, Reason.EXIT)]
    with pytest.raises(ReplayDivergenceError, match="non-monotonic"):
        validate_schedule(log)


def test_decreasing_timestamp_other_thread_unconstrained():
    """Monotonicity is per-thread: cross-thread order comes from the
    global sort, not from validation."""
    log = [
        chunk(1, 10),
        chunk(2, 3),
        chunk(2, 4, Reason.EXIT),
        chunk(1, 11, Reason.EXIT),
    ]
    validate_schedule(log)


@pytest.mark.parametrize("reason", sorted(Reason.KERNEL_ENTRY))
def test_every_kernel_entry_reason_rejects_rsw(reason):
    log = [chunk(1, 1, reason, rsw=1)]
    if reason != Reason.EXIT:
        log.append(chunk(1, 2, Reason.EXIT))
    with pytest.raises(ReplayDivergenceError, match="RSW"):
        validate_schedule(log)


@pytest.mark.parametrize("reason", sorted(Reason.KERNEL_ENTRY))
def test_every_kernel_entry_reason_accepts_rsw_zero(reason):
    log = [chunk(1, 1, reason, rsw=0)]
    if reason != Reason.EXIT:
        log.append(chunk(1, 2, Reason.EXIT))
    validate_schedule(log)


def test_chunk_after_exit_rejected_even_for_other_reasons():
    log = [chunk(1, 1, Reason.EXIT), chunk(1, 2)]
    with pytest.raises(ReplayDivergenceError, match="after EXIT"):
        validate_schedule(log)


def test_one_thread_missing_exit_among_many_rejected():
    """The offending thread is named even when other threads are fine."""
    log = [
        chunk(1, 1),
        chunk(2, 2),
        chunk(2, 3, Reason.EXIT),
        chunk(1, 4, Reason.SYSCALL),
    ]
    with pytest.raises(ReplayDivergenceError) as excinfo:
        validate_schedule(log)
    assert "exit" in str(excinfo.value)


def test_violation_after_many_good_chunks_detected():
    log = [chunk(1, ts) for ts in range(1, 50)]
    log.append(chunk(1, 49, Reason.EXIT))  # duplicate timestamp at the end
    with pytest.raises(ReplayDivergenceError, match="non-monotonic"):
        validate_schedule(log)


def test_interleaved_multi_thread_log_valid():
    log = [
        chunk(1, 1), chunk(2, 1), chunk(3, 1),
        chunk(2, 5, Reason.SYSCALL),
        chunk(1, 6, Reason.WAR, rsw=2),
        chunk(3, 7, Reason.NONDET),
        chunk(3, 8, Reason.EXIT),
        chunk(2, 9, Reason.EXIT),
        chunk(1, 10, Reason.EXIT),
    ]
    validate_schedule(build_schedule(log))
