"""The fused replay step: ``Replayer.step_chunk`` runs every chunk inline
(unit table, translation blocks, boundary) and must replay exactly as the
interpretive engine does, traced or not, divergences included."""

import dataclasses

import pytest

from repro import session, workloads
from repro.config import MRRConfig, SimConfig
from repro.errors import ReplayDivergenceError
from repro.mrr.chunk import Reason
from repro.replay.checkpoint import capture_state, state_digest
from repro.replay.replayer import Replayer
from repro.replay.schedule import build_schedule
from repro.telemetry import Telemetry

WORKLOADS = ("locks", "fft", "sigping", "radix")
SEEDS = (1, 2, 3)
#: Positions at which the lockstep test compares full replay state.
STATE_EVERY = 50


@pytest.fixture(scope="module")
def recordings():
    cache = {}

    def get(name, seed, config=None):
        key = (name, seed, config is not None)
        if key not in cache:
            program, inputs = workloads.build(name, scale=1)
            cache[key] = session.record(program, seed=seed, config=config,
                                        input_files=inputs).recording
        return cache[key]

    return get


def _state(replayer):
    return state_digest(capture_state(replayer, copy=False))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", WORKLOADS)
def test_fused_and_interpretive_replays_agree(recordings, name, seed):
    recording = recordings(name, seed)
    fused = Replayer(recording)
    oracle = Replayer(recording, decode_cache=False)
    compared = 0
    while True:
        if fused.position % STATE_EVERY == 0:
            assert _state(fused) == _state(oracle), fused.position
            compared += 1
        stepped = fused.step_chunk()
        assert oracle.step_chunk() is stepped
        if stepped is None:
            break
    assert compared == len(recording.chunks) // STATE_EVERY + 1
    fused_result, oracle_result = fused.result(), oracle.result()
    assert fused_result.digest() == oracle_result.digest()
    assert fused_result.stats == oracle_result.stats


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_replay_matches_untraced(recordings, name):
    recording = recordings(name, 1)
    telemetry = Telemetry()
    traced = Replayer(recording, telemetry=telemetry).run()
    assert traced.digest() == Replayer(recording).run().digest()
    metrics = telemetry.metrics.snapshot()
    assert metrics["replay.chunks"] == len(recording.chunks)


def test_run_steps_each_chunk_once(monkeypatch):
    """``run`` is stepping to the end: one ``step_chunk`` per chunk, plus
    the call that finds the log exhausted."""
    program, inputs = workloads.build("counter", threads=2)
    recording = session.record(program, seed=2,
                               input_files=inputs).recording
    calls = []
    original = Replayer.step_chunk

    def counting(self):
        calls.append(self.position)
        return original(self)

    monkeypatch.setattr(Replayer, "step_chunk", counting)
    replayer = Replayer(recording)
    replayer.run()
    assert len(calls) == len(replayer.schedule) + 1
    assert calls == list(range(len(replayer.schedule) + 1))


# -- divergences --------------------------------------------------------------

def _failures(recording, schedule=None):
    """Replay ``recording`` with the fused and the interpretive engine;
    returns each one's (exception type, message, stats)."""
    failures = []
    for decode_cache in (True, False):
        replayer = Replayer(recording, schedule=schedule,
                            decode_cache=decode_cache)
        with pytest.raises(ReplayDivergenceError) as err:
            replayer.run()
        failures.append((type(err.value), str(err.value),
                         replayer.stats.as_dict()))
    return failures


def _mid_conflict_chunk(chunks, predicate=lambda chunk: True):
    """Index of the first conflict chunk at or after the middle of the log
    that satisfies ``predicate``."""
    return next(index for index in range(len(chunks) // 2, len(chunks))
                if chunks[index].reason in Reason.CONFLICTS
                and predicate(chunks[index]))


@pytest.mark.parametrize("name", ["locks", "fft"])
def test_inflated_icount_diverges_alike(recordings, name):
    recording = recordings(name, 1)
    chunks = list(recording.chunks)
    index = _mid_conflict_chunk(chunks)
    chunks[index] = dataclasses.replace(chunks[index],
                                        icount=chunks[index].icount + 1)
    fused, oracle = _failures(recording.replace(chunks=chunks))
    assert fused == oracle


def test_rsw_above_withheld_count_diverges_alike(recordings):
    recording = recordings("locks", 1)
    chunks = list(recording.chunks)
    index = _mid_conflict_chunk(chunks)
    chunks[index] = dataclasses.replace(chunks[index], rsw=60_000)
    fused, oracle = _failures(recording.replace(chunks=chunks))
    assert fused == oracle
    assert "RSW 60000 exceeds" in fused[1]


def test_load_hash_mismatch_diverges_alike(recordings):
    config = SimConfig(mrr=MRRConfig(log_load_hash=True))
    recording = recordings("locks", 1, config)
    chunks = list(recording.chunks)
    index = _mid_conflict_chunk(chunks, lambda chunk: chunk.load_hash)
    chunks[index] = dataclasses.replace(
        chunks[index], load_hash=chunks[index].load_hash ^ 1)
    fused, oracle = _failures(recording.replace(chunks=chunks))
    assert fused == oracle
    assert "load-value hash mismatch" in fused[1]


def test_chunk_for_unknown_thread_diverges_alike(recordings):
    recording = recordings("locks", 1)
    schedule = build_schedule(recording.chunks)
    index = _mid_conflict_chunk(schedule)
    schedule[index] = dataclasses.replace(schedule[index], rthread=99)
    fused, oracle = _failures(recording, schedule=schedule)
    assert fused == oracle
    assert "thread that does not exist" in fused[1]
    assert fused[2]["chunks"] == index


def test_chunk_after_exit_diverges_alike(recordings):
    recording = recordings("locks", 1)
    schedule = build_schedule(recording.chunks)
    first_exit = next(index for index, chunk in enumerate(schedule)
                      if chunk.reason == Reason.EXIT)
    rthread = schedule[first_exit].rthread
    schedule.insert(first_exit + 1,
                    next(chunk for chunk in schedule
                         if chunk.rthread == rthread))
    fused, oracle = _failures(recording, schedule=schedule)
    assert fused == oracle
    assert "chunk after thread exit" in fused[1]
    assert fused[2]["chunks"] == first_exit + 1
