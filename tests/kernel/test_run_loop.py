"""The one run loop against its reference, the stepped loop.

``Kernel.run`` takes every interleaver's choices a run at a time
(``choice_run``/``consume``) and inlines ``Machine.step_core``, for both
engines. ``tests/reference.py`` keeps the stepped loop
(``interleaver.choose`` + ``Machine.step_core`` per unit) as its oracle:
the two must execute identical units in identical order, so every
recording made through one equals the recording made through the other.
"""

import dataclasses
import hashlib
import random

import pytest

from repro import session, workloads
from repro.capo.input_log import encode_events_v1
from repro.config import DEFAULT_CONFIG
from repro.errors import MachineFault
from repro.isa.builder import SYS_NANOSLEEP
from repro.kernel.kernel import Kernel
from repro.machine import interleave
from repro.machine.core import OUTCOME_OK
from repro.machine.interleave import (
    BurstyInterleaver,
    RandomInterleaver,
    RoundRobinInterleaver,
    make_interleaver,
)
from repro.machine.machine import Machine
from repro.mrr.chunk import Reason
from repro.mrr.logfmt import encode_chunks
from repro.mrr.recorder import NEVER, MemoryRaceRecorder
from repro.telemetry import Telemetry
from repro.workloads.base import WorkloadHarness
from tests.conftest import wire_recorder
from tests.reference import install_run_reference

BENCH_PROGRAMS = ("locks", "fft", "sigping", "radix")
POLICIES = ("random", "rr", "bursty")
MASK32 = 0xFFFFFFFF


def _fingerprint(outcome):
    recording = outcome.recording
    return (outcome.final_memory_digest,
            hashlib.sha256(encode_chunks(recording.chunks)).hexdigest(),
            hashlib.sha256(encode_events_v1(recording.events)).hexdigest(),
            outcome.units, outcome.total_cycles, outcome.kernel_stats,
            outcome.rsm_stats, outcome.machine_stats)


def _record(monkeypatch, name, seed, *, stepped=False, decode_cache=True,
            config=None, threads=4, telemetry=None, policy="random"):
    """Record ``name`` at scale 1 through the one loop or (``stepped``)
    the reference; returns the outcome and the number of
    ``Machine.step_core`` calls (zero on the one loop)."""
    program, inputs = workloads.build(name, threads=threads, scale=1)
    steps = []
    original = Machine.step_core

    def counting(self, core_id):
        steps.append(core_id)
        return original(self, core_id)

    with monkeypatch.context() as patch:
        patch.setattr(Machine, "step_core", counting)
        if stepped:
            install_run_reference(patch)
        outcome = session.record(program, seed=seed, input_files=inputs,
                                 decode_cache=decode_cache, policy=policy,
                                 config=config or DEFAULT_CONFIG,
                                 telemetry=telemetry)
    return outcome, len(steps)


# -- the one loop == the stepped loop -----------------------------------------

@pytest.mark.parametrize("name", BENCH_PROGRAMS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fused_loop_records_what_the_stepped_loop_records(monkeypatch, name,
                                                          seed):
    """Every policy, and the interpretive engine under the one loop."""
    for policy in POLICIES:
        fused, fused_steps = _record(monkeypatch, name, seed, policy=policy)
        stepped, stepped_steps = _record(monkeypatch, name, seed,
                                         stepped=True, policy=policy)
        interpreted, interpreted_steps = _record(
            monkeypatch, name, seed, decode_cache=False, policy=policy)
        assert fused_steps == interpreted_steps == 0
        assert stepped_steps == fused.units
        assert _fingerprint(stepped) == _fingerprint(fused)
        assert _fingerprint(interpreted) == _fingerprint(fused)


def test_fused_loop_with_telemetry_matches_the_stepped_loop(monkeypatch):
    for policy in POLICIES:
        fused, _ = _record(monkeypatch, "locks", 5, policy=policy,
                           telemetry=Telemetry(sampling=7))
        stepped, _ = _record(monkeypatch, "locks", 5, stepped=True,
                             policy=policy, telemetry=Telemetry(sampling=7))
        assert _fingerprint(stepped) == _fingerprint(fused)
        assert fused.telemetry.tracer.export() == \
            stepped.telemetry.tracer.export()


def _harness_program(name, body):
    """Four threads running ``body(builder)`` (the workload harness)."""
    harness = WorkloadHarness(4, name)
    harness.b.word("cell", 0, 0, 0, 0)
    harness.emit_main()
    harness.b.label("body")
    body(harness.b)
    harness.b.ins("ret")
    return harness.build()


def _sleepy(b):
    with b.for_range("r6", 0, 12):
        with b.for_range("r7", 0, 25):
            b.ins("add", "r8", "r8", 1)
            b.ins("store", "[cell]", "r8")
        b.syscall(SYS_NANOSLEEP, 40)


def test_sleepers_wake_alike_on_both_loops(monkeypatch):
    """Sleepers fall due while other cores run units: the fast path's
    sleeper check must hand those units to the slow path."""
    program = _harness_program("sleepy", _sleepy)
    for policy in POLICIES:
        outcomes = []
        for stepped in (False, True):
            with monkeypatch.context() as patch:
                if stepped:
                    install_run_reference(patch)
                outcomes.append(session.record(program, seed=6,
                                               policy=policy))
        assert outcomes[0].kernel_stats["blocks"] >= 40
        assert _fingerprint(outcomes[0]) == _fingerprint(outcomes[1])


def _faulty(b):
    with b.for_range("r6", 0, 150):
        b.ins("add", "r8", "r8", 1)
    b.ins("mov", "r1", "cell")
    b.ins("add", "r1", "r1", 2)
    b.ins("load", "r2", "[r1]")


def test_fault_is_tagged_alike_and_consumes_its_choice(monkeypatch):
    program = _harness_program("faulty", _faulty)
    for policy in POLICIES:
        faults, after = [], []
        for stepped in (False, True):
            interleaver = make_interleaver(policy, 2)
            with monkeypatch.context() as patch:
                patch.setattr(session, "make_interleaver",
                              lambda policy, seed: interleaver)
                if stepped:
                    install_run_reference(patch)
                with pytest.raises(MachineFault) as info:
                    session.record(program, seed=2, policy=policy)
            faults.append((str(info.value), info.value.core_id))
            # The interleaver continues after the faulting unit's choice.
            after.append([interleaver.choose([0, 1, 2, 3])
                          for _ in range(16)])
        assert faults[0][1] is not None
        assert faults[0] == faults[1]
        assert after[0] == after[1]


# -- the recorder's termination gate ------------------------------------------

def _small_signature_config():
    mrr = dataclasses.replace(DEFAULT_CONFIG.mrr, signature_bits=64,
                              saturation_threshold=0.1,
                              max_chunk_instructions=300)
    return dataclasses.replace(DEFAULT_CONFIG, mrr=mrr)


def test_gate_decides_as_checking_every_unit(monkeypatch):
    """With the gate forced to 0, ``after_unit`` re-derives size and
    saturation after every unit — the check the gate replaces."""
    config = _small_signature_config()
    gated, _ = _record(monkeypatch, "radix", 4, config=config)
    reasons = {chunk.reason for chunk in gated.recording.chunks}
    assert {Reason.SATURATION, Reason.SIZE} <= reasons
    with monkeypatch.context() as patch:
        patch.setattr(MemoryRaceRecorder, "gate", property(
            lambda self: 0 if self.rthread is not None else NEVER,
            lambda self, value: None), raising=False)
        every_unit, _ = _record(monkeypatch, "radix", 4, config=config)
    assert _fingerprint(every_unit) == _fingerprint(gated)


def test_gate_tracks_chunk_and_saturation():
    config = _small_signature_config()
    machine = Machine(config.machine)
    program, _ = workloads.build("counter", scale=1)
    machine.load_program(program)
    recorder = wire_recorder(machine.cores[0], config.mrr, [])
    assert recorder.gate == NEVER
    recorder.set_thread(1)
    assert recorder.gate == config.mrr.max_chunk_instructions
    line = 0
    while recorder.read_sig.bits_set < recorder._sat_min_bits:
        assert recorder.gate >= 0
        recorder.on_load(line)
        line += 64
    assert recorder.gate == -1
    recorder.after_unit()
    assert recorder.gate == config.mrr.max_chunk_instructions
    recorder.clear_thread()
    assert recorder.gate == NEVER


# -- the run queue does not force the slow path --------------------------------

def _run_with_queue_gate(self, interleaver, max_units=200_000_000):
    """The run loop as it was before queued tasks stopped forcing the
    slow path: the reference for oversubscribed runs."""
    machine = self.machine
    sleepers = self.sched.sleepers
    queue = self.sched.queue
    units = 0
    while self._live > 0:
        candidates = self._running_ids
        if not candidates:
            self.idle_tick()
            continue
        core_id = interleaver.choose(candidates)
        outcome = machine.step_core(core_id)
        core = machine.cores[core_id]
        task = core.task
        task.units_in_quantum += 1
        if (outcome != OUTCOME_OK
                or task.units_in_quantum >= task.quantum_limit
                or queue
                or (sleepers and sleepers[0][0] <= machine.global_step)):
            self._after_unit_slow(core, task, outcome)
        units += 1
    return units


def test_oversubscribed_recording_unchanged(monkeypatch):
    config = dataclasses.replace(
        DEFAULT_CONFIG, kernel=dataclasses.replace(
            DEFAULT_CONFIG.kernel, quantum_instructions=500))
    fused, _ = _record(monkeypatch, "fft", 1, config=config, threads=8)
    with monkeypatch.context() as patch:
        patch.setattr(Kernel, "run", _run_with_queue_gate)
        reference, _ = _record(monkeypatch, "fft", 1, config=config,
                               threads=8)
    assert fused.kernel_stats["preemptions"] > 0
    assert _fingerprint(fused) == _fingerprint(reference)


def test_slow_path_runs_only_on_trap_quantum_or_sleeper(monkeypatch):
    original = Kernel._after_unit_slow
    calls = {"queued": 0, "total": 0}

    def checked(self, core, task, outcome):
        sleepers = self.sched.sleepers
        assert (outcome != OUTCOME_OK
                or task.units_in_quantum >= task.quantum_limit
                or (sleepers
                    and sleepers[0][0] <= self.machine.global_step))
        calls["total"] += 1
        calls["queued"] += bool(self.sched.queue)
        return original(self, core, task, outcome)

    monkeypatch.setattr(Kernel, "_after_unit_slow", checked)
    outcome, _ = _record(monkeypatch, "fft", 2, threads=8)
    assert calls["queued"] > 0
    assert calls["total"] < outcome.units // 20


# -- store-buffer accounting ------------------------------------------------------

def test_buffered_store_count_matches_the_buffers(monkeypatch):
    ticks = []
    original = Machine._drain_all_cores

    def checked(self):
        assert self.buffered_stores == sum(
            len(core.store_buffer) for core in self.cores) > 0
        ticks.append(self.global_step)
        return original(self)

    monkeypatch.setattr(Machine, "_drain_all_cores", checked)
    outcome, _ = _record(monkeypatch, "locks", 3)
    assert ticks
    assert len(ticks) < outcome.units // outcome.recording.config.machine \
        .store_buffer.drain_period


# -- the interleaver's word stream ----------------------------------------------

@pytest.mark.parametrize("k", range(1, 33))
def test_bulk_draw_equals_single_draws(k):
    """m ``getrandbits(k)`` calls return the words of one
    ``getrandbits(32*m)``, least significant first, shifted right by
    ``32 - k`` — and leave the generator in the same state."""
    m = 67
    single = random.Random(1000 + k)
    values = [single.getrandbits(k) for _ in range(m)]
    bulk = random.Random(1000 + k)
    block = bulk.getrandbits(32 * m)
    words = [(block >> (32 * i)) & MASK32 for i in range(m)]
    assert [word >> (32 - k) for word in words] == values
    assert bulk.getstate() == single.getstate()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 8, 9, 33, 64])
def test_choose_is_randrange(n):
    candidates = list(range(100, 100 + n))
    reference = random.Random(9)
    interleaver = RandomInterleaver(9)
    for _ in range(3000):
        assert interleaver.choose(candidates) == \
            candidates[reference.randrange(n)]


def _check_choice_runs(make, script, min_used):
    """Choices taken a run at a time, interleaved with ``choose`` calls
    and changes of the candidate set (down to one core and back), are the
    choices ``choose`` alone makes, and leave the interleaver where those
    calls leave it. Half the steps keep the previous candidates, so runs
    also continue one another."""
    runs, reference = make(), make()
    cores = list(range(8))
    candidates = cores
    for _ in range(400):
        if script.random() < 0.5:
            candidates = sorted(script.sample(cores, script.randint(1, 8)))
        if script.random() < 0.3:
            assert runs.choose(candidates) == reference.choose(candidates)
            continue
        run = list(runs.choice_run(candidates, script.randint(1, 300)))
        assert run
        used = script.randint(min_used, len(run))
        assert run[:used] == [reference.choose(candidates)
                              for _ in range(used)]
        runs.consume(used)
    for candidates in (cores, [3], cores[2:5]):
        assert [runs.choose(candidates) for _ in range(50)] == \
            [reference.choose(candidates) for _ in range(50)]


@pytest.mark.parametrize("bulk_words,run_words", [(1024, 128), (5, 2),
                                                  (3, 8), (1, 1)])
def test_choice_runs_continue_the_choose_stream(monkeypatch, bulk_words,
                                                run_words):
    """Across bulk-draw and run boundaries, including runs whose every
    draw is rejected; a run may be consumed not at all."""
    monkeypatch.setattr(interleave, "BULK_WORDS", bulk_words)
    monkeypatch.setattr(interleave, "RUN_WORDS", run_words)
    _check_choice_runs(lambda: RandomInterleaver(4), random.Random(3), 0)


@pytest.mark.parametrize("make", [
    RoundRobinInterleaver,
    lambda: BurstyInterleaver(4),
    lambda: BurstyInterleaver(5, min_burst=1, max_burst=6),
], ids=["rr", "bursty", "bursty-short"])
@pytest.mark.parametrize("script_seed", [3, 11])
def test_stateful_choice_runs_continue_the_choose_stream(make, script_seed):
    """rr's rotation and bursty's bursts, run by run: every run's first
    choice is taken (the kernel's first unit of a pass always runs)."""
    _check_choice_runs(make, random.Random(script_seed), 1)


def test_choice_runs_refuse_too_many_candidates():
    with pytest.raises(ValueError):
        RandomInterleaver(1).choice_run(list(range(65)), 10)
