"""The flat trap bodies against the method-built trap chain they inline.

The kernel runs each trap kind (syscall, trapped nondeterministic
instruction, preemption with its undispatch and dispatch, signal
delivery) as one body, and the RSM logs a syscall in one body and the
other input kinds in one shared body.
:func:`tests.reference.install_trap_reference` puts back the chain of
calls those bodies replaced. A run through either must leave the same
trace: chunk log, input events, kernel, RSM and machine statistics,
per-core cycles, memory and the record digest, or the same fault with the
same message and the same state at the fault; with telemetry on, the same
metrics and trace events too.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import session, workloads
from repro.capo.rsm import MODE_FULL, MODE_HW
from repro.config import (
    DEFAULT_CONFIG,
    CapoConfig,
    KernelConfig,
    MachineConfig,
    SimConfig,
    StoreBufferConfig,
)
from repro.errors import ReproError
from repro.isa.builder import (
    SYS_FUTEX_WAIT,
    SYS_GETTID,
    SYS_KILL,
    SYS_NANOSLEEP,
    SYS_SIGACTION,
    SYS_SIGRETURN,
    KernelBuilder,
)
from repro.kernel.kernel import Kernel
from repro.session import digest_of
from repro.telemetry import Telemetry
from repro.workloads.fuzz import build_program
from tests.integration.test_spheres import background_program, sphere_program
from tests.property.test_property_roundtrip import thread_strategy
from tests.reference import install_trap_reference

BENCH_PROGRAMS = ("locks", "fft", "sigping", "radix")


def _trace(program, *, reference, mode=MODE_FULL, telemetry=None,
           **kwargs):
    """Run ``program`` through the flat or the reference trap path and
    return everything the run leaves behind, comparable with ``==``.

    The unit budget is far above any run here, but a path that loses a
    signal can leave a thread spinning on it: the budget makes that a
    fault in seconds rather than a 200M-unit run."""
    kwargs.setdefault("max_units", 1_000_000)
    kernels = []
    run = Kernel.run

    def capturing_run(self, *args, **run_kwargs):
        kernels.append(self)
        return run(self, *args, **run_kwargs)

    with pytest.MonkeyPatch.context() as patch:
        if reference:
            install_trap_reference(patch)
        patch.setattr(Kernel, "run", capturing_run)
        try:
            outcome = session.simulate(program, mode=mode,
                                       telemetry=telemetry, **kwargs)
            recording = outcome.recording
            result = ("ok", outcome.units, outcome.outputs,
                      outcome.exit_codes,
                      digest_of(outcome) if recording else None,
                      list(recording.events) if recording else None)
        except ReproError as fault:
            result = ("fault", type(fault).__name__, str(fault))
    kernel = kernels[0]
    machine, rsm = kernel.machine, kernel.rsm
    state = (result,
             kernel.stats.as_dict(),
             json.dumps(machine.stats_dict(), sort_keys=True),
             [core.cycles for core in machine.cores],
             machine.memory.digest())
    if rsm is not None:
        state += (rsm.stats.as_dict(), list(rsm.chunk_log),
                  list(rsm.events))
        ring = rsm.flight
        if ring is not None:
            state += ((ring.chunks_seen, ring.events_seen, ring.evictions,
                       ring.max_chunks_retained, ring.max_events_retained),)
    if telemetry is not None:
        state += (telemetry.metrics.snapshot(),
                  list(telemetry.tracer.events))
    return state


def _first_difference(flat, reference):
    """A short description of where two unequal values first differ
    (pytest's own diff of a whole chunk log runs to gigabytes)."""
    sequence = (list, tuple)
    if isinstance(flat, sequence) and isinstance(reference, sequence):
        for index, (left, right) in enumerate(zip(flat, reference)):
            if left != right:
                return f"[{index}] " + _first_difference(left, right)
        return f"lengths {len(flat)} != {len(reference)}"
    if isinstance(flat, dict) and isinstance(reference, dict):
        for key in sorted(flat.keys() | reference.keys(), key=str):
            if flat.get(key) != reference.get(key):
                return f"[{key!r}] " + _first_difference(flat.get(key),
                                                         reference.get(key))
    return f"{flat!r:.300} != {reference!r:.300}"


def _lockstep(program, **kwargs):
    """The flat and the reference trace of one run, asserted equal."""
    flat = _trace(program, reference=False, **kwargs)
    telemetry = kwargs.pop("telemetry", None)
    if telemetry is not None:
        kwargs["telemetry"] = Telemetry()
    reference = _trace(program, reference=True, **kwargs)
    if flat != reference:
        pytest.fail("flat and reference traces differ at "
                    + _first_difference(flat, reference), pytrace=False)
    return flat


@pytest.mark.parametrize("name", BENCH_PROGRAMS)
@pytest.mark.parametrize("policy", ["random", "rr"])
@pytest.mark.parametrize("mode", [MODE_FULL, MODE_HW])
def test_bench_programs_trap_alike(name, policy, mode):
    program, inputs = workloads.build(name, scale=1)
    for seed in (1, 2, 3):
        state = _lockstep(program, seed=seed, policy=policy, mode=mode,
                          input_files=inputs)
        assert state[0][0] == "ok", state[0]
        if mode == MODE_FULL:
            assert state[1]["syscalls"] and state[7], "nothing was logged"


def test_telemetry_sees_the_same_traps():
    program, inputs = workloads.build("sigping", scale=1)
    state = _lockstep(program, seed=2, input_files=inputs,
                      telemetry=Telemetry())
    metrics = state[-2]
    assert metrics["kernel.syscalls"] and metrics["kernel.signals_delivered"]
    assert metrics["capo.input_events.signal"]


def test_flight_ring_receives_the_same_events():
    program, inputs = workloads.build("sigping", scale=1)
    config = dataclasses.replace(
        DEFAULT_CONFIG,
        capo=CapoConfig(flight_window=2, flight_epoch_chunks=16))
    state = _lockstep(program, seed=3, input_files=inputs, config=config)
    rsm_stats, ring = state[5], state[-1]
    assert not state[7], "events go to the ring, not the unbounded list"
    assert ring[1] == rsm_stats["input_events"] > 0 and ring[2] > 0


def test_unrecorded_background_process_traps_alike():
    backgrounds = [background_program(0x100000, noisy_stdout=True),
                   background_program(0x120000, iters=900,
                                      noisy_stdout=True)]
    for seed in (4, 9):
        state = _lockstep(sphere_program(), seed=seed,
                          background_programs=backgrounds)
        assert state[0][0] == "ok"
        assert b"bg!" in b"".join(state[0][2].values())


def test_copy_to_user_payloads_dedup_alike():
    """Every thread reads the same file content: the first read pools
    it, the others hit the pool."""
    program, inputs = workloads.build("iobound", scale=1)
    shared = inputs["in_0"]
    inputs = {name: shared for name in inputs}
    state = _lockstep(program, seed=5, input_files=inputs)
    rsm_stats = state[5]
    assert rsm_stats["input_payload_bytes"] > 0
    assert rsm_stats["input_payload_dedup_bytes"] > 0


def _sleepers_program(spinner):
    """Two workers park on a futex, then in nanosleep; main sleeps, wakes
    the futex and polls with short sleeps. Every thread folds each
    blocking call's result (``rax``) and a time stamp taken after it into
    ``sums``. With ``spinner``, a third thread keeps a core busy, so
    sleepers come due between units rather than on idle ticks."""
    b = KernelBuilder()
    b.word("flag", 0)
    b.word("done", 0)
    b.word("sums", 0, 0, 0)
    b.space("stacks", 4 * 1024)
    b.label("main")
    for tid in (1, 2, 3) if spinner else (1, 2):
        b.ins("mov", "r9", "stacks")
        b.ins("add", "r9", "r9", (tid + 1) * 1024 - 16)
        b.spawn(f"worker_{tid}", "r9", tid)
    b.ins("mov", "r8", 0)
    b.syscall(SYS_NANOSLEEP, 300)
    b.ins("add", "r8", "r8", "rax")
    b.ins("mov", "r7", 1)
    b.ins("store", "[flag]", "r7")
    b.futex_wake("flag", 4)
    join = b.label("join")
    b.syscall(SYS_NANOSLEEP, 20)
    b.ins("rdtsc", "r7")
    b.ins("add", "r8", "r8", "r7")
    b.ins("load", "r7", "[done]")
    b.ins("cmp", "r7", 2)
    b.ins("jne", join)
    b.ins("store", "[sums]", "r8")
    b.ins("mov", "r7", 1)
    b.ins("xadd", "[done]", "r7")  # done == 3 releases the spinner
    b.exit(0)
    for tid in (1, 2):
        b.label(f"worker_{tid}")
        b.ins("mov", "r8", 0)
        wait = b.label(f"wait_{tid}")
        b.ins("load", "r7", "[flag]")
        b.ins("cmp", "r7", 0)
        woken = b.fresh("woken")
        b.ins("jne", woken)
        b.syscall(SYS_FUTEX_WAIT, "flag", 0)
        b.ins("add", "r8", "r8", "rax")
        b.ins("jmp", wait)
        b.label(woken)
        b.syscall(SYS_NANOSLEEP, 50 * tid)
        b.ins("add", "r8", "r8", "rax")
        b.ins("rdtsc", "r7")
        b.ins("add", "r8", "r8", "r7")
        b.ins("store", f"[sums + {4 * tid}]", "r8")
        b.ins("mov", "r7", 1)
        b.ins("xadd", "[done]", "r7")
        b.exit(0)
    b.label("worker_3")
    spin = b.label("spin")
    b.ins("load", "r7", "[done]")
    b.ins("cmp", "r7", 3)
    b.ins("jne", spin)
    b.exit(0)
    return b.build("sleepers")


@pytest.mark.parametrize("spinner", [False, True])
@pytest.mark.parametrize("cores", [1, 2])
def test_futex_and_sleep_blocking_alike(cores, spinner):
    config = SimConfig(machine=MachineConfig(num_cores=cores),
                       kernel=KernelConfig(quantum_instructions=40))
    for seed in (1, 2):
        state = _lockstep(_sleepers_program(spinner), seed=seed,
                          config=config)
        assert state[0][0] == "ok"
        assert state[1]["blocks"] >= 3
        assert bool(state[1]["idle_ticks"]) is not spinner


def _signalled_trapper_program(trap):
    """Main signals a worker that loops on one trap (``rdtsc`` or a
    ``gettid`` syscall) and never blocks, so each signal is delivered at
    the exit of the worker's next trap, not at a dispatch."""
    b = KernelBuilder()
    b.word("hits", 0)
    b.word("stop", 0)
    b.space("stack", 1024)
    b.label("main")
    b.ins("mov", "r9", "stack")
    b.ins("add", "r9", "r9", 1024 - 16)
    b.spawn("worker", "r9", 0)
    with b.for_range("r6", 0, 12):
        b.syscall(SYS_KILL, 2, 10)
        with b.for_range("r5", 0, 25):
            b.ins("pause")
    b.ins("mov", "r7", 1)
    b.ins("store", "[stop]", "r7")
    b.exit(0)
    b.label("worker")
    b.syscall(SYS_SIGACTION, 10, "handler")
    loop = b.label("spin")
    if trap == "rdtsc":
        b.ins("rdtsc", "r7")
    else:
        b.syscall(SYS_GETTID)
    b.ins("load", "r7", "[stop]")
    b.ins("cmp", "r7", 0)
    b.ins("je", loop)
    b.exit(0)
    b.label("handler")
    b.ins("mov", "r7", 1)
    b.ins("xadd", "[hits]", "r7")
    b.syscall(SYS_SIGRETURN)
    return b.build(f"signalled-{trap}")


@pytest.mark.parametrize("trap", ["rdtsc", "gettid"])
def test_signals_are_delivered_at_the_next_trap_exit(trap):
    config = SimConfig(machine=MachineConfig(num_cores=2),
                       kernel=KernelConfig(quantum_instructions=100_000))
    for seed in (1, 2):
        state = _lockstep(_signalled_trapper_program(trap), seed=seed,
                          config=config)
        assert state[0][0] == "ok"
        assert state[1]["signals_delivered"] >= 6
        assert state[1]["preemptions"] == 0


def _stray_sigreturn_program():
    b = KernelBuilder()
    b.label("main")
    b.ins("rdtsc", "r7")
    b.syscall(SYS_SIGRETURN)
    b.exit(0)
    return b.build("stray-sigreturn")


def test_faults_raise_alike_with_the_same_state():
    state = _lockstep(_stray_sigreturn_program(), seed=1)
    assert state[0] == ("fault", "KernelError",
                        "tid 1: sigreturn with no saved context")
    program, inputs = workloads.build("sigping", scale=1)
    state = _lockstep(program, seed=1, input_files=inputs, max_units=5000)
    assert state[0][:2] == ("fault", "KernelError")


@given(
    threads_ops=st.lists(thread_strategy, min_size=2, max_size=3),
    repeats=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    policy=st.sampled_from(["random", "rr", "bursty"]),
    mode=st.sampled_from([MODE_FULL, MODE_HW]),
    cores=st.sampled_from([1, 2, 4]),
    quantum=st.integers(20, 2000),
    sb_entries=st.integers(1, 12),
)
@settings(max_examples=25, deadline=None)
def test_fuzz_programs_trap_alike(threads_ops, repeats, seed, policy, mode,
                                  cores, quantum, sb_entries):
    config = SimConfig(
        machine=MachineConfig(
            num_cores=cores, memory_bytes=1 << 18,
            store_buffer=StoreBufferConfig(entries=sb_entries)),
        kernel=KernelConfig(quantum_instructions=quantum))
    _lockstep(build_program(threads_ops, repeats), seed=seed, policy=policy,
              mode=mode, config=config)
