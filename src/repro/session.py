"""High-level API: run, record, replay, verify.

This is the module most users (and all examples/benchmarks) interact with::

    from repro import session

    outcome = session.record(program, seed=7)
    replayed = session.replay_recording(outcome.recording)
    report = session.verify(outcome, replayed)
    assert report.ok

Recording modes:

- ``MODE_OFF``  — bare machine, the native baseline;
- ``MODE_HW``   — MRR hardware active, no software stack costs/logging;
- ``MODE_FULL`` — the complete Capo3 stack; produces a replayable
  :class:`~repro.capo.recording.Recording`.

Runs with identical (program, config, seeds, inputs) execute identically in
every mode — only cycle accounting differs — which is how the overhead
experiments isolate recording cost.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from .capo.recording import Recording
from .capo.rsm import MODE_FULL, MODE_HW, ReplaySphereManager
from .config import DEFAULT_CONFIG, SimConfig
from .errors import ConfigError
from .isa.program import Program
from .kernel.kernel import Kernel
from .machine.interleave import make_interleaver
from .machine.machine import Machine
from .mrr.chunk import Reason
from .mrr.logfmt import encode_chunks
from .perf.costmodel import CostModel
from .replay.replayer import ReplayResult
from .replay.verify import VerificationReport, verify_replay
from .telemetry import NULL_TELEMETRY, MetricsRegistry, Telemetry

MODE_OFF = "off"
MODES = (MODE_OFF, MODE_HW, MODE_FULL)

_KERNEL_SEED_SALT = 0x5EED_C0DE

# Stack allowance appended to a background/primary process region when the
# main stack cannot live at the top of memory (multi-process runs).
_REGION_STACK_BYTES = 16 * 1024


@dataclass
class RunOutcome:
    """Everything observable about one simulated run.

    ``sphere_*`` fields restrict to the recorded process (the replay
    sphere); without background processes they equal the full-run fields.
    """

    mode: str
    units: int
    total_cycles: int
    outputs: dict[str, bytes]
    exit_codes: dict[int, int]
    final_memory_digest: str
    machine_stats: dict[str, Any]
    kernel_stats: dict[str, Any]
    sphere_outputs: dict[str, bytes] | None = None
    sphere_exit_codes: dict[int, int] | None = None
    sphere_region: tuple[int, int] | None = None
    sphere_digest: str | None = None
    rsm_stats: dict[str, Any] | None = None
    recording: Recording | None = None
    # The run's telemetry (tracer + metrics); NULL_TELEMETRY when disabled.
    telemetry: Telemetry | None = None

    @property
    def instructions(self) -> int:
        return sum(core["retired"] for core in self.machine_stats["cores"])


def digest_of(outcome: RunOutcome) -> str:
    """Determinism digest of a record run: memory image, chunk log, cycle
    and unit counts. Bit-identical runs — and only those — share it."""
    h = hashlib.sha256()
    h.update(outcome.final_memory_digest.encode())
    h.update(encode_chunks(outcome.recording.chunks))
    h.update(str(outcome.total_cycles).encode())
    h.update(str(outcome.units).encode())
    return h.hexdigest()


def _region_of(program: Program) -> tuple[int, int]:
    """A process's memory region: data segment plus main-stack allowance."""
    return (program.data_base, len(program.data) + _REGION_STACK_BYTES)


def _check_disjoint_regions(programs: Sequence[Program],
                            memory_bytes: int) -> None:
    regions = sorted(_region_of(p) for p in programs)
    previous_end = 0
    for start, size in regions:
        if start < previous_end:
            raise ConfigError(
                "process memory regions overlap; give each program a "
                "distinct data_base with room for data + 16 KiB of stack")
        if start + size > memory_bytes:
            raise ConfigError("process region extends past physical memory")
        previous_end = start + size


def simulate(program: Program, config: SimConfig | None = None,
             seed: int = 0, policy: str = "random", mode: str = MODE_OFF,
             input_files: Mapping[str, bytes] | None = None,
             kernel_seed: int | None = None, cost: CostModel | None = None,
             background_programs: Sequence[Program] = (),
             max_units: int = 200_000_000,
             telemetry: Telemetry | None = None,
             decode_cache: bool = True) -> RunOutcome:
    """Run ``program`` to completion under the given recording mode.

    ``background_programs`` are loaded as additional *unrecorded*
    processes sharing the machine (disjoint data regions required): the
    Capo multiprogramming scenario. Only the primary program is in the
    replay sphere; verification then scopes to its region, its writes,
    and its threads' exit codes.

    ``telemetry`` is the one switch for tracing and metrics.

    ``decode_cache=False`` switches off the machine's compiled engines;
    the run is bit-identical either way (see :class:`Machine`).
    """
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; choose from {MODES}")
    config = config or DEFAULT_CONFIG
    telemetry = telemetry or NULL_TELEMETRY
    machine = Machine(config.machine, cost=cost, telemetry=telemetry,
                      decode_cache=decode_cache)
    if telemetry.enabled:
        # Trace time is simulated time: one tick per machine step.
        telemetry.tracer.clock = lambda: machine.global_step
        telemetry.tracer.instant("run.start", cat="session",
                                 args={"mode": mode, "seed": seed,
                                       "policy": policy,
                                       "program": program.name})
    machine.load_program(program)

    rsm = None
    if mode != MODE_OFF:
        rsm = ReplaySphereManager(machine, config, mode=mode)

    if kernel_seed is None:
        kernel_seed = (seed ^ _KERNEL_SEED_SALT) & 0xFFFFFFFF
    kernel = Kernel(machine, config.kernel, rsm=rsm, seed=kernel_seed)
    for name, data in (input_files or {}).items():
        kernel.vfs.add_file(name, data)

    sphere_region = None
    main_sp = None
    if background_programs:
        _check_disjoint_regions([program, *background_programs],
                                config.machine.memory_bytes)
        # the primary's main stack moves into its own region so the sphere
        # digest covers everything the recorded process touches
        sphere_region = _region_of(program)
        main_sp = (sphere_region[0] + sphere_region[1] - 16) & ~15
        kernel.add_process(program, stack_top=main_sp,
                           recorded=rsm is not None)
        for extra in background_programs:
            machine.memory.load_blob(extra.data_base, extra.data)
            region = _region_of(extra)
            stack_top = (region[0] + region[1] - 16) & ~15
            kernel.add_process(extra, stack_top=stack_top, recorded=False)
    else:
        kernel.boot()
    flight_ring = None
    if rsm is not None and mode == MODE_FULL and config.capo.flight_window > 0:
        # Bounded retention: the ring (and its shadow replayer) must know
        # the sphere layout before the first chunk terminates.
        from .flight import FlightRing
        ring_meta = {}
        if sphere_region is not None:
            ring_meta = {"sphere_region": list(sphere_region),
                         "main_sp": main_sp}
        flight_ring = FlightRing(config, program, metadata=ring_meta,
                                 telemetry=telemetry)
        rsm.attach_flight(flight_ring)
    interleaver = make_interleaver(policy, seed)
    try:
        units = kernel.run(interleaver, max_units=max_units)
        if rsm is not None:
            rsm.finalize()
    finally:
        if telemetry.enabled:
            _publish_stats(telemetry.metrics, machine, kernel, rsm)

    recording = None
    rsm_stats = None
    if rsm is not None:
        rsm_stats = rsm.stats.as_dict()
    exit_codes = {tid: task.exit_code for tid, task in kernel.tasks.items()}
    outputs = kernel.vfs.written()
    sphere_outputs = kernel.vfs.written_recorded()
    recorded_tids = set(kernel.recorded_tids())
    sphere_exit_codes = {tid: code for tid, code in exit_codes.items()
                         if tid in recorded_tids} if recorded_tids else None
    digest = machine.memory.digest()
    sphere_digest = None
    if sphere_region is not None:
        sphere_digest = machine.memory.digest_range(*sphere_region)
    if rsm is not None and mode == MODE_FULL:
        verify_digest = sphere_digest or digest
        verify_exit_codes = sphere_exit_codes or exit_codes
        metadata = {
            "final_memory_digest": verify_digest,
            "exit_codes": {str(tid): code
                           for tid, code in verify_exit_codes.items()},
            "outputs_hex": {name: data.hex()
                            for name, data in sphere_outputs.items()},
            "seed": seed,
            "policy": policy,
            "program_name": program.name,
        }
        if sphere_region is not None:
            metadata["sphere_region"] = list(sphere_region)
            metadata["main_sp"] = main_sp
        if flight_ring is not None:
            # The retained window, rebased to its origin; replays to the
            # same final digests as the unbounded recording would.
            recording = flight_ring.materialize(metadata)
        else:
            recording = Recording(
                config=config,
                program=program,
                chunks=list(rsm.chunk_log),
                events=list(rsm.events),
                metadata=metadata,
            )
    if telemetry.enabled:
        telemetry.tracer.instant("run.end", cat="session",
                                 args={"units": units,
                                       "cycles": machine.total_cycles})
        metrics = telemetry.metrics
        metrics.gauge("session.units").set(units)
        metrics.gauge("session.total_cycles").set(machine.total_cycles)
        if recording is not None:
            metrics.gauge("recording.chunks").set(len(recording.chunks))
            metrics.gauge("recording.input_events").set(len(recording.events))
            metrics.gauge("recording.chunk_log_bytes").set(
                recording.chunk_log_bytes())
            metrics.gauge("recording.input_log_bytes").set(
                recording.input_log_bytes())
    return RunOutcome(
        mode=mode,
        units=units,
        total_cycles=machine.total_cycles,
        outputs=outputs,
        exit_codes=exit_codes,
        final_memory_digest=digest,
        machine_stats=machine.stats_dict(),
        kernel_stats=kernel.stats.as_dict(),
        sphere_outputs=sphere_outputs,
        sphere_exit_codes=sphere_exit_codes,
        sphere_region=sphere_region,
        sphere_digest=sphere_digest,
        rsm_stats=rsm_stats,
        recording=recording,
        telemetry=telemetry,
    )


def _publish_stats(metrics: MetricsRegistry, machine: Machine,
                   kernel: Kernel, rsm: ReplaySphereManager | None) -> None:
    """Every record-side metric that a stat, a chunk entry or the flight
    ring holds. Counters exist even at 0 (``capo.*``/``mrr.*`` only with
    an RSM, ``mrr.chunks.<reason>`` only for reasons that occurred) and are
    incremented, histograms observed, so a registry shared across runs
    sums them."""
    bus = machine.bus.stats
    for key, value in bus.as_dict().items():
        if isinstance(value, int):
            metrics.gauge(f"machine.bus.{key}").set(value)
    counts = {"machine.bus_reads": bus.reads,
              "machine.bus_writes": bus.read_exclusives,
              "machine.bus_upgrades": bus.upgrades,
              "machine.store_drains": machine.store_drains,
              "machine.coherent_copy_lines": machine.coherent_copy_lines}
    stats = kernel.stats
    for name in ("syscalls", "preemptions", "blocks", "signals_delivered",
                 "dispatches"):
        counts[f"kernel.{name}"] = getattr(stats, name)
    for name, count in stats.syscalls_by_name.items():
        counts[f"kernel.syscalls.{name}"] = count
    # The futex_wake syscall is the one caller of Kernel.wake_futex.
    counts["kernel.futex_wakes"] = stats.syscalls_by_name.get("futex_wake", 0)
    if rsm is not None:
        rsm_stats = rsm.stats
        counts["mrr.chunks_total"] = rsm_stats.chunks
        for name in ("cbuf_drains", "input_events", "input_payload_bytes",
                     "input_payload_dedup_bytes"):
            counts[f"capo.{name}"] = getattr(rsm_stats, name)
        for kind, count in rsm_stats.events_by_kind.items():
            counts[f"capo.input_events.{kind}"] = count
        counts["capo.sphere_threads"] = len(rsm.sphere.rthreads)
        # The drained chunk entries, and any a run that raised left in
        # the CBUFs.
        shapes = rsm.drained_chunks + Counter(
            (entry.reason, entry.icount, entry.rsw)
            for recorder in rsm.recorders for entry in recorder.cbuf._entries)
        by_reason: Counter[str] = Counter()
        icounts = metrics.histogram("mrr.chunk_instructions")
        rsws = metrics.histogram("mrr.chunk_rsw")
        for (reason, icount, rsw), count in shapes.items():
            by_reason[reason] += count
            for _ in range(count):
                icounts.observe(icount)
                rsws.observe(rsw)
        counts.update((f"mrr.chunks.{reason}", count)
                      for reason, count in by_reason.items())
        counts["mrr.snoop_terminations"] = sum(
            by_reason[reason] for reason in Reason.CONFLICTS)
        ring = rsm.flight
        if ring is not None:
            counts["capture.evictions"] = ring.evictions
            metrics.gauge("capture.flight_window").set(ring.window)
            metrics.gauge("capture.flight_epoch_chunks").set(ring.epoch_chunks)
            for name in ("chunks_retained", "events_retained", "chunks_seen",
                         "events_seen", "base_position"):
                metrics.gauge(f"capture.{name}").set(getattr(ring, name))
    for name, count in counts.items():
        metrics.counter(name).inc(count)


def record(program: Program, **kwargs) -> RunOutcome:
    """Run with the full Capo3 stack; the outcome carries a Recording."""
    kwargs.pop("mode", None)
    return simulate(program, mode=MODE_FULL, **kwargs)


def add_checkpoints(recording: Recording, every: int,
                    telemetry: Telemetry | None = None) -> Recording:
    """Embed periodic replay-state checkpoints into ``recording``.

    Runs one serial replay pass (which also validates the recording end to
    end) and snapshots deterministic replay state at every ``every``-th
    chunk-schedule position. The checkpoints ride along in the bundle
    (``checkpoints.bin``) and enable O(interval) seek and parallel replay.
    """
    from .capo.recording import FLIGHT_META_KEY
    from .replay.checkpoint import build_checkpoints
    # A flight window's position-0 record is its replay base, not a
    # periodic checkpoint — it must survive a (re)build.
    base = recording.checkpoint_at(0) \
        if FLIGHT_META_KEY in recording.metadata else None
    records = build_checkpoints(recording, every, telemetry=telemetry)
    recording.checkpoints = ([base] + records) if base is not None \
        else records
    return recording


def replay_recording(recording: Recording,
                     telemetry: Telemetry | None = None) -> ReplayResult:
    """Replay a recording from its logs alone, serially; its checkpoint
    intervals replay in parallel, bit-identically, through
    :func:`~repro.replay.parallel.replay_parallel`."""
    from .replay.checkpoint import base_replayer
    return base_replayer(recording, telemetry=telemetry).run()


def verify(outcome: RunOutcome, replayed: ReplayResult) -> VerificationReport:
    """Compare a recorded run against its replay.

    Scopes to the replay sphere: with background processes, the compared
    digest is the sphere region's, the outputs are the sphere's writes,
    and the exit codes are the sphere's threads'.
    """
    if outcome.sphere_region is not None:
        return verify_replay(outcome.sphere_digest,
                             outcome.sphere_outputs or {},
                             outcome.sphere_exit_codes or {}, replayed,
                             use_region=True)
    return verify_replay(outcome.final_memory_digest, outcome.outputs,
                         outcome.exit_codes, replayed)


def record_and_replay(program: Program, **kwargs) -> tuple[
        RunOutcome, ReplayResult, VerificationReport]:
    """Record, replay, verify — the full round trip in one call."""
    outcome = record(program, **kwargs)
    replayed = replay_recording(outcome.recording)
    return outcome, replayed, verify(outcome, replayed)
