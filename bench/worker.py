"""One benchmark workload in its own process.

Runs set-up (imports, ``workloads.build``, one untimed warm-up round
trip), then timed round trips until the time budget is spent, and prints
one JSON line with every sample. ``run.py`` starts this script; it is not
meant to be run by hand.

A round trip is what a user of the record/replay stack does with one
execution: ``session.record`` -> (``session.add_checkpoints``) ->
``Recording.save`` -> ``Recording.load`` with every section forced ->
replay -> ``session.verify``. Round trip *i* uses interleaving seed
``--seed + i``, so the same seed gives the same round trips.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import resource
import shutil
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

from layers import LayerTrace  # noqa: E402
from repro import session, workloads  # noqa: E402
from repro.capo.events import EV_EXIT  # noqa: E402
from repro.capo.recording import Recording  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.perf.bench import digest_of  # noqa: E402
from repro.replay.parallel import replay_parallel  # noqa: E402
from repro.telemetry import Tracer  # noqa: E402


@dataclasses.dataclass(frozen=True)
class Workload:
    program: str
    scale: int
    checkpointed: bool = False


#: Each workload stresses a different layer; README.md gives the reasons.
WORKLOADS = {
    "contended": Workload("locks", 8),
    "compute": Workload("fft", 4),
    "syscall": Workload("sigping", 200),
    "checkpointed": Workload("radix", 8, checkpointed=True),
}

THREADS = 4
#: Checkpoint spacing for the checkpointed workload: chunks // 16.
CHECKPOINT_INTERVALS = 16
#: Parallel replay workers; the benchmark host has two CPUs.
PARALLEL_JOBS = 2
#: The warm-up seed lies outside every run's timed seeds ``seed + i``.
WARMUP_SEED_OFFSET = 1 << 30
#: A run times at least this many round trips, whatever ``--seconds`` is.
MIN_ROUNDTRIPS = 3
#: ``--quick`` (the self-test): scale 1 and this many timed round trips.
QUICK_ROUNDTRIPS = 2
#: The host-speed yardstick: iterations of the reference kernel, and its
#: wall time on an otherwise idle 2-vCPU Intel Xeon VM. This host's speed
#: swings up to threefold over minutes, so host-time samples are scaled
#: by how long the kernel took around each round trip (see README.md).
REFERENCE_ITERATIONS = 200_000
REFERENCE_NOMINAL_S = 0.030


def reference_s() -> float:
    """Wall time of a fixed pure-Python kernel that runs no repository
    code, so only the host's speed moves it."""
    start = time.perf_counter()
    acc = 0
    table = [0] * 256
    for i in range(REFERENCE_ITERATIONS):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[acc & 255] += 1
    return time.perf_counter() - start


def at_nominal_speed(samples: dict[str, float],
                     slowdown: float) -> dict[str, float]:
    """Host-time samples as they would read at REFERENCE_NOMINAL_S:
    seconds divided and rates multiplied by ``slowdown``."""
    out = {}
    for name, value in samples.items():
        if name.endswith("_per_s"):
            value *= slowdown
        elif name.endswith("_s"):
            value /= slowdown
        out[name] = value
    return out


class RoundTripFailure(Exception):
    """A round trip completed but produced a wrong result."""


class Phases:
    """Wall time of each phase of one round trip, optionally also a
    span in a :class:`LayerTrace` and a Chrome-trace event."""

    def __init__(self, layers: LayerTrace | None = None, tracer=None,
                 args: dict | None = None):
        self.walls: dict[str, float] = {}
        self._layers = layers
        self._tracer = tracer
        self._args = args

    @contextmanager
    def __call__(self, name: str):
        span = self._layers.span(f"phase.{name}") if self._layers \
            else nullcontext()
        ts = self._tracer.now() if self._tracer else 0
        start = time.perf_counter()
        with span:
            yield
        self.walls[name] = time.perf_counter() - start
        if self._tracer:
            self._tracer.complete(name, ts, cat="phase", args=self._args)


def round_trip(workload: Workload, program, inputs, seed: int,
               bundle_dir: Path, phases: Phases, fault: bool = False) -> dict:
    """One timed round trip; raises on a wrong result."""
    shutil.rmtree(bundle_dir, ignore_errors=True)
    parallel = None
    start = time.perf_counter()
    with phases("record"):
        outcome = session.record(program, seed=seed, input_files=inputs)
    recording = outcome.recording
    if workload.checkpointed:
        with phases("checkpoint"):
            session.add_checkpoints(
                recording,
                every=max(1, len(recording.chunks) // CHECKPOINT_INTERVALS))
    with phases("save"):
        recording.save(bundle_dir)
    with phases("load"):
        loaded = Recording.load(bundle_dir)
        loaded.chunks, loaded.events, loaded.checkpoints
    if fault:
        # Self-test hook: a wrong exit code in the input log must surface
        # as a failed verification.
        last_exit = max(i for i, e in enumerate(loaded.events)
                        if e.kind == EV_EXIT)
        event = loaded.events[last_exit]
        loaded.events[last_exit] = dataclasses.replace(
            event, value=event.value + 1)
    with phases("replay"):
        if workload.checkpointed:
            replayed, parallel = replay_parallel(
                recording=loaded, directory=bundle_dir, jobs=PARALLEL_JOBS)
        else:
            replayed = session.replay_recording(loaded)
    with phases("verify"):
        report = session.verify(outcome, replayed)
    roundtrip_s = time.perf_counter() - start

    if not report.ok:
        raise RoundTripFailure(report.summary())
    if (len(loaded.chunks), len(loaded.events)) != \
            (len(recording.chunks), len(recording.events)):
        raise RoundTripFailure(
            f"loaded bundle has {len(loaded.chunks)} chunks / "
            f"{len(loaded.events)} events, recorded "
            f"{len(recording.chunks)} / {len(recording.events)}")
    if parallel is not None and \
            parallel.seams_verified != len(parallel.intervals) - 1:
        raise RoundTripFailure(
            f"{parallel.seams_verified} seams verified over "
            f"{len(parallel.intervals)} intervals")
    units = outcome.units
    walls = phases.walls
    bundle = {path.name: path.stat().st_size
              for path in sorted(bundle_dir.iterdir())}
    samples = {
        "record_units_per_s": units / walls["record"],
        "replay_units_per_s": units / walls["replay"],
        "save_s": walls["save"],
        "load_s": walls["load"],
        "roundtrip_s": roundtrip_s,
        "bundle_kb_per_kunit": sum(bundle.values()) / units,
    }
    if "checkpoint" in walls:
        samples["checkpoint_units_per_s"] = units / walls["checkpoint"]
    result = {
        "seed": seed,
        "units": units,
        "phases": walls,
        "samples": samples,
        "bundle": bundle,
        "record_digest": digest_of(outcome),
        "replay_digest": replayed.digest(),
    }
    if parallel is not None:
        busy = [interval.wall_s for interval in parallel.intervals]
        critical = max(busy)
        result["parallel"] = {
            "intervals": len(parallel.intervals),
            "interval_busy_s": sum(busy),
            "critical_path_s": critical,
            "fanout_overhead_s": parallel.wall_s - max(
                critical, sum(busy) / parallel.jobs),
            "speedup_bound": parallel.speedup_bound,
        }
    return result


class Runner:
    """Builds the workload once and runs round trips, counting failures."""

    def __init__(self, name: str, quick: bool, work_dir: Path):
        self.workload = WORKLOADS[name]
        scale = 1 if quick else self.workload.scale
        self.program, self.inputs = workloads.build(
            self.workload.program, threads=THREADS, scale=scale)
        self.bundle_dir = work_dir / "bundle"
        self.attempted = 0
        self.failures: list[dict] = []
        self._reference: float | None = None

    def run(self, seed: int, phases: Phases | None = None,
            fault: bool = False) -> dict | None:
        """One round trip; None (and a recorded failure) if it failed.

        The reference kernel runs between round trips; a round trip's
        ``slowdown`` is the mean of the runs before and after it over
        REFERENCE_NOMINAL_S, and its ``samples`` are scaled by it (the
        measured ones are kept as ``raw``)."""
        gc.collect()
        before = self._reference or reference_s()
        self.attempted += 1
        try:
            trip = round_trip(self.workload, self.program, self.inputs, seed,
                              self.bundle_dir, phases or Phases(), fault)
        except (RoundTripFailure, ReproError) as exc:
            print(f"round trip failed: seed {seed}: {exc}", file=sys.stderr)
            self.failures.append({"seed": seed, "error": str(exc)})
            self._reference = None
            return None
        self._reference = reference_s()
        slowdown = (before + self._reference) / (2 * REFERENCE_NOMINAL_S)
        trip["slowdown"] = slowdown
        trip["raw"] = trip["samples"]
        trip["samples"] = at_nominal_speed(trip["raw"], slowdown)
        return trip


def fingerprint(trips: list[dict]) -> str:
    """SHA-256 over the per-seed record digests: a behaviour change shows
    as a new fingerprint next to the numbers."""
    acc = hashlib.sha256()
    for trip in sorted(trips, key=lambda t: t["seed"]):
        acc.update(f"{trip['seed']}:{trip['record_digest']};".encode())
    return acc.hexdigest()


def peak_rss_mb() -> float:
    """The larger of this process's and its children's max RSS."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def schedule(seconds: float, quick: bool):
    """Round-trip indices: until ``seconds`` have passed (at least
    MIN_ROUNDTRIPS), or exactly QUICK_ROUNDTRIPS with ``quick``."""
    deadline = time.perf_counter() + seconds
    index = 0
    while (index < QUICK_ROUNDTRIPS if quick
           else index < MIN_ROUNDTRIPS or time.perf_counter() < deadline):
        yield index
        index += 1


def timed_loop(runner: Runner, seed: int, seconds: float, quick: bool,
               fault_index: int | None) -> list[dict]:
    trips = [runner.run(seed + index, fault=index == fault_index)
             for index in schedule(seconds, quick)]
    return [trip for trip in trips if trip is not None]


def traced_loop(runner: Runner, seed: int, seconds: float, quick: bool,
                fault_index: int | None, tracer) -> dict:
    """Pairs of round trips on one seed, untraced then traced. Each traced
    trip carries its layer snapshot; a record or replay digest that
    differs between the two halves of a pair is a failure."""
    layers = LayerTrace()
    untraced, traced = [], []
    for index in schedule(seconds, quick):
        trip_seed = seed + index
        fault = index == fault_index
        plain = runner.run(trip_seed, fault=fault)
        layers.reset()
        ts = tracer.now()
        with layers.installed():
            phases = Phases(layers, tracer, {"roundtrip": index,
                                             "seed": trip_seed})
            trip = runner.run(trip_seed, phases, fault=fault)
        if trip is not None:
            trip["layers"] = layers.snapshot()
            tracer.complete("roundtrip", ts, cat="roundtrip", args={
                "roundtrip": index, "seed": trip_seed,
                "self_ms": {name[:-len(".self_s")]: round(value * 1e3, 3)
                            for name, value in trip["layers"].items()
                            if name.endswith(".self_s") and value}})
            traced.append(trip)
        if plain is not None:
            untraced.append(plain)
        if plain is not None and trip is not None:
            for key in ("record_digest", "replay_digest"):
                if plain[key] != trip[key]:
                    message = (f"{key} differs between untraced and traced "
                               f"round trip: {plain[key][:16]} != "
                               f"{trip[key][:16]}")
                    print(f"round trip failed: seed {trip_seed}: {message}",
                          file=sys.stderr)
                    runner.failures.append({"seed": trip_seed,
                                            "error": message})
    return {"untraced": untraced, "traced": traced}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the parent started "
                             "this process: set-up time counts from there")
    parser.add_argument("--fault-roundtrip", type=int, default=None)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path, default=None)
    args = parser.parse_args(argv)

    work_dir = args.work_dir / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(args.workload, args.quick, work_dir)
        runner.run(args.seed + WARMUP_SEED_OFFSET)
        setup_s = time.monotonic() - args.spawned_at
        slowdown = sorted(reference_s() for _ in range(3))[1] \
            / REFERENCE_NOMINAL_S
        out: dict = {"workload": args.workload, "setup_raw_s": setup_s,
                     "setup_s": setup_s / slowdown}
        if not args.setup_only:
            if args.trace:
                tracer = Tracer(pid=os.getpid())
                origin = time.perf_counter_ns()
                tracer.clock = lambda: (time.perf_counter_ns() - origin) // 1000
                tracer.thread_name(0, f"bench {args.workload}")
                out.update(traced_loop(runner, args.seed, args.seconds,
                                       args.quick, args.fault_roundtrip,
                                       tracer))
                if args.trace_out is not None:
                    tracer.save(args.trace_out)
                trips = out["untraced"]
            else:
                trips = timed_loop(runner, args.seed, args.seconds,
                                   args.quick, args.fault_roundtrip)
                out["trips"] = trips
            out["fingerprint"] = fingerprint(trips)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    out["attempted"] = runner.attempted
    out["failures"] = runner.failures
    out["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
