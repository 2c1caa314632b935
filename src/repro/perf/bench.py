"""Simulation-rate benchmark runner with a persistent perf trajectory.

Measures *simulated units per second* — the simulator's own throughput, not
the modeled cycle counts — for a fixed set of workloads, and appends each
run to a JSON history file (``BENCH_simrate.json`` by default). Every entry
carries the recording's determinism digest, so the history doubles as a
regression tripwire:

- a **digest mismatch** against the previous entry for the same
  (bench, scale, seed) means the simulation changed behaviour — that is
  blocking (exit 1); so is a **replay digest mismatch** (the replayed
  outcome changed, or parallel replay stopped matching serial);
- a **rate drop** is reported as a warning only: absolute throughput
  depends on the host and is never a correctness signal.

Each bench also measures *replay* throughput: a serial replay of the
fresh recording, then — after the record pool has drained — a parallel
interval replay at ``--replay-jobs`` over the recording's embedded
checkpoints. The parallel pass runs in the parent process (pool workers
are daemonic and cannot fork children of their own) against the bundle
the worker saved, and its result digest must equal the serial one.

Benches fan out across a ``multiprocessing`` pool (one process per
workload; each run is single-threaded and deterministic, so parallelism
cannot perturb results). ``--workers 1`` runs everything serially
in-process, which is what the test suite uses.

Exposed as ``python -m repro bench-all`` and ``benchmarks/runner.py``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import multiprocessing
import sys
import tempfile
import time
from pathlib import Path

SCHEMA = "repro-bench-simrate/v1"

#: Benches run with --quick (CI smoke): the two cheapest microbenchmarks.
QUICK_WORKLOADS = ("counter", "pingpong")

#: The full set: contended micros plus three SPLASH-2-like kernels.
FULL_WORKLOADS = QUICK_WORKLOADS + ("locks", "prodcons", "fft", "lu", "radix")

#: Rate drop (new/old) below which a slowdown warning is emitted.
SLOWDOWN_WARN_RATIO = 0.7

#: Checkpoint intervals per recording for the replay benches: enough
#: parallelism for 4 jobs without drowning small logs in snapshot cost.
CHECKPOINT_INTERVALS = 16

#: Core counts for the many-core scaling series (directory vs snooping).
SCALING_CORES = (4, 8, 16, 32, 64)

#: The sharing-heavy scaling workload: every thread read-modify-writes
#: slots inside one cache line, so coherence traffic grows with the
#: thread count — the worst case for a broadcast fabric.
SCALING_WORKLOAD = "pingpong"

#: At 64 cores the directory must save more than this many notifies per
#: one it sends (the acceptance bar for O(sharers) beating broadcast).
SCALING_SAVED_RATIO_MIN = 2.0


def chunk_rate_per_kilo_instruction(chunks: int, instructions: int) -> float:
    """Chunks produced per thousand recorded instructions — the log
    production rate the scaling figures track (shared with bench_f8)."""
    return 1000.0 * chunks / instructions if instructions else 0.0


def digest_of(outcome) -> str:
    """Determinism digest of a record run: memory image, chunk log, cycle
    and unit counts. Bit-identical runs — and only those — share it."""
    from ..mrr.logfmt import encode_chunks

    h = hashlib.sha256()
    h.update(outcome.final_memory_digest.encode())
    h.update(encode_chunks(outcome.recording.chunks))
    h.update(str(outcome.total_cycles).encode())
    h.update(str(outcome.units).encode())
    return h.hexdigest()


def run_bench(spec: tuple) -> dict:
    """Run one bench: ``spec`` is (workload, scale, seed, repeats,
    bundle_dir).

    Records ``repeats`` times and keeps the best wall time (the digest is
    checked identical across repeats — a varying digest would mean the
    simulator itself is nondeterministic, which is blocking by definition).
    Then embeds checkpoints, times a serial replay, and saves the bundle
    under ``bundle_dir`` for the parent's parallel-replay pass. Finally
    runs the recording-overhead trajectory (native / hw-only / full, plus
    v1-vs-v2 log bandwidth) and nests it under the
    ``overhead`` key, so the bench history tracks recorded-vs-native cost
    alongside throughput.
    """
    from .. import session, workloads
    from ..replay.checkpoint import build_checkpoints
    from .overhead import measure_overhead

    name, scale, seed, repeats, bundle_dir = spec
    workload = workloads.REGISTRY[name]
    program, inputs = workloads.build(name, scale=scale)
    best_wall = None
    digest = None
    outcome = None
    for _ in range(max(1, repeats)):
        # Timing excludes collector pauses (a GC pass landing mid-run would
        # be charged to whichever bench happened to trigger it); garbage is
        # collected between repeats instead.
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            outcome = session.record(program, seed=seed, input_files=inputs)
            wall = time.perf_counter() - start
        finally:
            gc.enable()
        run_digest = digest_of(outcome)
        if digest is None:
            digest = run_digest
        elif run_digest != digest:
            raise RuntimeError(
                f"bench {name}: nondeterministic digest across repeats "
                f"({digest[:16]} != {run_digest[:16]})")
        if best_wall is None or wall < best_wall:
            best_wall = wall

    recording = outcome.recording
    every = max(1, len(recording.chunks) // CHECKPOINT_INTERVALS)
    recording.checkpoints = build_checkpoints(recording, every)
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        replayed = session.replay_recording(recording)
        replay_wall = time.perf_counter() - start
    finally:
        gc.enable()
    recording.save(Path(bundle_dir) / name)
    overhead = measure_overhead(program, seed=seed, input_files=inputs,
                                name=name)
    overhead_row = overhead.as_row()
    overhead_row.pop("workload", None)
    return {
        "bench": f"{workload.category}.{name}",
        "workload": name,
        "scale": scale,
        "seed": seed,
        "units": outcome.units,
        "cycles": outcome.total_cycles,
        "chunks": len(outcome.recording.chunks),
        "digest": digest,
        "wall_s": round(best_wall, 6),
        "rate_units_per_s": round(outcome.units / best_wall, 1),
        "replay_wall_s": round(replay_wall, 6),
        "replay_rate_units_per_s": round(replayed.stats.units / replay_wall,
                                         1),
        "replay_digest": replayed.digest(),
        "replay_checkpoints": len(recording.checkpoints),
        "overhead": overhead_row,
    }


def measure_parallel_replay(results: list[dict], bundle_dir: Path,
                            jobs: int) -> None:
    """Parallel-replay each saved bundle in the parent process, recording
    wall time and speedup into the result rows. The parallel result digest
    must equal the worker's serial one — a mismatch is a hard error, not a
    perf signal."""
    from ..capo.recording import Recording
    from ..replay.parallel import replay_parallel

    for row in results:
        directory = bundle_dir / row["workload"]
        recording = Recording.load(directory)
        gc.collect()
        gc.disable()
        try:
            result, report = replay_parallel(recording=recording,
                                             directory=directory, jobs=jobs)
        finally:
            gc.enable()
        if result.digest() != row["replay_digest"]:
            raise RuntimeError(
                f"bench {row['workload']}: parallel replay digest diverged "
                f"from serial ({result.digest()[:16]} != "
                f"{row['replay_digest'][:16]})")
        row["replay_jobs"] = report.jobs
        row["replay_parallel_wall_s"] = round(report.wall_s, 6)
        row["replay_speedup"] = round(
            row["replay_wall_s"] / report.wall_s, 3) if report.wall_s else 0.0
        row["replay_speedup_bound"] = round(report.speedup_bound, 2)


def run_all(names: tuple[str, ...], scale: int, seed: int, repeats: int,
            workers: int, replay_jobs: int = 4) -> list[dict]:
    """Run every bench, fanning across ``workers`` processes (serial
    in-process when 1), then measure parallel replay against each saved
    bundle. Result order always follows ``names``."""
    with tempfile.TemporaryDirectory(prefix="qr-bench-") as bundle_dir:
        specs = [(name, scale, seed, repeats, bundle_dir) for name in names]
        if workers <= 1:
            results = [run_bench(spec) for spec in specs]
        else:
            with multiprocessing.Pool(
                    processes=min(workers, len(specs))) as pool:
                results = pool.map(run_bench, specs)
        measure_parallel_replay(results, Path(bundle_dir), jobs=replay_jobs)
    return results


# -- many-core scaling -------------------------------------------------------

def run_scaling(core_counts: tuple[int, ...] = SCALING_CORES,
                workload: str = SCALING_WORKLOAD, seed: int = 2,
                scale: int = 1) -> tuple[list[dict], list[str]]:
    """The scaling curve: record ``workload`` at each core count under
    both coherence fabrics, one thread per core.

    Returns ``(rows, blocking)``. Per core count each row carries both
    fabrics' sim rate and notify counters plus the shared determinism
    digest — a digest mismatch between fabrics (the bit-identity
    contract) is blocking, as is a directory that fails to beat broadcast
    by ``SCALING_SAVED_RATIO_MIN`` at the largest core count.
    """
    import dataclasses

    from .. import session, workloads
    from ..config import COHERENCE_MODELS, DEFAULT_CONFIG

    rows: list[dict] = []
    blocking: list[str] = []
    for cores in core_counts:
        row: dict = {"workload": workload, "cores": cores,
                     "threads": cores, "scale": scale, "seed": seed}
        digests: dict[str, str] = {}
        program, inputs = workloads.build(workload, threads=cores,
                                          scale=scale)
        for coherence in COHERENCE_MODELS:
            config = dataclasses.replace(
                DEFAULT_CONFIG,
                machine=dataclasses.replace(DEFAULT_CONFIG.machine,
                                            num_cores=cores,
                                            coherence=coherence))
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                outcome = session.record(program, seed=seed, config=config,
                                         input_files=inputs)
                wall = time.perf_counter() - start
            finally:
                gc.enable()
            digests[coherence] = digest_of(outcome)
            bus = outcome.machine_stats["bus"]
            row[coherence] = {
                "wall_s": round(wall, 6),
                "rate_units_per_s": round(outcome.units / wall, 1),
                "notifies_sent": bus["notifies_sent"],
                "notifies_saved": bus["notifies_saved"],
                "broadcast_snoops": bus["broadcast_snoops"],
            }
            row["units"] = outcome.units
            row["chunks"] = len(outcome.recording.chunks)
            row["chunks_per_ki"] = round(chunk_rate_per_kilo_instruction(
                len(outcome.recording.chunks), outcome.instructions), 3)
        if len(set(digests.values())) != 1:
            blocking.append(
                f"scaling {workload}@{cores}: coherence fabrics are not "
                f"bit-identical ({digests})")
        row["digest"] = digests["snoop"]
        sent = row["directory"]["notifies_sent"]
        row["saved_ratio"] = round(
            row["directory"]["notifies_saved"] / sent, 2) if sent else 0.0
        rows.append(row)
    largest = rows[-1]
    if (largest["cores"] >= 64
            and largest["saved_ratio"] <= SCALING_SAVED_RATIO_MIN):
        blocking.append(
            f"scaling {workload}@{largest['cores']}: directory saved ratio "
            f"{largest['saved_ratio']} not > {SCALING_SAVED_RATIO_MIN}x — "
            "notify work is no longer growing slower than broadcast")
    return rows, blocking


def compare_scaling(previous: dict | None,
                    rows: list[dict]) -> tuple[list[str], list[str]]:
    """Digest-gate the scaling series against the previous entry, same
    contract as :func:`compare` (mismatch blocks, rate drops warn)."""
    blocking: list[str] = []
    warnings: list[str] = []
    if not previous:
        return blocking, warnings
    prior = {(r["workload"], r["cores"], r["scale"], r["seed"]): r
             for r in previous.get("scaling", [])}
    for row in rows:
        old = prior.get((row["workload"], row["cores"], row["scale"],
                         row["seed"]))
        if old is None:
            continue
        if old["digest"] != row["digest"]:
            blocking.append(
                f"scaling {row['workload']}@{row['cores']}: determinism "
                f"digest changed ({old['digest'][:16]} -> "
                f"{row['digest'][:16]})")
        for coherence in ("snoop", "directory"):
            old_rate = old.get(coherence, {}).get("rate_units_per_s")
            new_rate = row[coherence]["rate_units_per_s"]
            if old_rate and new_rate / old_rate < SLOWDOWN_WARN_RATIO:
                warnings.append(
                    f"scaling {row['workload']}@{row['cores']} "
                    f"[{coherence}]: rate dropped to "
                    f"{new_rate / old_rate:.0%} of the previous run")
    return blocking, warnings


# -- history file ------------------------------------------------------------

def load_history(path: Path) -> dict:
    if not path.exists():
        return {"schema": SCHEMA, "entries": []}
    history = json.loads(path.read_text())
    if history.get("schema") != SCHEMA:
        raise ValueError(
            f"{path}: schema {history.get('schema')!r}, expected {SCHEMA!r}")
    return history


def compare(previous: dict | None, results: list[dict]) -> tuple[list[str],
                                                                 list[str]]:
    """Compare fresh results against the previous history entry.

    Returns (blocking, warnings): digest mismatches on a matching
    (bench, scale, seed) block; rate drops merely warn.
    """
    blocking: list[str] = []
    warnings: list[str] = []
    if previous is None:
        return blocking, warnings
    prior = {(r["bench"], r["scale"], r["seed"]): r
             for r in previous["results"]}
    for result in results:
        old = prior.get((result["bench"], result["scale"], result["seed"]))
        if old is None:
            continue
        if old["digest"] != result["digest"]:
            blocking.append(
                f"{result['bench']}: determinism digest changed "
                f"({old['digest'][:16]} -> {result['digest'][:16]}) — "
                "the simulation is no longer bit-identical")
        if old.get("replay_digest") and result.get("replay_digest") \
                and old["replay_digest"] != result["replay_digest"]:
            blocking.append(
                f"{result['bench']}: replay digest changed "
                f"({old['replay_digest'][:16]} -> "
                f"{result['replay_digest'][:16]}) — replay no longer "
                "reproduces the same outcome")
        ratio = (result["rate_units_per_s"] / old["rate_units_per_s"]
                 if old["rate_units_per_s"] else 1.0)
        if ratio < SLOWDOWN_WARN_RATIO:
            warnings.append(
                f"{result['bench']}: rate dropped to {ratio:.0%} of the "
                f"previous run ({old['rate_units_per_s']:,.0f} -> "
                f"{result['rate_units_per_s']:,.0f} units/s)")
        old_replay = old.get("replay_rate_units_per_s")
        new_replay = result.get("replay_rate_units_per_s")
        if old_replay and new_replay \
                and new_replay / old_replay < SLOWDOWN_WARN_RATIO:
            warnings.append(
                f"{result['bench']}: replay rate dropped to "
                f"{new_replay / old_replay:.0%} of the previous run "
                f"({old_replay:,.0f} -> {new_replay:,.0f} units/s)")
    return blocking, warnings


# -- CLI ---------------------------------------------------------------------

def add_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--quick", action="store_true",
                        help="run only the quick set "
                             f"({', '.join(QUICK_WORKLOADS)})")
    parser.add_argument("--scale", type=int, default=2,
                        help="problem-size multiplier (default 2)")
    parser.add_argument("--seed", type=int, default=2,
                        help="interleaving seed (default 2)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed repeats per bench; best wall kept "
                             "(default 3)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: one per bench, "
                             "capped at CPU count); 1 = serial in-process")
    parser.add_argument("--replay-jobs", type=int, default=4,
                        help="worker processes for the parallel replay "
                             "measurement (default 4)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="history JSON to append to "
                             "(default: BENCH_simrate.json in the CWD)")
    parser.add_argument("--label", default=None,
                        help="free-form label stored with this entry")
    parser.add_argument("--scaling-cores", default=None, metavar="CSV",
                        help="core counts for the directory-vs-snooping "
                             "scaling series (default "
                             f"{','.join(map(str, SCALING_CORES))}; "
                             "--quick trims to 4,16)")
    parser.add_argument("--no-scaling", action="store_true",
                        help="skip the many-core scaling series")


def run(args: argparse.Namespace) -> int:
    names = QUICK_WORKLOADS if args.quick else FULL_WORKLOADS
    workers = args.workers
    if workers is None:
        workers = min(len(names), multiprocessing.cpu_count())
    out_path = Path(args.out) if args.out else Path("BENCH_simrate.json")

    history = load_history(out_path)
    previous = history["entries"][-1] if history["entries"] else None

    results = run_all(names, scale=args.scale, seed=args.seed,
                      repeats=args.repeats, workers=workers,
                      replay_jobs=args.replay_jobs)
    blocking, warnings = compare(previous, results)

    scaling_rows: list[dict] = []
    if not args.no_scaling:
        if args.scaling_cores:
            core_counts = tuple(int(c) for c
                                in args.scaling_cores.split(","))
        else:
            core_counts = (4, 16) if args.quick else SCALING_CORES
        scaling_rows, scaling_blocking = run_scaling(core_counts,
                                                     seed=args.seed)
        blocking.extend(scaling_blocking)
        more_blocking, more_warnings = compare_scaling(previous,
                                                       scaling_rows)
        blocking.extend(more_blocking)
        warnings.extend(more_warnings)

    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "label": args.label,
        "python": sys.version.split()[0],
        "results": results,
        "scaling": scaling_rows,
    }
    history["entries"].append(entry)
    out_path.write_text(json.dumps(history, indent=2, sort_keys=True) + "\n")

    width = max(len(r["bench"]) for r in results)
    for r in results:
        print(f"{r['bench']:<{width}}  {r['units']:>9} units  "
              f"{r['wall_s']:>8.3f}s  {r['rate_units_per_s']:>12,.0f} u/s  "
              f"digest {r['digest'][:16]}")
        print(f"{'':<{width}}  replay {r['replay_rate_units_per_s']:>12,.0f}"
              f" u/s serial, {r['replay_parallel_wall_s']:>8.3f}s at "
              f"jobs={r['replay_jobs']} "
              f"(speedup {r['replay_speedup']:.2f}x, "
              f"bound {r['replay_speedup_bound']:.2f}x, "
              f"{r['replay_checkpoints']} checkpoints)")
        o = r.get("overhead")
        if o:
            print(f"{'':<{width}}  overhead hw {o['hw_overhead_pct']:+.2f}% "
                  f"full {o['full_overhead_pct']:+.2f}%  "
                  f"log bytes v1 {o.get('total_bytes_v1', 0)} "
                  f"-> v2 {o.get('total_bytes_v2', 0)}")
    for row in scaling_rows:
        print(f"scaling {row['workload']}@{row['cores']:<2} cores  "
              f"snoop {row['snoop']['rate_units_per_s']:>10,.0f} u/s  "
              f"directory {row['directory']['rate_units_per_s']:>10,.0f} "
              f"u/s  notifies {row['directory']['notifies_sent']:>8} "
              f"(saved {row['saved_ratio']:.1f}x)  "
              f"digest {row['digest'][:16]}")
    for message in warnings:
        print(f"warning: {message}", file=sys.stderr)
    for message in blocking:
        print(f"BLOCKING: {message}", file=sys.stderr)
    print(f"history: {out_path} ({len(history['entries'])} entries)")
    return 1 if blocking else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench-all",
        description="Simulation-rate benchmarks with a perf trajectory.")
    add_args(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
