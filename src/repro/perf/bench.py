"""Simulation-rate benchmark runner with a persistent perf trajectory.

Measures *simulated units per second* — the simulator's own throughput, not
the modeled cycle counts — for a fixed set of workloads, and appends each
run to a JSON history file (``BENCH_simrate.json`` by default). Every entry
carries the recording's determinism digest, so the history doubles as a
regression tripwire:

- a **digest mismatch** against the previous entry for the same
  (bench, scale, seed) means the simulation changed behaviour — that is
  blocking (exit 1); so is a **replay digest mismatch** (the replayed
  outcome changed);
- a **rate drop** is reported as a warning only: absolute throughput
  depends on the host and is never a correctness signal.

Benches run one after another in the calling process. Each also measures
*replay* throughput: a serial replay of the fresh recording, then a
parallel interval replay at ``--replay-jobs`` over the recording's
embedded checkpoints, run on the bundle saved and loaded back, whose
result digest must equal the serial one.

Exposed as ``python -m repro bench-all``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import sys
import tempfile
import time
from pathlib import Path

from .. import session, workloads
from ..capo.recording import Recording
from ..config import COHERENCE_MODELS, DEFAULT_CONFIG
from ..replay.checkpoint import build_checkpoints
from ..replay.parallel import replay_parallel
from ..session import digest_of
from .overhead import measure_overhead

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


def run_bench(name: str, scale: int, seed: int, repeats: int,
              replay_jobs: int) -> dict:
    """Run one bench.

    Records ``repeats`` times and keeps the best wall time (the digest is
    checked identical across repeats — a varying digest would mean the
    simulator itself is nondeterministic, which is blocking by definition).
    Then embeds checkpoints and times a serial replay, saves the bundle,
    loads it back and times a parallel replay at ``replay_jobs`` on it,
    whose digest must equal the serial one. Finally runs the
    recording-overhead trajectory (native / hw-only / full, plus
    v1-vs-v2 log bandwidth) and nests it under the ``overhead`` key, so
    the bench history tracks recorded-vs-native cost alongside
    throughput.
    """
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
    replay_digest = replayed.digest()
    with tempfile.TemporaryDirectory(prefix="qr-bench-") as directory:
        recording.save(directory)
        loaded = Recording.load(directory)
        gc.collect()
        gc.disable()
        try:
            result, report = replay_parallel(recording=loaded,
                                             directory=directory,
                                             jobs=replay_jobs)
        finally:
            gc.enable()
    if result.digest() != replay_digest:
        raise RuntimeError(
            f"bench {name}: parallel replay digest diverged from serial "
            f"({result.digest()[:16]} != {replay_digest[:16]})")
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
        "replay_digest": replay_digest,
        "replay_checkpoints": len(recording.checkpoints),
        "replay_jobs": report.jobs,
        "replay_parallel_wall_s": round(report.wall_s, 6),
        "replay_speedup": round(replay_wall / report.wall_s, 3)
        if report.wall_s else 0.0,
        "replay_speedup_bound": round(report.speedup_bound, 2),
        "overhead": overhead_row,
    }


def run_all(names: tuple[str, ...], scale: int, seed: int, repeats: int,
            replay_jobs: int = 4) -> list[dict]:
    """Run every bench, one after another; result order follows
    ``names``."""
    return [run_bench(name, scale, seed, repeats, replay_jobs)
            for name in names]


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


# -- history file ------------------------------------------------------------

def load_history(path: Path) -> dict:
    if not path.exists():
        return {"schema": SCHEMA, "entries": []}
    history = json.loads(path.read_text())
    if history.get("schema") != SCHEMA:
        raise ValueError(
            f"{path}: schema {history.get('schema')!r}, expected {SCHEMA!r}")
    return history


def _gated(row: dict) -> tuple[tuple, str, dict, dict]:
    """A history row's match key, its label, its digests and its rates.

    Bench rows match on (bench, scale, seed); scaling-series rows, which
    carry one rate per coherence fabric, on (workload, cores, scale,
    seed).
    """
    if "cores" in row:
        key = (row["workload"], row["cores"], row["scale"], row["seed"])
        label = f"scaling {row['workload']}@{row['cores']}"
        digests = {"determinism": row["digest"]}
        rates = {f"[{coherence}] rate":
                 row.get(coherence, {}).get("rate_units_per_s")
                 for coherence in COHERENCE_MODELS}
        return key, label, digests, rates
    key = (row["bench"], row["scale"], row["seed"])
    digests = {"determinism": row["digest"],
               "replay": row.get("replay_digest")}
    rates = {"rate": row["rate_units_per_s"],
             "replay rate": row.get("replay_rate_units_per_s")}
    return key, row["bench"], digests, rates


def compare(previous: dict | None, rows: list[dict]) -> tuple[list[str],
                                                              list[str]]:
    """Compare fresh bench and scaling rows against the previous history
    entry.

    Returns (blocking, warnings): a digest change on a matching key
    blocks, a rate below ``SLOWDOWN_WARN_RATIO`` of the previous one
    warns, and rows whose key the previous entry lacks are skipped.
    """
    blocking: list[str] = []
    warnings: list[str] = []
    if not previous:
        return blocking, warnings
    prior = {}
    for row in (*previous.get("results", ()), *previous.get("scaling", ())):
        key, _label, digests, rates = _gated(row)
        prior[key] = digests, rates
    for row in rows:
        key, label, digests, rates = _gated(row)
        if key not in prior:
            continue
        old_digests, old_rates = prior[key]
        for kind, new in digests.items():
            old = old_digests.get(kind)
            if old and new and old != new:
                blocking.append(f"{label}: {kind} digest changed "
                                f"({old[:16]} -> {new[:16]})")
        for kind, new in rates.items():
            old = old_rates.get(kind)
            if old and new and new / old < SLOWDOWN_WARN_RATIO:
                warnings.append(
                    f"{label}: {kind} dropped to {new / old:.0%} of the "
                    f"previous run ({old:,.0f} -> {new:,.0f} units/s)")
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
    out_path = Path(args.out) if args.out else Path("BENCH_simrate.json")

    history = load_history(out_path)
    previous = history["entries"][-1] if history["entries"] else None

    results = run_all(names, scale=args.scale, seed=args.seed,
                      repeats=args.repeats, replay_jobs=args.replay_jobs)

    scaling_rows: list[dict] = []
    scaling_blocking: list[str] = []
    if not args.no_scaling:
        if args.scaling_cores:
            core_counts = tuple(int(c) for c
                                in args.scaling_cores.split(","))
        else:
            core_counts = (4, 16) if args.quick else SCALING_CORES
        scaling_rows, scaling_blocking = run_scaling(core_counts,
                                                     seed=args.seed)
    blocking, warnings = compare(previous, results + scaling_rows)
    blocking.extend(scaling_blocking)

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
