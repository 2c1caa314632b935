"""Round-trip benchmark of the QuickRec record/replay stack (host time).

Usage, from the root of the repository::

    python3 bench/run.py                          # every workload
    python3 bench/run.py --workload contended --seed 7 --seconds 15
    python3 bench/run.py --workload compute --trace 1   # per-layer split

Each workload runs in its own process (``bench/worker.py``), one at a
time. With ``--trace 0`` the command prints every end-to-end metric of
``BENCHMARK.json`` with its unit and quartiles; with ``--trace 1`` it
prints the per-layer split of traced round trips and writes their phase
spans as a Chrome trace. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit
code is non-zero if any round trip failed.

See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
WORK_DIR = ROOT / ".bench_work"

#: Set-ups per run: setup_s is one sample per process, so the run starts
#: this many processes (the last one also measures) and reports the median.
SETUP_SAMPLES = 3
#: A worker that has not finished after this long is killed.
WORKER_TIMEOUT_S = 900
#: Metrics printed but not gated, with their units. A gated metric of
#: BENCHMARK.json must exist on every workload, never read zero and be
#: steady: these exist only on one workload (checkpoint), are zero when
#: all is well (error rate), or last 1-2 ms on compute (save, load).
EXTRA_UNITS = {"checkpoint_units_per_s": "units/s", "error_rate": "ratio",
               "save_s": "s", "load_s": "s"}


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def summarize(values: list[float]) -> dict:
    """Median, quartiles and count; a tail percentile only where at least
    ten samples lie beyond it."""
    values = sorted(values)
    n = len(values)
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if n > 1 \
        else (median, median, median)
    out = {"median": median, "q1": q1, "q3": q3, "n": n}
    for percentile in (99, 90):
        if n * (100 - percentile) / 100 >= 10:
            out[f"p{percentile}"] = statistics.quantiles(
                values, n=100)[percentile - 1]
            break
    return out


# -- running workers ---------------------------------------------------------

def spawn_worker(workload: str, args: argparse.Namespace,
                 *extra: str) -> dict:
    """Run ``worker.py`` for one workload; returns its JSON line."""
    command = [sys.executable, str(BENCH_DIR / "worker.py"),
               "--workload", workload, "--seed", str(args.seed),
               "--work-dir", str(WORK_DIR),
               "--spawned-at", repr(time.monotonic()), *extra]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{workload}: worker exited with "
                           f"{done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def run_workload(workload: str, args: argparse.Namespace) -> dict:
    """Set-up probes, then the measuring worker; merged results."""
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.quick:
        extra.append("--quick")
    if args.fault_roundtrip is not None:
        extra += ["--fault-roundtrip", str(args.fault_roundtrip)]
    if args.trace:
        extra += ["--trace-out",
                  str(args.trace_dir / f"trace-{workload}.json")]
    probes = 0 if args.quick or args.trace else SETUP_SAMPLES - 1
    runs = [spawn_worker(workload, args, "--setup-only", *extra)
            for _ in range(probes)]
    result = spawn_worker(workload, args, *extra)
    runs.append(result)
    result["setup_samples"] = [run["setup_s"] for run in runs]
    result["setup_raw_samples"] = [run["setup_raw_s"] for run in runs]
    result["attempted"] = sum(run["attempted"] for run in runs)
    result["failures"] = [f for run in runs for f in run["failures"]]
    return result


# -- metrics -----------------------------------------------------------------

def end_to_end(result: dict, names: list[str]) -> dict[str, dict]:
    """Summaries of the end-to-end metrics of one workload run, in the
    order of ``names`` followed by the samples only this workload has.
    Each also carries the median of the unscaled samples as ``raw``."""
    columns: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {}
    for trip in result["trips"]:
        for name, value in trip["samples"].items():
            columns.setdefault(name, []).append(value)
        for name, value in trip["raw"].items():
            raw.setdefault(name, []).append(value)
    columns["setup_s"] = result["setup_samples"]
    raw["setup_s"] = result["setup_raw_samples"]
    columns["peak_rss_mb"] = [result["peak_rss_mb"]]
    columns["error_rate"] = [len(result["failures"]) / result["attempted"]]
    out = {}
    for name in names + sorted(set(columns) - set(names)):
        if name in columns:
            out[name] = summarize(columns[name])
            out[name]["raw"] = statistics.median(raw.get(name, columns[name]))
    return out


def per_layer(result: dict) -> dict[str, float]:
    """Medians over traced round trips of every layer metric, plus bundle
    section sizes, parallel-replay phases and the tracing overhead."""
    traced, untraced = result["traced"], result["untraced"]
    if not traced:
        return {}
    columns: dict[str, list[float]] = {}

    def add(name: str, value: float) -> None:
        columns.setdefault(name, []).append(value)

    for trip in traced:
        for name, value in trip["layers"].items():
            add(name, value)
        for section, size in trip["bundle"].items():
            add(f"capo.bundle.{section}_bytes", size)
        for name, value in (trip.get("parallel") or {}).items():
            add(f"replay.parallel.{name}", value)
        self_total = sum(value for name, value in trip["layers"].items()
                         if name.endswith(".self_s"))
        wall = trip["samples"]["roundtrip_s"]
        add("trace.unaccounted_pct", 100 * abs(wall - self_total) / wall)
    out = {name: statistics.median(values)
           for name, values in sorted(columns.items())}
    out["trace.unaccounted_pct"] = max(columns["trace.unaccounted_pct"])
    if untraced:
        for rate in ("record", "replay"):
            metric = f"{rate}_units_per_s"
            plain = statistics.median(t["samples"][metric] for t in untraced)
            slow = statistics.median(t["samples"][metric] for t in traced)
            out[f"trace.overhead_pct.{rate}"] = 100 * (plain / slow - 1)
    return out


# -- reporting ---------------------------------------------------------------

def _number(value: float) -> str:
    if value == 0 or abs(value) >= 1000:
        return f"{value:,.1f}"
    return f"{value:.4g}"


def report_end_to_end(workload: str, result: dict, summaries: dict,
                      units: dict[str, str]) -> None:
    trips = result["trips"]
    seeds = [trip["seed"] for trip in trips]
    slowdown = statistics.median(t["slowdown"] for t in trips) if trips else 0
    print(f"== {workload}: {len(seeds)} round trips ok, "
          f"{len(result['failures'])} failed, seeds "
          f"{min(seeds, default='-')}..{max(seeds, default='-')}; host "
          f"slowdown {slowdown:.2f}x (medians at nominal speed, raw as "
          "measured)")
    print(f"  {'metric':<26}{'median':>12}{'q1':>12}{'q3':>12}{'n':>4}"
          f"{'raw':>12}  unit")
    for name, summary in summaries.items():
        tail = "".join(f"  p{p}={_number(summary[f'p{p}'])}"
                       for p in (99, 90) if f"p{p}" in summary)
        print(f"  {name:<26}{_number(summary['median']):>12}"
              f"{_number(summary['q1']):>12}{_number(summary['q3']):>12}"
              f"{summary['n']:>4}{_number(summary['raw']):>12}  "
              f"{units[name]}{tail}")
    print(f"  behaviour fingerprint {result['fingerprint']}")
    for failure in result["failures"]:
        print(f"  FAILED seed {failure['seed']}: {failure['error']}")


def report_layers(workload: str, result: dict, layers: dict) -> None:
    print(f"== {workload}: per-layer split, median of "
          f"{len(result['traced'])} traced round trips")
    for name, value in layers.items():
        print(f"  {name:<44}{_number(value):>16}")
    for failure in result["failures"]:
        print(f"  FAILED seed {failure['seed']}: {failure['error']}")


def contract_metrics(values: dict[str, float],
                     specs: list[dict]) -> dict[str, dict]:
    """The contract's metric objects; a metric no successful round trip
    measured is left out (the run then reports failures)."""
    return {spec["name"]: {"value": values[spec["name"]],
                           "unit": spec["unit"]}
            for spec in specs if spec["name"] in values}


def record_run(path: Path, entry: dict) -> None:
    """Append one workload run to the ``--out`` file (for compare.py)."""
    document = json.loads(path.read_text()) if path.exists() \
        else {"runs": []}
    document["runs"].append(entry)
    path.write_text(json.dumps(document, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {ROOT}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="Round-trip benchmark (see bench/README.md).")
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=1,
                        help="round trip i uses interleaving seed SEED+i")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="time budget of the timed round trips")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer split instead")
    parser.add_argument("--trace-dir", type=Path, default=WORK_DIR,
                        help="where --trace 1 writes trace-WORKLOAD.json, "
                             "a Chrome trace of the phases (default "
                             ".bench_work)")
    parser.add_argument("--quick", action="store_true",
                        help="self-test size: scale 1, 2 round trips")
    parser.add_argument("--out", type=Path, default=None,
                        help="append each workload's results to this JSON "
                             "file (input of bench/compare.py)")
    parser.add_argument("--fault-roundtrip", type=int, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    e2e_specs = spec["end_to_end"]
    layer_specs = spec["per_layer"]
    units = {m["name"]: m["unit"] for m in e2e_specs} | EXTRA_UNITS
    attempted = failed = 0
    combined: dict[str, dict] = {}
    for workload in [args.workload] if args.workload else names:
        result = run_workload(workload, args)
        attempted += result["attempted"]
        failed += len(result["failures"])
        if args.trace:
            values = per_layer(result)
            report_layers(workload, result, values)
            gated = contract_metrics(values, layer_specs)
            entry_metrics = values
        else:
            summaries = end_to_end(result, [m["name"] for m in e2e_specs])
            report_end_to_end(workload, result, summaries, units)
            values = {name: s["median"] for name, s in summaries.items()}
            gated = contract_metrics(values, e2e_specs)
            entry_metrics = summaries
        if args.out is not None:
            record_run(args.out, {"workload": workload, "seed": args.seed,
                                  "trace": args.trace, "quick": args.quick,
                                  "metrics": entry_metrics})
        combined.update(gated if args.workload else
                        {f"{workload}.{k}": v for k, v in gated.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
