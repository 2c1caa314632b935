"""Compare two sets of benchmark runs metric by metric.

Usage::

    python3 bench/run.py --workload contended --seed 1 --out base.json
    ...                                     # more runs, alternating sides
    python3 bench/compare.py base.json new.json

Both files are written by ``run.py --out`` and may hold many runs of
many workloads. Runs are paired in file order, so alternate the parent
and the change when making them. For every end-to-end metric of
``BENCHMARK.json`` on every workload the comparison prints each side's
median and quartiles over runs and one label:

- ``improved``: the change wins at least nine tenths of the pairs (ties
  count for neither), at least ten pairs were run, and the medians
  differ by more than the parent's quartile spread;
- ``unresolved``: the parent's own quartile spread is wider than the
  metric's bound, and not every run of the change reads better than
  every run of the parent;
- ``worse``: the change's median is worse than the parent's by more than
  the bound;
- ``unchanged``: otherwise.

When a rate (``units/s``) drops and both files hold ``--trace 1`` runs of
the workload, it names the layer whose share of traced self time grew
most. The exit code is 1 if any metric is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import load_spec, summarize  # noqa: E402

#: The §8 rule: the change must win this share of at least MIN_PAIRS pairs.
WIN_SHARE = 0.9
MIN_PAIRS = 10


def classify(base: list[float], new: list[float], bound: float,
             better: str) -> str:
    """Label one metric x workload from per-run values of each side."""
    sign = 1 if better == "higher" else -1
    base_summary = summarize(base)
    base_median = base_summary["median"]
    new_median = statistics.median(new)
    spread = base_summary["q3"] - base_summary["q1"]
    pairs = list(zip(base, new))
    wins = sum(1 for old, now in pairs if sign * (now - old) > 0)
    gain = sign * (new_median - base_median)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and gain > spread):
        return "improved"
    scale = abs(base_median) or 1.0
    if spread / scale > bound:
        all_better = all(sign * (now - old) > 0 for old in base for now in new)
        return "unchanged" if all_better else "unresolved"
    if -gain / scale > bound:
        return "worse"
    return "unchanged"


def self_time_shares(runs: list[dict]) -> dict[str, float]:
    """Median over traced runs of each layer's share of total self time."""
    columns: dict[str, list[float]] = {}
    for run in runs:
        selfs = {name: value for name, value in run["metrics"].items()
                 if name.endswith(".self_s")}
        total = sum(selfs.values())
        for name, value in selfs.items():
            columns.setdefault(name, []).append(value / total if total else 0)
    return {name: statistics.median(values)
            for name, values in columns.items()}


def grown_layer(base_runs: list[dict], new_runs: list[dict]) -> str | None:
    """The self-time metric whose share grew most, with both shares."""
    before, after = self_time_shares(base_runs), self_time_shares(new_runs)
    growth = {name: after[name] - before.get(name, 0.0) for name in after}
    if not growth:
        return None
    name = max(growth, key=growth.get)
    return (f"{name} {100 * before.get(name, 0.0):.1f}% -> "
            f"{100 * after[name]:.1f}% of traced self time")


def _runs(document: dict, workload: str, trace: int) -> list[dict]:
    return [run for run in document["runs"]
            if run["workload"] == workload and run["trace"] == trace]


def compare(base: dict, new: dict, spec: dict) -> tuple[list[str], bool]:
    """Report lines, and whether any metric got worse."""
    lines = [f"{'workload':<13}{'metric':<21}  {'base median [q1, q3] n':<38}"
             f"{'new median [q1, q3] n':<38}{'change':>8}  label"]
    any_worse = False
    for workload in (w["name"] for w in spec["workloads"]):
        base_runs = _runs(base, workload, 0)
        new_runs = _runs(new, workload, 0)
        if not base_runs or not new_runs:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            old = [r["metrics"][name]["median"] for r in base_runs]
            now = [r["metrics"][name]["median"] for r in new_runs]
            label = classify(old, now, metric["bound"], metric["better"])
            any_worse |= label == "worse"
            old_s, now_s = summarize(old), summarize(now)
            change = now_s["median"] / old_s["median"] - 1
            lines.append(
                f"{workload:<13}{name:<21}  {_cell(old_s):<38}"
                f"{_cell(now_s):<38}{change:>+8.1%}  {label}")
            if metric["unit"] == "units/s" and change < 0:
                layer = grown_layer(_runs(base, workload, 1),
                                    _runs(new, workload, 1))
                if layer:
                    lines.append(f"{'':<13}  rate dropped; largest growth: "
                                 f"{layer}")
    return lines, any_worse


def _cell(summary: dict) -> str:
    return (f"{summary['median']:.4g} [{summary['q1']:.4g}, "
            f"{summary['q3']:.4g}] {summary['n']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Label each metric improved, unchanged, worse or "
                    "unresolved between two sets of runs.")
    parser.add_argument("base", type=Path, help="runs of the parent")
    parser.add_argument("new", type=Path, help="runs of the change")
    args = parser.parse_args(argv)
    lines, any_worse = compare(json.loads(args.base.read_text()),
                               json.loads(args.new.read_text()), load_spec())
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
