"""Self-test of the round-trip benchmark: ``python -m pytest bench/tests``.

Drives ``bench/run.py --quick`` (scale 1, two round trips per workload)
and checks the benchmark's own contract: every metric named in
``BENCHMARK.json`` is printed with its unit, the traced run writes a
valid Chrome trace and restores what it wrapped, a failing round trip
is counted, and ``compare.py`` labels metrics by the documented rule.
"""

from __future__ import annotations

import inspect
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from compare import classify, compare  # noqa: E402
from layers import ENTRY_POINTS, LayerTrace  # noqa: E402
from repro.telemetry import validate_trace  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
PHASES = {"record", "checkpoint", "save", "load", "replay", "verify"}


def run_bench(*args: str) -> tuple[subprocess.CompletedProcess, dict]:
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), "--quick",
                           *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    return done, json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "runs.json"
    done, result = run_bench("--seed", "3", "--out", str(out))
    return done, result, json.loads(out.read_text())


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    trace_dir = tmp_path_factory.mktemp("traces")
    done, result = run_bench("--seed", "3", "--trace", "1",
                             "--trace-dir", str(trace_dir))
    return done, result, trace_dir


def test_every_end_to_end_metric_printed_with_unit(untraced):
    done, result, _ = untraced
    assert done.returncode == 0, done.stderr
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3 * len(WORKLOADS)
    blocks: dict[str, list[list[str]]] = {}
    for line in done.stdout.splitlines():
        if line.startswith("== "):
            rows = blocks[line.split()[1].rstrip(":")] = []
        elif line.startswith("  "):
            rows.append(line.split())
    assert set(blocks) == set(WORKLOADS)
    for workload in WORKLOADS:
        printed = {row[0]: row[-1] for row in blocks[workload]}
        for metric in SPEC["end_to_end"]:
            entry = result["metrics"][f"{workload}.{metric['name']}"]
            assert entry["unit"] == metric["unit"]
            assert entry["value"] > 0
            assert printed[metric["name"]] == metric["unit"]


def test_every_per_layer_metric_reported(traced):
    done, result, _ = traced
    assert done.returncode == 0, done.stderr
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {f"{w}.{m['name']}" for w in WORKLOADS
                                      for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert result["metrics"][f"compute.{metric['name']}"]["unit"] \
            == metric["unit"]


def test_trace_is_a_valid_chrome_trace(traced):
    done, _, trace_dir = traced
    assert done.returncode == 0, done.stderr
    for workload in WORKLOADS:
        document = json.loads((trace_dir / f"trace-{workload}.json")
                              .read_text())
        assert validate_trace(document) == []
        spans = {event["name"] for event in document["traceEvents"]
                 if event["ph"] == "X"}
        expected = PHASES if workload == "checkpointed" \
            else PHASES - {"checkpoint"}
        assert spans == expected | {"roundtrip"}


def test_failing_roundtrip_counts_in_error_rate():
    done, result = run_bench("--workload", "contended",
                             "--fault-roundtrip", "1")
    assert done.returncode == 1
    assert not result["correct"]
    assert result["failed"] == 1
    error_line = next(line for line in done.stdout.splitlines()
                      if line.split()[:1] == ["error_rate"])
    assert float(error_line.split()[1]) == pytest.approx(1 / 3, abs=1e-3)
    assert "FAILED seed 2" in done.stdout


def test_layer_trace_restores_every_entry_point():
    def current():
        out = []
        for module_name, path, _ in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            out.append(inspect.getattr_static(owner, attr))
        return out

    before = current()
    trace = LayerTrace()
    with trace.installed():
        wrapped = current()
        assert all(a is not b for a, b in zip(before, wrapped))
    assert all(a is b for a, b in zip(before, current()))


def test_layer_trace_self_time_excludes_children():
    trace = LayerTrace()

    def inner():
        return 1

    outer_calls = trace.timed(lambda: trace.timed(inner, "inner")(), "outer")
    assert outer_calls() == 1
    metrics = trace.snapshot()
    assert metrics["outer.count"] == metrics["inner.count"] == 1
    assert metrics["outer.self_s"] == pytest.approx(
        metrics["outer.busy_s"] - metrics["inner.busy_s"])


@pytest.mark.parametrize("base, new, expected", [
    ([100.0] * 10, [120.0] * 10, "improved"),
    ([100.0] * 10, [101.0] * 10, "improved"),
    ([100.0] * 4, [101.0] * 4, "unchanged"),
    ([100.0] * 10, [85.0] * 10, "worse"),
    ([80.0, 100.0, 120.0, 90.0, 110.0], [100.0] * 5, "unresolved"),
    ([80.0, 100.0, 120.0, 90.0, 110.0], [130.0] * 5, "unchanged"),
])
def test_classify(base, new, expected):
    assert classify(base, new, bound=0.1, better="higher") == expected


def test_compare_reads_run_files(untraced):
    _, _, runs = untraced
    lines, any_worse = compare(runs, runs, SPEC)
    assert not any_worse
    assert len(lines) == 1 + len(WORKLOADS) * len(SPEC["end_to_end"])


def test_compare_names_the_layer_whose_share_grew():
    def document(rate: float, replay_self: float) -> dict:
        summary = {m["name"]: {"median": 1.0, "q1": 1.0, "q3": 1.0, "n": 1}
                   for m in SPEC["end_to_end"]}
        summary["record_units_per_s"] = {"median": rate, "q1": rate,
                                         "q3": rate, "n": 1}
        layers = {"machine.step.self_s": 1.0,
                  "replay.step_chunk.self_s": replay_self}
        return {"runs": [
            {"workload": "contended", "trace": 0, "metrics": summary},
            {"workload": "contended", "trace": 1, "metrics": layers}]}

    lines, any_worse = compare(document(100.0, 1.0), document(60.0, 3.0),
                               SPEC)
    assert any_worse
    assert any(line.split()[1:2] == ["record_units_per_s"]
               and line.endswith("worse") for line in lines)
    assert any("replay.step_chunk.self_s 50.0% -> 75.0%" in line
               for line in lines)
