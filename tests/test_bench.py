"""The bench-all runner: schema stability, determinism gating, CLI exit."""

import json

import pytest

from repro.perf import bench


def _run(tmp_path, extra=()):
    out = tmp_path / "bench.json"
    argv = ["--quick", "--repeats", "1", "--scale", "1", "--out", str(out),
            *extra]
    return bench.main(argv), out


def test_history_schema_stable_and_digests_reproducible(tmp_path, capsys):
    code, out = _run(tmp_path, extra=["--label", "first"])
    assert code == 0
    code, _ = _run(tmp_path, extra=["--label", "second"])
    assert code == 0
    history = json.loads(out.read_text())
    assert history["schema"] == bench.SCHEMA
    assert [e["label"] for e in history["entries"]] == ["first", "second"]
    first, second = history["entries"]
    assert len(first["results"]) == len(bench.QUICK_WORKLOADS)
    for old, new in zip(first["results"], second["results"]):
        assert old["bench"] == new["bench"]
        # identical seeds => identical digests, units, cycles and chunks
        for key in ("digest", "units", "cycles", "chunks", "scale", "seed",
                    "replay_digest", "replay_checkpoints"):
            assert old[key] == new[key]
        assert set(new) == {"bench", "workload", "scale", "seed", "units",
                            "cycles", "chunks", "digest", "wall_s",
                            "rate_units_per_s", "replay_wall_s",
                            "replay_rate_units_per_s", "replay_digest",
                            "replay_checkpoints", "replay_jobs",
                            "replay_parallel_wall_s", "replay_speedup",
                            "replay_speedup_bound", "overhead"}
        assert new["replay_checkpoints"] > 0
        overhead = new["overhead"]
        # the trajectory: native cycles, two overheads, and the log
        # bandwidth series — v2 must never lose to v1 on these workloads
        assert overhead["native_cycles"] > 0
        assert overhead["full_overhead_pct"] >= overhead["hw_overhead_pct"]
        assert overhead["total_bytes_v2"] <= overhead["total_bytes_v1"]
        assert old["overhead"] == new["overhead"]
    # table printed, one line per bench plus the history footer
    lines = capsys.readouterr().out.strip().splitlines()
    assert any("history:" in line for line in lines)
    # the many-core scaling series rides on the entry (quick: 4 and 16
    # cores), bit-identical across fabrics and across runs
    for old, new in zip(first["scaling"], second["scaling"]):
        assert new["workload"] == bench.SCALING_WORKLOAD
        assert new["cores"] in (4, 16)
        assert old["digest"] == new["digest"]
        for coherence in ("snoop", "directory"):
            assert new[coherence]["notifies_sent"] > 0
            assert (new[coherence]["broadcast_snoops"]
                    == new["snoop"]["broadcast_snoops"])
        assert new["snoop"]["notifies_saved"] == 0
        assert new["directory"]["notifies_saved"] > 0
        assert new["saved_ratio"] > 0
    assert [row["cores"] for row in second["scaling"]] == [4, 16]
    assert any("scaling" in line for line in lines)


def test_no_scaling_flag_skips_the_series(tmp_path):
    code, out = _run(tmp_path, extra=["--no-scaling"])
    assert code == 0
    history = json.loads(out.read_text())
    assert history["entries"][-1]["scaling"] == []


def test_compare_scaling_gates_digests_and_warns_on_rate():
    def row(cores, digest, rate):
        return {"workload": "pingpong", "cores": cores, "scale": 1,
                "seed": 2, "digest": digest,
                "snoop": {"rate_units_per_s": rate},
                "directory": {"rate_units_per_s": rate}}

    previous = {"scaling": [row(4, "aaaa", 100_000.0),
                            row(16, "bbbb", 100_000.0)]}
    rows = [row(4, "XXXX", 100_000.0),
            row(16, "bbbb", 100_000.0 * bench.SLOWDOWN_WARN_RATIO / 2)]
    blocking, warnings = bench.compare(previous, rows)
    assert len(blocking) == 1 and "pingpong@4" in blocking[0]
    assert len(warnings) == 2  # both fabrics slowed at 16 cores
    # unseen (workload, cores) pairs are ignored, as unseen benches are
    assert bench.compare(previous, [row(64, "cccc", 1.0)]) == ([], [])


def test_parallel_replay_digest_mismatch_raises(monkeypatch):
    real = bench.replay_parallel

    def diverging(**kwargs):
        result, report = real(**kwargs)
        result.final_memory_digest = "0" * 64
        return result, report

    monkeypatch.setattr(bench, "replay_parallel", diverging)
    with pytest.raises(RuntimeError, match="parallel replay digest diverged"):
        bench.run_bench("counter", scale=1, seed=2, repeats=1, replay_jobs=1)


def test_digest_varying_across_repeats_raises(monkeypatch):
    digests = iter(["a" * 64, "b" * 64])
    monkeypatch.setattr(bench, "digest_of", lambda outcome: next(digests))
    with pytest.raises(RuntimeError, match="nondeterministic digest"):
        bench.run_bench("counter", scale=1, seed=2, repeats=2, replay_jobs=1)


def test_digest_mismatch_blocks_with_exit_1(tmp_path, capsys):
    code, out = _run(tmp_path)
    assert code == 0
    history = json.loads(out.read_text())
    history["entries"][-1]["results"][0]["digest"] = "0" * 64
    out.write_text(json.dumps(history))
    code, _ = _run(tmp_path)
    assert code == 1
    assert "BLOCKING" in capsys.readouterr().err


def test_compare_flags_digest_changes_and_slow_rates():
    previous = {"results": [
        {"bench": "micro.counter", "scale": 1, "seed": 2,
         "digest": "aaaa", "rate_units_per_s": 100_000.0},
        {"bench": "micro.pingpong", "scale": 1, "seed": 2,
         "digest": "bbbb", "rate_units_per_s": 100_000.0},
    ]}
    results = [
        {"bench": "micro.counter", "scale": 1, "seed": 2,
         "digest": "XXXX", "rate_units_per_s": 100_000.0},
        {"bench": "micro.pingpong", "scale": 1, "seed": 2,
         "digest": "bbbb",
         "rate_units_per_s": 100_000.0 * bench.SLOWDOWN_WARN_RATIO / 2},
    ]
    blocking, warnings = bench.compare(previous, results)
    assert len(blocking) == 1 and "micro.counter" in blocking[0]
    assert len(warnings) == 1 and "micro.pingpong" in warnings[0]


def test_compare_ignores_different_scale_or_seed():
    previous = {"results": [{"bench": "micro.counter", "scale": 1, "seed": 2,
                             "digest": "aaaa", "rate_units_per_s": 1.0}]}
    results = [{"bench": "micro.counter", "scale": 2, "seed": 2,
                "digest": "zzzz", "rate_units_per_s": 1.0}]
    assert bench.compare(previous, results) == ([], [])


def test_load_history_rejects_unknown_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "other/v9", "entries": []}))
    with pytest.raises(ValueError):
        bench.load_history(path)


def test_cli_integration(tmp_path):
    """``python -m repro bench-all`` routes through the same runner."""
    from repro.cli import main as cli_main

    out = tmp_path / "cli.json"
    code = cli_main(["bench-all", "--quick", "--repeats", "1",
                     "--scale", "1", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["schema"] == bench.SCHEMA
