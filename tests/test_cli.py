import json

from repro.cli import main


def test_list_shows_workloads(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "counter" in out
    assert "fft" in out
    assert "splash" in out and "micro" in out


def test_record_and_info_and_replay(tmp_path, capsys):
    rec_dir = str(tmp_path / "rec")
    assert main(["record", "counter", "--threads", "2", "--seed", "3",
                 "-o", rec_dir]) == 0
    out = capsys.readouterr().out
    assert "chunks" in out and "saved to" in out

    assert main(["info", rec_dir]) == 0
    out = capsys.readouterr().out
    assert "chunk terminations" in out

    assert main(["replay", rec_dir]) == 0
    out = capsys.readouterr().out
    assert "replay verified" in out


def test_parallel_replay_reports_spans_and_restores(tmp_path, capsys):
    rec_dir = str(tmp_path / "rec")
    assert main(["record", "racer", "--seed", "11", "-o", rec_dir,
                 "--checkpoint-every", "8"]) == 0
    capsys.readouterr()

    def rows(jobs):
        assert main(["replay", rec_dir, "--jobs", str(jobs)]) == 0
        lines = capsys.readouterr().out.splitlines()
        return dict(line.strip().rsplit(None, 1) for line in lines
                    if line.startswith("  "))

    serial, parallel = rows(1), rows(2)
    assert parallel["result digest"] == serial["result digest"]
    assert (parallel["spans"], parallel["checkpoints restored"]) == ("2", "1")


def test_record_without_output_dir(capsys):
    assert main(["record", "counter", "--threads", "2"]) == 0
    assert "saved to" not in capsys.readouterr().out


def test_record_directory_coherence_roundtrips(tmp_path, capsys):
    rec_dir = str(tmp_path / "rec")
    assert main(["record", "pingpong", "--threads", "4", "--seed", "3",
                 "--coherence", "directory", "--cores", "8",
                 "-o", rec_dir]) == 0
    out = capsys.readouterr().out
    assert "notifies saved vs broadcast" in out
    assert "sharer set sizes" in out
    assert main(["replay", rec_dir]) == 0
    assert "replay verified" in capsys.readouterr().out


def test_record_snoop_fabric_hides_directory_rows(capsys):
    assert main(["record", "counter", "--threads", "2"]) == 0
    assert "notifies" not in capsys.readouterr().out


def test_stats_accepts_coherence_override(capsys):
    assert main(["stats", "pingpong", "--threads", "2",
                 "--coherence", "directory", "--no-replay"]) == 0
    out = capsys.readouterr().out
    assert "machine.bus.notifies_saved" in out


def test_roundtrip_command(capsys):
    assert main(["roundtrip", "counter", "dekker", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count(" ok") == 2


def test_overhead_command(capsys):
    assert main(["overhead", "counter", "--threads", "2"]) == 0
    out = capsys.readouterr().out
    assert "hw ovh %" in out
    assert "counter" in out


def test_unknown_workload_is_clean_error(capsys):
    assert main(["record", "nosuch"]) == 1
    assert "error:" in capsys.readouterr().err


def test_replay_missing_directory_is_clean_error(tmp_path, capsys):
    assert main(["replay", str(tmp_path / "missing")]) == 1
    assert "error:" in capsys.readouterr().err


def test_record_trace_with_zero_sampling_is_clean_error(tmp_path, capsys):
    assert main(["record", "counter", "--trace", str(tmp_path / "t.json"),
                 "--sampling", "0"]) == 1
    assert "sampling must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "t.json").exists()


def test_usage_error_exits_2(capsys):
    assert main(["record"]) == 2  # missing workload operand
    assert main(["nosuchcommand"]) == 2
    capsys.readouterr()


def test_version_flag(capsys):
    from repro import __version__

    assert main(["--version"]) == 0
    assert __version__ in capsys.readouterr().out


def test_replay_detects_tampered_log(tmp_path, capsys):
    rec_dir = tmp_path / "rec"
    assert main(["record", "counter", "--threads", "2",
                 "-o", str(rec_dir)]) == 0
    capsys.readouterr()
    # truncate the chunk log: decode fails -> clean error exit
    chunks = rec_dir / "chunks.bin"
    chunks.write_bytes(chunks.read_bytes()[:-16])
    assert main(["replay", str(rec_dir)]) == 1


def test_replay_verifies_multiprogrammed_bundle(tmp_path, capsys):
    # The bundle stores the replay sphere's digest, not the whole memory
    # image's: verification must compare region digests, serial and
    # parallel alike.
    from repro import session, workloads

    from tests.integration.test_spheres import background_program

    program, _inputs = workloads.build("counter")
    outcome, _replayed, report = session.record_and_replay(
        program, seed=1, background_programs=[background_program(0x100000)])
    assert report.ok, report.summary()
    rec_dir = tmp_path / "rec"
    outcome.recording.save(rec_dir)
    assert main(["replay", str(rec_dir)]) == 0
    assert "replay verified" in capsys.readouterr().out

    checkpointed = tmp_path / "ckpt"
    session.add_checkpoints(outcome.recording, 8).save(checkpointed)
    assert main(["replay", str(checkpointed), "--jobs", "2"]) == 0
    assert "replay verified" in capsys.readouterr().out


def test_timeline_command(tmp_path, capsys):
    rec_dir = str(tmp_path / "rec")
    assert main(["record", "pingpong", "--threads", "2",
                 "-o", rec_dir]) == 0
    capsys.readouterr()
    assert main(["timeline", rec_dir, "--width", "40"]) == 0
    out = capsys.readouterr().out
    assert "t1" in out and "t2" in out and "key:" in out


def test_debug_watch_command(tmp_path, capsys):
    rec_dir = str(tmp_path / "rec")
    assert main(["record", "counter", "--threads", "2",
                 "-o", rec_dir]) == 0
    capsys.readouterr()
    assert main(["debug", rec_dir, "--watch", "counter"]) == 0
    out = capsys.readouterr().out
    assert "changed" in out
    assert "thread states" in out


def test_debug_until_chunk_command(tmp_path, capsys):
    rec_dir = str(tmp_path / "rec")
    assert main(["record", "counter", "--threads", "2",
                 "-o", rec_dir]) == 0
    capsys.readouterr()
    assert main(["debug", rec_dir, "--until-chunk", "25"]) == 0
    out = capsys.readouterr().out
    assert "stopped at chunk 25" in out


def test_debug_full_run_command(tmp_path, capsys):
    rec_dir = str(tmp_path / "rec")
    assert main(["record", "dekker", "-o", rec_dir]) == 0
    capsys.readouterr()
    assert main(["debug", rec_dir]) == 0
    out = capsys.readouterr().out
    assert "replayed all" in out


def test_fuzz_command(capsys):
    assert main(["fuzz", "--count", "3", "--base-seed", "7"]) == 0
    assert "3/3 seeds verified" in capsys.readouterr().out


def test_fuzz_matrix_command(capsys):
    assert main(["fuzz", "--count", "2", "--base-seed", "1",
                 "--matrix"]) == 0
    assert "matrix differential" in capsys.readouterr().out


def test_fuzz_parallel_command(capsys):
    assert main(["fuzz", "--count", "4", "--jobs", "2"]) == 0
    assert "4/4 seeds verified" in capsys.readouterr().out


def test_fuzz_injected_failure_exits_nonzero_with_repro(tmp_path, capsys):
    artifacts = tmp_path / "triage"
    assert main(["fuzz", "--count", "1", "--base-seed", "42", "--matrix",
                 "--shrink", "--inject", "decode-cache",
                 "--artifacts", str(artifacts)]) == 1
    out = capsys.readouterr().out
    assert "0/1 seeds verified" in out
    assert "[divergence] variant decode-off" in out
    assert ("repro: quickrec fuzz --count 1 --base-seed 42 --jobs 1 "
            "--matrix --shrink --inject decode-cache") in out
    assert "shrunk:" in out
    [artifact] = list(artifacts.glob("seed-*.json"))

    capsys.readouterr()
    assert main(["fuzz", "--from-artifact", str(artifact)]) == 1
    assert "still fails" in capsys.readouterr().out


def test_fuzz_inject_without_matrix_is_usage_error(capsys):
    assert main(["fuzz", "--count", "1", "--inject", "decode-cache"]) == 2


def test_record_trace_writes_valid_chrome_trace(tmp_path, capsys):
    import json

    from repro.telemetry import validate_trace

    trace_path = tmp_path / "t.json"
    assert main(["record", "counter", "--threads", "2",
                 "--trace", str(trace_path)]) == 0
    assert "trace written to" in capsys.readouterr().out
    document = json.loads(trace_path.read_text())
    assert validate_trace(document) == []
    cats = {e["cat"] for e in document["traceEvents"] if e.get("cat")}
    assert {"machine", "mrr", "capo", "kernel"} <= cats


def test_stats_command_renders_metrics_tables(capsys):
    assert main(["stats", "counter", "--threads", "2"]) == 0
    out = capsys.readouterr().out
    assert "counters and gauges" in out
    assert "distributions" in out
    assert "mrr.chunks_total" in out
    assert "replay.chunks" in out


def test_stats_no_replay_skips_replay_metrics(capsys):
    assert main(["stats", "counter", "--threads", "2", "--no-replay"]) == 0
    out = capsys.readouterr().out
    assert "mrr.chunks_total" in out
    assert "replay.chunks" not in out


def test_stats_json_outputs_parseable_snapshot(capsys):
    import json

    assert main(["stats", "counter", "--threads", "2", "--json"]) == 0
    snapshot = json.loads(capsys.readouterr().out)
    assert "mrr.chunks_total" in snapshot
    assert "replay.chunks" in snapshot


def test_info_json_outputs_summary_and_terminations(tmp_path, capsys):
    import json

    rec_dir = str(tmp_path / "rec")
    assert main(["record", "counter", "--threads", "2", "-o", rec_dir]) == 0
    capsys.readouterr()
    assert main(["info", rec_dir, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["program"] == "counter"
    assert payload["summary"]["chunks"] > 0
    assert abs(sum(payload["terminations"].values()) - 1.0) < 1e-9


def test_analyze_reports_seeded_race_with_artifacts(tmp_path, capsys):
    import json

    from repro.telemetry import validate_trace

    rec_dir = str(tmp_path / "rec")
    report_path = tmp_path / "report.json"
    trace_path = tmp_path / "trace.json"
    assert main(["record", "racer", "--seed", "11", "-o", rec_dir,
                 "--checkpoint-every", "8"]) == 0
    capsys.readouterr()
    assert main(["analyze", rec_dir, "--json", str(report_path),
                 "--trace", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "race forensics" in out
    assert "race #1: racy" in out
    assert f"quickrec inspect {rec_dir} --at" in out
    assert "happens-before graph" in out
    assert "timestamps" in out  # the shared timeline rendering

    payload = json.loads(report_path.read_text())
    assert payload["format"] == "quickrec-race-report"
    assert payload["races"]
    assert {payload["races"][0]["first"]["rthread"],
            payload["races"][0]["second"]["rthread"]} == {1, 2}
    document = json.loads(trace_path.read_text())
    assert validate_trace(document) == []

    # The inspect command the report prints actually runs.
    at = payload["races"][0]["first"]["chunk_index"]
    assert main(["inspect", rec_dir, "--at", str(at)]) == 0
    assert "thread states" in capsys.readouterr().out


def test_analyze_window_flags(tmp_path, capsys):
    rec_dir = str(tmp_path / "rec")
    assert main(["record", "racer", "--seed", "11", "-o", rec_dir,
                 "--checkpoint-every", "8"]) == 0
    capsys.readouterr()
    assert main(["analyze", rec_dir, "--at", "40", "--until", "120"]) == 0
    out = capsys.readouterr().out
    assert "[40, 120)" in out


def test_analyze_race_free_recording(tmp_path, capsys):
    rec_dir = str(tmp_path / "rec")
    assert main(["record", "locks", "--threads", "2", "-o", rec_dir]) == 0
    capsys.readouterr()
    assert main(["analyze", rec_dir]) == 0
    out = capsys.readouterr().out
    assert "no data races detected" in out


def test_record_flight_window_captures_crash(tmp_path, capsys):
    out_dir = tmp_path / "rec"
    assert main(["record", "crasher", "--seed", "3", "-o", str(out_dir),
                 "--flight-window", "2", "--flight-epoch", "16"]) == 0
    out = capsys.readouterr().out
    assert "flight window" in out
    assert "crash capture" in out
    assert "replays to fault" in out
    # the bundle landed beside the recording and replays clean
    bundle = tmp_path / "rec-crash"
    assert (bundle / "crash.json").exists()
    assert main(["replay", str(bundle / "recording")]) == 0
    assert "replay verified" in capsys.readouterr().out


def test_crash_repro_line_keeps_the_machine_flags(tmp_path, capsys):
    """The repro command reruns the machine that crashed: 2 cores on the
    directory fabric, not the default 4-core snooping bus."""
    out_dir = tmp_path / "rec"
    assert main(["record", "crasher", "--cores", "2", "--coherence",
                 "directory", "--flight-window", "2", "-o",
                 str(out_dir)]) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "rec-crash" / "crash.json").read_text())
    assert manifest["repro"] == (
        "quickrec record crasher --seed 0 --policy random --scale 1 "
        "--cores 2 --coherence directory --flight-window 2")
    rerun = tmp_path / "rerun"
    assert main(manifest["repro"].split()[1:] + ["-o", str(rerun)]) == 0
    capsys.readouterr()
    machine = json.loads((rerun / "manifest.json").read_text())[
        "config"]["machine"]
    assert (machine["num_cores"], machine["coherence"]) == (2, "directory")


def test_record_flight_capture_explicit_trigger(tmp_path, capsys):
    out_dir = tmp_path / "rec"
    assert main(["record", "counter", "--threads", "2", "-o", str(out_dir),
                 "--flight-window", "2", "--flight-capture"]) == 0
    out = capsys.readouterr().out
    assert "explicit capture" in out
    assert (tmp_path / "rec-crash" / "crash.json").exists()


def test_record_fault_without_flight_hints(capsys):
    assert main(["record", "crasher", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "rerun with --flight-window" in out


def test_stats_renders_capture_rows(capsys):
    assert main(["stats", "racer", "--flight-window", "2",
                 "--flight-epoch", "16"]) == 0
    out = capsys.readouterr().out
    assert "capture.evictions" in out
    assert "capture.chunks_retained" in out


def test_fuzz_flight_requires_artifacts(capsys):
    assert main(["fuzz", "--count", "1", "--flight", "2"]) == 2
    assert "--flight needs --artifacts" in capsys.readouterr().err


def _replayed_chunks(directory, capsys, jobs=1):
    assert main(["replay", str(directory), "--jobs", str(jobs)]) == 0
    for line in capsys.readouterr().out.splitlines():
        if line.strip().startswith("chunks replayed"):
            return int(line.split()[-1].replace(",", ""))
    raise AssertionError("no 'chunks replayed' row")


def test_replay_counts_a_flight_windows_own_chunks(tmp_path, capsys):
    from repro import session
    from repro.capo.recording import Recording

    window = tmp_path / "window"
    assert main(["record", "locks", "--seed", "1", "--flight-window", "2",
                 "--flight-epoch", "16", "-o", str(window)]) == 0
    capsys.readouterr()
    recording = Recording.load(window)
    # the window evicted: its replay starts from a position-0 base record
    assert recording.checkpoint_at(0) is not None
    chunks = len(recording.chunks)
    assert _replayed_chunks(window, capsys) == chunks
    checkpointed = tmp_path / "checkpointed"
    session.add_checkpoints(recording, 8).save(checkpointed)
    assert _replayed_chunks(checkpointed, capsys, jobs=2) == chunks


def test_replay_counts_an_ordinary_bundles_chunks(tmp_path, capsys):
    from repro.capo.recording import Recording

    rec_dir = tmp_path / "rec"
    assert main(["record", "locks", "--seed", "1", "-o", str(rec_dir),
                 "--checkpoint-every", "64"]) == 0
    capsys.readouterr()
    chunks = len(Recording.load(rec_dir).chunks)
    assert _replayed_chunks(rec_dir, capsys) == chunks
    assert _replayed_chunks(rec_dir, capsys, jobs=2) == chunks
