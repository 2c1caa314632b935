"""Triage artifacts: serialization, repro commands, local re-runs."""

import json

import pytest

from repro.errors import LogFormatError
from repro.soak import (
    SoakOptions,
    load_artifact,
    repro_command,
    rerun_artifact,
    run_seed,
    write_artifact,
)
from repro.soak.triage import _case_from_dict, _case_to_dict
from repro.workloads.fuzz import generate_case


def test_case_serialization_round_trips():
    case = generate_case(123)
    back = _case_from_dict(json.loads(json.dumps(_case_to_dict(case))))
    assert back == case


def test_case_with_retired_config_keys_loads():
    # artifacts written while these keys existed must still load
    case = generate_case(123)
    data = json.loads(json.dumps(_case_to_dict(case)))
    config = data["config"]
    config["machine"]["word_bytes"] = 4
    config["kernel"]["stack_bytes_per_thread"] = 16 * 1024
    config["capo"].update(log_copy_to_user=True, drain_on_context_switch=True,
                          compress_chunk_log=True, input_log_version=3,
                          chunk_log_version=4)
    assert _case_from_dict(data) == case


def test_case_with_a_telemetry_section_loads():
    # artifacts written while the config carried a telemetry section
    case = generate_case(123)
    data = json.loads(json.dumps(_case_to_dict(case)))
    assert "telemetry" not in data["config"]
    data["config"]["telemetry"] = {"enabled": True, "sampling": 64}
    assert _case_from_dict(data) == case


def test_repro_command_reflects_options():
    options = SoakOptions(matrix=True, shrink=True, inject="decode-cache")
    command = repro_command(7, options)
    assert command.startswith("quickrec fuzz --count 1 --base-seed 7")
    assert "--matrix" in command and "--shrink" in command
    assert "--inject decode-cache" in command


def test_artifact_write_load_rerun(tmp_path):
    options = SoakOptions(matrix=True, shrink=True, inject="decode-cache",
                          max_shrink_evals=60)
    verdict = run_seed(42, options)
    assert not verdict.ok
    path = write_artifact(tmp_path, verdict, options)
    artifact = load_artifact(path)
    assert artifact["seed"] == 42
    assert artifact["failures"]
    assert artifact["shrink"]["ops_after"] <= 6
    assert artifact["minimized"] is not None

    failures, which = rerun_artifact(path)
    assert which == "minimized"
    assert failures, "the minimized case must still reproduce the failure"
    assert any(f.kind == "divergence" for f in failures)

    # Every failure artifact ships with a race-forensics report for the
    # (minimized) failing case.
    forensics = artifact["forensics"]
    assert forensics is not None and "forensics_error" not in artifact
    assert forensics["format"] == "quickrec-race-report"
    assert forensics["total_chunks"] > 0
    assert forensics["hb"]["nodes"] == forensics["total_chunks"]


def test_artifact_forensics_can_be_disabled(tmp_path):
    options = SoakOptions(matrix=True, inject="decode-cache")
    verdict = run_seed(42, options)
    path = write_artifact(tmp_path, verdict, options, forensics=False)
    artifact = load_artifact(path)
    assert "forensics" not in artifact


def test_rerun_falls_back_to_original_case(tmp_path):
    options = SoakOptions(matrix=True, inject="decode-cache")
    verdict = run_seed(42, options)  # no shrinking
    path = write_artifact(tmp_path, verdict, options)
    failures, which = rerun_artifact(path)
    assert which == "original"
    assert failures


def test_load_artifact_rejects_garbage(tmp_path):
    path = tmp_path / "not-an-artifact.json"
    path.write_text("{\"format\": \"something-else\"}")
    with pytest.raises(LogFormatError):
        load_artifact(path)
    with pytest.raises(LogFormatError):
        load_artifact(tmp_path / "missing.json")
