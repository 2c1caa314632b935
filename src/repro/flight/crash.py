"""Crash capture: package a flight window into a triage bundle.

A crash bundle is one directory holding everything a human (or the soak
triage tooling) needs to act on a production fault after the fact::

    bundle/
      crash.json       trigger, window stats, replay-to-fault verdict,
                       repro command, optional ddmin-shrunk reproducer
      recording/       the materialized flight-window Recording
      forensics.json   `quickrec analyze` race report for the window
                       (best-effort: an analyzer crash never loses the
                       bundle)

Capture is triggered by a workload fault (:func:`detect_fault` — any
recorded thread exiting nonzero), a soak-oracle divergence (the soak
triage path), or an explicit request (``record --flight-capture``).
The bundle verifies itself at write time: the window is replayed and
checked against the recorded digests/outputs/exit codes, so
``crash.json`` states whether the bundle deterministically replays to
the recorded fault.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from ..capo.recording import FLIGHT_META_KEY, Recording

BUNDLE_FORMAT = "quickrec-crash-bundle"
BUNDLE_VERSION = 1
RECORDING_DIR = "recording"
MANIFEST_NAME = "crash.json"
FORENSICS_NAME = "forensics.json"


def detect_fault(outcome) -> str | None:
    """A human-readable fault trigger, or None when the run looks clean.

    A fault is any replay-sphere thread exiting nonzero (the outcome's
    sphere exit codes; all threads when there is no sphere scoping).
    """
    codes = outcome.sphere_exit_codes or outcome.exit_codes
    bad = {rthread: code for rthread, code in sorted(codes.items())
           if code != 0}
    if not bad:
        return None
    detail = ", ".join(f"rthread {rthread} exited {code}"
                       for rthread, code in bad.items())
    return f"workload fault: {detail}"


def _replay_to_fault(recording: Recording) -> dict[str, Any]:
    """Replay the window and compare against the recorded verdict."""
    from ..replay.checkpoint import base_replayer
    from ..replay.verify import verify_recording

    result = base_replayer(recording).run()
    report = verify_recording(recording, result)
    return {
        "ok": report.ok,
        "mismatches": report.mismatches,
        "exit_codes": {str(rthread): code
                       for rthread, code in sorted(result.exit_codes.items())},
        "result_digest": result.digest(),
    }


def write_crash_bundle(directory: str | Path, recording: Recording, *,
                       trigger: str, forensics: bool = True,
                       repro: str | None = None,
                       reproducer: dict[str, Any] | None = None) -> Path:
    """Materialize a crash bundle at ``directory``; returns its path.

    ``repro`` is the copy-pasteable command that reproduces the original
    run; ``reproducer`` is an optional pre-shrunk case (the soak path
    attaches its ddmin result when the failure replays deterministically).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    recording.save(directory / RECORDING_DIR)
    manifest: dict[str, Any] = {
        "format": BUNDLE_FORMAT,
        "version": BUNDLE_VERSION,
        "trigger": trigger,
        "program": recording.program.name,
        "flight": recording.metadata.get(FLIGHT_META_KEY),
        "window_chunks": len(recording.chunks),
        "window_events": len(recording.events),
        "repro": repro,
        "reproducer": reproducer,
    }
    try:
        manifest["replay"] = _replay_to_fault(recording)
    except Exception as exc:  # noqa: BLE001 -- report, don't lose the bundle
        manifest["replay"] = None
        manifest["replay_error"] = f"{type(exc).__name__}: {exc}"
    if forensics:
        # Best-effort, like soak triage: an analyzer failure is recorded
        # in the manifest but never loses the captured window.
        try:
            from ..forensics import analyze_recording
            report, _graph = analyze_recording(
                recording, directory=str(directory / RECORDING_DIR))
            (directory / FORENSICS_NAME).write_text(
                json.dumps(report.as_dict(), indent=2) + "\n")
            manifest["races"] = len(report.races)
        except Exception as exc:  # noqa: BLE001
            manifest["races"] = None
            manifest["forensics_error"] = f"{type(exc).__name__}: {exc}"
    (directory / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2) + "\n")
    return directory


def load_crash_manifest(directory: str | Path) -> dict[str, Any]:
    """The bundle's ``crash.json`` (validated)."""
    from ..errors import LogFormatError
    directory = Path(directory)
    try:
        manifest = json.loads((directory / MANIFEST_NAME).read_text())
    except FileNotFoundError as exc:
        raise LogFormatError(f"no crash manifest in {directory}") from exc
    except json.JSONDecodeError as exc:
        raise LogFormatError(
            f"{directory / MANIFEST_NAME} is not valid JSON: {exc}") from exc
    if manifest.get("format") != BUNDLE_FORMAT:
        raise LogFormatError(f"{directory} is not a crash bundle")
    return manifest
