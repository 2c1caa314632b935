"""Record-vs-replay verification.

Compares the observable outcome of a recorded run against its replay:
final memory image (digest), every output file byte-for-byte, and
per-thread exit codes. Any mismatch means the logs failed to capture some
nondeterminism — a bug, reported with as much locality as we have.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..capo.recording import Recording
from .replayer import ReplayResult


@dataclass
class VerificationReport:
    """Outcome of comparing a recording's run against its replay."""

    memory_match: bool
    output_match: bool
    exit_code_match: bool
    mismatches: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.memory_match and self.output_match and self.exit_code_match

    def summary(self) -> str:
        if self.ok:
            return "replay verified: memory, outputs and exit codes match"
        return "REPLAY DIVERGED: " + "; ".join(self.mismatches)


def verify_replay(recorded_digest: str, recorded_outputs: dict[str, bytes],
                  recorded_exit_codes: dict[int, int],
                  replay: ReplayResult,
                  use_region: bool = False) -> VerificationReport:
    mismatches: list[str] = []

    replay_digest = (replay.region_digest if use_region
                     else replay.final_memory_digest)
    memory_match = recorded_digest == replay_digest
    if not memory_match:
        mismatches.append(
            f"memory digest {recorded_digest[:12]}… != "
            f"{(replay_digest or '<none>')[:12]}…")

    output_match = True
    names = set(recorded_outputs) | set(replay.outputs)
    for name in sorted(names):
        want = recorded_outputs.get(name, b"")
        got = replay.outputs.get(name, b"")
        if want != got:
            output_match = False
            prefix = _common_prefix(want, got)
            if prefix < min(len(want), len(got)):
                where = f"content differs at offset {prefix}"
            elif len(got) < len(want):
                # Every compared byte matched; the replay just stopped short.
                where = f"replay output truncated at length {prefix}"
            else:
                where = f"replay output extended at length {prefix}"
            mismatches.append(
                f"output {name!r}: {len(want)} vs {len(got)} bytes, {where}")

    exit_code_match = recorded_exit_codes == replay.exit_codes
    if not exit_code_match:
        mismatches.append(
            f"exit codes {recorded_exit_codes} != {replay.exit_codes}")

    return VerificationReport(memory_match=memory_match,
                              output_match=output_match,
                              exit_code_match=exit_code_match,
                              mismatches=mismatches)


def verify_recording(recording: Recording,
                     replay: ReplayResult) -> VerificationReport:
    """Compare ``replay`` against the outcome ``recording``'s metadata
    carries: final memory digest, outputs and exit codes. A bundle
    recorded beside background processes stores its sphere's digest
    (metadata ``sphere_region``), compared against the replay's region
    digest."""
    meta = recording.metadata
    return verify_replay(
        meta.get("final_memory_digest", ""),
        {name: bytes.fromhex(data)
         for name, data in meta.get("outputs_hex", {}).items()},
        {int(rthread): code
         for rthread, code in meta.get("exit_codes", {}).items()},
        replay, use_region="sphere_region" in meta)


def _common_prefix(a: bytes, b: bytes) -> int:
    for index, (byte_a, byte_b) in enumerate(zip(a, b)):
        if byte_a != byte_b:
            return index
    return min(len(a), len(b))
