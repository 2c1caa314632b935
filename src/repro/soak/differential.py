"""Per-seed differential checking: one case, many variants, one verdict.

For each :class:`~repro.workloads.fuzz.FuzzCase` this module runs the
baseline plus (with the matrix on) every lattice variant, and collects
:class:`SeedFailure` records for:

- ``exception``  — a run raised instead of completing;
- ``verify``     — record → replay → verify diverged for some variant;
- ``divergence`` — a bit-identical variant's outcome fingerprint, or its
  replay's :meth:`~repro.replay.replayer.ReplayResult.digest`, differs
  from the baseline's (the differential oracle proper). Comparing replays
  checks the compiled replay path, translation blocks included, bit for
  bit against the interpretive ``decode-off`` replay;
- ``roundtrip``  — a recording failed to survive ``Recording`` save/load
  including the load from the compact chunk log alone.

Fault injection (``inject=``) perturbs the op list of one variant's
program, simulating a miscompiled decode template or a snoop filter that
drops a conflict: the end-to-end self-test that the oracle, the shrinker
and the triage pipeline actually catch real divergences.
"""

from __future__ import annotations

import hashlib
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path

from .. import session
from ..capo.input_log import encode_events_v1
from ..capo.recording import CHUNKS_NAME, Recording
from ..errors import ReproError
from ..mrr.logfmt import encode_chunks
from ..workloads.fuzz import FuzzCase, build_program
from .variants import BASELINE, Variant, matrix_variants

#: Faults the campaign can inject (``quickrec fuzz --inject``), mapping to
#: the variant whose program gets perturbed.
INJECTABLE = ("decode-cache", "snoop-filter")
_INJECT_TARGET = {
    "decode-cache": "decode-off",
    "snoop-filter": "snoop-filter-off",
}


@dataclass
class SeedFailure:
    """One failed check for one seed."""

    kind: str
    variant: str
    detail: str

    def headline(self) -> str:
        first = self.detail.splitlines()[0] if self.detail else ""
        return f"[{self.kind}] variant {self.variant}: {first}"


def outcome_fingerprint(outcome) -> dict[str, str]:
    """Every observable of a recorded run, hashed per component so a
    divergence report can say *what* disagreed, not just that something
    did."""
    recording = outcome.recording
    outputs = hashlib.sha256()
    for name in sorted(outcome.outputs):
        outputs.update(name.encode())
        outputs.update(b"\x00")
        outputs.update(outcome.outputs[name])
        outputs.update(b"\x00")
    return {
        "memory": outcome.final_memory_digest,
        "chunk_log": hashlib.sha256(
            encode_chunks(recording.chunks)).hexdigest(),
        "input_log": hashlib.sha256(
            encode_events_v1(recording.events)).hexdigest(),
        "outputs": outputs.hexdigest(),
        "exit_codes": repr(sorted(outcome.exit_codes.items())),
        "cycles": str(outcome.total_cycles),
        "units": str(outcome.units),
    }


def outcome_digest(outcome) -> str:
    """One hash over the full fingerprint: equal iff bit-identical."""
    fingerprint = outcome_fingerprint(outcome)
    h = hashlib.sha256()
    for key in sorted(fingerprint):
        h.update(key.encode())
        h.update(b"\x00")
        h.update(fingerprint[key].encode())
        h.update(b"\x00")
    return h.hexdigest()


def _injected_ops(case: FuzzCase) -> list[list[tuple]]:
    """The case's ops with a one-instruction perturbation on thread 0 —
    the accumulator lands in ``results``, so the final memory image (and
    with it the digest) is guaranteed to diverge."""
    return [[*case.threads_ops[0], ("alu", "add", 1)], *case.threads_ops[1:]]


def run_variant(case: FuzzCase, variant: Variant, inject: str | None = None):
    """Record, replay and verify ``case`` under ``variant``.

    Returns ``(outcome, replay_result, verification_report)``; exceptions
    propagate to the caller, which records them as ``exception`` failures.
    """
    ops = case.threads_ops
    if inject is not None and _INJECT_TARGET.get(inject) == variant.name:
        ops = _injected_ops(case)
    program = build_program(ops, repeats=case.repeats)
    config = variant.apply(case.config)
    switches = {"decode_cache": variant.decode_cache,
                "filter_snoops": variant.snoop_filter}
    if variant.checkpoint_every:
        # Checkpointed path: embed checkpoints post-hoc, then replay
        # interval by interval — restoring every checkpoint and
        # verifying every seam digest — before the usual verification.
        # Checkpoint building and interval replay keep the decode cache.
        from ..replay.parallel import replay_parallel
        outcome = session.record(program, seed=case.run_seed,
                                 policy=case.policy, config=config,
                                 **switches)
        session.add_checkpoints(outcome.recording,
                                variant.checkpoint_every)
        replayed, _report = replay_parallel(
            recording=outcome.recording, jobs=1)
        report = session.verify(outcome, replayed)
    else:
        outcome, replayed, report = session.record_and_replay(
            program, seed=case.run_seed, policy=case.policy,
            config=config, **switches)
    return outcome, replayed, report


def _roundtrip_failures(recording: Recording,
                        variant_name: str) -> list[SeedFailure]:
    """Log-format durability: the recording must survive a full
    save/load, including the load from the compact chunk log alone that
    a bundle with no packed chunk log takes."""
    failures: list[SeedFailure] = []
    try:
        with tempfile.TemporaryDirectory(prefix="qr-soak-") as tmp:
            recording.save(tmp)
            loaded = Recording.load(tmp)
            checks = (
                ("chunks", loaded.chunks == recording.chunks),
                ("events", loaded.events == recording.events),
                ("config",
                 loaded.config.to_dict() == recording.config.to_dict()),
                ("metadata", loaded.metadata == recording.metadata),
                ("checkpoints",
                 loaded.checkpoints == recording.checkpoints),
            )
            for what, equal in checks:
                if not equal:
                    failures.append(SeedFailure(
                        "roundtrip", variant_name,
                        f"save/load: {what} changed across the round trip"))
            (Path(tmp) / CHUNKS_NAME).unlink()
            if Recording.load(tmp).chunks != recording.chunks:
                failures.append(SeedFailure(
                    "roundtrip", variant_name,
                    "save/load via compressed chunk log: entries "
                    "changed across the round trip"))
    except ReproError as exc:
        failures.append(SeedFailure(
            "roundtrip", variant_name, f"save/load: {exc}"))
    return failures


def run_case_checks(case: FuzzCase, matrix: bool = False,
                    inject: str | None = None) -> list[SeedFailure]:
    """All differential checks for one case; empty list means the seed
    passed."""
    failures: list[SeedFailure] = []
    variants = (BASELINE, *matrix_variants()) if matrix else (BASELINE,)
    base_fingerprint: dict[str, str] | None = None
    for variant in variants:
        try:
            outcome, replayed, report = run_variant(case, variant,
                                                    inject=inject)
        except Exception as exc:  # noqa: BLE001 - the campaign reports
            failures.append(SeedFailure(
                "exception", variant.name,
                f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"))
            continue
        if not report.ok:
            failures.append(SeedFailure(
                "verify", variant.name, report.summary()))
        fingerprint = {**outcome_fingerprint(outcome),
                       "replay": replayed.digest()}
        if variant is BASELINE:
            base_fingerprint = fingerprint
        elif variant.bit_identical and base_fingerprint is not None:
            differing = sorted(key for key in fingerprint
                               if fingerprint[key] != base_fingerprint[key])
            if differing:
                failures.append(SeedFailure(
                    "divergence", variant.name,
                    "not bit-identical to baseline; differing components: "
                    + ", ".join(differing)))
        failures.extend(_roundtrip_failures(outcome.recording, variant.name))
    return failures
