"""The one equivalence check: one subject, many variants, one verdict.

A subject is a :class:`~repro.workloads.fuzz.FuzzCase` or a
:class:`BenchSubject`. :func:`run_case_checks` runs its baseline (also
with recording off and hardware-only) and each requested lattice
variant, and collects :class:`SeedFailure` records for:

- ``exception``  — a run raised instead of completing;
- ``verify``     — record → replay → verify diverged for some variant;
- ``divergence`` — a bit-identical variant's outcome fingerprint, or its
  replay's :meth:`~repro.replay.replayer.ReplayResult.digest`, differs
  from the baseline's (the differential oracle proper). Comparing replays
  checks the compiled replay path, compiled regions included, bit for
  bit against the interpretive ``decode-off`` replay, and the traced
  replay of ``telemetry-on`` against the untraced one;
- ``modes``      — the baseline re-run with recording off, hardware-only
  or traced executed differently (final memory digest, units or
  outputs), or hardware-only cut other chunks than the traced recording
  (its ``mrr.*`` metrics): recording may charge cycles, never steer;
- ``roundtrip``  — a recording failed to survive ``Recording`` save/load
  including the load from the compact chunk log alone.

Fault injection (``inject="decode-cache"``) perturbs the op list of a
fuzz case's ``decode-off`` program, simulating a miscompiled decode
template: the end-to-end self-test that the oracle, the shrinker and the
triage pipeline actually catch real divergences.
"""

from __future__ import annotations

import hashlib
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Union

from .. import session, workloads
from ..capo.input_log import encode_events_v1
from ..capo.recording import CHUNKS_NAME, Recording
from ..config import DEFAULT_CONFIG, SimConfig
from ..errors import ReproError
from ..isa.program import Program
from ..mrr.logfmt import encode_chunks
from ..replay.checkpoint import base_replayer
from ..replay.parallel import replay_parallel
from ..telemetry import Telemetry
from ..workloads.fuzz import FuzzCase, build_program
from .variants import BASELINE, Variant


@dataclass(frozen=True)
class BenchSubject:
    """A registered workload as a lattice subject: its program and input
    files at scale 1, run with ``run_seed``, ``policy`` and ``config``."""

    name: str
    program: Program
    input_files: Mapping[str, bytes]
    policy: str = "random"
    run_seed: int = 1
    config: SimConfig = DEFAULT_CONFIG


def bench_subject(name: str, policy: str = "random", seed: int = 1,
                  config: SimConfig = DEFAULT_CONFIG) -> BenchSubject:
    program, input_files = workloads.build(name, scale=1)
    return BenchSubject(name, program, input_files, policy, seed, config)


Subject = Union[FuzzCase, BenchSubject]

#: Every run's unit budget: about twenty times the largest subject
#: (``radix`` records ~48k units at scale 1; fuzz cases stay under 10k),
#: so a fault that makes a program spin fails as an ``exception`` within
#: seconds instead of running on to the simulator's default budget.
MAX_UNITS = 1_000_000


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


def _program(subject: Subject, variant: Variant, inject: str | None
             ) -> tuple[Program, Mapping[str, bytes] | None]:
    """The program ``variant`` runs for ``subject``, and its input files."""
    if isinstance(subject, BenchSubject):
        return subject.program, subject.input_files
    ops = subject.threads_ops
    if inject == "decode-cache" and variant.name == "decode-off":
        ops = _injected_ops(subject)
    return build_program(ops, repeats=subject.repeats), None


def run_variant(subject: Subject, variant: Variant,
                inject: str | None = None):
    """Record, replay and verify ``subject`` under ``variant``.

    Returns ``(outcome, replay_result, verification_report)``; exceptions
    propagate to the caller, which records them as ``exception`` failures.
    """
    program, input_files = _program(subject, variant, inject)
    telemetry = Telemetry(sampling=64) if variant.telemetry else None
    outcome = session.record(
        program, seed=subject.run_seed, policy=subject.policy,
        config=variant.apply(subject.config), input_files=input_files,
        decode_cache=variant.decode_cache, telemetry=telemetry,
        max_units=MAX_UNITS)
    if variant.checkpoint_every:
        # Checkpointed path: embed checkpoints post-hoc, then replay
        # interval by interval — restoring every checkpoint and
        # verifying every seam digest — before the usual verification.
        # Checkpoint building and interval replay keep the decode cache.
        session.add_checkpoints(outcome.recording,
                                variant.checkpoint_every)
        replayed, _report = replay_parallel(
            recording=outcome.recording, jobs=1, telemetry=telemetry)
    else:
        replayed = base_replayer(
            outcome.recording, telemetry=telemetry,
            decode_cache=variant.decode_cache).run()
    return outcome, replayed, session.verify(outcome, replayed)


def _execution(outcome) -> dict[str, object]:
    """What a run executed, whatever it recorded or charged."""
    return {"memory": outcome.final_memory_digest, "units": outcome.units,
            "outputs": outcome.outputs}


def _modes_failures(subject: Subject, full) -> list[SeedFailure]:
    """Recording off, hardware-only and a traced full recording must
    execute what the baseline recording executed, and hardware-only must
    cut the chunks the traced recording cuts (its ``mrr.*`` metrics): the
    software stack and telemetry may charge cycles, never steer."""
    program, input_files = _program(subject, BASELINE, None)
    expected = _execution(full)
    failures: list[SeedFailure] = []
    for mode in (session.MODE_FULL, session.MODE_OFF, session.MODE_HW):
        traced = mode != session.MODE_OFF
        outcome = session.simulate(
            program, seed=subject.run_seed, policy=subject.policy,
            config=subject.config, input_files=input_files, mode=mode,
            telemetry=Telemetry(sampling=64) if traced else None,
            max_units=MAX_UNITS)
        execution = _execution(outcome)
        if traced:
            metrics = outcome.telemetry.snapshot()
            execution["mrr"] = {name: metrics[name] for name in metrics
                                if name.startswith("mrr.")}
            expected.setdefault("mrr", execution["mrr"])
        differing = [key for key in execution
                     if execution[key] != expected[key]]
        if differing:
            failures.append(SeedFailure(
                "modes", BASELINE.name,
                f"mode {mode!r} executes differently from the baseline "
                f"recording; differing components: {', '.join(differing)}"))
    return failures


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


def run_case_checks(subject: Subject, variants: tuple[Variant, ...] = (),
                    inject: str | None = None) -> list[SeedFailure]:
    """All differential checks for one subject: the baseline, its
    recording modes, then each of ``variants``. An empty list means the
    subject passed."""
    failures: list[SeedFailure] = []
    base_fingerprint: dict[str, str] | None = None
    for variant in (BASELINE, *variants):
        try:
            outcome, replayed, report = run_variant(subject, variant,
                                                    inject=inject)
            if variant is BASELINE:
                failures.extend(_modes_failures(subject, outcome))
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
