"""The config lattice: implementation variants a subject is run across.

A subject's baseline always runs (see :mod:`.differential`); these run
besides it: all of them under ``quickrec fuzz --matrix``, and
``decode-off``, ``directory`` and ``telemetry-on`` in tier-1.

Variants come in two strengths:

- **bit-identical** variants toggle mechanisms that are documented as
  observationally free — the decode cache, the directory coherence
  fabric, telemetry, embedded checkpoints. A run under any of these must
  produce exactly the baseline's digest (memory image, chunk log, input
  log, outputs, exit codes, cycle and unit counts) and replay to the
  baseline's replay digest. The directory is free
  only while no Bloom signature false-positives on a core whose presence
  bit a remote write cleared (the snooping bus then cuts a chunk the
  directory does not forward); the generated cases have not hit that so
  far.
- **self-verifying** variants change real machine/kernel shape
  (store-buffer depth and drain cadence, scheduler quantum), so they
  legitimately execute a different interleaving. For those the oracle is
  the recorder's own contract: record → replay → verify must pass.

Every variant's recording is additionally round-tripped through
``Recording`` save/load, from the packed and from the compact chunk log,
by the differential runner.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..config import SimConfig


@dataclass(frozen=True)
class Variant:
    """One point of the lattice. ``None`` overrides keep the case's value."""

    name: str
    decode_cache: bool = True
    #: Coherence fabric override (``"directory"`` swaps the snooping bus
    #: for the exact-sharer directory; None keeps the case's fabric).
    #: Directory runs are bit-identical while no signature aliases a line
    #: on a core outside its presence set (see the module docstring).
    coherence: str | None = None
    #: Record and replay with a :class:`~repro.telemetry.Telemetry` (the
    #: soak's sampling period, 64) instead of none.
    telemetry: bool = False
    store_buffer_entries: int | None = None
    store_buffer_drain: int | None = None
    quantum: int | None = None
    #: Embed a replay-state checkpoint every K chunk positions after
    #: recording (0 = off) and replay through the checkpoint-interval
    #: path, restoring every checkpoint and verifying every seam.
    #: Checkpoints are built post-hoc from the logs, so the recorded
    #: outcome itself stays bit-identical to the baseline's.
    checkpoint_every: int = 0
    #: Must this variant's outcome digest equal the baseline's?
    bit_identical: bool = True

    def apply(self, config: SimConfig) -> SimConfig:
        """The case config with this variant's overrides folded in."""
        machine = config.machine
        if (self.store_buffer_entries is not None
                or self.store_buffer_drain is not None):
            store_buffer = machine.store_buffer
            if self.store_buffer_entries is not None:
                store_buffer = dataclasses.replace(
                    store_buffer, entries=self.store_buffer_entries)
            if self.store_buffer_drain is not None:
                store_buffer = dataclasses.replace(
                    store_buffer, drain_period=self.store_buffer_drain)
            machine = dataclasses.replace(machine, store_buffer=store_buffer)
        if self.coherence is not None:
            machine = dataclasses.replace(machine, coherence=self.coherence)
        kernel = config.kernel
        if self.quantum is not None:
            kernel = dataclasses.replace(
                kernel, quantum_instructions=self.quantum)
        return dataclasses.replace(config, machine=machine, kernel=kernel)


BASELINE = Variant("baseline")

#: The fixed lattice a ``--matrix`` campaign runs besides the baseline.
MATRIX_VARIANTS: tuple[Variant, ...] = (
    Variant("decode-off", decode_cache=False),
    Variant("directory", coherence="directory"),
    Variant("directory-checkpointed", coherence="directory",
            checkpoint_every=8),
    Variant("telemetry-on", telemetry=True),
    Variant("checkpointed", checkpoint_every=8),
    Variant("sb-shallow", store_buffer_entries=1, store_buffer_drain=1,
            bit_identical=False),
    Variant("sb-deep", store_buffer_entries=16, store_buffer_drain=33,
            bit_identical=False),
    Variant("quantum-tight", quantum=97, bit_identical=False),
)


def matrix_variants() -> tuple[Variant, ...]:
    return MATRIX_VARIANTS


def variant_by_name(name: str) -> Variant:
    if name == BASELINE.name:
        return BASELINE
    for variant in MATRIX_VARIANTS:
        if variant.name == name:
            return variant
    raise KeyError(f"unknown soak variant {name!r}")
