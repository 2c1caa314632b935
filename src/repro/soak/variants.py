"""The config lattice: implementation variants a seed is run across.

Variants come in two strengths:

- **bit-identical** variants toggle mechanisms that are documented as
  observationally free — the decode cache, presence-based snoop
  filtering, the directory coherence fabric, telemetry, chunk-log
  compression-on-save, the log format version. A run under any of
  these must produce exactly the baseline's digest (memory image, chunk
  log, input log, outputs, exit codes, cycle and unit counts).
- **self-verifying** variants change real machine/kernel shape
  (store-buffer depth and drain cadence, scheduler quantum), so they
  legitimately execute a different interleaving. For those the oracle is
  the recorder's own contract: record → replay → verify must pass.

Every variant's recording is additionally round-tripped through
``Recording`` save/load and ``compress_chunks``/``decompress_chunks`` by
the differential runner.
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
    snoop_filter: bool = True
    #: Coherence fabric override (``"directory"`` swaps the snooping bus
    #: for the exact-sharer directory; None keeps the case's fabric).
    #: Documented observationally free — directory runs are bit-identical.
    coherence: str | None = None
    telemetry: bool | None = None
    compress_chunk_log: bool | None = None
    store_buffer_entries: int | None = None
    store_buffer_drain: int | None = None
    quantum: int | None = None
    #: Embed a replay-state checkpoint every K chunk positions after
    #: recording (0 = off) and replay through the checkpoint-interval
    #: path, restoring every checkpoint and verifying every seam.
    #: Checkpoints are built post-hoc from the logs, so the recorded
    #: outcome itself stays bit-identical to the baseline's.
    checkpoint_every: int = 0
    #: Serialize the recording bundle with this input/chunk log format
    #: version (None keeps the case's). Serialization happens at save
    #: time, so the outcome is fully bit-identical; the save/load
    #: round-trip is what exercises the codec.
    log_version: int | None = None
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
        capo = config.capo
        if self.compress_chunk_log is not None:
            capo = dataclasses.replace(
                capo, compress_chunk_log=self.compress_chunk_log)
        if self.log_version is not None:
            capo = dataclasses.replace(capo,
                                       input_log_version=self.log_version,
                                       chunk_log_version=self.log_version)
        telemetry = config.telemetry
        if self.telemetry is not None:
            telemetry = dataclasses.replace(telemetry, enabled=self.telemetry)
        return dataclasses.replace(config, machine=machine, kernel=kernel,
                                   capo=capo, telemetry=telemetry)


BASELINE = Variant("baseline")

#: The fixed lattice a ``--matrix`` campaign runs besides the baseline.
MATRIX_VARIANTS: tuple[Variant, ...] = (
    Variant("decode-off", decode_cache=False),
    Variant("snoop-filter-off", snoop_filter=False),
    Variant("directory", coherence="directory"),
    Variant("directory-checkpointed", coherence="directory",
            checkpoint_every=8),
    Variant("telemetry-on", telemetry=True),
    Variant("zlib-off", compress_chunk_log=False),
    Variant("checkpointed", checkpoint_every=8),
    Variant("log-v2", log_version=2),
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
