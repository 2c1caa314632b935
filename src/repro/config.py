"""Configuration objects for every subsystem.

All configs are frozen dataclasses: a configuration is a value, shared freely
between the machine, the recorder, and the replayer. The replayer must run
with the *same* machine/MRR configuration that produced a recording; the
configs are therefore serializable to/from plain dicts so they can be stored
inside a recording bundle.

The defaults model the QuickRec prototype at small scale: a 4-core QuickIA
machine (two FPGA-emulated Pentium cores per socket), per-core L1 caches kept
coherent with MESI over a snooping bus, TSO store buffers, and the MRR
recording hardware with 512-bit Bloom signatures.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any

from .errors import ConfigError


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of a per-core L1 data cache.

    The cache is used for two things: MESI coherence (which provides the
    snoop hook the MRR keys off) and miss accounting for the cycle model.
    """

    line_bytes: int = 64
    sets: int = 64
    ways: int = 4

    def __post_init__(self) -> None:
        _require(_is_pow2(self.line_bytes), "line_bytes must be a power of two")
        _require(_is_pow2(self.sets), "sets must be a power of two")
        _require(self.ways >= 1, "ways must be >= 1")

    @property
    def size_bytes(self) -> int:
        return self.line_bytes * self.sets * self.ways

    def line_of(self, addr: int) -> int:
        """Cache-line address (line-aligned byte address) containing addr."""
        return addr & ~(self.line_bytes - 1)

    def set_index(self, line_addr: int) -> int:
        return (line_addr // self.line_bytes) % self.sets


@dataclass(frozen=True)
class StoreBufferConfig:
    """TSO store buffer shape and drain behaviour.

    ``drain_period`` is the number of simulation steps between background
    drain opportunities; together with ``drain_burst`` it controls how long
    stores linger, which is the source of the RSW phenomenon QuickRec logs.
    A period of 1 with a large burst approximates a machine that drains
    eagerly (RSW almost always zero).
    """

    entries: int = 8
    drain_period: int = 3
    drain_burst: int = 1

    def __post_init__(self) -> None:
        _require(self.entries >= 1, "store buffer needs at least one entry")
        _require(self.drain_period >= 1, "drain_period must be >= 1")
        _require(self.drain_burst >= 1, "drain_burst must be >= 1")


#: Coherence fabrics the machine can be built with. ``snoop`` is the
#: reference broadcast bus; ``directory`` tracks exact per-line sharer
#: sets and notifies only them — bit-identical by construction (pinned by
#: the lockstep suite and the soak lattice), O(sharers) per transaction.
COHERENCE_SNOOP = "snoop"
COHERENCE_DIRECTORY = "directory"
COHERENCE_MODELS = (COHERENCE_SNOOP, COHERENCE_DIRECTORY)


@dataclass(frozen=True)
class MachineConfig:
    """The simulated QuickIA machine."""

    num_cores: int = 4
    memory_bytes: int = 1 << 22
    cache: CacheConfig = field(default_factory=CacheConfig)
    store_buffer: StoreBufferConfig = field(default_factory=StoreBufferConfig)
    word_bytes: int = 4
    coherence: str = COHERENCE_SNOOP

    def __post_init__(self) -> None:
        _require(1 <= self.num_cores <= 64, "num_cores must be in [1, 64]")
        _require(self.memory_bytes % self.cache.line_bytes == 0,
                 "memory size must be a whole number of cache lines")
        _require(self.word_bytes in (4, 8), "word_bytes must be 4 or 8")
        _require(self.coherence in COHERENCE_MODELS,
                 f"coherence must be one of {COHERENCE_MODELS}")

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "MachineConfig":
        data = dict(data)
        data["cache"] = CacheConfig(**data.get("cache", {}))
        data["store_buffer"] = StoreBufferConfig(**data.get("store_buffer", {}))
        return cls(**data)


class TsoMode:
    """How the MRR copes with stores pending at chunk termination.

    ``RSW``   — log the reordered-store-window count (the QuickRec design).
    ``DRAIN`` — stall chunk termination until the store buffer drains
                (the strawman QuickRec avoids; used by the A3 ablation).
    """

    RSW = "rsw"
    DRAIN = "drain"

    ALL = (RSW, DRAIN)


@dataclass(frozen=True)
class MRRConfig:
    """The Memory Race Recorder hardware block, one instance per core."""

    signature_bits: int = 512
    signature_hashes: int = 2
    max_chunk_instructions: int = 64 * 1024
    cbuf_entries: int = 256
    tso_mode: str = TsoMode.RSW
    # Proactively cut a chunk when a signature passes this fill fraction
    # (keeps the Bloom false-positive rate bounded). 1.0 disables.
    saturation_threshold: float = 0.75
    # Debug aid: log a rolling hash of load values per chunk so the
    # replayer can pinpoint the first diverging chunk.
    log_load_hash: bool = False

    def __post_init__(self) -> None:
        _require(_is_pow2(self.signature_bits), "signature_bits must be a power of two")
        _require(1 <= self.signature_hashes <= 8, "signature_hashes must be in [1, 8]")
        _require(self.max_chunk_instructions >= 1, "max_chunk_instructions must be >= 1")
        _require(self.cbuf_entries >= 2, "cbuf_entries must be >= 2")
        _require(self.tso_mode in TsoMode.ALL, f"unknown tso_mode {self.tso_mode!r}")
        _require(0.0 < self.saturation_threshold <= 1.0,
                 "saturation_threshold must be in (0, 1]")

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "MRRConfig":
        return cls(**data)


@dataclass(frozen=True)
class KernelConfig:
    """The miniature OS model (the substrate Capo3 runs in)."""

    quantum_instructions: int = 5_000
    stack_bytes_per_thread: int = 16 * 1024
    max_threads: int = 64
    timeslice_jitter: int = 0

    def __post_init__(self) -> None:
        _require(self.quantum_instructions >= 10, "quantum too small to schedule")
        _require(self.stack_bytes_per_thread >= 256, "stack too small")
        _require(self.max_threads >= 1, "need at least one thread")
        _require(self.timeslice_jitter >= 0, "jitter must be >= 0")

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "KernelConfig":
        return cls(**data)


#: Log format versions a bundle may select (``decode`` negotiates by the
#: stream header, so every reader accepts both).
LOG_VERSIONS = (1, 2)


@dataclass(frozen=True)
class CapoConfig:
    """The Capo3 software stack (Replay Sphere Manager) behaviour.

    ``input_log_version`` / ``chunk_log_version`` pick the serialization
    format a bundle is *written* in (1 = row-packed, 2 = columnar
    delta-varint with streaming zlib); loading negotiates from the stream
    headers, so either setting reads both.

    ``flight_window`` > 0 selects the bounded-memory flight-recorder mode
    (iReplayer-style black box): only the last ``flight_window`` epochs of
    ``flight_epoch_chunks`` chunks each are retained in a ring, older
    epochs are discarded in O(1), and the retained window materializes as
    a self-contained recording rebased to the window origin. 0 keeps the
    unbounded log. Execution is bit-identical either way — the ring is an
    observer, never a participant.
    """

    compress_chunk_log: bool = True
    log_copy_to_user: bool = True
    drain_on_context_switch: bool = True
    input_log_version: int = 1
    chunk_log_version: int = 1
    flight_window: int = 0
    flight_epoch_chunks: int = 64

    def __post_init__(self) -> None:
        _require(self.flight_window >= 0,
                 "flight_window must be >= 0 (0 disables the flight ring)")
        _require(self.flight_epoch_chunks >= 1,
                 "flight_epoch_chunks must be >= 1")
        _require(self.input_log_version in LOG_VERSIONS,
                 f"input_log_version must be one of {LOG_VERSIONS}")
        _require(self.chunk_log_version in LOG_VERSIONS,
                 f"chunk_log_version must be one of {LOG_VERSIONS}")

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CapoConfig":
        return cls(**data)


@dataclass(frozen=True)
class TelemetryConfig:
    """Observability opt-in (see :mod:`repro.telemetry`).

    Telemetry is strictly observational: enabling it never changes the
    executed instructions, the interleaving, the logs or the cycle
    accounting — only whether trace events and metrics are collected.
    ``sampling`` thins the per-step machine events (1 = every step); the
    coarse events (chunks, syscalls, CBUF drains) are never sampled.
    """

    enabled: bool = False
    sampling: int = 64

    def __post_init__(self) -> None:
        _require(self.sampling >= 1, "sampling must be >= 1")

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TelemetryConfig":
        return cls(**data)


@dataclass(frozen=True)
class SimConfig:
    """Everything needed to build a recordable machine, in one value."""

    machine: MachineConfig = field(default_factory=MachineConfig)
    mrr: MRRConfig = field(default_factory=MRRConfig)
    kernel: KernelConfig = field(default_factory=KernelConfig)
    capo: CapoConfig = field(default_factory=CapoConfig)
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)

    def to_dict(self) -> dict[str, Any]:
        return {
            "machine": self.machine.to_dict(),
            "mrr": self.mrr.to_dict(),
            "kernel": self.kernel.to_dict(),
            "capo": self.capo.to_dict(),
            "telemetry": self.telemetry.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SimConfig":
        return cls(
            machine=MachineConfig.from_dict(data["machine"]),
            mrr=MRRConfig.from_dict(data["mrr"]),
            kernel=KernelConfig.from_dict(data["kernel"]),
            capo=CapoConfig.from_dict(data["capo"]),
            # absent in bundles recorded before the telemetry subsystem
            telemetry=TelemetryConfig.from_dict(data.get("telemetry", {})),
        )


DEFAULT_CONFIG = SimConfig()
